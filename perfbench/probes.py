"""Per-layer probes: direct, untraced calls into one layer's public functions.

Each probe times a fixed batch of calls and reports the median over a few
repeats.  Inputs are fixed, so the counts these probes return (integrand
evaluations) repeat exactly from run to run.
"""

from __future__ import annotations

import io
import math
import statistics
from time import perf_counter

import numpy as np

from extremal_info import bounds, canonical, cli, distributions, evt, measures, numerics, special

QUAD_TOL = 1e-10
# quad_frontier has two budget exhaustions (gev xi=-1.9 J at n=1, exp H at
# n=10^6); the failure probe repeats the cheaper one.
FAIL_PROBE = (distributions.gev(-1.9), 1)


def _time(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _median_time(fn, repeats: int) -> float:
    return statistics.median(_time(fn) for _ in range(repeats))


def _per_call(fn, calls: int, repeats: int) -> float:
    """Median seconds per call of ``fn`` over ``repeats`` batches of ``calls``."""

    def batch():
        for _ in range(calls):
            fn()

    return _median_time(batch, repeats) / calls


def shannon_integrand(dist, n):
    def f(y):
        return n * y ** (n - 1) * math.log(distributions.density_quantile(dist, y))

    return f


def extropy_integrand(dist, n):
    half_n2 = 0.5 * n * n

    def f(t):
        return -half_n2 * t ** (2 * n - 2) * distributions.density_quantile(dist, t)

    return f


def table_integrals(tiny: bool):
    """The integrands behind ``tables``: H and J for every catalog member x TABLE_N."""
    members = canonical.catalog_members()
    cells = [(m, n) for m in members for n in canonical.TABLE_N]
    if tiny:
        cells = cells[::50]
    for m, n in cells:
        yield shannon_integrand(m, n)
        yield extropy_integrand(m, n)


def run_probes(tiny: bool = False) -> tuple[dict[str, tuple[float, str]], dict[str, int]]:
    """All per-layer probe metrics as ``{name: (value, unit)}``, plus counters."""
    reps = 3 if tiny else 7
    scale = 10 if tiny else 1
    members = canonical.catalog_members()
    reps6 = canonical.mc_representatives()
    m: dict[str, tuple[float, str]] = {}
    counters: dict[str, int] = {}

    # special
    for label, n, calls in (("n10", 10, 2000), ("n1e4", 10_000, 40), ("n1e6", 1_000_000, 2000)):
        m[f"special.harmonic_us.{label}"] = (
            _per_call(lambda n=n: special.harmonic(n), max(1, calls // scale), reps) * 1e6,
            "us",
        )
    m["special.half_geometric_sum_us.n1100"] = (
        _per_call(lambda: special.half_geometric_sum(1100), 200 // scale, reps) * 1e6,
        "us",
    )

    # distributions
    ts = [(k + 0.5) / 1000.0 for k in range(1000)]

    def scalar_sweep():
        for member in members:
            for t in ts[:: 10 * scale]:
                distributions.density_quantile(member, t)

    per_sweep = len(members) * len(ts[:: 10 * scale])
    m["distributions.density_quantile.scalar_us"] = (
        _median_time(scalar_sweep, reps) / per_sweep * 1e6,
        "us",
    )
    size = 1_000_000 // (100 if tiny else 1)
    rng = np.random.default_rng(12345)
    t_vec = np.clip(rng.random(size), 1e-12, 1.0 - 1e-12)
    for name in ("density_quantile", "quantile", "log_pdf", "cdf"):
        fn = getattr(distributions, name)
        if name in ("log_pdf", "cdf"):
            inputs = [(member, distributions.quantile(member, t_vec)) for member in reps6]
        else:
            inputs = [(member, t_vec) for member in reps6]

        def vec_sweep(fn=fn, inputs=inputs):
            for member, x in inputs:
                fn(member, x)

        m[f"distributions.{name}.vec_ns_per_elem"] = (
            _median_time(vec_sweep, 3) / (len(reps6) * size) * 1e9,
            "ns/elem",
        )
    gev_half = distributions.gev(0.5)
    m["distributions.sup_density_us.gev"] = (
        _per_call(lambda: distributions.sup_density(gev_half), 40 // scale, reps) * 1e6,
        "us",
    )

    # numerics: the table integrals, then one budget exhaustion
    evals = []

    def integrate_tables():
        evals.extend(numerics.integrate_unit(f, abs_tol=QUAD_TOL).evaluations for f in table_integrals(tiny))

    quad_s = _time(integrate_tables)
    m["numerics.integrate_unit.evals_per_integral.median"] = (statistics.median(evals), "count")
    m["numerics.integrate_unit.evals_per_integral.max"] = (max(evals), "count")
    m["numerics.integrate_unit.us_per_integral"] = (quad_s / len(evals) * 1e6, "us")
    m["numerics.integrate_unit.us_per_eval"] = (quad_s / sum(evals) * 1e6, "us")
    counters["probe_integrals"] = len(evals)
    counters["probe_evaluations"] = sum(evals)

    if tiny:
        # 1/t is not integrable at 0: the tail check fails fast.
        failing = lambda t: 1.0 / t  # noqa: E731
    else:
        failing = extropy_integrand(*FAIL_PROBE)
    fail_evals = -1  # stays -1 if the probe does not fail as it should

    def fail():
        nonlocal fail_evals
        try:
            numerics.integrate_unit(failing, abs_tol=QUAD_TOL)
        except numerics.QuadratureError as exc:
            fail_evals = exc.best.evaluations if exc.best is not None else -1

    m["numerics.integrate_unit.s_to_fail"] = (_time(fail), "s")
    m["numerics.integrate_unit.evals_to_fail"] = (fail_evals, "count")
    counters["fail_probe_evaluations"] = fail_evals

    mc_samples = 100_000 // scale
    exp1 = distributions.exponential(1.0)
    m["numerics.mc.ns_per_sample"] = (
        _median_time(lambda: numerics.mc_entropy_max(exp1, 50, samples=mc_samples, seed=1), reps)
        / mc_samples
        * 1e9,
        "ns/sample",
    )

    # measures: per (H, J) pair, averaged over the members named
    for label, n in (("n1", 1), ("n50", 50), ("n1e4", 10_000), ("n1e6", 1_000_000)):
        def closed_pair(n=n):
            for member in members:
                measures.shannon_max(member, n)
                measures.extropy_max(member, n)

        m[f"measures.closed_us.{label}"] = (_median_time(closed_pair, reps) / len(members) * 1e6, "us")
    # uniform and power_function J exhaust the evaluation budget at n >= 10^4,
    # so the quadrature probe keeps to the Gumbel and Frechet representatives.
    quad_members = [d for d in reps6 if evt.mda_classify(d)[0] != "reversed_weibull"]
    for label, n in (("n1", 1), ("n50", 50), ("n1e4", 10_000), ("n1e5", 100_000)):
        def quad_pair(n=n):
            for member in quad_members:
                measures.shannon_max(member, n, "quadrature", quad_tol=QUAD_TOL)
                measures.extropy_max(member, n, "quadrature", quad_tol=QUAD_TOL)

        m[f"measures.quad_ms.{label}"] = (
            _median_time(quad_pair, 3) / len(quad_members) * 1e3,
            "ms",
        )
    for label, n in (("n1", 1), ("n1e6", 1_000_000)):
        def mc_pair(n=n):
            for member in reps6:
                measures.shannon_max(member, n, "mc", samples=mc_samples, seed=7)
                measures.extropy_max(member, n, "mc", samples=mc_samples, seed=7)

        m[f"measures.mc_ms.{label}"] = (_median_time(mc_pair, 3) / len(reps6) * 1e3, "ms")

    # bounds and evt, averaged over the catalog at n = 50
    def each_member(fn):
        def sweep():
            for member in members:
                fn(member)

        return _median_time(sweep, reps) / len(members) * 1e6

    m["bounds.shannon_bounds_us"] = (each_member(lambda d: bounds.shannon_bounds(d, 50)), "us")
    m["bounds.extropy_bounds_us"] = (each_member(lambda d: bounds.extropy_bounds(d, 50)), "us")
    m["evt.norming_constants_us"] = (each_member(lambda d: evt.norming_constants(d, 50)), "us")
    grid = range(2, 2002 if not tiny else 202)
    m["evt.convergence_study_us_per_n"] = (
        _median_time(lambda: evt.convergence_study(exp1, grid), 3) / len(grid) * 1e6,
        "us",
    )

    # cli: parsing plus rendering around a closed-form measure
    argv = ["measure", "--dist", '{"family": "exponential", "theta": 1.0}', "--n", "10", "--method", "closed"]

    def measure_cli():
        cli.main(argv, out=io.StringIO(), err=io.StringIO())

    m["cli.measure_overhead_ms"] = (_per_call(measure_cli, 50 // scale, reps) * 1e3, "ms")
    return m, counters
