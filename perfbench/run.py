#!/usr/bin/env python3
"""Benchmark of extremal_info: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see ``workloads.py`` for the ops and their checks):

- ``paper_tables``   the paper's table reproduction through the CLI;
- ``closed_large_n`` closed forms, bounds and norming out to n = 10^6;
- ``mc_bulk``        Monte Carlo on 10^6-sample arrays;
- ``quad_frontier``  quadrature at large n and gev xi < -1, where the
  current kernel fails; it runs for minutes and carries known failures.

``BENCHMARK.json`` gates the first two; ``perfbench/metrics.json`` says why
the other two are left out.

Each run measures ``setup_s`` in fresh interpreters first, then repeats
whole passes of the workload, untraced, until ``--seconds`` have passed.
With ``--trace 1`` it runs one untraced pass, one traced pass and the
per-layer probes instead.

Timing.  Each op's wall time is calibrated by a speed gauge (``gauge.py``)
that times the workload's reference task between ops, and each op counts
with its median calibrated time over the passes.  ``ops_per_s`` is ops
per pass over the summed op times (checks excluded); ``op_p50_ms`` and
``op_tail_ms`` are percentiles of the op times, the tail being the highest
percentile with at least ten ops of one pass beyond it.  ``setup_s`` is calibrated by the interpreter-loop task.
The uncalibrated values are reported alongside, with a ``.raw`` suffix.
It prints a report, writes ``perfbench/out/<workload>-seed<seed>-trace<t>.json``
(with provenance), and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from gauge import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5
SETUP_CODE = "import extremal_info as e; e.shannon_max(e.exponential(1.0), 10)"
# Tail percentile: the highest of these with at least ten ops of one pass beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def measure_setup(runs: int = SETUP_RUNS) -> tuple[float, float]:
    """Median (calibrated, raw) wall time of a fresh interpreter importing
    the package and making its first closed-form call."""
    gauge = SpeedGauge("python_floats")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    calibrated, raw = [], []
    for _ in range(runs):
        gauge.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True)
        t1 = perf_counter()
        gauge.sample()
        calibrated.append(gauge.calibrate(t0, t1))
        raw.append(t1 - t0)
    return statistics.median(calibrated), statistics.median(raw)


def tail_percentile(ops_per_pass: int) -> float:
    for p in TAIL_LADDER:
        if ops_per_pass * (100.0 - p) / 100.0 >= 10.0:
            return p
    return 50.0


class Tally:
    """Op times and verdicts of the passes run."""

    def __init__(self, workload):
        self.workload = workload
        self.gauge = SpeedGauge(workload.reference)
        self.raw: list[list[float]] = [[] for _ in workload.ops]  # per op, per pass
        self.calibrated: list[list[float]] = [[] for _ in workload.ops]
        self.attempted = self.failed = self.quad_ops = self.tol_unmet = 0
        self.worst_gap: float | None = None
        self.failures: list[str] = []

    def run_pass(self) -> float:
        """Run every op once; return the calibrated seconds spent in the program."""
        spans = []
        for op in self.workload.ops:
            self.gauge.maybe_sample()
            result, exc = None, None
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as e:  # the verdict decides whether raising is a failure
                exc = e
            spans.append((t0, perf_counter()))
            self.record(op.check(result, exc))
        self.gauge.sample()
        for raw, calibrated, (t0, t1) in zip(self.raw, self.calibrated, spans):
            raw.append(t1 - t0)
            calibrated.append(self.gauge.calibrate(t0, t1))
        return sum(times[-1] for times in self.calibrated)

    def record(self, outcome) -> None:
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(outcome.detail)
        if outcome.quad:
            self.quad_ops += 1
            self.tol_unmet += outcome.tol_unmet
            if outcome.gap is not None:
                self.worst_gap = outcome.gap if self.worst_gap is None else max(self.worst_gap, outcome.gap)

    def per_op(self, calibrated: bool = True) -> list[float]:
        """Each op's median time over the passes."""
        return [statistics.median(times) for times in (self.calibrated if calibrated else self.raw)]


def _timing(per_op: list[float], tail_p: float, suffix: str = "") -> dict:
    arr = np.array(per_op)
    return {
        "ops_per_s" + suffix: (len(per_op) / arr.sum(), "1/s"),
        "op_p50_ms" + suffix: (float(np.percentile(arr, 50.0)) * 1e3, "ms"),
        "op_tail_ms" + suffix: (float(np.percentile(arr, tail_p)) * 1e3, "ms"),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    max_passes: int | None = None,
    setup: tuple[float, float] | None = None,
) -> dict:
    """Run one workload and return its result record (nothing is written).

    ``setup`` reuses a (calibrated, raw) set-up time measured earlier in the
    same process.
    """
    import probes
    import workloads
    from tracing import LAYERS, Tracer

    setup_s, setup_raw = measure_setup() if setup is None else setup
    workload = workloads.BUILDERS[name](seed, tiny=tiny)
    per_pass = len(workload.ops)
    for op in workload.warmup:
        op.call()

    # A traced run needs one untraced pass to compare against; its time goes
    # to the traced pass and the probes instead.
    if trace:
        max_passes = 1
    tally = Tally(workload)
    pass_busy = []
    deadline = perf_counter() + seconds
    while True:
        pass_busy.append(tally.run_pass())
        if perf_counter() >= deadline or (max_passes is not None and len(pass_busy) >= max_passes):
            break
    passes = len(pass_busy)

    tail_p = tail_percentile(per_pass)
    e2e = {
        "setup_s": (setup_s, "s"),
        **_timing(tally.per_op(), tail_p),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = {
        "failed_share": (tally.failed / tally.attempted, "ratio"),
        "tol_unmet_share": (tally.tol_unmet / tally.quad_ops if tally.quad_ops else None, "ratio"),
        "worst_gap": (tally.worst_gap, "abs"),
    }
    for op, t in zip(workload.ops, tally.per_op()):
        if op.kind in ("tables", "verify"):
            report[f"{op.kind}_s"] = (t, "s")
    report["setup_s.raw"] = (setup_raw, "s")
    report.update(_timing(tally.per_op(calibrated=False), tail_p, ".raw"))
    report[f"gauge.{workload.reference}_ms"] = (statistics.median(tally.gauge.durations) * 1e3, "ms")

    counters = {
        "passes": passes,
        "ops_per_pass": per_pass,
        "failed_per_pass": tally.failed // passes,
        "quad_ops_per_pass": tally.quad_ops // passes,
        "tol_unmet_per_pass": tally.tol_unmet // passes,
        "mc_samples_per_pass": workload.mc_samples_per_pass,
    }
    percentile = {"samples": per_pass, "passes": passes}
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "percentiles": {
            "op_p50_ms": {"p": 50.0, **percentile},
            "op_tail_ms": {"p": tail_p, "beyond": int(per_pass * (100 - tail_p) / 100), **percentile},
        },
        "end_to_end": e2e,
        "report": report,
        "counters": counters,
    }

    if trace:
        with Tracer() as tracer:
            with tracer.span("bench.pass"):
                traced_busy = tally.run_pass()
            dq_calls = tracer.leaf_calls("distributions.density_quantile")
            pass_evals = tracer.evaluations
            # One verify run, so every layer shows up on every workload.
            with tracer.span("bench.coverage"):
                workloads.run_cli(["verify", "--seed", str(workloads.op_seeds(seed, 1)[0])])
        self_s = tracer.self_times()
        per_layer, probe_counters = probes.run_probes(tiny=tiny)
        for layer in (*LAYERS, "bench"):
            per_layer[f"trace.self_s.{layer}"] = (self_s[layer], "s")
        overhead = traced_busy - pass_busy[0]
        per_layer["trace.overhead_s"] = (overhead, "s")
        per_layer["trace.overhead_share"] = (overhead / pass_busy[0], "ratio")
        per_layer["trace.density_quantile_calls"] = (dq_calls, "count")
        per_layer["trace.spans"] = (len(tracer.spans), "count")
        counters.update(probe_counters)
        counters["traced_density_quantile_calls"] = dq_calls
        counters["traced_evaluations"] = pass_evals
        result["per_layer"] = per_layer
        result["tracer"] = tracer

    counters["attempted"] = tally.attempted
    counters["failed"] = tally.failed
    counters["mc_samples"] = workload.mc_samples_per_pass * (passes + int(trace))
    result["failures"] = tally.failures
    return result


# ---------------------------------------------------------------------------
# Provenance, report and output
# ---------------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(result: dict) -> None:
    c = result["counters"]
    pct = result["percentiles"]["op_tail_ms"]
    print(
        f"workload {result['workload']}  seed {result['seed']}  passes {c['passes']}  "
        f"ops {c['attempted']} ({c['ops_per_pass']}/pass)  failed {c['failed']}"
    )
    each = f"median of {pct['passes']} passes each"
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        "ops_per_s": f"{pct['samples']} ops, {each}",
        "op_p50_ms": f"p50 of {pct['samples']} ops, {each}",
        "op_tail_ms": f"p{pct['p']:g} of {pct['samples']} ops, {pct['beyond']} beyond, {each}",
    }
    for section in ("end_to_end", "report", "per_layer"):
        for name, (value, unit) in result.get(section, {}).items():
            note = notes.get(name, "")
            print(f"  {name:<52} {_fmt(value):>14} {unit:<10} {note}".rstrip())
    for detail in result["failures"]:
        print(f"  FAILED {detail}")


def to_record(result: dict) -> dict:
    record = {k: v for k, v in result.items() if k != "tracer"}
    for section in ("end_to_end", "report", "per_layer"):
        if section in record:
            record[section] = {k: {"value": v, "unit": u} for k, (v, u) in record[section].items()}
    return record


def write_outputs(result: dict, prov: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    record = {"provenance": prov, **to_record(result)}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if "tracer" in result:
        result["tracer"].write_spans(OUT / f"{stem}-spans.csv.gz")


def final_line(results: list[dict], trace: bool) -> dict:
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name, (value, unit) in r[section].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    attempted = sum(r["counters"]["attempted"] for r in results)
    failed = sum(r["counters"]["failed"] for r in results)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "extremal_info" / "__init__.py").is_file():
        print(f"error: no extremal_info sources under {SRC.name}/ next to {HERE.name}/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import extremal_info

    if Path(extremal_info.__file__).resolve().parent != SRC / "extremal_info":
        print("error: extremal_info was not imported from this checkout", file=sys.stderr)
        return 2

    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [n for n in names if n not in workloads.BUILDERS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of {workloads.WORKLOADS} or 'all'", file=sys.stderr)
        return 2

    prov = provenance()
    setup = measure_setup()
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), setup=setup)
        write_outputs(result, prov)
        print_report(result)
        results.append(result)
    print(json.dumps(final_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
