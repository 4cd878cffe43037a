"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
META = json.loads((HERE / "metrics.json").read_text())
COUNTERS = (
    "attempted",
    "failed",
    "ops_per_pass",
    "failed_per_pass",
    "mc_samples",
    "probe_evaluations",
    "fail_probe_evaluations",
    "traced_evaluations",
    "traced_density_quantile_calls",
)


def tiny_run(name: str, trace: bool, seed: int = 3) -> dict:
    return run.run_workload(name, seed, 0.0, trace, tiny=True, max_passes=1, setup=(0.5, 0.5))


@pytest.fixture(scope="module")
def traced_tables():
    return tiny_run("paper_tables", trace=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_result_has_every_end_to_end_metric(name):
    result = tiny_run(name, trace=False)
    line = run.final_line([result], trace=False)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in BENCHMARK["end_to_end"]:
        entry = line["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for key in ("failed_share", "tol_unmet_share", "worst_gap"):
        assert key in result["report"]
    if name == "paper_tables":
        assert {"tables_s", "verify_s"} <= set(result["report"])


def test_traced_result_has_every_per_layer_metric(traced_tables):
    line = run.final_line([traced_tables], trace=True)
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    for layer in ("cli", "verify", "bounds", "evt", "measures", "numerics", "distributions", "special"):
        assert line["metrics"][f"trace.self_s.{layer}"]["value"] > 0
    assert traced_tables["counters"]["fail_probe_evaluations"] > 0


def test_tracer_restores_every_entry_point(traced_tables):
    from extremal_info import cli, distributions, measures, numerics, special

    for fn in (
        cli.main,
        distributions.density_quantile,
        measures.harmonic,
        measures.shannon_max,
        numerics.integrate_unit,
        special.harmonic,
    ):
        assert not hasattr(fn, "__wrapped__")


def test_counters_repeat_exactly(traced_tables):
    again = tiny_run("paper_tables", trace=True)
    for key in COUNTERS:
        assert again["counters"][key] == traced_tables["counters"][key], key
    assert traced_tables["counters"]["traced_density_quantile_calls"] > 0
    assert traced_tables["counters"]["probe_evaluations"] > 0


def test_mc_counters_repeat_exactly():
    first, second = (tiny_run("mc_bulk", trace=False) for _ in range(2))
    assert first["counters"] == second["counters"]
    assert first["counters"]["mc_samples"] > 0


def test_seed_drives_mc_and_verify_seeds():
    same = workloads.op_seeds(5, 4)
    assert same == workloads.op_seeds(5, 4)
    assert same != workloads.op_seeds(6, 4)


def test_golden_mismatch_is_a_failed_op():
    check = workloads._golden_check("expected\n", "tables")
    assert check((0, "expected\n"), None).failed is False
    assert check((0, "other\n"), None).failed is True
    assert check((2, "expected\n"), None).failed is True


def test_quadrature_verdicts():
    ok = workloads._quad_outcome(1.0 + 1e-12, 1e-11, 1.0, "x")
    assert not ok.failed and not ok.tol_unmet and ok.gap == pytest.approx(1e-12)
    loose = workloads._quad_outcome(1.0 + 1e-9, 4e-9, 1.0, "x")
    assert not loose.failed and loose.tol_unmet
    dishonest = workloads._quad_outcome(1.0 + 3e-11, 4e-13, 1.0, "x")
    assert dishonest.failed
    assert workloads._quad_outcome(1.0 + 2e-8, 1.0, 1.0, "x").failed


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(48) == 75.0
    assert run.tail_percentile(152) == 90.0
    assert run.tail_percentile(1268) == 99.0


def test_metric_names_follow_the_contract():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert set(META["per_layer_moves"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(workloads.WORKLOADS)
    assert set(META["workloads"]) == set(workloads.WORKLOADS)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
