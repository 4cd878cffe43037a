"""Tests for the command-line interface.

Commands are driven in-process through ``main(argv, out, err)`` so exit
codes, streams, and determinism can be asserted byte-for-byte; one test
exercises the installed console script end to end.
"""

import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from extremal_info import (
    bounds, canonical, cli, distributions, evt, measures, numerics, special, verify,
)

EXP1 = '{"family":"exponential","theta":1}'

# Reference outputs of the benchmark, read here so that tier-1 pins the
# CLI bytes too.
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, body


# ---------------------------------------------------------------------------
# CSV cells
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("value", "cell"),
    [
        (-0.0, "-0"),
        (0.0, "0"),
        (5e-324, "4.94065645841247e-324"),
        (1e308, "1e+308"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (math.nan, "nan"),
        (np.float64(0.1), "0.1"),
        (np.float64("nan"), "nan"),
        (np.float64("-inf"), "-inf"),
        (distributions.INDETERMINATE, "indeterminate"),
        (True, "true"),
        (7, "7"),
        (None, ""),
        ("x", "x"),
    ],
    ids=repr,
)
def test_csv_cell(value, cell):
    # every cell prints as the extended-real rule of _json_value says
    assert cli._csv_value(value) == cell


# The converge renderer: every float cell is "%.15g" of its value.  Its
# fast path reads a 15-digit significand off one product |x|·10**k, so the
# targeted cells sit where that is hardest: near 15-digit ties
# (m + 1/2)·10**-k and on exact ones, which go to even; near the edges 1e-8
# and 1e15 of the fast range and 1e-4 of the fixed form; and near
# 999999999999999.5·10**e, the tie below a significand that carries to
# 10**15.


def _rendered(values) -> list[str]:
    """Each value as the converge CSV renders a float cell."""
    out = io.StringIO()
    cli._write_csv_rows([np.array(values, dtype=float)], out)
    return out.getvalue().split("\n")[:-1]


def _steps(x: float, count: int) -> float:
    """``x`` moved by ``count`` ulps."""
    for _ in range(abs(count)):
        x = math.nextafter(x, math.copysign(math.inf, count))
    return x


@st.composite
def _near_ties(draw):
    m = draw(st.integers(10**14, 10**15 - 1))
    k = draw(st.integers(14, 22))
    x = float(f"{m}5e-{k + 1}")
    return draw(st.sampled_from((1.0, -1.0))) * _steps(x, draw(st.integers(-2, 2)))


@st.composite
def _exact_ties(draw):
    # an odd multiple of 2**-(j + 1) with 16 significant digits, the last a 5
    j = draw(st.integers(0, 5))
    return (2 * draw(st.integers(10 ** (14 - j), 10 ** (15 - j) - 1)) + 1) / 2 ** (j + 1)


NEAR_EDGES_AND_CARRIES = [
    sign * _steps(x, count)
    for x in (1e-9, 1e-8, 1e-5, 1e-4, 1.0, 1e14, 1e15, 1e16,
              *(float(f"9999999999999995e{e}") for e in range(-24, 1)))
    for count in range(-3, 4)
    for sign in (1.0, -1.0)
]


@given(st.lists(st.floats() | _near_ties() | _exact_ties(), min_size=1, max_size=50))
@example([9.999999999999999, math.nextafter(1e-4, 0.0), -0.0, 0.0, 5e-324, math.inf, math.nan])
@example(NEAR_EDGES_AND_CARRIES)
def test_every_float_cell_is_its_percent_15g(values):
    assert _rendered(values) == ["%.15g" % x for x in values]


# The JSON writer: rows as json.dumps(..., indent=2) writes the objects of
# _json_value's cells, byte for byte.

_JSON_CELLS = (
    st.floats()
    | st.floats(min_value=-2.3e-308, max_value=2.3e-308)  # subnormals and signed zeros
    | st.builds(np.float64, st.floats())
    | st.sampled_from([math.inf, -math.inf, math.nan, distributions.INDETERMINATE, True, False, None])
    | st.integers(min_value=-(2**80), max_value=2**80)  # past int64
    | st.text()
)


@given(
    st.lists(st.text(), unique=True, max_size=6),
    st.lists(st.lists(_JSON_CELLS, max_size=8), max_size=5),
)
@example(
    ["h", 'q"uote', "back\\slash", "é", "\u2028", ""],
    [
        [-0.0, 0.0, 5e-324, -5e-324, math.inf, math.nan],
        [distributions.INDETERMINATE, 2**64, -(2**70), True, None, 'say "x"\\ é ∞'],
    ],
)
@example([], [[], [1.0]])
def test_json_rows_are_json_dumps(header, rows):
    payload = [{key: cli._json_value(value) for key, value in zip(header, row)} for row in rows]
    assert cli._json_rows(header, rows) == json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


class TestMeasure:
    def test_closed_form_row(self):
        code, out, err = run_cli("measure", "--dist", EXP1, "--n", "10")
        assert code == 0 and err == ""
        header, body = parse_csv(out)
        assert header == [
            "family", "params", "n", "H", "J", "method", "error_estimate", "h_error", "j_error",
        ]
        row = body[0]
        assert row[0] == "exponential"
        assert row[1] == "theta=1"
        assert int(row[2]) == 10
        assert float(row[3]) == pytest.approx(1.5263831609742078, abs=1e-12)
        assert float(row[4]) == pytest.approx(-10.0 / 76.0, rel=1e-12)
        assert row[5] == "closed_form"
        assert float(row[6]) == float(row[7]) == float(row[8]) == 0.0

    def test_quadrature_method(self):
        code, out, _ = run_cli("measure", "--dist", EXP1, "--n", "5", "--method", "quad")
        assert code == 0
        _, body = parse_csv(out)
        assert body[0][5] == "quadrature"
        assert 0.0 < float(body[0][6]) < 1e-9
        # error_estimate is the larger of the two per-measure errors
        h_error, j_error = float(body[0][7]), float(body[0][8])
        assert h_error > 0.0 and j_error > 0.0
        assert float(body[0][6]) == max(h_error, j_error)

    def test_monte_carlo_method_is_seeded(self):
        args = ("measure", "--dist", EXP1, "--n", "3", "--method", "mc",
                "--samples", "500", "--seed", "5")
        code1, out1, _ = run_cli(*args)
        code2, out2, _ = run_cli(*args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        _, body = parse_csv(out1)
        assert body[0][5] == "monte_carlo"
        assert float(body[0][6]) > 0.0

    @pytest.mark.parametrize("n", [1, 5, 50, 10**6])
    @pytest.mark.parametrize("member", canonical.mc_representatives(), ids=lambda m: m.label())
    def test_monte_carlo_takes_both_measures_from_one_draw(self, member, n, monkeypatch):
        # H and J with the bits of the two estimators' own draws, and the
        # printed bytes of those values
        draws = []
        log_uniforms = numerics._log_uniforms
        monkeypatch.setattr(numerics, "_log_uniforms", lambda *args: draws.append(args) or log_uniforms(*args))
        spec = json.dumps(distributions.to_dict(member))
        code, out, err = run_cli("measure", "--dist", spec, "--n", str(n), "--method", "mc", "--samples", "2000")
        assert (code, err, len(draws)) == (0, "", 1)
        h = numerics.mc_entropy_max(member, n, samples=2000)
        j = numerics.mc_extropy_max(member, n, samples=2000)
        want = io.StringIO()
        row = [member.family, cli._params_label(member), n, h.estimate, j.estimate, "monte_carlo"]
        cli._emit(
            ["family", "params", "n", "H", "J", "method", "error_estimate", "h_error", "j_error"],
            [[*row, max(h.std_error, j.std_error), h.std_error, j.std_error]],
            "csv",
            want,
        )
        assert out == want.getvalue()

    def test_json_format(self):
        code, out, _ = run_cli("measure", "--dist", EXP1, "--n", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["H"] == pytest.approx(1.0)
        assert payload[0]["J"] == pytest.approx(-0.25)

    def test_nonfinite_values_serialized_as_literals(self):
        power_small = '{"family":"power_function","theta":1,"nu":0.5}'
        code, out, _ = run_cli("measure", "--dist", power_small, "--n", "1")
        assert code == 0
        _, body = parse_csv(out)
        assert body[0][4] == "-inf"
        code, out, _ = run_cli(
            "measure", "--dist", power_small, "--n", "1", "--format", "json"
        )
        assert json.loads(out)[0]["J"] == "-inf"


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


class TestBounds:
    def test_two_rows_with_report_fields(self):
        code, out, _ = run_cli("bounds", "--dist", EXP1, "--n", "1")
        assert code == 0
        header, body = parse_csv(out)
        assert header == [
            "family", "params", "n", "measure", "lower", "value", "upper",
            "lower_holds", "upper_holds", "applicable", "gate_note",
        ]
        assert [row[3] for row in body] == ["shannon", "extropy"]
        shannon, extropy = body
        assert float(shannon[4]) == pytest.approx(0.0)
        assert float(shannon[6]) == pytest.approx(1.0 + math.log(2.0))
        assert shannon[7] == "true" and shannon[8] == "true" and shannon[9] == "true"
        assert float(extropy[4]) == float(extropy[5]) == pytest.approx(-0.25)

    def test_columns_are_the_report_fields(self):
        code, out, _ = run_cli("bounds", "--dist", EXP1, "--n", "3", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        fields = [f.name for f in dataclasses.fields(bounds.BoundsReport)]
        assert all(list(row)[4:] == fields for row in rows)
        member = distributions.exponential(1.0)
        reports = (bounds.shannon_bounds(member, 3), bounds.extropy_bounds(member, 3))
        for row, report in zip(rows, reports):
            assert [row[name] for name in fields] == [getattr(report, name) for name in fields]

    def test_gate_note_surfaces(self):
        code, out, _ = run_cli(
            "bounds", "--dist", '{"family":"exponential","theta":3}', "--n", "1"
        )
        assert code == 0
        _, body = parse_csv(out)
        assert "sup density" in body[0][10]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tables_output():
    code, out, err = run_cli("tables")
    assert code == 0 and err == ""
    return out


class TestTables:
    def test_catalog_coverage(self, tables_output):
        header, body = parse_csv(tables_output)
        assert header == [
            "family", "params", "n", "h_closed", "h_quad", "h_gap", "h_ub",
            "j_closed", "j_quad", "j_gap", "j_ub",
        ]
        # 30 catalog members x (5 table sizes + 1 limit row)
        assert len(body) == 180
        assert sum(1 for row in body if row[2] == "limit") == 30

    def test_closed_vs_quadrature_gaps(self, tables_output):
        _, body = parse_csv(tables_output)
        for row in body:
            if row[2] == "limit":
                continue
            assert float(row[5]) < 1e-8, row
            assert float(row[9]) < 1e-8, row

    def test_limit_rows_carry_literals(self, tables_output):
        _, body = parse_csv(tables_output)
        uniform_limit = next(
            r for r in body if r[0] == "uniform" and r[2] == "limit"
        )
        assert uniform_limit[3] == "-inf"
        assert uniform_limit[4] == ""  # no quadrature route at the limit
        pareto_limit = next(r for r in body if r[0] == "pareto" and r[2] == "limit")
        assert pareto_limit[3] == "inf"
        assert pareto_limit[7] == "indeterminate"

    def test_deterministic(self, tables_output):
        code, again, _ = run_cli("tables")
        assert code == 0
        assert again == tables_output

    def test_matches_golden(self, tables_output):
        assert tables_output == (GOLDEN / "tables.csv").read_text()

    def test_matches_golden_with_quadrature_caches_cold_and_warm(self, quadrature_caches):
        quadrature_caches()
        golden = (GOLDEN / "tables.csv").read_text()
        for _ in ("cold", "warm"):
            code, out, _err = run_cli("tables")
            assert code == 0 and out == golden


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------


class TestFigure1:
    def test_entropy_climbs_toward_ceiling(self):
        code, out, _ = run_cli("figure1")
        assert code == 0
        header, body = parse_csv(out)
        assert header == ["n", "H", "UB"]
        assert [int(r[0]) for r in body] == list(range(1, 51))
        hs = [float(r[1]) for r in body]
        ubs = {float(r[2]) for r in body}
        assert len(ubs) == 1  # the ceiling is n-free
        ceiling = ubs.pop()
        assert ceiling == pytest.approx(1.5772156649015328, abs=1e-12)
        assert all(a < b for a, b in zip(hs, hs[1:]))
        assert all(h < ceiling for h in hs)
        assert ceiling - hs[-1] < 0.011

    def test_matches_golden(self):
        _, out, _ = run_cli("figure1")
        assert out == (GOLDEN / "figure1.csv").read_text()


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


class TestConverge:
    def test_gap_columns(self):
        code, out, _ = run_cli(
            "converge", "--dist", EXP1, "--n-grid", "10,100,1000"
        )
        assert code == 0
        header, body = parse_csv(out)
        assert header == [
            "n", "h_normalized", "j_normalized", "h_target", "j_target",
            "h_gap", "j_gap",
        ]
        assert [int(r[0]) for r in body] == [10, 100, 1000]
        gaps = [float(r[5]) for r in body]
        assert gaps == sorted(gaps, reverse=True)

    def test_columns_are_the_record_fields(self):
        code, out, _ = run_cli("converge", "--dist", EXP1, "--n-grid", "2,5", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        study = evt.convergence_study(distributions.exponential(1.0), [2, 5])
        assert rows == [dataclasses.asdict(record) for record in study.records]
        assert list(rows[0]) == [f.name for f in dataclasses.fields(evt.ConvergenceRecord)]

    FLOATS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, np.float64(0.1)]

    @pytest.mark.parametrize("shift", range(len(FLOATS)))
    def test_rows_render_as_emit_does(self, monkeypatch, shift):
        # the converge CSV and JSON must give the bytes of _emit's rules, with
        # every special float in every column and target cell, across blocks
        floats = self.FLOATS
        n = np.array([*range(1, 600), 2**31, 2**53])

        def column(k):
            return np.array([floats[(i + k) % len(floats)] for i in range(n.size)])

        study = evt.ConvergenceStudy(
            n, column(shift), column(shift + 1), floats[shift],
            floats[(shift + 1) % len(floats)], column(shift + 2), column(shift + 3), 0, 0.0,
        )
        monkeypatch.setattr(evt, "convergence_study", lambda dist, n_grid: study)
        for fmt in ("csv", "json"):
            code, out, _ = run_cli("converge", "--dist", EXP1, "--n-grid", "2", "--format", fmt)
            assert code == 0
            want = io.StringIO()
            cli._emit(cli._CONVERGE_FIELDS, map(dataclasses.astuple, study.records), fmt, want)
            assert out == want.getvalue()

    @pytest.mark.parametrize(
        "grid",
        [[*range(1, 401), 10_000, 1_000_000], [2, 2**53 + 1], [2, 10**20]],
        ids=["1:400:1,1e4,1e6", "2,2**53+1", "2,10**20"],
    )
    @pytest.mark.parametrize("member", canonical.catalog_members(), ids=lambda m: m.label())
    def test_rows_are_the_public_normalized_measures(self, member, grid):
        # CSV and JSON are what _emit renders from the public scalar
        # normalized measures, or exit 2 with the message they raise
        h_target, j_target = evt.limiting_targets(evt.mda_classify(member)[1])
        rows, error = [], None
        for n in grid:
            try:
                h = measures.shannon_normalized(member, n).value
                j = measures.extropy_normalized(member, n).value
            except (ArithmeticError, ValueError) as exc:
                error = exc
                break
            rows.append((n, h, j, h_target, j_target, abs(h - h_target), abs(j - j_target)))
        dist = json.dumps(distributions.to_dict(member))
        n_grid = ",".join(map(str, grid))
        for fmt in ("csv", "json"):
            got = run_cli("converge", "--dist", dist, "--n-grid", n_grid, "--format", fmt)
            if error is not None:
                assert got == (2, "", f"domain error: {error}\n")
            else:
                want = io.StringIO()
                cli._emit(cli._CONVERGE_FIELDS, rows, fmt, want)
                assert got == (0, want.getvalue(), "")

    @pytest.mark.parametrize(
        "member",
        [m for m in canonical.catalog_members() if evt.mda_classify(m)[0] == "gumbel"],
        ids=lambda m: m.label(),
    )
    def test_rows_over_several_blocks_render_as_emit_does(self, member):
        grid = f"2:{3 * cli._BLOCK_ROWS}:1"
        code, out, _ = run_cli("converge", "--dist", json.dumps(distributions.to_dict(member)),
                               "--n-grid", grid)
        assert code == 0
        study = evt.convergence_study(member, range(2, 3 * cli._BLOCK_ROWS + 1))
        want = io.StringIO()
        cli._emit(cli._CONVERGE_FIELDS, map(dataclasses.astuple, study.records), "csv", want)
        assert out == want.getvalue()

    def test_power_function_from_n1(self):
        # a_1 = 1/theta, so h at n = 1 is H(X) + ln theta
        code, out, err = run_cli(
            "converge", "--dist", '{"family":"power_function","theta":2,"nu":0.5}',
            "--n-grid", "1,2,10",
        )
        assert (code, err) == (0, "")
        _, body = parse_csv(out)
        assert [int(r[0]) for r in body] == [1, 2, 10]
        member = distributions.power_function(2.0, 0.5)
        h1 = measures.shannon_max(member, 1).value + math.log(2.0)
        assert body[0][1] == "%.15g" % h1

    def test_pareto_reaches_its_gev_targets(self):
        # normed to GEV(1/nu), the pareto gaps close
        code, out, err = run_cli(
            "converge", "--dist", '{"family":"pareto","theta":1,"nu":2}', "--n-grid", "2:5000:1"
        )
        assert (code, err) == (0, "")
        _, body = parse_csv(out)
        assert int(body[-1][0]) == 5000
        assert float(body[-1][5]) < 1e-4

    def test_range_grid_syntax(self):
        code, out, _ = run_cli(
            "converge", "--dist", EXP1, "--n-grid", "10:50:10"
        )
        assert code == 0
        _, body = parse_csv(out)
        assert [int(r[0]) for r in body] == [10, 20, 30, 40, 50]

    @pytest.mark.parametrize(
        "member",
        [m for m in canonical.catalog_members() if evt.mda_classify(m)[0] == "gumbel"],
        ids=lambda m: m.label(),
    )
    def test_matches_golden_digest(self, member):
        golden = json.loads((GOLDEN / "converge.json").read_text())
        dist = json.dumps(distributions.to_dict(member), sort_keys=True)
        code, out, _ = run_cli("converge", "--dist", dist, "--n-grid", golden["n_grid"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == golden["sha256"][member.label()]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


VERIFY_GROUPS = [
    "special identities",
    "quadrature oracle",
    "distribution consistency",
    "log-concavity verdicts",
    "closed form vs quadrature",
    "bound orderings",
    "ceiling characterization",
    "normalized limits",
    "monte carlo agreement",
    "cli determinism",
]


class TestVerify:
    def test_all_groups_pass(self):
        code, out, _ = run_cli("verify")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[:-1] == [f"ok   {name}" for name in VERIFY_GROUPS]
        assert lines[-1] == "10 passed, 0 failed"

    def test_perturbed_closed_form_fails_verify_and_its_contract(self, monkeypatch):
        family = distributions.REGISTRY["exponential"]
        extropy = family.extropy
        monkeypatch.setitem(
            distributions.REGISTRY,
            "exponential",
            dataclasses.replace(family, extropy=lambda dist, n: extropy(dist, n) + 1e-6),
        )
        code, out, _ = run_cli("verify")
        assert code == 3
        lines = out.strip().splitlines()
        assert len(lines) == len(VERIFY_GROUPS) + 1
        line = lines[VERIFY_GROUPS.index("closed form vs quadrature")]
        assert line.startswith("FAIL closed form vs quadrature: exponential(theta=0.5) n=1:")
        summary = re.fullmatch(r"(\d+) passed, (\d+) failed", lines[-1])
        assert summary and int(summary[2]) >= 1
        # The group reports the shared contract's own failure message.
        expected = verify.closed_vs_quadrature([distributions.exponential(0.5)], (1,))
        assert len(expected) == 1 and "extropy_max" in expected[0]
        assert expected[0] in line

    @pytest.mark.parametrize(
        "member", [distributions.pareto(1.0, 2.0), distributions.gev(0.3)], ids=["pareto", "gev_xi_0.3"]
    )
    def test_false_log_concavity_verdict_fails_its_contract(self, monkeypatch, member):
        family = distributions.REGISTRY[member.family]
        monkeypatch.setitem(
            distributions.REGISTRY, member.family, dataclasses.replace(family, is_log_concave=lambda d: True)
        )
        assert verify.log_concavity([member]) == [
            f"{member.label()}: grid says concave=False, verdict=True",
            f"{member.label()}: density-quantile profile not concave on grid",
        ]

    def test_bound_orderings_reports_a_member_whose_sup_density_overflows(self):
        # the entropy gate is read from the report's gate_note, so a sup f
        # beyond the double range is a gated lower bound, not an error
        member = distributions.gev(200.0)
        h = bounds.shannon_bounds(member, 50)
        j = bounds.extropy_bounds(member, 50)
        assert verify.bound_orderings([member], [50]) == [
            f"gev(xi=200) n=50: {name} ordering violated: "
            f"{r.lower!r} <= {r.value!r} <= {r.upper!r}, applicable=False"
            for name, r in (("entropy", h), ("extropy", j))
        ]


# ---------------------------------------------------------------------------
# Error handling and exit codes
# ---------------------------------------------------------------------------


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("no_such_command",),
            ("measure", "--dist", EXP1),  # missing --n
            ("measure", "--dist", EXP1, "--n", "0"),
            ("measure", "--dist", EXP1, "--n", "-3"),
            ("measure", "--dist", "{family: broken json}", "--n", "2"),
            ("measure", "--dist", EXP1, "--n", "2", "--method", "simpson"),
            ("measure", "--dist", EXP1, "--n", "2", "--format", "yaml"),
            ("converge", "--dist", EXP1, "--n-grid", ""),
            ("converge", "--dist", EXP1, "--n-grid", "50,10"),
            ("converge", "--dist", EXP1, "--n-grid", "0,10"),
            ("converge", "--dist", EXP1, "--n-grid", "1:x:2"),
            ("converge", "--dist", EXP1, "--n-grid", "1:10"),
            ("converge", "--dist", EXP1, "--n-grid", "1:10:0"),
            ("measure", "--dist", EXP1, "--n", "2", "--samples", "50"),
            ("measure", "--dist", EXP1, "--n", "2", "--method", "mc", "--seed", "-1"),
            ("verify", "--seed", "-1"),
        ],
    )
    def test_usage_errors_exit_1(self, argv):
        code, _, err = run_cli(*argv)
        assert code == 1
        assert err.startswith("usage error:")

    def test_negative_step_grid_is_inclusive(self):
        # 3:1:-1 is the decreasing grid 3, 2, 1, which the n-grid rule declines
        code, _, err = run_cli("converge", "--dist", EXP1, "--n-grid", "3:1:-1")
        assert code == 1
        assert "strictly increasing" in err
        code, out, _ = run_cli("converge", "--dist", EXP1, "--n-grid", "3:3:-1")
        assert code == 0
        assert [row[0] for row in parse_csv(out)[1]] == ["3"]

    @pytest.mark.parametrize("grid", ["1:x:2", "1:10", "1:10:0"])
    def test_malformed_n_grid_names_the_accepted_forms(self, grid):
        _, _, err = run_cli("converge", "--dist", EXP1, "--n-grid", grid)
        assert err.startswith(
            "usage error: --n-grid: expected a:b:step or a comma list of integers"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "--dist", '{"family":"exponential","theta":-1}', "--n", "2"),
            ("measure", "--dist", '{"family":"exponential","rate":1}', "--n", "2"),
            ("measure", "--dist", '{"family":"gaussian"}', "--n", "2"),
            ("measure", "--dist", '{"family":"gev","xi":-3}', "--n", "2"),
            ("converge", "--dist", '{"family":"logistic","theta":1}', "--n-grid", "1,10"),
            ("measure", "--dist", '{"family":"exponential","theta":true}', "--n", "1"),
            ("measure", "--dist", '{"family":"uniform","theta":null}', "--n", "1"),
        ],
    )
    def test_domain_errors_exit_2(self, argv):
        code, _, err = run_cli(*argv)
        assert code == 2
        assert err.startswith("domain error:")

    @pytest.mark.parametrize(
        "argv, check, value",
        [
            (("measure", "--dist", EXP1, "--n", "0"), special._check_index, 0),
            (("converge", "--dist", EXP1, "--n-grid", "3,2"), special._check_n_grid, [3, 2]),
            (("bounds", "--dist", EXP1, "--n", "2", "--tol", "0"), special._check_real, 0.0),
            (("tables", "--tol", "inf"), special._check_real, math.inf),
            (("measure", "--dist", EXP1, "--n", "2", "--samples", "99"),
             numerics._check_samples, 99),
            (("verify", "--seed", "-2"), numerics._check_seed, -2),
        ],
    )
    def test_option_rules_are_the_library_validators(self, argv, check, value):
        # the usage error is the validator's own message under the flag's name
        flag = argv[-2]
        with pytest.raises(ValueError) as excinfo:
            check(value, flag)
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err == f"usage error: {excinfo.value}\n"
        assert err.count(flag) == 1

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--n", ("measure", "--dist", EXP1, "--n", "2.5")),
            ("--tol", ("tables", "--tol", "x")),
            ("--seed", ("verify", "--seed", "one")),
            ("--dist", ("measure", "--dist", "{broken", "--n", "2")),
        ],
    )
    def test_unparsable_option_names_the_flag_once(self, flag, argv):
        code, _, err = run_cli(*argv)
        assert code == 1
        assert err.startswith(f"usage error: {flag}: ") and err.count(flag) == 1

    @pytest.mark.parametrize(
        "spec",
        [
            '{"family":"gev","xi":170}',  # Gamma(xi + 2) in the extropy overflows
            '{"family":"gev","xi":1e308}',
            '{"family":"pareto","theta":1,"nu":0.01}',  # n^(1/nu) overflows from n = 1210
            '{"family":"pareto","theta":1e-300,"nu":1e-300}',
            '{"family":"exponential","theta":1e-320}',
        ],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ("measure", "--method", "closed", "--n", "1"),
            ("measure", "--method", "closed", "--n", "5000"),
            ("bounds", "--n", "1"),
            ("converge", "--n-grid", "2:5000:1"),
        ],
        ids=lambda c: " ".join(c),
    )
    def test_an_overflow_is_a_domain_error(self, spec, command):
        code, out, err = run_cli(*command, "--dist", spec)
        assert code in (0, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("domain error: ") and err.count("\n") == 1
        else:
            assert out and err == ""

    @pytest.mark.parametrize(
        "spec, command",
        [
            # J = -Gamma(202)/2^203 = -e^727.8 lies past the double range
            ('{"family":"gev","xi":200}', ("measure", "--n", "1")),
            # I(t) overflows to inf at small t, without a numpy warning
            ('{"family":"gev","xi":400}', ("measure", "--n", "2", "--method", "quad")),
            # a_n = 100 n^100 is finite at n = 1154 and overflows from n = 1155
            ('{"family":"pareto","theta":1,"nu":0.01}', ("converge", "--n-grid", "1154,1155")),
            # a_n = n^100 raises OverflowError at n = 10^6
            ('{"family":"gev","xi":100}', ("converge", "--n-grid", "10,1000000")),
        ],
    )
    def test_an_overflow_exits_2(self, spec, command):
        assert run_cli(*command, "--dist", spec)[:2] == (2, "")

    def test_a_gev_extropy_past_gammas_range_is_a_double(self):
        # Gamma(172) overflows, but J = -Gamma(172)/2^173 = -1.04e257 does not
        # (mpmath: -1.03654665708265657e257)
        code, out, _ = run_cli("measure", "--n", "1", "--dist", '{"family":"gev","xi":170}')
        assert code == 0
        assert parse_csv(out)[1][0][4] == "-1.03654665708266e+257"

    def test_a_grid_up_to_the_overflow_edge_exits_0(self):
        spec = '{"family":"pareto","theta":1,"nu":0.01}'
        assert run_cli("converge", "--dist", spec, "--n-grid", "1154")[0] == 0
        assert run_cli("converge", "--dist", spec, "--n-grid", "1154,1155") == (
            2, "", "domain error: norming constants for pareto(theta=1, nu=0.01) overflow "
            "the double range at n=1155\n"
        )

    def test_logistic_past_the_quantile_edge_names_the_norming_and_n(self):
        spec = '{"family":"logistic","theta":1}'
        # 1 - 1/n rounds below 1 at n = 2^53 + 1 and to 1 at n = 2^54
        assert run_cli("converge", "--dist", spec, "--n-grid", "2,9007199254740993")[0] == 0
        assert run_cli("converge", "--dist", spec, "--n-grid", "2,18014398509481984") == (
            2,
            "",
            "domain error: norming constants for the logistic family are undefined "
            "at n=18014398509481984 (1 - 1/n must round to a level strictly inside "
            "(0, 1))\n",
        )

    def test_an_underflowing_profile_at_half_has_its_bounds(self):
        # I(1/2) = (1/2)^(1 + 1e300) underflows to 0; the entropy ceiling
        # reads ln I(1/2) = -(1 + 1e300) ln 2 off the record's log profile,
        # and at n = 1 it is 1 - ln[2 I(1/2)] + ln 2 = 1 + 1e300 ln 2,
        # within 1e-15 of mpmath
        code, out, err = run_cli(
            "bounds", "--n", "1", "--format", "json", "--dist", '{"family":"pareto","theta":1e-300,"nu":1e-300}'
        )
        assert (code, err) == (0, "")
        shannon, extropy = json.loads(out)
        with mpmath.workdps(50):
            want = float(1 + (1 / mpmath.mpf(1e-300)) * mpmath.log(2))
        assert abs(shannon["upper"] - want) <= 1e-15 * want
        assert (shannon["measure"], extropy["measure"]) == ("shannon", "extropy")

    @pytest.mark.parametrize(
        "spec, label, shown",
        [
            ('{"family":"power_function","theta":1e300,"nu":1e300}', "power_function(theta=1e+300, nu=1e+300)", "inf"),
            ('{"family":"pareto","theta":1e-300,"nu":1e300}', "pareto(theta=1e-300, nu=1e+300)", "inf"),
            ('{"family":"power_function","theta":1e-300,"nu":1e-300}', "power_function(theta=1e-300, nu=1e-300)", "nan"),
        ],
    )
    def test_a_profile_at_half_off_the_doubles_is_named(self, spec, label, shown):
        # no report of an ordering of infinities: the entropy's bounds decline
        code, out, err = run_cli("bounds", "--n", "1", "--dist", spec)
        assert (code, out) == (2, "")
        assert err == f"domain error: I(1/2) of {label} evaluates to {shown}, so ln[2 I(1/2)] is undefined\n"

    def test_monte_carlo_reads_an_underflowing_profile_in_log_space(self):
        # pareto nu = 0.01: I(t) underflows to 0 near t = 1, ln I(t) does not
        code, out, err = run_cli(
            "measure", "--dist", '{"family":"pareto","theta":1,"nu":0.01}', "--n", "3",
            "--method", "mc", "--format", "json",
        )
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        assert abs(row["H"] - 189.34) <= 4.0 * row["h_error"]

    def test_monte_carlo_non_finite_summand_is_a_domain_error(self, monkeypatch):
        # power_function nu = 0.3 at n = 1: exp(ln I(t)) overflows at t = 1e-300
        monkeypatch.setattr(numerics, "_log_uniforms", lambda samples, seed: np.log([0.5, 1e-300] * (samples // 2)))
        code, out, err = run_cli(
            "measure", "--dist", '{"family":"power_function","theta":1,"nu":0.3}', "--n", "1",
            "--method", "mc", "--samples", "200",
        )
        assert (code, out) == (2, "")
        assert err == "domain error: Monte Carlo summand -f_max(X)/2 non-finite for 100 of 200 draws\n"

    @pytest.mark.parametrize("command", ["measure", "verify"])
    def test_negative_seed_names_the_flag(self, command):
        code, _, err = run_cli(*BASE_ARGV[command], "--seed", "-1")
        assert code == 1
        assert "--seed" in err and "non-negative" in err


# ---------------------------------------------------------------------------
# Each subcommand takes only the options it reads
# ---------------------------------------------------------------------------

BASE_ARGV = {
    "measure": ("measure", "--dist", EXP1, "--n", "2"),
    "bounds": ("bounds", "--dist", EXP1, "--n", "2"),
    "tables": ("tables",),
    "figure1": ("figure1",),
    "converge": ("converge", "--dist", EXP1, "--n-grid", "2,3"),
    "verify": ("verify",),
}
READS = {
    "measure": ("--tol", "--samples", "--seed", "--format"),
    "bounds": ("--tol", "--format"),
    "tables": ("--tol", "--format"),
    "figure1": ("--format",),
    "converge": ("--format",),
    "verify": ("--tol", "--seed"),
}
OPTION_VALUES = {"--tol": "1e-9", "--samples": "1000", "--seed": "3", "--format": "json"}
PARSED = {"--tol": 1e-9, "--samples": 1000, "--seed": 3, "--format": "json"}


class TestOptionsPerCommand:
    @pytest.mark.parametrize(
        "command, option",
        [(c, o) for c in BASE_ARGV for o in OPTION_VALUES if o not in READS[c]],
    )
    def test_unread_option_exits_1(self, command, option):
        code, out, err = run_cli(*BASE_ARGV[command], option, OPTION_VALUES[option])
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and option in err

    @pytest.mark.parametrize("command, option", [(c, o) for c in READS for o in READS[c]])
    def test_read_option_is_parsed(self, command, option):
        argv = [*BASE_ARGV[command], option, OPTION_VALUES[option]]
        args = cli._parse(argv)
        assert getattr(args, option[2:]) == PARSED[option]

    def test_verify_options_reach_run_all(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "run_all", lambda **kwargs: calls.append(kwargs) or [])
        assert run_cli("verify")[0] == 0
        assert run_cli("verify", "--tol", "1e-9", "--seed", "7")[0] == 0
        assert calls == [{"quad_tol": 1e-10, "seed": 0}, {"quad_tol": 1e-9, "seed": 7}]

    def test_the_environment_changes_no_output(self, monkeypatch):
        # The seed comes from --seed alone: a variable once read as its
        # default, set to another seed or to a malformed one, changes nothing.
        mc = ("measure", "--dist", EXP1, "--n", "3", "--method", "mc", "--samples", "500")
        invocations = (mc, (*mc, "--seed", "6"), ("verify",))
        want = [run_cli(*argv) for argv in invocations]
        for value in ("5", "not-a-seed", "-1"):
            monkeypatch.setenv("EXTREMAL_INFO_SEED", value)
            assert [run_cli(*argv) for argv in invocations] == want
        assert want[0][0] == 0 and want[0][1] != want[1][1]


class TestOneParse:
    # Each subcommand, and the usage errors a command's options can make:
    # an option given as --tol=..., an abbreviated --form, a missing
    # required flag, a bad choice, an unknown option and a bad value; then
    # the invocations only the full parser reads.
    CORPUS = [
        ("measure", "--dist", EXP1, "--n", "3"),
        ("measure", "--dist", EXP1, "--n", "3", "--method", "quad", "--tol=1e-8", "--form", "json"),
        ("bounds", "--dist", EXP1, "--n", "4", "--method", "quad", "--form", "json"),
        ("tables", "--tol=1e-8", "--form", "json"),
        ("figure1", "--form", "json"),
        ("converge", "--dist", EXP1, "--n-grid", "2:6:2"),
        ("verify", "--seed", "3"),
        ("measure", "--dist", EXP1),
        ("converge", "--n-grid", "2,3"),
        ("bounds", "--dist", EXP1, "--n", "2", "--method", "mc"),
        ("measure", "--dist", EXP1, "--n", "2", "--form", "yaml"),
        ("figure1", "--tol", "1e-8"),
        ("tables", "--tol=1e-8", "extra"),
        ("measure", "--dist", EXP1, "--n", "2.5"),
        ("verify", "--tol", "nan"),
        ("measure", "-h"),
        (),
        ("-h",),
        ("no_such_command",),
        ("--tol", "1e-8", "tables"),
    ]

    @staticmethod
    def outcome(argv, capsys):
        """Exit code, out and err of main, or the code argparse exits with
        on -h, and what went to the process's own streams."""
        try:
            result = run_cli(*argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, capsys.readouterr()

    @pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
    def test_a_command_parser_gives_what_the_full_parser_gives(self, argv, capsys, monkeypatch):
        fast = self.outcome(argv, capsys)
        full = cli._parsers()[0]
        monkeypatch.setattr(cli, "_parsers", lambda: (full, {}))
        assert self.outcome(argv, capsys) == fast

    def test_a_command_is_parsed_once_by_its_own_parser(self, monkeypatch):
        full, commands = cli._parsers()
        parsed = []
        for name, parser in [("", full), *commands.items()]:
            parse = parser.parse_known_args
            monkeypatch.setattr(
                parser, "parse_known_args", lambda *args, name=name, parse=parse: parsed.append(name) or parse(*args)
            )
        assert run_cli("figure1")[0] == 0
        assert run_cli("measure", "--dist", EXP1, "--n", "2", "--nope")[0] == 1
        assert run_cli("no_such_command")[0] == 1
        assert parsed == ["figure1", "measure", ""]


# ---------------------------------------------------------------------------
# The installed entry point
# ---------------------------------------------------------------------------


class TestConsoleScript:
    def test_installed_script_matches_in_process_output(self):
        exe = shutil.which("extremal-info")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "measure", "--dist", EXP1, "--n", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        _, expected, _ = run_cli("measure", "--dist", EXP1, "--n", "10")
        assert proc.stdout == expected

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "extremal_info.cli", "figure1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        _, expected, _ = run_cli("figure1")
        assert proc.stdout == expected
