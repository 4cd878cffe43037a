"""Smoke test of tools/digest.py, the "same bits" corpus: its ``unit`` and
``closed`` groups, run in process."""

import hashlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "digest.py"


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location("digest", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_unit_group_is_one_record_per_integrand_and_tolerance(digest):
    records = digest.unit_records()
    assert len(records) == len(digest._unit_integrands()) * len(digest.UNIT_TOLS)
    # a result as the bits of its fields, then the points the call evaluated
    assert "ln t tol=1e-10: -0x1.0000000000001p+0 0x1.c0f0297dbd6edp-36 555 | 555 calls " in "\n".join(records)
    # an error as its type, message and the bits of its best estimate; the
    # fixed panels' 345 points are evaluated before any is read
    failure = next(r for r in records if r.startswith("nan seed tol=1e-10: "))
    assert failure.startswith(
        "nan seed tol=1e-10: QuadratureError: integrand non-finite for 1 - t in [0.000911051, 0.5]"
        " | best 0x1.000000000916dp-1 inf 105 | 345 calls "
    )
    assert digest.digest(records) == hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest.unit_records() == records


def test_the_closed_group_is_every_closed_entry_point_field_by_field(digest):
    records = digest.closed_records()
    # per member: both limit ceilings, exponential_gap, and 10 calls per n
    assert len(records) == len(digest._members()) * (3 + 10 * len(digest.CLOSED_N))
    text = "\n".join(records)
    # a returned dataclass field by field, floats as float.hex
    assert (
        "exponential(theta=1) n=1 shannon_max: {value=0x1.0000000000000p+0 method='closed_form'"
        " error_estimate=0x0.0p+0}" in text
    )
    assert (
        "exponential(theta=1) n=2 extropy_bounds: {lower=-0x1.0000000000000p-1 value=-0x1.5555555555555p-3"
        " upper=-0x1.2aaaaaaaaaaaap-3 lower_holds=True upper_holds=True applicable=True gate_note=''}" in text
    )
    # an error as its type and message
    assert (
        "logistic(theta=1) n=1 norming_constants: ValueError: norming constants for the logistic family"
        " are undefined at n=1" in text
    )
    assert all(n < 2**53 for n in digest.CLOSED_N)


def test_main_prints_one_digest_per_group(digest, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert digest.main(["--group", "unit"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"unit +\d+ records  [0-9a-f]{64}", line)
