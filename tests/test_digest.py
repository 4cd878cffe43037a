"""Smoke test of tools/digest.py, the "same bits" corpus: its ``unit``
group, run in process."""

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


def test_main_prints_one_digest_per_group(digest, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert digest.main(["--group", "unit"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"unit +\d+ records  [0-9a-f]{64}", line)
