"""Capture the CLI output goldens the benchmark checks against.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/capture_golden.py

It writes ``perfbench/golden/``: the ``tables`` and ``figure1`` stdout in
full, and the SHA-256 of each ``converge`` stdout (those are 5000 rows each).
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from extremal_info import cli  # noqa: E402

from workloads import CONVERGE_GRID, converge_argv, gumbel_members  # noqa: E402


def _stdout(argv) -> str:
    out = io.StringIO()
    code = cli.main(argv, out=out, err=io.StringIO())
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return out.getvalue()


def main() -> None:
    golden = HERE / "golden"
    golden.mkdir(exist_ok=True)
    (golden / "tables.csv").write_text(_stdout(["tables"]))
    (golden / "figure1.csv").write_text(_stdout(["figure1"]))
    digests = {
        member.label(): hashlib.sha256(_stdout(converge_argv(member)).encode()).hexdigest()
        for member in gumbel_members()
    }
    payload = {"n_grid": CONVERGE_GRID, "sha256": digests}
    (golden / "converge.json").write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    main()
