"""Shared pytest hooks: aggregate acceptance checks into one summary line each.

Also the ``quadrature_caches`` fixture: every cache the quadrature route
keeps between calls, for tests that run it cold and warm.

Tests marked ``@pytest.mark.acceptance(num, label)`` are grouped by ``num``;
after the run a single PASS/FAIL line is printed per group.  Expected
failures (strict xfail) count as passing because the recorded expectation
held.  The marker is registered in ``pyproject.toml``, which also turns on
``--strict-markers``: a misspelt marker fails collection instead of
silently dropping a test out of the summary.
"""
from __future__ import annotations

import pytest

from extremal_info import measures, numerics


@pytest.fixture
def quadrature_caches():
    """The panel-node cache and the measures' profile, log-profile and
    weight tables."""
    return (numerics._panel_nodes, measures._profile, measures._log_profile, measures._weight)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        report.acceptance = (marker.args[0], marker.args[1])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    groups: dict[int, dict] = {}
    for bucket, failed in (
        ("passed", False),
        ("xfailed", False),
        ("failed", True),
        ("error", True),
    ):
        for report in terminalreporter.stats.get(bucket, []):
            tag = getattr(report, "acceptance", None)
            if tag is None:
                continue
            num, label = tag
            entry = groups.setdefault(num, {"label": label, "failed": False})
            entry["failed"] = entry["failed"] or failed
    if not groups:
        return
    writer = terminalreporter
    writer.section("acceptance checks")
    for num in sorted(groups):
        entry = groups[num]
        verdict = "FAIL" if entry["failed"] else "PASS"
        writer.write_line(f"check {num:2d}: {verdict}  {entry['label']}")
