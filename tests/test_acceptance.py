"""Acceptance run: every criterion at full scale, one reported line each.

Run with -s to watch the lines as they complete; the same lines are
printed in the summary either way.  The whole suite is deterministic at
seed 7 and finishes in about a minute.  Each test_criterion[n] runs its
own criterion, so `pytest --durations` charges each its own time.
"""

import sys

import pytest

from meshpoly.suite import CRITERIA, run_criterion

_RESULTS: dict = {}


def _result(number):
    if number not in _RESULTS:
        res = run_criterion(number, seed=7, scale=1.0)
        print(res.line, file=sys.stderr)
        _RESULTS[number] = res
    return _RESULTS[number]


@pytest.mark.parametrize("number", range(1, len(CRITERIA) + 1))
def test_criterion(number):
    res = _result(number)
    print(res.line)
    assert res.passed, res.line


def test_every_criterion_reported():
    results = [_result(n) for n in range(1, len(CRITERIA) + 1)]
    assert [r.number for r in results] == list(range(1, 13))
    for r in results:
        assert r.line.startswith(f"criterion {r.number:2d}: ")
        assert ("PASS" in r.line) or ("FAIL" in r.line)
