"""Every mutant that tests/mutants.py seeds still applies to src/.

The mutation run takes minutes and is not part of tier-1; this checks
in well under a second that each substitution matches its module
exactly once and that each named test file exists, so a refactor that
moves mutated code is caught by the ordinary test run.
"""

import importlib.util
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants",
                                                  TESTS / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_substitution_matches_src_once():
    mutants = _mutants()
    assert mutants.unmatched() == []
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_every_named_test_file_exists():
    mutants = _mutants()
    for name, _, _, _, tests in mutants.MUTANTS:
        for f in tests:
            assert (mutants.ROOT / f).is_file(), (name, f)
