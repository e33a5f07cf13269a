"""Every mutant that ``bench/mutants.py`` lists still applies to the source.

The survey takes minutes and runs on one CI leg; this check fails on every leg, and at once, when a text moves or changes.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = runpy.run_path(str(ROOT / "bench" / "mutants.py"))["MUTANTS"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_text_occurs_once_in_its_file(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
