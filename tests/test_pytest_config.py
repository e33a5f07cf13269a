"""The repository's pytest settings keep hypothesis's failure report intact."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_reports_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", ".", "-p", "no:cacheprovider"]
        + ["test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example: test_fails(" in run.stdout, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
