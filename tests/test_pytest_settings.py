"""The repository's pytest settings report a failing test like any other."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_hypothesis_test_does_not_end_the_run(tmp_path):
    # warnings are errors, so a warning raised while Hypothesis reports a
    # failure would end the run in INTERNALERROR before the second test
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_two.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout
    assert "1 failed, 1 passed" in done.stdout, done.stdout
