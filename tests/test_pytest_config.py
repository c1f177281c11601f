"""The project's pytest settings: a failing property test is reported as a
failure, and the session goes on to run the tests after it."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(st.integers())
def test_fails(x):
    assert x is None


def test_passes():
    assert True
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_sample.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1
