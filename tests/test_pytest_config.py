"""The repository's pytest settings: a failing property-based test is reported
as a failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
'''


def test_failing_given_test_does_not_abort_the_session(tmp_path):
    # hypothesis's failure report raises a third-party DeprecationWarning,
    # which the settings' "error" filter turned into an INTERNALERROR
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "FAILED test_probe.py::test_fails" in out
