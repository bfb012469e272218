"""The pytest settings of pyproject.toml: a failing property test is reported
as a failure, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SAMPLE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_after():
    pass
'''


def test_failing_given_test_does_not_stop_the_run(tmp_path):
    # hypothesis imports libcst to print a patch for the failing example, and
    # that import raises a DeprecationWarning, an error under these settings
    # unless filtered: pytest then stopped with INTERNALERROR at "1 failed"
    (tmp_path / "test_sample.py").write_text(SAMPLE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
