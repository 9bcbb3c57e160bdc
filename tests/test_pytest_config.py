"""The repository's pytest configuration keeps a session going past a
failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain_fails():
    assert False
'''


def test_failing_given_test_does_not_end_the_session(tmp_path):
    # warnings are errors under this config; one raised while hypothesis
    # reports a failure must not turn into an INTERNALERROR that stops the
    # run before the next test
    (tmp_path / "test_tiny.py").write_text(FAILING_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    assert "2 failed" in output.splitlines()[-1]
