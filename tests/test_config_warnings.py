"""The suite's pytest configuration reports a failing property test as one
FAILED line and runs on, rather than aborting with INTERNALERROR."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_failing_property_is_a_failed_line(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    failed = [ln for ln in out.splitlines() if ln.startswith("FAILED")]
    assert len(failed) == 1 and "test_property_fails" in failed[0]
    assert "1 failed, 1 passed" in out
