"""The repository's pytest settings keep a failing hypothesis property readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5
"""


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # filterwarnings = ["error"] must not turn a warning raised while the
    # hypothesis plugin reports the failure into an INTERNALERROR.
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example: test_fails(" in proc.stdout
