"""pytest's settings in pyproject.toml, checked by running pytest in a
subprocess on a generated test file under those settings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(n):
    assert n < 10
"""

OTHER_DEPRECATION = """
import warnings


def test_warns():
    warnings.warn("an old call", DeprecationWarning)
"""


def _pytest(tmp_path: Path, source: str) -> tuple[int, str]:
    """Run pytest with the repository's settings on source; returns (status, output)."""
    path = tmp_path / "test_generated.py"
    path.write_text(source, encoding="utf-8")
    args = ["-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(path)]
    done = subprocess.run([sys.executable, "-m", "pytest", *args], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout + done.stderr


def test_a_failing_property_prints_its_falsifying_example(tmp_path):
    # hypothesis's failure report imports a deprecated mypy_extensions name;
    # under filterwarnings = error that became an INTERNALERROR with no example
    status, output = _pytest(tmp_path, FAILING_PROPERTY)
    assert status == 1, output
    assert "Falsifying example: test_small(" in output
    assert "INTERNALERROR" not in output


def test_any_other_deprecation_warning_still_fails(tmp_path):
    status, output = _pytest(tmp_path, OTHER_DEPRECATION)
    assert status == 1, output
    assert "DeprecationWarning: an old call" in output
