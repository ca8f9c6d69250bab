"""The suite's pytest settings let a failing hypothesis property report its example."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_negative(x):
    assert x < 0
"""


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # every warning is an error under these settings; one raised inside
    # hypothesis' report hook must not end the run before the example is shown
    (tmp_path / "test_failing.py").write_text(FAILING)
    flags = [f"-W{option}" for option in sys.warnoptions]
    if sys.flags.dev_mode:
        flags += ["-X", "dev"]
    result = subprocess.run(
        [sys.executable, *flags, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
