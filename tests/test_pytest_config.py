"""The pytest settings in pyproject.toml still report a failing hypothesis test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
'''


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # filterwarnings turns every warning into an error; one raised while
    # hypothesis reports a failure would abort pytest with INTERNALERROR and
    # hide the falsifying example.
    test_file = tmp_path / "test_fails.py"
    test_file.write_text(FAILING_TEST)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
