"""The experiment scripts run to completion on small inputs.

trace_roundtrip.py replays every level through the per-block kernels and
asserts that the replay equals encrypt()/decrypt(), so running it checks the
whole-message level loops end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("trace_roundtrip.py", []),
        ("trace_roundtrip.py", ["--text", "1" * 40 + "0110", "--key", "3,5,31"]),
        ("avalanche_trials.py", ["--trials", "3", "--bits", "100"]),
        ("hash_collisions.py", ["--pairs", "3", "--bits", "100"]),
    ],
)
def test_script_exits_zero(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
