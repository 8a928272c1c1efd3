"""The experiment scripts run to completion on small inputs.

trace_roundtrip.py runs each level as a one-exponent encrypt()/decrypt() and
asserts that the chained encrypt() gives the same level records and payload;
its default run must print the worked example's intermediate vectors.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from vectors import (
    D1_RECOVERED,
    D1_RESTORED,
    D2_RECOVERED,
    ENVELOPE_HEX,
    L1_GROUPS,
    L1_SENTINELS,
    L1_TRANSFORMED,
    L2_GROUPS,
    L2_TRANSFORMED,
)

ROOT = Path(__file__).resolve().parent.parent


def _run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


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
    result = _run_script(script, args)
    assert result.returncode == 0, result.stdout + result.stderr


def test_avalanche_trials_summary_is_pinned():
    # A fixed seed must keep giving the same trials: no change may add or
    # reorder rng calls.
    result = _run_script("avalanche_trials.py", ["--trials", "5", "--bits", "100", "--seed", "1"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "trials=5 message_bits=100 key=3,5 block=8",
        "fraction changed: mean 0.2380, min 0.1300, max 0.3600",
        "sentinel conflicts across all trials: 10",
    ]


@pytest.mark.parametrize(
    "script, flag",
    [
        ("hash_collisions.py", "--pairs"),
        ("hash_collisions.py", "--bits"),
        ("hash_collisions.py", "--widths"),
        ("avalanche_trials.py", "--trials"),
        ("avalanche_trials.py", "--bits"),
    ],
)
def test_script_rejects_zero_count(script, flag):
    result = _run_script(script, [flag, "0"])
    assert result.returncode == 2, result.stdout + result.stderr
    assert "usage:" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "script, args",
    [
        ("avalanche_trials.py", ["--block-size", "4"]),
        ("avalanche_trials.py", ["--key", "4"]),
        ("avalanche_trials.py", ["--key", "3,x"]),
        ("hash_collisions.py", ["--key", "4"]),
        ("hash_collisions.py", ["--key", "3,x"]),
        ("hash_collisions.py", ["--widths", "32,,64"]),
        ("trace_roundtrip.py", ["--key", "4"]),
        ("trace_roundtrip.py", ["--key", "3,,5"]),
        ("trace_roundtrip.py", ["--block-size", "4"]),
        ("trace_roundtrip.py", ["--text", "012"]),
        ("trace_roundtrip.py", ["--key", ",".join(["3"] * 256), "--text", "1011"]),
    ],
)
def test_script_rejects_bad_key_order_or_width(script, args):
    result = _run_script(script, args)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "usage:" in result.stderr
    assert "Traceback" not in result.stderr
    assert args[0] in result.stderr.splitlines()[-1]


def test_hash_collisions_summary_is_pinned():
    # Each narrower digest is a shift of the widest one; the counts must match
    # hashing at every width separately.
    result = _run_script("hash_collisions.py", ["--pairs", "50", "--bits", "100"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines() == [
        "pairs=50 message_bits=100 key=3,5",
        "digest   32 bits:   28 collisions (56.0%)",
        "digest   64 bits:    1 collisions (2.0%)",
        "digest  128 bits:    0 collisions (0.0%)",
        "digest  256 bits:    0 collisions (0.0%)",
    ]


def test_trace_prints_worked_example(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["trace_roundtrip.py"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "trace_roundtrip.py"), run_name="__main__")
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [
        f"  groups     {list(L1_GROUPS)}",
        f"  sentinels  {list(L1_SENTINELS)}",
        f"  transformed{list(L1_TRANSFORMED)}",
        f"  groups     {list(L2_GROUPS)}",
        f"  transformed{list(L2_TRANSFORMED)}",
        f"envelope ({len(ENVELOPE_HEX) // 2} bytes): {ENVELOPE_HEX}",
        f"  recovered  {list(D2_RECOVERED)}",
        f"  recovered  {list(D1_RECOVERED)}",
        f"  restored   {list(D1_RESTORED)}",
    ]
    positions = [lines.index(line) for line in expected]
    assert positions == sorted(positions)
