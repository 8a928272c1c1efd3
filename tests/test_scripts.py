"""The experiment subcommands run to completion on small inputs.

``hctcodec trace`` runs each level as a one-exponent encrypt()/decrypt() and
asserts that the chained encrypt() gives the same level records and payload;
its default run must print the worked example's intermediate vectors.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest

from hctcodec.cli import main
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

DATA = Path(__file__).resolve().parent / "data"
# The parameters keep the names of the scripts these subcommands replaced, so
# the test ids stay stable.
SUBCOMMAND = {
    "trace_roundtrip.py": "trace",
    "avalanche_trials.py": "avalanche",
    "hash_collisions.py": "collisions",
}


def _run_script(script, args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            returncode = main([SUBCOMMAND[script], *args])
        except SystemExit as exc:
            returncode = exc.code
    return SimpleNamespace(returncode=returncode, stdout=out.getvalue(), stderr=err.getvalue())


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


def test_trace_prints_worked_example(capsys):
    assert main(["trace"]) == 0
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


@pytest.mark.parametrize(
    "args, expected",
    [
        ([], "trace_default.txt"),
        (["--text", "1" * 40 + "0110", "--key", "3,5,31"], "trace_3_5_31.txt"),
    ],
)
def test_trace_output_is_pinned(args, expected):
    # Captured from the stand-alone trace script this subcommand replaced.
    result = _run_script("trace_roundtrip.py", args)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == (DATA / expected).read_text()


def test_avalanche_trials_csv_is_pinned(tmp_path):
    csv_path = tmp_path / "trials.csv"
    args = ["--trials", "5", "--bits", "100", "--seed", "1", "--emit-csv", str(csv_path)]
    result = _run_script("avalanche_trials.py", args)
    assert result.returncode == 0, result.stdout + result.stderr
    assert csv_path.read_text() == (DATA / "avalanche_seed1.csv").read_text()
    assert result.stderr == f"wrote {csv_path}\n"


def test_avalanche_reports_unwritable_csv(tmp_path):
    missing = tmp_path / "absent" / "x.csv"
    args = ["--trials", "1", "--bits", "10", "--emit-csv", str(missing)]
    result = _run_script("avalanche_trials.py", args)
    assert result.returncode == 1
    assert result.stdout.startswith("trials=1 message_bits=10 key=3,5 block=8\n")
    assert result.stderr.startswith("error:")
    assert "No such file or directory" in result.stderr


def test_trace_rejects_key_longer_than_hct1_holds():
    # The key itself is valid; the HCT1 envelope that trace prints is not.
    result = _run_script("trace_roundtrip.py", ["--key", ",".join(["3"] * 256), "--text", "1011"])
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: MalformedEnvelope: level count 256 does not fit the format (1..255)\n"
    )
