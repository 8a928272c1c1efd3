"""Command-line behavior, exercised through main() with string argv."""

from dataclasses import replace

import pytest

from hctcodec.bitcodec import BitSeq
from hctcodec.cipher import CipherEnvelope, KeySchedule, decrypt_tolerant, encrypt
from hctcodec.cli import main
from vectors import CIPHER_BITS, DIGEST16, ENVELOPE_HEX, MOD7_MATRIX, PLAIN_BITS, PLAIN_BYTES


def _status(argv):
    """main's return value, or the status of the SystemExit a usage error raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_encrypt_text_prints_payload(capsys):
    assert main(["encrypt", "--key", "3,5", "--text", PLAIN_BITS]) == 0
    assert capsys.readouterr().out.strip() == CIPHER_BITS


def test_encrypt_text_with_out_writes_envelope(tmp_path, capsys):
    out = tmp_path / "msg.hct"
    assert main(["encrypt", "--key", "3,5", "--text", PLAIN_BITS, "--out", str(out)]) == 0
    assert out.read_bytes() == bytes.fromhex(ENVELOPE_HEX)
    assert capsys.readouterr().out.strip() == CIPHER_BITS


def test_encrypt_file_requires_out(tmp_path, capsys):
    src = tmp_path / "msg.bin"
    src.write_bytes(PLAIN_BYTES)
    assert _status(["encrypt", "--key", "3,5", "--in", str(src)]) == 2
    assert "--out" in capsys.readouterr().err.splitlines()[-1]
    # A usage error, found before FILE is read.
    assert _status(["encrypt", "--key", "3,5", "--in", str(tmp_path / "absent")]) == 2


def test_file_round_trip(tmp_path, capsys):
    src = tmp_path / "msg.bin"
    env = tmp_path / "msg.hct"
    back = tmp_path / "msg.out"
    src.write_bytes(bytes(range(256)))
    assert main(["encrypt", "--key", "3,5,2", "--in", str(src), "--out", str(env)]) == 0
    assert main(["decrypt", "--key", "3,5,2", "--in", str(env), "--out", str(back)]) == 0
    assert back.read_bytes() == bytes(range(256))
    assert "wrote 256 bytes" in capsys.readouterr().out


def test_text_and_file_inputs_agree(tmp_path, capsys):
    src = tmp_path / "msg.bin"
    src.write_bytes(PLAIN_BYTES)
    env = tmp_path / "msg.hct"
    assert main(["encrypt", "--key", "3,5", "--in", str(src), "--out", str(env)]) == 0
    capsys.readouterr()
    parsed = CipherEnvelope.from_bytes(env.read_bytes())
    assert parsed.payload.bits == CIPHER_BITS


def test_decrypt_prints_bits_without_out(tmp_path, capsys):
    env = tmp_path / "msg.hct"
    env.write_bytes(bytes.fromhex(ENVELOPE_HEX))
    assert main(["decrypt", "--key", "3,5", "--in", str(env)]) == 0
    assert capsys.readouterr().out.strip() == PLAIN_BITS


def test_decrypt_to_file_requires_byte_alignment(tmp_path, capsys):
    env = tmp_path / "msg.hct"
    out = tmp_path / "msg.out"
    assert main(["encrypt", "--key", "3", "--text", "10110", "--out", str(env)]) == 0
    capsys.readouterr()
    assert main(["decrypt", "--key", "3", "--in", str(env), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "whole number of bytes" in err
    assert not out.exists()


def test_decrypt_rejects_malformed_file(tmp_path, capsys):
    env = tmp_path / "junk.hct"
    env.write_bytes(b"this is not an envelope")
    assert main(["decrypt", "--key", "3,5", "--in", str(env)]) == 1
    assert "MalformedEnvelope" in capsys.readouterr().err


def test_decrypt_has_no_block_size_option(tmp_path, capsys):
    env = tmp_path / "msg.hct"
    env.write_bytes(bytes.fromhex(ENVELOPE_HEX))
    with pytest.raises(SystemExit) as exc:
        main(["decrypt", "--key", "3,5", "--in", str(env), "--block-size", "16"])
    assert exc.value.code == 2


def test_decrypt_missing_file(tmp_path, capsys):
    assert main(["decrypt", "--key", "3,5", "--in", str(tmp_path / "absent")]) == 1
    assert "error:" in capsys.readouterr().err


def test_hash_prints_bits_and_hex(capsys):
    rc = main(["hash", "--key", "3,5", "--text", PLAIN_BITS, "--digest-bits", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"bits: {DIGEST16}" in out
    assert "hex: 351e" in out


def test_bad_key_reports_error(capsys):
    assert _status(["encrypt", "--key", "3;5", "--text", "101"]) == 2
    assert "comma-separated" in capsys.readouterr().err
    assert _status(["encrypt", "--key", "4", "--text", "101"]) == 2
    assert "InvalidKeyElement" in capsys.readouterr().err


def test_bad_text_reports_error(capsys):
    assert _status(["encrypt", "--key", "3", "--text", "10a"]) == 2
    assert "error:" in capsys.readouterr().err


def test_matrix_output_matches_reference(capsys):
    assert main(["matrix", "--exponent", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    got = tuple(tuple(int(v) for v in line.split()) for line in lines)
    assert got == MOD7_MATRIX


def test_matrix_rejects_bad_exponent(capsys):
    assert _status(["matrix", "--exponent", "11"]) == 2
    assert "InvalidKeyElement" in capsys.readouterr().err


def test_matrix_rejects_bad_order(capsys):
    assert _status(["matrix", "--exponent", "3", "--order", "12"]) == 2
    assert "UnsupportedBlockOrder" in capsys.readouterr().err


@pytest.mark.parametrize("order", [8, 16, 32, 64, 128])
def test_matrix_order_flag_accepts_supported_orders(capsys, order):
    assert main(["matrix", "--exponent", "3", "--order", str(order)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == order


@pytest.mark.parametrize("order, message", [
    ("12", "UnsupportedBlockOrder: block order 12 not in supported set (8, 16, 32, 64, 128)"),
    ("x", "ValueError: invalid literal for int() with base 10: 'x'"),
])
def test_matrix_order_flag_names_the_refusal(capsys, order, message):
    assert _status(["matrix", "--exponent", "3", "--order", order]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip("\n").endswith(f"argument --order: {message}")


def test_analyze_stdout_csv(capsys):
    assert main(["analyze", "--key", "3,5", "--text", PLAIN_BITS]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "position,bit_a,bit_b,diff"
    assert sum(1 for line in lines if line and not line.startswith("#")) == 25
    assert "plaintext vs ciphertext payload" in out
    assert "hamming=12 of 24" in out


def test_analyze_flip_mode(tmp_path, capsys):
    csv_path = tmp_path / "diff.csv"
    rc = main([
        "analyze", "--key", "3,5", "--text", PLAIN_BITS,
        "--flip", "0", "--emit-csv", str(csv_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "single-flip avalanche (payload bit 0)" in out
    content = csv_path.read_text()
    assert content.startswith("position,bit_a,bit_b,diff\n")
    assert content.rstrip().splitlines()[-1].startswith("#")


def test_analyze_flip_rows_match_tolerant_decrypt(capsys):
    assert main(["analyze", "--key", "3,5", "--text", PLAIN_BITS, "--flip", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith("sentinel_conflicts=1")
    key = KeySchedule.from_exponents([3, 5])
    envelope = encrypt(BitSeq(PLAIN_BITS), key, 8)
    flipped = replace(envelope, payload=envelope.payload.flip(0))
    recovered = decrypt_tolerant(flipped, key)[0].bits
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    assert len(rows) == len(PLAIN_BITS)
    for position, bit_a, bit_b, diff in rows:
        i = int(position)
        assert (bit_a, bit_b) == (PLAIN_BITS[i], recovered[i])
        assert int(diff) == (bit_a != bit_b)


def test_analyze_flip_out_of_range(capsys):
    assert main(["analyze", "--key", "3,5", "--text", PLAIN_BITS, "--flip", "40"]) == 1
    assert "flip index" in capsys.readouterr().err


def test_analyze_warns_on_degenerate_input(capsys):
    assert main(["analyze", "--key", "3", "--text", "1" * 24]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "all ones" in captured.err


def test_bench_reports_both_kernels(capsys):
    rc = main(["bench", "--exponent", "3", "--order", "8", "--trials", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "naive:" in out
    assert "fast:" in out
    assert "order=8 modulus=7" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_rejects_non_positive_trials(capsys, trials):
    assert _status(["bench", "--exponent", "3", "--order", "8", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --trials: ValueError: must be at least 1" in captured.err


def test_mutually_exclusive_inputs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encrypt", "--key", "3", "--text", "101", "--in", "x"])
    assert exc.value.code == 2


def test_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
