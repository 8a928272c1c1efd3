"""Difference series, avalanche experiment, degenerate detection, CSV."""

import io
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hctcodec import analysis, cipher
from hctcodec.analysis import (
    DiffReport,
    avalanche_experiment,
    degenerate_check,
    difference_series,
    write_csv,
)
from hctcodec.bitcodec import SLICE_BITS, BitSeq
from hctcodec.cipher import (
    CipherEnvelope,
    KeySchedule,
    _plan,
    decrypt_tolerant,
    encrypt,
    hash_digest,
)
from vectors import (
    PLAIN_BITS,
    PLAIN_VS_CIPHER_COMMON,
    PLAIN_VS_CIPHER_DELTA,
    PLAIN_VS_CIPHER_HAMMING,
)

KEY35 = KeySchedule.from_exponents([3, 5])

bit_strings = st.text(alphabet="01", max_size=128)


def test_identical_sequences():
    report = difference_series(BitSeq("1010"), BitSeq("1010"))
    assert report.hamming == 0
    assert report.common == 4
    assert report.length_delta == 0
    assert report.fraction == 0.0
    assert report.series == BitSeq("0000")


def test_disjoint_lengths():
    report = difference_series(BitSeq("111"), BitSeq("10"))
    assert report.series == BitSeq("01")
    assert report.common == 2
    assert report.hamming == 1
    assert report.length_a == 3
    assert report.length_b == 2
    assert report.length_delta == 1


def test_empty_comparison():
    report = difference_series(BitSeq(""), BitSeq(""))
    assert report.common == 0
    assert report.fraction == 0.0


def test_plaintext_vs_ciphertext_reference_values():
    # The example message against its own ciphertext payload.
    plain = BitSeq(PLAIN_BITS)
    ct = encrypt(plain, KEY35).payload
    report = difference_series(plain, ct)
    assert report.common == PLAIN_VS_CIPHER_COMMON
    assert report.hamming == PLAIN_VS_CIPHER_HAMMING
    assert report.length_delta == PLAIN_VS_CIPHER_DELTA


@given(bit_strings, bit_strings)
def test_difference_series_symmetry(a, b):
    fwd = difference_series(BitSeq(a), BitSeq(b))
    rev = difference_series(BitSeq(b), BitSeq(a))
    assert fwd.hamming == rev.hamming
    assert fwd.series == rev.series
    assert fwd.length_delta == rev.length_delta
    assert fwd.length_a == rev.length_b
    assert fwd.series == BitSeq("".join(str(int(x != y)) for x, y in zip(a, b)))


@given(bit_strings, bit_strings, st.integers(0, 3))
@example("", "", 0)
@example("", "1", 2)
@example("0110", "01", 1)
def test_report_built_from_a_tuple_of_bits_equals_the_library_report(a, b, conflicts):
    # bench/oracle.py builds its expected report positionally, with the
    # series as a tuple of 0/1 ints; bench/run.py compares reports with ==
    # and calls dataclasses.replace on them.  Equal reports hash equal too.
    bits = tuple(int(x != y) for x, y in zip(a, b))
    built = DiffReport(len(a), len(b), sum(bits), abs(len(a) - len(b)), bits, conflicts)
    report = replace(difference_series(BitSeq(a), BitSeq(b)), sentinel_conflicts=conflicts)
    assert built == report
    assert hash(built) == hash(report)
    assert replace(built, sentinel_conflicts=0) == difference_series(BitSeq(a), BitSeq(b))


def test_report_refuses_a_series_of_other_values():
    with pytest.raises(ValueError):
        DiffReport(2, 2, 1, 0, (0, 2))


@given(bit_strings)
def test_self_difference_is_zero(a):
    report = difference_series(BitSeq(a), BitSeq(a))
    assert report.hamming == 0
    assert report.length_delta == 0


def test_avalanche_flip_changes_output():
    report = avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, 0)
    assert report.length_a == len(PLAIN_BITS)
    # One corrupted ciphertext word disturbs its whole block on the way back.
    assert report.hamming > 0


def test_avalanche_flip_range_checked():
    with pytest.raises(ValueError):
        avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, 40)
    with pytest.raises(ValueError):
        avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, -1)


def test_a_valid_flip_plans_only_its_superblock(monkeypatch):
    # The forward pass of the flipped bit's superblock checks the flip; the
    # whole message is planned only to word the error, past either end.
    key, n = KeySchedule.from_exponents([2, 7]), 16
    size = key.superblock_bits(n)
    message = BitSeq.from_int(random.Random(3).getrandbits(2 * size + 5), 2 * size + 5)
    payload_bits = _plan(key._exponents, n, len(message))[1]
    planned, plan = [], cipher._plan

    def counted(*args):
        planned.append(args)
        return plan(*args)

    monkeypatch.setattr(cipher, "_plan", counted)
    monkeypatch.setattr(analysis, "_plan", counted)
    for flip in (0, size, 2 * size, payload_bits - 1):
        planned.clear()
        avalanche_experiment(message, key, n, flip)
        assert len(planned) == 1, flip
    for flip in (-1, -size - 1, payload_bits, payload_bits + size, 10 * size):
        with pytest.raises(ValueError, match=f"^flip index {flip} outside payload of "
                                             f"{payload_bits} bits$"):
            avalanche_experiment(message, key, n, flip)


def test_avalanche_reports_every_flip_position():
    for index in (0, 7, 13, 39):
        report = avalanche_experiment(BitSeq(PLAIN_BITS), KEY35, 8, index)
        assert report.sentinel_conflicts >= 0
        assert 0.0 <= report.fraction <= 1.0


def whole_message_avalanche(plaintext, key, n, flip):
    """Reference: encrypt, flip and tolerantly decrypt the whole message."""
    env = encrypt(plaintext, key, n)
    if not 0 <= flip < len(env.payload):
        raise ValueError(f"flip index {flip} outside payload of {len(env.payload)} bits")
    damaged = CipherEnvelope(env.version, n, env.levels, env.payload.flip(flip))
    recovered, anomalies = decrypt_tolerant(damaged, key)
    return replace(difference_series(plaintext, recovered),
                   sentinel_conflicts=anomalies.sentinel_conflicts)


@pytest.mark.parametrize("exponents, n", [((2, 7), 16), ((3, 5, 31), 8)])
def test_avalanche_of_the_flipped_superblock_matches_the_whole_message(exponents, n):
    # Flips in the first, a middle and the last full superblock and in the
    # ragged tail; a message of whole superblocks; and the empty message.
    key = KeySchedule.from_exponents(exponents)
    size = key.superblock_bits(n)
    rng = random.Random(1012)
    conflicts = 0
    for length in (3 * size + size // 3, 3 * size, size - 1):
        # Mostly ones, so every level has sentinels for a flip to disturb.
        value = rng.getrandbits(length) | rng.getrandbits(length) | rng.getrandbits(length)
        message = BitSeq.from_int(value, length)
        payload_bits = len(encrypt(message, key, n).payload)
        flips = {0, 5, size - 1, size + 17, 2 * size, 3 * size - 1,
                 3 * size, payload_bits - 1, *rng.sample(range(payload_bits), 8)}
        for flip in sorted(f for f in flips if f < payload_bits):
            report = avalanche_experiment(message, key, n, flip)
            assert report == whole_message_avalanche(message, key, n, flip), (length, flip)
            conflicts += report.sentinel_conflicts
        for flip in (-1, payload_bits):
            with pytest.raises(ValueError) as chunked:
                avalanche_experiment(message, key, n, flip)
            with pytest.raises(ValueError) as whole:
                whole_message_avalanche(message, key, n, flip)
            assert str(chunked.value) == str(whole.value)
    assert conflicts > 0
    with pytest.raises(ValueError, match="^flip index 0 outside payload of 0 bits$"):
        avalanche_experiment(BitSeq(""), key, n, 0)


@pytest.mark.parametrize("exponents, n", [
    ((2, 7), 16), ((3, 5, 31), 8), ((13,), 128), ((5, 3, 2), 16),
    ((3, 5, 31), 128),  # S = 59520 > SLICE_BITS: a longer message is encrypted by chunks
])
def test_digest_and_avalanche_equal_the_envelope_pipeline(exponents, n):
    # hash_digest and avalanche_experiment run the level loops on ints and
    # build no envelope; through the public API they must equal the payload
    # prefix of encrypt, and encrypt, flip, decrypt_tolerant and
    # difference_series, at lengths around S and above SLICE_BITS, with flips
    # on superblock edges and in the ragged tail.
    key = KeySchedule.from_exponents(exponents)
    size = key.superblock_bits(n)
    rng = random.Random(size + n)
    conflicts = 0
    for length in sorted({0, 1, size - 1, size, size + 1, SLICE_BITS + 1}):
        # Mostly ones, so every level that can carry sentinels has some.
        value = rng.getrandbits(length) | rng.getrandbits(length) | rng.getrandbits(length)
        message = BitSeq.from_int(value, length)
        payload = encrypt(message, key, n).payload
        for width in sorted({1, 128, size - 1, size, size + 1, length + 1}):
            spare = len(payload) - width
            prefix = payload.value >> spare if spare >= 0 else payload.value << -spare
            assert hash_digest(message, key, n, width) == BitSeq.from_int(prefix, width), (
                length, width)
        tail = length - length % size
        flips = {0, size - 1, size, tail - 1, tail, tail + 1, len(payload) - 1}
        for flip in sorted(f for f in flips if 0 <= f < len(payload)):
            report = avalanche_experiment(message, key, n, flip)
            assert report == whole_message_avalanche(message, key, n, flip), (length, flip)
            conflicts += report.sentinel_conflicts
    assert conflicts > 0


@pytest.mark.parametrize("exponents, n", [((3, 5, 31), 8), ((13,), 128), ((2, 7), 16)])
def test_payload_length_without_encrypting(exponents, n):
    key = KeySchedule.from_exponents(exponents)
    size = key.superblock_bits(n)
    rng = random.Random(size)
    for length in (0, 1, size - 1, size, 3 * size + size // 3):
        message = BitSeq.from_int(rng.getrandbits(length), length)
        env = encrypt(message, key, n)
        plan, payload_bits = _plan(exponents, n, length)
        assert payload_bits == len(env.payload), length
        assert [level[:3] for level in plan] == [
            (record.x, record.orig_bit_len, record.padded_group_count(n)) for record in env.levels]


@pytest.mark.parametrize("exponents, n", [((3, 5, 31), 8), ((13,), 128), ((2, 7), 16)])
def test_digest_and_avalanche_read_only_the_bytes_they_need(monkeypatch, exponents, n):
    # A message longer than SLICE_BITS held as bytes, whole or ending in fill:
    # the digest cuts its prefix and the experiment the flipped superblock
    # from the bytes, never forming the whole message's int (``value``), and
    # both give what they give on the int form of the same message.
    key = KeySchedule.from_exponents(exponents)
    size = key.superblock_bits(n)
    data = random.Random(size).randbytes(3 * SLICE_BITS // 8 + 5)
    whole = BitSeq.from_bytes(data)
    ragged = BitSeq._packed(data[:-1] + bytes([data[-1] & 0xE0]), 8 * len(data) - 5)
    asked = []

    def spied(self, name):
        if name == "value" and object.__getattribute__(self, "length") > SLICE_BITS:
            asked.append(name)
        return object.__getattribute__(self, name)

    for message in (whole, ragged):
        payload_bits = _plan(exponents, n, len(message))[1]
        widths = (1, 128, size + 1, len(message) + 1)
        flips = (0, size - 1, size, payload_bits // 2, payload_bits - 1)

        def calls(bits):
            return ([hash_digest(bits, key, n, width) for width in widths]
                    + [avalanche_experiment(bits, key, n, flip) for flip in flips])

        want = calls(BitSeq.from_int(int.from_bytes(data, "big") >> 8 * len(data) - len(message),
                                     len(message)))
        with monkeypatch.context() as patch:
            patch.setattr(BitSeq, "__getattribute__", spied)
            got = calls(message)
        assert asked == []
        assert got == want


def test_short_call_peak_memory_per_byte():
    # hash_digest plus one avalanche, as a short-message op runs them, on
    # 1000-1100-bit messages under 2,7 at n = 16.  Each message runs once
    # untraced first, so the lane-mask cache is full.  Both calls run the
    # cipher's level loops on ints, with no envelope, and the lane kernel
    # drops its dead temporaries, which keeps the peak at 6.9-7.5 B/B; through
    # envelopes it was 20-21, and with a tuple of one int per bit in the
    # report, about 97.
    key, rng = KeySchedule.from_exponents([2, 7]), random.Random(21)
    calls = []
    for length in rng.sample(range(1000, 1101), 8):
        message = BitSeq.from_int(rng.getrandbits(length), length)
        calls.append((message, rng.randrange(_plan((2, 7), 16, length)[1])))
    for message, flip in calls:
        hash_digest(message, key, 16, 128)
        avalanche_experiment(message, key, 16, flip)
    peaks = {}
    tracemalloc.start()
    try:
        for message, flip in calls:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            outputs = (hash_digest(message, key, 16, 128),
                       avalanche_experiment(message, key, 16, flip))
            peaks[len(message)] = (tracemalloc.get_traced_memory()[1] - base) / (len(message) / 8)
            del outputs
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) <= 8.5, peaks


def test_degenerate_detection():
    assert degenerate_check(BitSeq("0000")) is not None
    assert degenerate_check(BitSeq("1111")) is not None
    assert "zero" in degenerate_check(BitSeq("0000"))
    assert "ones" in degenerate_check(BitSeq("1111"))
    assert degenerate_check(BitSeq("0100")) is None
    assert degenerate_check(BitSeq("0111")) is None
    assert degenerate_check(BitSeq("1110")) is None
    assert degenerate_check(BitSeq("")) is None


def test_degenerate_check_forms_the_message_int_once(monkeypatch):
    # A byte form forms the whole message int on each read of value, so the
    # check reads it once, whatever its verdict and whichever form it gets.
    reads = []
    value = BitSeq.value
    monkeypatch.setattr(BitSeq, "value", property(lambda seq: reads.append(seq) or value.fget(seq)))
    for data, verdict in ((bytes(64), "zeros"), (b"\xff" * 64, "ones"),
                          (random.Random(3).randbytes(64), None)):
        for seq in (BitSeq.from_bytes(data), BitSeq.from_int(int.from_bytes(data, "big"), 512)):
            reads.clear()
            warning = degenerate_check(seq)
            assert len(reads) == 1
            assert warning is None if verdict is None else verdict in warning


def test_csv_output_shape():
    stream = io.StringIO()
    report = difference_series(BitSeq("101"), BitSeq("100"))
    write_csv(BitSeq("101"), report, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "position,bit_a,bit_b,diff"
    assert lines[1] == "0,1,1,0"
    assert lines[2] == "1,0,0,0"
    assert lines[3] == "2,1,0,1"
    assert lines[4].startswith("# length_a=3 length_b=3")
    assert "hamming=1" in lines[4]
    assert report.hamming == 1


def test_csv_empty_inputs():
    stream = io.StringIO()
    report = difference_series(BitSeq(""), BitSeq(""))
    write_csv(BitSeq(""), report, stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == "position,bit_a,bit_b,diff"
    assert lines[1].startswith("#")
    assert report.common == 0


def test_report_is_plain_data():
    report = DiffReport(4, 4, 1, 0, (0, 0, 0, 1))
    assert report.common == 4
    assert report.fraction == 0.25
    assert report.sentinel_conflicts == 0
