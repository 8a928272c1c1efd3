"""End-to-end pipeline: encrypt, decrypt, keys, hashing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hctcodec.analysis import avalanche_experiment
from hctcodec.bitcodec import (
    BitSeq,
    SentinelSet,
    detect_sentinels,
    pad_and_group,
    restore_sentinels,
    truncate,
    ungroup,
)
from hctcodec.cipher import (
    CipherEnvelope,
    DecryptAnomalies,
    KeySchedule,
    LevelRecord,
    decrypt,
    decrypt_tolerant,
    encrypt,
    hash_digest,
)
from hctcodec.errors import (
    CodecError,
    InvalidKeyElement,
    MalformedEnvelope,
    SentinelConflict,
    UnsupportedBlockOrder,
)
from hctcodec.hadamard import HadamardSpec, apply_fast, apply_inverse
from vectors import (
    CIPHER_BITS,
    DIGEST16,
    L1_BITS,
    L1_SENTINELS,
    PLAIN_BITS,
)

KEY35 = KeySchedule.from_exponents([3, 5])


def test_key_schedule_validates_each_element():
    key = KeySchedule.from_exponents([3, 5, 3])
    assert key.exponents == (3, 5, 3)
    assert len(key) == 3
    with pytest.raises(InvalidKeyElement):
        KeySchedule.from_exponents([3, 4])
    with pytest.raises(InvalidKeyElement):
        KeySchedule.from_exponents([])


def test_encrypt_worked_example():
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    assert env.payload == BitSeq(CIPHER_BITS)
    assert env.block_order == 8
    assert env.version == 1
    assert [(r.x, r.orig_bit_len, r.sentinels.indices) for r in env.levels] == [
        (3, 24, L1_SENTINELS),
        (5, 24, ()),
    ]


def test_single_level_worked_example():
    env = encrypt(BitSeq(PLAIN_BITS), KeySchedule.from_exponents([3]))
    assert env.payload == BitSeq(L1_BITS)
    assert env.levels[0].sentinels == SentinelSet(L1_SENTINELS)


def test_decrypt_worked_example():
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    assert decrypt(env, KEY35) == BitSeq(PLAIN_BITS)


def test_encrypt_is_deterministic():
    a = encrypt(BitSeq(PLAIN_BITS), KEY35)
    b = encrypt(BitSeq(PLAIN_BITS), KEY35)
    assert a == b
    assert a.to_bytes() == b.to_bytes()


def test_level_count_tracks_key_length():
    for exponents in ([3], [5, 3], [2, 3, 5, 7]):
        env = encrypt(BitSeq("1011"), KeySchedule.from_exponents(exponents))
        assert len(env.levels) == len(exponents)
        assert [r.x for r in env.levels] == exponents


def test_payload_length_is_whole_blocks_of_last_width():
    for exponents, n in ([(3, 5), 8], [(5, 2), 16], [(7,), 32]):
        env = encrypt(BitSeq("1" * 100), KeySchedule.from_exponents(exponents), n)
        assert len(env.payload) % (n * exponents[-1]) == 0


def test_key_order_matters():
    a = encrypt(BitSeq(PLAIN_BITS), KeySchedule.from_exponents([3, 5]))
    b = encrypt(BitSeq(PLAIN_BITS), KeySchedule.from_exponents([5, 3]))
    assert a.payload != b.payload


def test_empty_input_round_trip():
    env = encrypt(BitSeq(""), KEY35)
    assert env.payload == BitSeq("")
    assert [r.orig_bit_len for r in env.levels] == [0, 0]
    assert decrypt(env, KEY35) == BitSeq("")


def test_degenerate_inputs_round_trip():
    # All-zero and all-one messages the transform sends to zero payloads.
    for bits in ("0" * 24, "1" * 24, "1" * 30):
        env = encrypt(BitSeq(bits), KEY35)
        assert set(env.payload.bits) <= {"0"}
        assert decrypt(env, KEY35) == BitSeq(bits)


def test_all_ones_sentinels_cover_every_group():
    env = encrypt(BitSeq("1" * 24), KeySchedule.from_exponents([3]))
    assert env.levels[0].sentinels.indices == tuple(range(8))


def test_block_order_validation():
    with pytest.raises(UnsupportedBlockOrder):
        encrypt(BitSeq("101"), KEY35, 12)
    with pytest.raises(UnsupportedBlockOrder):
        encrypt(BitSeq("101"), KEY35, 4)


def test_round_trip_across_block_orders():
    msg = BitSeq("1100100111011111100000111010")
    for n in (8, 16, 32, 64, 128):
        env = encrypt(msg, KEY35, n)
        assert env.block_order == n
        assert decrypt(env, KEY35) == msg


def test_indivisible_lengths_round_trip():
    # Lengths that none of the widths divide, plus single-bit messages.
    key = KeySchedule.from_exponents([3, 5, 2])
    for bits in ("1", "0", "11", "10110", "1" * 97, "01" * 61):
        env = encrypt(BitSeq(bits), key)
        assert decrypt(env, key) == BitSeq(bits)


def test_level_count_mismatch_rejected():
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    short = KeySchedule.from_exponents([3])
    with pytest.raises(MalformedEnvelope):
        decrypt(env, short)
    with pytest.raises(MalformedEnvelope):
        decrypt_tolerant(env, short)


def test_wrong_key_never_returns_plaintext_here():
    # Not an intrinsic guarantee, but it must hold for this message: a
    # wrong key either raises a consistency error or yields different bits.
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    for exponents in ([5, 3], [3, 3], [5, 5], [2, 7], [13, 17]):
        wrong = KeySchedule.from_exponents(exponents)
        try:
            out = decrypt(env, wrong)
        except CodecError:
            continue
        assert out != BitSeq(PLAIN_BITS)


def test_tolerant_decrypt_matches_strict_on_clean_input():
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    bits, anomalies = decrypt_tolerant(env, KEY35)
    assert bits == BitSeq(PLAIN_BITS)
    assert not anomalies.any()


def test_tolerant_decrypt_counts_sentinel_conflicts():
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    # Add a bogus sentinel pointing at a group that recovers nonzero.
    bad_levels = (
        LevelRecord(3, 24, SentinelSet((0, 4))),
        env.levels[1],
    )
    damaged = CipherEnvelope(env.version, env.block_order, bad_levels, env.payload)
    with pytest.raises(SentinelConflict):
        decrypt(damaged, KEY35)
    # Tolerant mode skips the restoration instead; since the slot already
    # held its true value, the output survives and the skip is counted.
    bits, anomalies = decrypt_tolerant(damaged, KEY35)
    assert anomalies.sentinel_conflicts == 1
    assert anomalies.any()
    assert bits == BitSeq(PLAIN_BITS)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="01", max_size=600),
    st.lists(st.sampled_from([2, 3, 5, 7, 13]), min_size=1, max_size=4),
    st.sampled_from([8, 16, 32]),
)
def test_round_trip_property(bits, exponents, n):
    key = KeySchedule.from_exponents(exponents)
    env = encrypt(BitSeq(bits), key, n)
    assert decrypt(env, key) == BitSeq(bits)
    recovered, anomalies = decrypt_tolerant(env, key)
    assert recovered == BitSeq(bits)
    assert not anomalies.any()


def test_hash_worked_example():
    digest = hash_digest(BitSeq(PLAIN_BITS), KEY35, 8, 16)
    assert digest == BitSeq(DIGEST16)
    assert DIGEST16 == CIPHER_BITS[:16]


def test_hash_is_deterministic_and_sized():
    msg = BitSeq("10" * 100)
    for bits in (1, 7, 16, 128, 512):
        a = hash_digest(msg, KEY35, 8, bits)
        b = hash_digest(msg, KEY35, 8, bits)
        assert a == b
        assert len(a) == bits


def test_hash_zero_extends_past_payload():
    # 24-bit message, key (3,): payload is 24 bits, digest asks for 64.
    digest = hash_digest(BitSeq(PLAIN_BITS), KeySchedule.from_exponents([3]), 8, 64)
    assert len(digest) == 64
    assert digest.bits[:24] == L1_BITS
    assert digest.bits[24:] == "0" * 40


def test_hash_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        hash_digest(BitSeq("101"), KEY35, 8, 0)
    with pytest.raises(ValueError):
        hash_digest(BitSeq("101"), KEY35, 8, -16)


def test_hash_differs_across_keys_and_messages():
    a = hash_digest(BitSeq(PLAIN_BITS), KEY35, 8, 40)
    b = hash_digest(BitSeq(PLAIN_BITS), KeySchedule.from_exponents([5, 3]), 8, 40)
    c = hash_digest(BitSeq(PLAIN_BITS).flip(0), KEY35, 8, 40)
    assert a != b
    assert a != c


def per_block(kernel, spec, values):
    return [out for start in range(0, len(values), spec.n)
            for out in kernel(spec, values[start:start + spec.n])]


def reference_encrypt(bits, key, n):
    """encrypt() rebuilt from the per-group helpers and the per-block kernel."""
    levels = []
    for params in key.elements:
        grouped = pad_and_group(bits, params.x, n)
        levels.append(LevelRecord(params.x, grouped.orig_bit_len, detect_sentinels(grouped)))
        bits = ungroup(per_block(apply_fast, HadamardSpec(n, params.p), grouped.values), params.x)
    return CipherEnvelope(1, n, tuple(levels), bits)


def reference_decrypt(envelope, key, anomalies):
    """decrypt() (anomalies None) or decrypt_tolerant() from the per-group helpers."""
    bits = envelope.payload
    for params, record in zip(reversed(key.elements), reversed(envelope.levels)):
        grouped = pad_and_group(bits, params.x, envelope.block_order)
        spec = HadamardSpec(envelope.block_order, params.p)
        recovered = per_block(apply_inverse, spec, grouped.values)
        if anomalies is None:
            restored = restore_sentinels(recovered, record.sentinels, params.x)
            bits = truncate(ungroup(restored, params.x), record.orig_bit_len)
            continue
        for i in record.sentinels:
            if i < len(recovered) and recovered[i] == 0:
                recovered[i] = params.p
            else:
                anomalies.sentinel_conflicts += 1
        raw = ungroup(recovered, params.x)
        keep = record.orig_bit_len
        if keep > len(raw):
            anomalies.length_underflows += 1
            keep = len(raw)
        elif "1" in raw.bits[keep:]:
            anomalies.padding_violations += 1
        bits = BitSeq(raw.bits[:keep])
    return bits


def outcome(run):
    try:
        return run()
    except CodecError as exc:
        return type(exc), str(exc)


def damaged_envelopes(env, rng):
    """The envelope itself, then corrupted payloads, bogus sentinels and lengths."""
    yield env
    payload = env.payload
    for _ in range(2):
        if len(payload):
            yield CipherEnvelope(env.version, env.block_order, env.levels,
                                 payload.flip(rng.randrange(len(payload))))
    for level, record in enumerate(env.levels):
        limit = record.padded_group_count(env.block_order)
        damaged = [LevelRecord(record.x, record.orig_bit_len + extra, record.sentinels)
                   for extra in (1, 4096)]
        for index in (rng.randrange(limit + 1), limit, limit + 5):
            sentinels = SentinelSet.from_positions(set(record.sentinels) | {index})
            damaged.append(LevelRecord(record.x, record.orig_bit_len, sentinels))
        for bad in damaged:
            levels = env.levels[:level] + (bad,) + env.levels[level + 1:]
            yield CipherEnvelope(env.version, env.block_order, levels, payload)


def test_level_loops_match_per_block_reference():
    # Lengths no width or order divides, damaged envelopes and wrong keys:
    # records, payload, output bits, exception class and message, anomaly counts.
    rng = random.Random(20261018)
    keys = [(3, 5, 31), (2, 7), (13,), (5, 3), (3, 3), (7, 2), (17, 19)]
    for trial in range(60):
        exponents = rng.choice(keys)
        key = KeySchedule.from_exponents(exponents)
        n = rng.choice((8, 16, 32, 64, 128))
        length = rng.choice((0, 1, 2, rng.randrange(3, 200), rng.randrange(200, 3000)))
        ones = rng.random() < 0.2  # all-ones runs make many sentinels
        bits = BitSeq("".join(
            "1" if ones and rng.random() < 0.9 else rng.choice("01") for _ in range(length)
        ))
        env = encrypt(bits, key, n)
        assert env == reference_encrypt(bits, key, n)
        for damaged in damaged_envelopes(env, rng):
            for other in (exponents, rng.choice(keys)):
                wrong = KeySchedule.from_exponents(other)
                if len(wrong) != len(damaged.levels):
                    continue
                assert outcome(lambda: decrypt(damaged, wrong)) == outcome(
                    lambda: reference_decrypt(damaged, wrong, None))
                anomalies = DecryptAnomalies()
                assert outcome(lambda: decrypt_tolerant(damaged, wrong)) == outcome(
                    lambda: (reference_decrypt(damaged, wrong, anomalies), anomalies))


def test_product_path_never_formats_bit_text(monkeypatch):
    # Level 1 of the (3, 5) key finds sentinels in the 0xff run, the length is
    # not byte-aligned, and the flipped payload bit makes the tolerant decrypt
    # skip sentinel restorations.
    message = BitSeq.from_bytes(bytes(range(256)) + b"\xff" * 16, bit_len=2171)

    def no_text(self):
        raise AssertionError("bit text formatted on the product path")

    monkeypatch.setattr(BitSeq, "bits", property(no_text))
    blob = encrypt(message, KEY35).to_bytes()
    envelope = CipherEnvelope.from_bytes(blob)
    assert envelope.to_bytes() == blob
    recovered = decrypt(envelope, KEY35)
    assert recovered == message
    assert BitSeq.from_bytes(recovered.to_bytes(), bit_len=2171) == message
    assert decrypt_tolerant(envelope, KEY35) == (message, DecryptAnomalies())
    assert len(hash_digest(message, KEY35, 8, 64)) == 64
    assert len(hash_digest(message, KEY35, 8, 4096)) == 4096
    report = avalanche_experiment(message, KEY35, 8, len(envelope.payload) - 1)
    assert report.length_a == report.length_b == 2171
    assert report.sentinel_conflicts > 0
