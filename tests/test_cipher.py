"""End-to-end pipeline: encrypt, decrypt, keys, hashing."""

import random
import sys
import tracemalloc
from itertools import islice, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hctcodec import bitcodec, cipher, hadamard
from hctcodec.analysis import avalanche_experiment
from hctcodec.bitcodec import (
    SLICE_BITS,
    BitSeq,
    SentinelSet,
    _positions,
    detect_sentinels,
    pad_and_group,
    restore_sentinels,
    truncate,
    ungroup,
)
from hctcodec.cipher import (
    ENVELOPE_VERSION,
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
    NonZeroPadding,
    SentinelConflict,
    UnsupportedBlockOrder,
)
from hctcodec.hadamard import (
    SUPPORTED_ORDERS,
    HadamardSpec,
    apply_fast,
    apply_inverse,
    lane_slices,
)
from hctcodec.modmath import SUPPORTED_EXPONENTS, ModulusParams
from vectors import (
    CIPHER_BITS,
    DIGEST16,
    L1_BITS,
    L1_SENTINELS,
    PLAIN_BITS,
)

KEY35 = KeySchedule.from_exponents([3, 5])


def first_bits(data: bytes, n: int) -> BitSeq:
    """The first n bits of data, MSB-first."""
    return BitSeq.from_int(int.from_bytes(data, "big") >> 8 * len(data) - n, n)


def test_key_schedule_validates_each_element():
    key = KeySchedule.from_exponents([3, 5, 3])
    assert tuple(e.x for e in key.elements) == (3, 5, 3)
    assert len(key) == 3
    with pytest.raises(InvalidKeyElement):
        KeySchedule.from_exponents([3, 4])
    with pytest.raises(InvalidKeyElement):
        KeySchedule.from_exponents([])


@pytest.mark.parametrize("x", [0, 1, 4, 6, 8, 11, 32])
def test_key_schedule_refuses_exponents_outside_the_table(x):
    # ModulusParams takes any x and derives p = 2^x - 1; the key itself must
    # check the table, or encrypt would run mod 15 or mod 1, or divide by zero.
    with pytest.raises(InvalidKeyElement):
        KeySchedule((ModulusParams(3), ModulusParams(x)))


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
    with pytest.raises(UnsupportedBlockOrder):  # before the digest's prefix arithmetic
        hash_digest(BitSeq("1" * 300), KEY35, 0)


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
    assert anomalies == DecryptAnomalies()


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
    assert anomalies != DecryptAnomalies()
    assert bits == BitSeq(PLAIN_BITS)


def test_strict_decrypt_raises_the_anomaly_of_the_last_damaged_record():
    # Under 5,3 level 1 can carry sentinels; it records groups 2 and 3.
    # Level 0 gets a bogus sentinel over group 0 (which holds 25), level 1 one
    # over group 0 (which recovers 3).  Levels are undone from the last
    # record, so the level 1 conflict is met first.  Tolerant decrypt leaves
    # both groups as they are, so both conflicts are counted and the output
    # survives.
    key = KeySchedule.from_exponents([5, 3])
    env = encrypt(BitSeq(PLAIN_BITS), key)
    assert env.levels[1] == LevelRecord(3, 40, SentinelSet((2, 3)))
    bad0 = LevelRecord(5, 24, SentinelSet((0,)))
    bad1 = LevelRecord(3, 40, SentinelSet((0, 2, 3)))
    both = CipherEnvelope(env.version, 8, (bad0, bad1), env.payload)
    only0 = CipherEnvelope(env.version, 8, (bad0, env.levels[1]), env.payload)
    with pytest.raises(SentinelConflict) as exc:
        decrypt(both, key)
    assert str(exc.value) == "level 1: sentinel position 0 holds 3, expected 0"
    with pytest.raises(SentinelConflict) as exc:
        decrypt(only0, key)
    assert str(exc.value) == "level 0: sentinel position 0 holds 25, expected 0"
    assert decrypt_tolerant(both, key) == (BitSeq(PLAIN_BITS), DecryptAnomalies(
        sentinel_conflicts=2, padding_violations=0))


@pytest.mark.parametrize("length", [214, 3 * SLICE_BITS + 94])  # 2 padding bits each
def test_nonzero_padding_names_its_first_one_bit(length):
    # A level-0 record d bits short, padding to the same groups, makes the
    # message's last d bits padding.  Level 0's padded output is the
    # message, so decrypt names their one bits and the index of the first
    # there, also in the tail piece of a message past SLICE_BITS, whose
    # index counts the bits of the pieces before it.
    key, n = KEY35, 8
    bits = BitSeq.from_int(random.Random(length).getrandbits(length), length)
    env = encrypt(bits, key, n)
    record, text, seen = env.levels[0], bits.bits, 0
    for d in range(1, 24):
        short = LevelRecord(record.x, length - d, record.sentinels)
        tail = text[length - d:]
        if short.padded_group_count(n) != record.padded_group_count(n) or "1" not in tail:
            continue
        forged = CipherEnvelope(env.version, n, (short, *env.levels[1:]), env.payload)
        with pytest.raises(NonZeroPadding) as exc:
            decrypt(forged, key)
        assert str(exc.value) == (f"level 0: discarded padding contains {tail.count('1')} one "
                                  f"bits, the first at bit {length - d + tail.index('1')}")
        seen += 1
    assert seen >= 10


def can_carry(exponents, level):
    """Whether a level of the key ``exponents`` can record sentinels.

    Level 0 can.  Level k >= 1 reads level k-1's residues, none all ones, so
    its groups can be all ones iff x_k != x_(k-1) and x_k <= 2 x_(k-1) - 2
    (see test_level_1_carries_sentinels_only_where_the_chain_allows).
    """
    a, b = exponents[level - 1], exponents[level]
    return level == 0 or b != a and b <= 2 * a - 2


def test_a_level_1_sentinel_under_3_5_is_a_malformed_record(monkeypatch):
    # The forgery that once gave "level 1: sentinel position 0 holds 16": level
    # 1 of 3,5 reads 3-bit residues, none all ones, so no 5-bit group of it
    # can be all ones, and the record is refused before any lane arithmetic.
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    bad1 = LevelRecord(5, 24, SentinelSet((0,)))
    forged = CipherEnvelope(env.version, 8, (env.levels[0], bad1), env.payload)

    def no_arithmetic(*args):
        raise AssertionError("lane arithmetic ran before the record check")

    monkeypatch.setattr(cipher, "apply_lanes", no_arithmetic)
    parsed = CipherEnvelope.from_bytes(forged.to_bytes())  # HCT1 itself has no chain
    for envelope in (forged, parsed):
        for run in (decrypt, decrypt_tolerant):
            with pytest.raises(MalformedEnvelope, match="^level 1: sentinels recorded where "
                                                        "x 5 after x 3 cannot carry any$"):
                run(envelope, KEY35)


def test_levels_that_cannot_carry_sentinels_refuse_recorded_ones(monkeypatch):
    # For each of the 30 exponent pairs whose level 1 cannot carry sentinels,
    # one forged level-1 sentinel, as flags or as HCT1 words, is refused by
    # both decrypts before any lane arithmetic; the same forgery under the
    # 34 other pairs passes the record check.  A fourth level is held to the
    # rule as well.
    n, rng = 8, random.Random(27)
    envelopes = {}
    for a, b in product(SUPPORTED_EXPONENTS, repeat=2):
        key = KeySchedule.from_exponents([a, b])
        envelopes[a, b] = encrypt(random_bits(rng, rng.randrange(1, 400)), key, n)
    deep = KeySchedule.from_exponents([5, 3, 2, 2])  # levels 0-2 can carry, level 3 cannot
    env4 = encrypt(first_bits(bytes(range(40)) + b"\xff" * 8, 381), deep, 16)
    assert all(len(record.sentinels) for record in env4.levels[:3])

    def no_arithmetic(*args):
        raise AssertionError("lane arithmetic ran")

    monkeypatch.setattr(cipher, "apply_lanes", no_arithmetic)
    refused = 0
    for (a, b), env in envelopes.items():
        count = env.levels[1].padded_group_count(n)
        flags = SentinelSet._of(_positions(0, count, 1 << (count - 1) * b, b))  # position 0
        for sentinels in (flags, SentinelSet((0,))):
            record = LevelRecord(b, env.levels[1].orig_bit_len, sentinels)
            damaged = CipherEnvelope(env.version, n, (env.levels[0], record), env.payload)
            for run in (decrypt, decrypt_tolerant):
                if can_carry((a, b), 1):
                    with pytest.raises(AssertionError, match="^lane arithmetic ran$"):
                        run(damaged, KeySchedule.from_exponents([a, b]))
                    continue
                with pytest.raises(MalformedEnvelope, match=f"^level 1: sentinels recorded "
                                   f"where x {b} after x {a} cannot carry any$"):
                    run(damaged, KeySchedule.from_exponents([a, b]))
        refused += not can_carry((a, b), 1)
    assert refused == 30
    for run in (decrypt, decrypt_tolerant):
        with pytest.raises(MalformedEnvelope, match="^level 3: sentinels recorded where "
                                                    "x 2 after x 2 cannot carry any$"):
            run(forged(env4, 3, [0]), deep)


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
    assert anomalies == DecryptAnomalies()


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


def reference_check(envelope, key):
    """decrypt()'s record check, from the last level down, on the text forms."""
    if len(key.elements) != len(envelope.levels):
        raise MalformedEnvelope(f"envelope has {len(envelope.levels)} levels but key "
                                f"supplies {len(key.elements)} exponents")
    bits = len(envelope.payload)
    for level in reversed(range(len(key.elements))):
        x, record = key.elements[level].x, envelope.levels[level]
        groups = -(-record.orig_bit_len // x)
        count = -(-groups // envelope.block_order) * envelope.block_order
        if record.x != x:
            raise MalformedEnvelope(f"level {level}: recorded x {record.x}, key has x {x}")
        if record.orig_bit_len < 0:
            raise MalformedEnvelope(f"level {level}: recorded length {record.orig_bit_len} "
                                    f"is negative")
        if count * x != bits:
            raise MalformedEnvelope(f"level {level}: recorded length {record.orig_bit_len} "
                                    f"pads to {count * x} bits, but {bits} bits reach it")
        if any(i >= count for i in record.sentinels):
            raise MalformedEnvelope(f"level {level}: sentinels lie past its {count} groups")
        bits = record.orig_bit_len
    exponents = [params.x for params in key.elements]
    for level in reversed(range(1, len(exponents))):
        if not can_carry(exponents, level) and len(envelope.levels[level].sentinels):
            raise MalformedEnvelope(f"level {level}: sentinels recorded where x "
                                    f"{exponents[level]} after x {exponents[level - 1]} "
                                    f"cannot carry any")


def reference_decrypt(envelope, key, anomalies):
    """decrypt() (anomalies None) or decrypt_tolerant() from the per-group helpers."""
    reference_check(envelope, key)
    bits = envelope.payload
    for level in reversed(range(len(key.elements))):
        params, record = key.elements[level], envelope.levels[level]
        grouped = pad_and_group(bits, params.x, envelope.block_order)
        spec = HadamardSpec(envelope.block_order, params.p)
        recovered = per_block(apply_inverse, spec, grouped.values)
        if anomalies is None:
            try:
                restored = restore_sentinels(recovered, record.sentinels, params.x)
                bits = truncate(ungroup(restored, params.x), record.orig_bit_len)
            except CodecError as exc:
                raise type(exc)(f"level {level}: {exc}") from None
            continue
        for i in record.sentinels:
            if recovered[i] == 0:
                recovered[i] = params.p
            else:
                anomalies.sentinel_conflicts += 1
        raw = ungroup(recovered, params.x)
        keep = record.orig_bit_len
        if "1" in raw.bits[keep:]:
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
            sentinels = SentinelSet(sorted(set(record.sentinels) | {index}))
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


def test_bad_records_are_rejected_before_any_arithmetic(monkeypatch):
    # Each rule broken at each level of a 3-level envelope: another supported
    # x, a length n*x bits too long, and a sentinel at the padded group count.
    key = KeySchedule.from_exponents([5, 3, 2])
    env = encrypt(first_bits(bytes(range(40)) + b"\xff" * 8, 381), key, 16)
    assert all(len(record.sentinels) for record in env.levels)

    def no_arithmetic(*args):
        raise AssertionError("lane arithmetic ran before the record check")

    monkeypatch.setattr(cipher, "apply_lanes", no_arithmetic)
    for level, record in enumerate(env.levels):
        other = next(x for x in SUPPORTED_EXPONENTS if x != record.x)
        count = record.padded_group_count(16)
        broken = {
            "recorded x": LevelRecord(other, record.orig_bit_len, record.sentinels),
            "recorded length": LevelRecord(
                record.x, record.orig_bit_len + 16 * record.x, record.sentinels),
            "sentinels lie past": LevelRecord(
                record.x, record.orig_bit_len, SentinelSet((*record.sentinels, count))),
        }
        for rule, bad in broken.items():
            levels = env.levels[:level] + (bad,) + env.levels[level + 1:]
            damaged = CipherEnvelope(env.version, 16, levels, env.payload)
            for run in (decrypt, decrypt_tolerant):
                with pytest.raises(MalformedEnvelope, match=f"^level {level}: {rule} "):
                    run(damaged, key)


def test_negative_recorded_length_is_refused_by_the_record_check(monkeypatch):
    # A length of -1 pads to 0 groups, which match an empty payload or a
    # 0-bit record below, so only the sign rule catches it; the error names
    # the record that holds it, not the level its length reaches.
    def no_arithmetic(*args):
        raise AssertionError("lane arithmetic ran before the record check")

    monkeypatch.setattr(cipher, "apply_lanes", no_arithmetic)
    for exponents, level in (((3,), 0), ((3, 5), 1)):
        levels = [LevelRecord(x, 0, SentinelSet(())) for x in exponents]
        levels[level] = LevelRecord(exponents[level], -1, SentinelSet(()))
        envelope = CipherEnvelope(1, 8, tuple(levels), BitSeq())
        for run in (decrypt, decrypt_tolerant):
            with pytest.raises(MalformedEnvelope,
                               match=f"^level {level}: recorded length -1 is negative$"):
                run(envelope, KeySchedule.from_exponents(exponents))


def test_decrypt_checks_sentinel_lanes_at_the_edges_of_their_values():
    # Inverse outputs with 0, 1, 2^(x-1) - 1, 2^(x-1), 2^(x-1) + 1 and p - 1
    # in sentinel lanes, for every x: a two-block level per value, with one more
    # sentinel lane holding 0, and a level of two slices holding every value on
    # both sides of the cut.  Both forms of the sentinel set decrypt alike.
    rng, n = random.Random(2026), 8
    for x in SUPPORTED_EXPONENTS:
        p, top = (1 << x) - 1, 1 << x - 1
        edges = sorted({v for v in (0, 1, top - 1, top, top + 1, p - 1) if v < p})
        _, (_, step, _) = islice(lane_slices(x, 128 * SLICE_BITS), 2)
        cases = [(2 * n, {3: value, 11: 0}) for value in edges]
        cut = 128
        assert [lanes for _, lanes, _ in lane_slices(x, step + cut)] == [cut, step]
        cases.append((step + cut, {cut + i: edges[i % len(edges)]
                                   for i in range(-2 * len(edges), 2 * len(edges))}))
        for count, held in cases:
            wanted = [rng.randrange(p) for _ in range(count)]
            for i, value in held.items():
                wanted[i] = value
            payload = ungroup(per_block(apply_fast, HadamardSpec(n, p), wanted), x)
            restored = [p if i in held and not wanted[i] else a for i, a in enumerate(wanted)]
            want = ungroup(restored, x), DecryptAnomalies(sum(map(bool, held.values())), 0)
            flags = ungroup([int(i in held) for i in range(count)], x).value
            key = KeySchedule.from_exponents([x])
            for sentinels in (SentinelSet(sorted(held)),
                              SentinelSet._of(_positions(0, count, flags, x))):
                env = CipherEnvelope(1, n, (LevelRecord(x, count * x, sentinels),), payload)
                assert decrypt_tolerant(env, key) == want, (x, count)
                anomalies = DecryptAnomalies()
                assert (reference_decrypt(env, key, anomalies), anomalies) == want
                strict = outcome(lambda: decrypt(env, key))
                assert strict == outcome(lambda: reference_decrypt(env, key, None))
                conflicts = sorted(i for i, value in held.items() if value)
                assert strict == (want[0] if not conflicts else (
                    SentinelConflict, f"level 0: sentinel position {conflicts[0]} holds "
                                      f"{wanted[conflicts[0]]}, expected 0"))


def test_each_level_is_one_kernel_pass_each_way(monkeypatch):
    # A key of several levels runs a long message chunk by chunk: the
    # message is cut into chunks and the tail once each way, each chunk
    # passes every level once (in reverse to decrypt) and is never cut into
    # slices, and the ragged tail then passes every level once.  Decrypt
    # checks the records once, the tail's with the rest.
    bits = BitSeq.from_int(random.Random(5).getrandbits(100_000), 100_000)
    calls, cuts, walks, checks = [], [], [], []
    kernel, pieces, check = cipher.apply_lanes, cipher._pieces, cipher._check_records

    def counted_kernel(v, x, n, count, inverse, *find):
        calls.append((x, count, inverse))
        return kernel(v, x, n, count, inverse, *find)

    def counted_pieces(*args):
        cuts.append(args)
        return pieces(*args)

    def counted(x, count):
        walks.append((x, count))
        return lane_slices(x, count)

    def counted_check(envelope, key):
        checks.append(envelope)
        return check(envelope, key)

    monkeypatch.setattr(cipher, "apply_lanes", counted_kernel)
    monkeypatch.setattr(cipher, "_check_records", counted_check)
    monkeypatch.setattr(cipher, "_pieces", counted_pieces)
    monkeypatch.setattr(hadamard, "lane_slices", counted)
    key, n = KeySchedule.from_exponents([5, 3, 2]), 16
    size = key.superblock_bits(n)
    head = len(bits) - len(bits) % size
    sizes = [bits for _, bits in pieces(len(bits), key, n)][:-1]
    assert len(sizes) == 4 and len(set(sizes)) == 2 and all(s <= SLICE_BITS for s in sizes)
    wide = KeySchedule.from_exponents([3, 5, 31])  # S = 59520 > SLICE_BITS
    assert [bits for _, bits in pieces(2 * 59520, wide, 128)] == [59520, 59520, 0]
    env = encrypt(bits, key, n)
    tails = [(record.x, record.padded_group_count(n) - head // record.x) for record in env.levels]
    assert all(len(record.sentinels) for record in env.levels)
    assert cuts == [(len(bits), key, n)] and walks == []
    assert calls == [(x, s // x, False) for s in sizes for x in (5, 3, 2)] + [
        (x, count, False) for x, count in tails]
    for envelope in (env, CipherEnvelope.from_bytes(env.to_bytes())):
        calls.clear(), cuts.clear(), checks.clear()
        assert decrypt(envelope, key) == bits
        assert cuts == [(len(bits), key, n)] and walks == []
        assert len(checks) == 1 and checks[0] is envelope
        assert calls == [(x, s // x, True) for s in sizes for x in (2, 3, 5)] + [
            (x, count, True) for x, count in tails[::-1]]

    # So does a one-level key, whose whole level would span several slices.
    calls.clear(), cuts.clear()
    key, n = KeySchedule.from_exponents([5]), 128
    head = len(bits) - len(bits) % key.superblock_bits(n)
    sizes = [bits for _, bits in pieces(len(bits), key, n)][:-1]
    env = encrypt(bits, key, n)
    count = env.levels[0].padded_group_count(n)
    assert len(sizes) == 4 and 0 < len(bits) - head and 5 * count > 2 * SLICE_BITS
    assert cuts == [(len(bits), key, n)] and walks == []
    assert calls == [(5, s // 5, False) for s in sizes] + [(5, count - head // 5, False)]
    for envelope in (env, CipherEnvelope.from_bytes(env.to_bytes())):
        calls.clear(), cuts.clear(), checks.clear()
        assert decrypt(envelope, key) == bits
        assert cuts == [(len(bits), key, n)] and walks == []
        assert len(checks) == 1 and checks[0] is envelope
        assert calls == [(5, s // 5, True) for s in sizes] + [(5, count - head // 5, True)]


def chunk_size(key, n):
    """Bits per chunk: the most whole superblocks in SLICE_BITS bits, or one superblock."""
    size = key.superblock_bits(n)
    return max(SLICE_BITS // size, 1) * size


def group(bits, x, i):
    """The value of x-bit group i of ``bits``, zero-padded past its end."""
    shift = len(bits) - (i + 1) * x
    return (bits.value >> shift if shift >= 0 else bits.value << -shift) & (1 << x) - 1


def forged(env, level, positions):
    """``env`` with sentinel ``positions`` added to level ``level``'s record."""
    record = env.levels[level]
    sentinels = SentinelSet(sorted(set(record.sentinels) | set(positions)))
    levels = env.levels[:level] + (LevelRecord(record.x, record.orig_bit_len, sentinels),)
    return CipherEnvelope(env.version, env.block_order, levels + env.levels[level + 1:],
                          env.payload)


@pytest.mark.parametrize("exponents, n, shape", [
    ((3, 5, 31), 8, (2, 0, 0)),  # a head of exactly two chunks, no tail
    ((3, 5, 31), 8, (2, 1, 1001)),  # two chunks, a one-superblock last chunk, a tail
    ((3, 5, 31), 128, (2, 0, 777)),  # S = 59520 > SLICE_BITS: a chunk is a superblock
    ((3, 3), 32, (2, 5, 95)),
    ((5, 3, 2), 16, (2, 7, 402)),  # every level carries sentinels
    ((13,), 128, (2, 3, 504)),  # one level, by chunks too
    ((5,), 16, (3, 1, 77)),  # one level, S = 80, and a length not a whole number of bytes
])
def test_chunk_path_matches_the_per_level_path(monkeypatch, exponents, n, shape):
    # Envelopes, bytes, strict errors and tolerant counts of the chunk path
    # equal those of the per-level path, which a SLICE_BITS past any length
    # selects, on forged sentinels in the head and in the tail at two levels
    # (where the key lets two levels carry them) and on nonzero tail padding.
    key = KeySchedule.from_exponents(exponents)
    size, step = key.superblock_bits(n), chunk_size(key, n)
    chunks, extra, tail = shape
    length = chunks * step + extra * size + tail
    head = length - tail
    assert length > SLICE_BITS and head % step == extra * size
    rng = random.Random(length)
    value = rng.getrandbits(length) | rng.getrandbits(length) | rng.getrandbits(length)
    bits = BitSeq.from_int(value, length)
    env = encrypt(bits, key, n)

    def per_level(run, *args):
        with monkeypatch.context() as patch:
            patch.setattr(cipher, "SLICE_BITS", 1 << 62)
            return outcome(lambda: run(*args))

    whole = per_level(encrypt, bits, key, n)
    assert env == whole and env.to_bytes() == whole.to_bytes()
    assert len(env.levels[0].sentinels) and (
        exponents != (5, 3, 2) or all(len(record.sentinels) for record in env.levels))

    # Level 0 recovers the plaintext's groups: forge over the first nonzero,
    # non-sentinel group of each of the first two chunks and of the tail.
    x, p = exponents[0], (1 << exponents[0]) - 1
    count = env.levels[0].padded_group_count(n)

    def first_plain(start):
        return next(i for i in range(start, count) if 0 < group(bits, x, i) < p)

    in_first, in_head = first_plain(0), first_plain(step // x)
    last = len(exponents) - 1
    top = env.levels[last].padded_group_count(n)
    cases = [env, forged(env, 0, [in_first, in_head])]
    if tail:
        in_tail = first_plain(head // x)
        assert in_tail >= head // x  # a tail position counts the head's lanes
        tail_only = forged(env, 0, [in_tail])
        assert outcome(lambda: decrypt(tail_only, key)) == (
            SentinelConflict, f"level 0: sentinel position {in_tail} holds "
                              f"{group(bits, x, in_tail)}, expected 0")
        # Only 5,3,2 can carry sentinels at its last level.  Under the other
        # keys a forgery there is a malformed record on both paths, and a
        # third level-0 forgery takes its place.
        if can_carry(exponents, last):
            both = forged(forged(env, 0, [in_head, in_tail]), last,
                          [step // exponents[last] + 3, top - 1])
        else:
            both = forged(env, 0, [in_head, in_tail, first_plain(in_tail + 1)])
            beyond = forged(env, last, [top - 1])
            assert outcome(lambda: decrypt(beyond, key)) == (
                MalformedEnvelope, f"level {last}: sentinels recorded where x {exponents[last]} "
                                   f"after x {exponents[last - 1]} cannot carry any")
            cases.append(beyond)
        # A level-0 record one bit shorter pads to the same groups and makes
        # the message's last bit, a 1, padding.
        assert value & 1

        def shortened(envelope):
            record = envelope.levels[0]
            short = LevelRecord(x, length - 1, record.sentinels)
            assert short.padded_group_count(n) == count
            return CipherEnvelope(env.version, n, (short, *envelope.levels[1:]), env.payload)

        cases += [tail_only, both, shortened(env), shortened(both)]
        assert outcome(lambda: decrypt(cases[-2], key)) == (
            NonZeroPadding, f"level 0: discarded padding contains 1 one bits, "
                            f"the first at bit {length - 1}")
    assert outcome(lambda: decrypt(cases[1], key)) == (  # the first chunk's
        SentinelConflict, f"level 0: sentinel position {in_first} holds "
                          f"{group(bits, x, in_first)}, expected 0")
    for damaged in cases:
        for envelope in (damaged, CipherEnvelope.from_bytes(damaged.to_bytes())):
            for run in (decrypt, decrypt_tolerant):
                assert outcome(lambda: run(envelope, key)) == per_level(run, envelope, key)
    if tail:
        counts = decrypt_tolerant(cases[-1], key)[1]
        assert counts.sentinel_conflicts >= 3 and counts.padding_violations >= 1


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(SUPPORTED_EXPONENTS), min_size=1, max_size=3),
    st.sampled_from([8, 16, 32]),
    st.integers(0, 4000),
    st.randoms(use_true_random=False),
)
def test_chunk_path_matches_the_level_loop_under_any_key(exponents, n, length, rng):
    # With SLICE_BITS at 64, a message of at least one superblock runs as
    # chunks of one or a few superblocks and a ragged tail.  At the real
    # SLICE_BITS every length here takes the level loop, which must give
    # the same envelope, bytes, strict outcome and tolerant counts, also
    # with a sentinel forged at a random level-0 position.
    key = KeySchedule.from_exponents(exponents)
    bits = BitSeq.from_int(rng.getrandbits(length), length)
    env = encrypt(bits, key, n)
    count = env.levels[0].padded_group_count(n)
    cases = [env, forged(env, 0, [rng.randrange(count)])] if count else [env]

    def runs():
        return [outcome(lambda: run(envelope, key))
                for envelope in cases for run in (decrypt, decrypt_tolerant)]

    whole = runs()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cipher, "SLICE_BITS", 64)
        chunked = encrypt(bits, key, n)
        assert chunked == env and chunked.to_bytes() == env.to_bytes()
        assert runs() == whole


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="01", max_size=600),
    st.lists(st.sampled_from(SUPPORTED_EXPONENTS), min_size=1, max_size=3),
    st.sampled_from(SUPPORTED_ORDERS),
    st.data(),
)
def test_encrypted_envelopes_pass_the_record_check_and_other_keys_fail_it(
    bits, exponents, n, data
):
    key = KeySchedule.from_exponents(exponents)
    env = encrypt(BitSeq(bits), key, n)
    both = (env, CipherEnvelope.from_bytes(env.to_bytes()))
    for envelope in both:
        assert decrypt(envelope, key) == BitSeq(bits)
        assert decrypt_tolerant(envelope, key) == (BitSeq(bits), DecryptAnomalies())
    other = data.draw(st.lists(
        st.sampled_from(SUPPORTED_EXPONENTS), min_size=len(exponents), max_size=len(exponents)
    ).filter(lambda xs: xs != exponents))
    last = max(i for i, (a, b) in enumerate(zip(exponents, other)) if a != b)
    for envelope in both:
        for run in (decrypt, decrypt_tolerant):
            with pytest.raises(MalformedEnvelope, match=f"^level {last}: recorded x "):
                run(envelope, KeySchedule.from_exponents(other))


def test_level_1_carries_sentinels_only_where_the_chain_allows():
    # Level 1 reads level 0's payload of a-bit residues, none all ones, so
    # its b-bit groups can be all ones iff b != a and b <= 2a - 2.  The
    # crafted input sets the b-bit window of level 0's payload that covers
    # the fewest whole a-bit lanes to ones, then clears the lowest bit of
    # each lane inside it; inverting the payload block by block gives the
    # plaintext values.
    n, rng = 8, random.Random(22)
    carrying = 0
    for a, b in product(SUPPORTED_EXPONENTS, repeat=2):
        key, lanes = KeySchedule.from_exponents([a, b]), n * b
        can = b != a and b <= 2 * a - 2
        carrying += can

        def whole(k):  # the a-bit lanes inside b-bit window k
            return range(-(-k * b // a), (k + 1) * b // a)

        k = min(range(n * a), key=lambda k: len(whole(k)))
        assert (not whole(k)) == can
        payload = ((1 << b) - 1) << (lanes * a - (k + 1) * b)
        for j in whole(k):
            payload ^= 1 << (lanes - 1 - j) * a
        residues = [payload >> (lanes - 1 - j) * a & (1 << a) - 1 for j in range(lanes)]
        assert max(residues) < (1 << a) - 1  # a payload level 0 can emit
        values = per_block(apply_inverse, HadamardSpec(n, (1 << a) - 1), residues)
        env = encrypt(ungroup(values, a), key, n)
        assert env.levels[0].sentinels == SentinelSet(())
        assert env.levels[1].sentinels == SentinelSet((k,) if can else ())
        if not can:
            for length in (1, a * b * n, rng.randrange(2, 3000)):
                for bits in (random_bits(rng, length), BitSeq("1" * length)):
                    assert len(encrypt(bits, key, n).levels[1].sentinels) == 0
    assert carrying == 34


def test_product_path_never_formats_bit_text(monkeypatch):
    # Level 0 of the (3, 5) key finds 126 sentinels in the 0xff run (level 1
    # cannot carry any), the length is not byte-aligned, and the flipped
    # payload bit makes the tolerant decrypt skip sentinel restorations.
    message = first_bits(bytes(range(256)) + b"\xff" * 16, 2171)

    def no_text(self):
        raise AssertionError("bit text formatted on the product path")

    monkeypatch.setattr(BitSeq, "bits", property(no_text))
    blob = encrypt(message, KEY35).to_bytes()
    envelope = CipherEnvelope.from_bytes(blob)
    assert envelope.to_bytes() == blob
    recovered = decrypt(envelope, KEY35)
    assert recovered == message
    assert first_bits(recovered.to_bytes(), 2171) == message
    assert decrypt_tolerant(envelope, KEY35) == (message, DecryptAnomalies())
    assert len(hash_digest(message, KEY35, 8, 64)) == 64
    assert len(hash_digest(message, KEY35, 8, 4096)) == 4096
    report = avalanche_experiment(message, KEY35, 8, len(envelope.payload) - 1)
    assert report.length_a == report.length_b == 2171
    assert report.sentinel_conflicts > 0


def test_lane_flags_and_hct1_indices_decrypt_alike():
    # encrypt() keeps each level's sentinels as lane flags, from_bytes() as
    # indices; both must give the same sets and the same decrypt outcomes.
    rng = random.Random(7071)
    keys = [(3, 5, 31), (2, 7), (13,), (5, 3), (3, 3), (2, 2, 2), (17, 19)]
    for _ in range(40):
        exponents = rng.choice(keys)
        key = KeySchedule.from_exponents(exponents)
        n = rng.choice(SUPPORTED_ORDERS)
        length = rng.choice((0, 1, rng.randrange(2, 300), rng.randrange(300, 4000)))
        ones = rng.random() < 0.3
        bits = BitSeq("".join(
            "1" if ones and rng.random() < 0.9 else rng.choice("01") for _ in range(length)
        ))
        env = encrypt(bits, key, n)
        parsed = CipherEnvelope.from_bytes(env.to_bytes())
        assert parsed == env
        length = len(env.payload)
        for mem, wire in zip(reversed(env.levels), reversed(parsed.levels)):
            lanes, index = mem.sentinels, wire.sentinels
            assert lanes == index and hash(lanes) == hash(index)
            assert len(lanes) == len(index) and list(lanes) == list(index)
            assert repr(lanes) == repr(index)
            count = length // mem.x
            assert [i in lanes for i in range(-1, count + 1)] == [
                i in index for i in range(-1, count + 1)]
            assert lanes.lanes(mem.x, count) == index.lanes(mem.x, count)
            length = mem.orig_bit_len
        flips = [rng.randrange(len(env.payload)) for _ in range(2)] if len(env.payload) else []
        for flip in [None, *flips]:
            pair = [e if flip is None else CipherEnvelope(e.version, n, e.levels,
                                                          e.payload.flip(flip))
                    for e in (env, parsed)]
            for other in (exponents, rng.choice(keys)):
                wrong = KeySchedule.from_exponents(other)
                if len(wrong) != len(key):
                    continue
                a, b = (outcome(lambda: decrypt(e, wrong)) for e in pair)
                assert a == b
                a, b = (outcome(lambda: decrypt_tolerant(e, wrong)) for e in pair)
                assert a == b


def test_flag_sentinels_carried_onto_another_record_decrypt_like_their_indices():
    # encrypt() records level 0's sentinels as flags over its own (x, count);
    # on a record of another x or group count, decrypt converts them through
    # their indices and must agree with the index form of the same set.
    rng = random.Random(1012)
    for x1 in SUPPORTED_EXPONENTS:
        for x2 in SUPPORTED_EXPONENTS:
            for n in (8, 16):
                length = rng.randrange(8 * x1, 400)
                zeros = set(rng.sample(range(length), 3))
                bits = BitSeq("".join("0" if i in zeros else "1" for i in range(length)))
                flags = encrypt(bits, KeySchedule.from_exponents([x1]), n).levels[0].sentinels
                assert flags.indices and flags == SentinelSet(flags.indices)
                covered = n * -(-(flags.indices[-1] + 1) // n)
                key = KeySchedule.from_exponents([x2])
                for groups in (covered, covered + n):
                    payload = BitSeq.from_int(rng.getrandbits(groups * x2), groups * x2)
                    pair = [CipherEnvelope(ENVELOPE_VERSION, n,
                                           (LevelRecord(x2, groups * x2, sentinels),), payload)
                            for sentinels in (flags, SentinelSet(flags.indices))]
                    for run in (decrypt, decrypt_tolerant):
                        a, b = (outcome(lambda: run(e, key)) for e in pair)
                        assert a == b, (x1, x2, n, groups)


def test_only_strict_decrypt_builds_an_anomaly_error(monkeypatch):
    # Tolerant decrypt, on the level loop and on the chunk path, and the
    # avalanche experiment keep an anomaly's coordinates; only decrypt turns
    # the first into SentinelConflict or NonZeroPadding.  A flip in the last
    # block of the top level damages its padding, elsewhere level 0's sentinels.
    key, n, rng = KeySchedule.from_exponents([3, 5, 31]), 8, random.Random(31)

    def no_error(*args):
        raise AssertionError("an anomaly error was built")

    for length in (300, 2 * SLICE_BITS + 123):  # the level loop, then the chunk path
        value = rng.getrandbits(length) | rng.getrandbits(length) | rng.getrandbits(length)
        message = BitSeq.from_int(value, length)
        env = encrypt(message, key, n)
        flips = sorted(rng.sample(range(len(env.payload)), 40)) + [len(env.payload) - 1]
        damaged = [CipherEnvelope(env.version, n, env.levels, env.payload.flip(flip))
                   for flip in flips]
        strict = {outcome(lambda: decrypt(e, key))[0] for e in damaged}
        assert {SentinelConflict, NonZeroPadding} <= strict, strict
        with monkeypatch.context() as patch:
            patch.setattr(cipher, "SentinelConflict", no_error)
            patch.setattr(cipher, "NonZeroPadding", no_error)
            counts = [decrypt_tolerant(e, key)[1] for e in damaged]
            reports = [avalanche_experiment(message, key, n, flip) for flip in flips]
        assert sum(c.sentinel_conflicts for c in counts) == sum(
            r.sentinel_conflicts for r in reports) > 0
        assert any(c.padding_violations for c in counts)


def test_lane_path_never_formats_sentinel_indices(monkeypatch):
    # The digest, the avalanche experiment and an in-memory round trip read
    # the lane flags only; indices are for HCT1 and for callers who ask.
    message = first_bits(bytes(range(256)) + b"\xff" * 16, 2171)

    def no_indices(self):
        raise AssertionError("sentinel indices formatted on the lane path")

    monkeypatch.setattr(SentinelSet, "indices", property(no_indices))
    env = encrypt(message, KEY35)
    assert len(env.levels[0].sentinels) > 0
    assert decrypt(env, KEY35) == message
    assert decrypt_tolerant(env, KEY35) == (message, DecryptAnomalies())
    flipped = CipherEnvelope(env.version, 8, env.levels, env.payload.flip(len(env.payload) - 1))
    assert decrypt_tolerant(flipped, KEY35)[1].sentinel_conflicts > 0
    with pytest.raises(NonZeroPadding, match="^level 1: discarded padding"):
        decrypt(flipped, KEY35)
    assert len(hash_digest(message, KEY35, 8, 128)) == 128
    report = avalanche_experiment(message, KEY35, 8, len(env.payload) - 1)
    assert report.sentinel_conflicts > 0


def superblock_bits(key, n):
    """S = n * lcm(x_1..x_k): every level maps each S-aligned range onto itself."""
    return n * lcm(*(e.x for e in key.elements))


def joined(seqs):
    return BitSeq("".join(seq.bits for seq in seqs))


def check_superblock_locality(chunks, tail, key, n, flip):
    """Encrypting S-bit chunks and a tail whole equals encrypting them apart.

    The payloads concatenate, each level's orig_bit_len adds up and its
    sentinel indices shift by S / x per preceding chunk.  A flipped payload
    bit changes the tolerant decrypt only inside its own superblock.
    """
    size = superblock_bits(key, n)
    message = joined(chunks + [tail])
    whole = encrypt(message, key, n)
    parts = [encrypt(part, key, n) for part in chunks + [tail]]
    assert whole.payload == joined(part.payload for part in parts)
    for level, record in enumerate(whole.levels):
        lanes = size // record.x
        assert record.orig_bit_len == sum(p.levels[level].orig_bit_len for p in parts)
        assert record.sentinels.indices == tuple(
            j * lanes + i for j, p in enumerate(parts) for i in p.levels[level].sentinels
        )
    assert decrypt(whole, key) == message

    flip %= len(whole.payload)
    damaged = CipherEnvelope(whole.version, n, whole.levels, whole.payload.flip(flip))
    recovered, _ = decrypt_tolerant(damaged, key)
    assert len(recovered) == len(message)
    start = flip // size * size
    end = min(start + size, len(message))
    diff = recovered.value ^ message.value
    assert diff >> len(message) - start == 0  # nothing before the superblock
    assert diff & (1 << len(message) - end) - 1 == 0  # nor after it


def random_bits(rng, length):
    return BitSeq.from_int(rng.getrandbits(length), length)


@st.composite
def superblock_cases(draw):
    exponents = draw(
        st.lists(st.sampled_from(SUPPORTED_EXPONENTS), min_size=1, max_size=3)
        .filter(lambda xs: 8 * lcm(*xs) <= 1 << 16)
    )
    n = draw(st.sampled_from([n for n in SUPPORTED_ORDERS if n * lcm(*exponents) <= 1 << 16]))
    key = KeySchedule.from_exponents(exponents)
    size = superblock_bits(key, n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    # A mostly-ones chunk gives every level sentinels; repeats give equal superblocks.
    ones = rng.getrandbits(size) | rng.getrandbits(size) | rng.getrandbits(size)
    pool = [BitSeq.from_int(ones, size), random_bits(rng, size)]
    chunks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    tail = random_bits(rng, draw(st.integers(0, size - 1)))
    return chunks, tail, key, n, draw(st.integers(0, 2**40))


@settings(max_examples=100, deadline=None)
@given(superblock_cases())
def test_encryption_is_local_to_superblocks(case):
    check_superblock_locality(*case)


def test_superblock_locality_on_one_mebibyte():
    key = KeySchedule.from_exponents([3, 5, 31])
    size = superblock_bits(key, 8)
    assert size == 3720
    rng = random.Random(2010)
    count, ragged = divmod(8 << 20, size)
    chunks = [random_bits(rng, size) for _ in range(count)]
    check_superblock_locality(chunks, random_bits(rng, ragged), key, 8, rng.randrange(8 << 20))


def round_trip_peak_per_byte(data: bytes, key: KeySchedule, n: int, keep: bool = False) -> float:
    """tracemalloc peak of encrypt -> to_bytes -> from_bytes -> decrypt, per plaintext byte.

    The blob stays alive through decrypt; with ``keep`` so does the
    envelope, as a caller that holds both does (``bench/ops.py``).
    """
    bits = BitSeq.from_bytes(data)
    tracemalloc.start()
    try:
        env = encrypt(bits, key, n)
        blob = env.to_bytes()
        if not keep:
            del env
        recovered = decrypt(CipherEnvelope.from_bytes(blob), key).to_bytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recovered == data
    return peak / len(data)


def peaks_by_size(exponents, n, keep=False):
    """``round_trip_peak_per_byte`` of 64 KiB and 1 MiB of random bytes, after one untraced trip each."""
    key, rng = KeySchedule.from_exponents(exponents), random.Random(1 << 20)
    peaks = {}
    for size in (1 << 16, 1 << 20):
        data = rng.randbytes(size)
        assert decrypt(encrypt(BitSeq.from_bytes(data), key, n), key) == BitSeq.from_bytes(data)
        peaks[size] = round_trip_peak_per_byte(data, key, n, keep)
    return peaks


@pytest.mark.parametrize("exponents, n, ceiling", [((13,), 128, 3.2), ((3, 5, 31), 8, 5.2),
                                                 ((2, 7), 16, 11.0)])
def test_round_trip_peak_memory_does_not_grow_with_size(exponents, n, ceiling):
    # A long message runs chunk by chunk, so the peak per byte at 1 MiB is no
    # more than at 64 KiB, and below a fixed ceiling: 2.86, 4.69 and 9.99 B/B
    # measured at 64 KiB, with the parsed payload and sentinel words views of
    # the blob, the pieces written into one buffer, the kernel's dead
    # temporaries dropped, and to_bytes joining the held buffers once.  The
    # untraced round trips first fill the mask caches, which are bounded apart.
    peaks = peaks_by_size(exponents, n)
    assert peaks[1 << 20] <= peaks[1 << 16] * 1.02, peaks
    assert max(peaks.values()) <= ceiling, peaks


@pytest.mark.parametrize("exponents, n, ceiling", [((13,), 128, 4.3), ((3, 5, 31), 8, 7.2),
                                                 ((2, 7), 16, 13.2)])
def test_retained_envelope_peak_memory_does_not_grow_with_size(exponents, n, ceiling):
    # As above, with the envelope held through decrypt too: its payload and
    # words add about 1, 2.3 and 5 B/B, and no level holds a buffer of flags
    # the size of the level, in memory or parsed.  Measured 3.87, 6.51 and
    # 11.97 B/B.
    peaks = peaks_by_size(exponents, n, keep=True)
    assert peaks[1 << 20] <= peaks[1 << 16] * 1.02, peaks
    assert max(peaks.values()) <= ceiling, peaks


def test_a_long_envelope_holds_four_bytes_per_sentinel():
    # A 64 KiB 13/128 message has a handful of sentinels in 18 pieces; its
    # level holds the positions that encrypting each piece alone finds,
    # offset by the piece's first lane, and a piece without a sentinel adds
    # nothing.  Under 13/128 and 3,5,31/8 every level holds HCT1's words, 4
    # bytes a position: encrypt's as bytes, a parsed envelope's as a
    # read-only view of the blob it was read from.
    key, n = KeySchedule.from_exponents([13]), 128
    data = random.Random(7).randbytes(1 << 16)
    pieces = cipher._pieces(8 * len(data), key, n)
    expected, flagged = [], 0
    for cut, _ in pieces:
        alone = encrypt(BitSeq.from_bytes(data[cut]), key, n).levels[0].sentinels
        expected += [8 * cut.start // 13 + i for i in alone]
        flagged += len(alone) > 0
    assert 0 < flagged < len(pieces) == 18
    env = encrypt(BitSeq.from_bytes(data), key, n)
    assert env.levels[0].sentinels.indices == tuple(expected)
    assert SentinelSet.__slots__ == ("_words",)
    wide = encrypt(BitSeq.from_bytes(data), KeySchedule.from_exponents([3, 5, 31]), 8)
    for held in (env, wide):
        blob = held.to_bytes()
        for record, read in zip(held.levels, CipherEnvelope.from_bytes(blob).levels):
            words, view = record.sentinels._words, read.sentinels._words
            assert type(words) is bytes and len(words) == 4 * len(record.sentinels)
            assert sys.getsizeof(words) == sys.getsizeof(b"") + len(words)
            assert type(view) is memoryview and view.obj is blob and view.readonly
            assert view == words
    assert len(wide.levels[0].sentinels) > 20_000


@pytest.mark.parametrize("exponents, n", [((13,), 128), ((3, 5, 31), 8)])
def test_only_parsed_words_are_checked_for_order(monkeypatch, exponents, n):
    # Encrypt's positions ascend as it forms them, so it checks none; parsing
    # checks each level's words once, as HCT1 carries them.
    key, data = KeySchedule.from_exponents(exponents), random.Random(8).randbytes(1 << 16)
    checked, check = [], bitcodec._ascending

    def spied(data):
        checked.append(bytes(data))
        return check(data)

    monkeypatch.setattr(bitcodec, "_ascending", spied)
    env = encrypt(BitSeq.from_bytes(data), key, n)
    assert checked == [] and len(env.levels[0].sentinels)
    assert CipherEnvelope.from_bytes(env.to_bytes()) == env
    assert checked == [record.sentinels.to_words() for record in env.levels]


@pytest.mark.parametrize("exponents, n", [((13,), 128), ((3, 5, 31), 8), ((5, 3, 2), 16)])
def test_flag_sets_of_the_chunk_path_and_the_level_loop_are_equal(monkeypatch, exponents, n):
    # The chunk path formats each piece's flags into its level's words, the
    # level loop (SLICE_BITS past any length) one piece per level: the
    # envelopes, their hashes and their bytes are equal, and equal those
    # parsed back, with positions in more than one piece; they decrypt alike.
    key, data = KeySchedule.from_exponents(exponents), random.Random(30).randbytes(1 << 16)
    chunked = encrypt(BitSeq.from_bytes(data), key, n)
    with monkeypatch.context() as patch:
        patch.setattr(cipher, "SLICE_BITS", 1 << 62)
        looped = encrypt(BitSeq.from_bytes(data), key, n)
        assert decrypt(chunked, key).to_bytes() == data
    blob = chunked.to_bytes()
    parsed = CipherEnvelope.from_bytes(blob)
    assert looped == chunked == parsed and hash(looped) == hash(chunked) == hash(parsed)
    assert looped.to_bytes() == blob == parsed.to_bytes()
    indices, x = chunked.levels[0].sentinels.indices, exponents[0]
    assert any(indices[0] < 8 * cut.start // x <= indices[-1]
               for cut, _ in cipher._pieces(8 * len(data), key, n))
    assert decrypt(looped, key).to_bytes() == data


@pytest.mark.parametrize("exponents, n", [((13,), 128), ((3, 5, 31), 8)])
def test_bulk_round_trip_never_forms_a_whole_message_int(monkeypatch, exponents, n):
    # A byte-aligned message longer than SLICE_BITS stays bytes from
    # from_bytes to to_bytes both ways, and a level's sentinel flags are
    # formed one piece at a time: only a chunk or the tail is ever an int.
    key, data = KeySchedule.from_exponents(exponents), random.Random(29).randbytes(1 << 16)
    asked = []

    def spied(self, name):
        if name == "value" and object.__getattribute__(self, "length") > SLICE_BITS:
            asked.append(type(self))
        return object.__getattribute__(self, name)

    lanes = SentinelSet.lanes

    def no_flag_int(self, x, count, first=0, positions=None):
        if count * x > SLICE_BITS:
            raise AssertionError("a level's flags were joined into one int")
        return lanes(self, x, count, first, positions)

    with monkeypatch.context() as patch:
        patch.setattr(BitSeq, "__getattribute__", spied)
        patch.setattr(SentinelSet, "lanes", no_flag_int)
        env = encrypt(BitSeq.from_bytes(data), key, n)
        blob = env.to_bytes()
        recovered = decrypt(CipherEnvelope.from_bytes(blob), key).to_bytes()
        assert decrypt(env, key).to_bytes() == recovered
    assert asked == [] and recovered == data
    assert len(env.levels[0].sentinels)


def test_parsed_envelope_holds_its_sentinels_as_packed_words():
    # A 64 KiB 3,5,31/8 envelope carries ~21 800 level-0 sentinels and a
    # 2,7/16 one ~65 000, 1.3 and 4 B/B of words.  The parsed sets hold them
    # as views of the blob, as the payload is held, so a parse retains only
    # its objects (measured 0.04 and 0.03 B/B), not a copy of the words.
    for exponents, n, least in (((3, 5, 31), 8, 20_000), ((2, 7), 16, 60_000)):
        key, data = KeySchedule.from_exponents(exponents), random.Random(20).randbytes(1 << 16)
        blob = encrypt(BitSeq.from_bytes(data), key, n).to_bytes()
        tracemalloc.start()
        try:
            parsed = CipherEnvelope.from_bytes(blob)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(parsed.levels[0].sentinels) > least
        assert held / len(data) <= 0.1, (exponents, held / len(data))


@st.composite
def digest_cases(draw):
    exponents = draw(
        st.lists(st.sampled_from(SUPPORTED_EXPONENTS), min_size=1, max_size=4)
        .filter(lambda xs: 8 * lcm(*xs) <= 1 << 14)
    )
    n = draw(st.sampled_from([n for n in SUPPORTED_ORDERS if n * lcm(*exponents) <= 1 << 14]))
    key = KeySchedule.from_exponents(exponents)
    size = superblock_bits(key, n)
    # Lengths at, just below and just above a few superblocks, or anywhere.
    length = draw(st.one_of(
        st.builds(lambda k, d: max(k * size + d, 0), st.integers(0, 3), st.integers(-1, 1)),
        st.integers(0, 4 * size),
    ))
    # Past the message, and past any payload it can have (zero-extended).
    widths = [1, size - 1, size, size + 1, length + 1, length + size]
    width = draw(st.sampled_from(widths) | st.integers(1, 3 * size))
    message = random_bits(random.Random(draw(st.integers(0, 2**32))), length)
    return message, key, n, width


@settings(max_examples=150, deadline=None)
@given(digest_cases())
def test_digest_is_the_full_payload_prefix(case):
    # The digest reads only ceil(w / S) superblocks, yet it must equal the
    # first w bits of the whole message's payload, zero-extended.
    message, key, n, width = case
    assert key.superblock_bits(n) == superblock_bits(key, n)
    payload = encrypt(message, key, n).payload
    spare = len(payload) - width
    value = payload.value >> spare if spare >= 0 else payload.value << -spare
    assert hash_digest(message, key, n, width) == BitSeq.from_int(value, width)
