"""End-to-end pipeline: encrypt, decrypt, keys, hashing."""

import random
from math import lcm

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
    LengthUnderflow,
    MalformedEnvelope,
    NonZeroPadding,
    SentinelConflict,
    UnsupportedBlockOrder,
)
from hctcodec.hadamard import SUPPORTED_ORDERS, HadamardSpec, apply_fast, apply_inverse
from hctcodec.modmath import SUPPORTED_EXPONENTS
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
    # Level 0 gets a bogus sentinel over group 0 (which holds 6), level 1 a
    # length one bit past its payload.  Levels are undone from the last
    # record, so the level 1 underflow is met first, although a sentinel
    # conflict outranks an underflow within one level.  Level 1 still hands
    # level 0 the true bits followed by zeros, so both anomalies are counted
    # and the output survives.
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    bad0 = LevelRecord(3, 24, SentinelSet((0, 4)))
    bad1 = LevelRecord(5, 41, SentinelSet(()))
    both = CipherEnvelope(env.version, 8, (bad0, bad1), env.payload)
    only0 = CipherEnvelope(env.version, 8, (bad0, env.levels[1]), env.payload)
    with pytest.raises(LengthUnderflow) as exc:
        decrypt(both, KEY35)
    assert str(exc.value) == "level 1: recorded length 41 exceeds available 40 bits"
    with pytest.raises(SentinelConflict) as exc:
        decrypt(only0, KEY35)
    assert str(exc.value) == "level 0: sentinel position 0 holds 6, expected 0"
    assert decrypt_tolerant(both, KEY35) == (BitSeq(PLAIN_BITS), DecryptAnomalies(
        sentinel_conflicts=1, padding_violations=0, length_underflows=1))


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


def reference_decrypt(envelope, key, anomalies):
    """decrypt() (anomalies None) or decrypt_tolerant() from the per-group helpers."""
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


def test_product_path_never_formats_bit_text(monkeypatch):
    # Level 1 of the (3, 5) key finds sentinels in the 0xff run, the length is
    # not byte-aligned, and the flipped payload bit makes the tolerant decrypt
    # skip sentinel restorations.
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
