"""HCT1 container: byte layout, parsing, and rejection of malformed input."""

import random
import struct
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hctcodec.bitcodec import BitSeq, SentinelSet
from hctcodec.cipher import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    CipherEnvelope,
    DecryptAnomalies,
    KeySchedule,
    LevelRecord,
    decrypt,
    decrypt_tolerant,
    encrypt,
)
from hctcodec.errors import CodecError, MalformedEnvelope, SentinelConflict
from vectors import (
    CIPHER_BITS,
    ENVELOPE_HEX,
    OFF_BLOCK_ORDER,
    OFF_L1_SENT_IDX,
    OFF_L1_X,
    OFF_LEVEL_COUNT,
    OFF_PAYLOAD_BITLEN,
    OFF_VERSION,
    PLAIN_BITS,
)

KEY35 = KeySchedule.from_exponents([3, 5])
GOLD = bytes.fromhex(ENVELOPE_HEX)


def patched(data: bytes, offset: int, value: bytes) -> bytes:
    buf = bytearray(data)
    buf[offset:offset + len(value)] = value
    return bytes(buf)


def test_serialization_worked_example():
    env = encrypt(BitSeq(PLAIN_BITS), KEY35)
    assert env.to_bytes() == GOLD


def test_golden_bytes_parse_back():
    env = CipherEnvelope.from_bytes(GOLD)
    assert env.version == ENVELOPE_VERSION
    assert env.block_order == 8
    assert env.payload == BitSeq(CIPHER_BITS)
    assert [(r.x, r.orig_bit_len, r.sentinels.indices) for r in env.levels] == [
        (3, 24, (4,)),
        (5, 24, ()),
    ]
    assert decrypt(env, KEY35) == BitSeq(PLAIN_BITS)


def test_magic_and_fixed_fields():
    assert GOLD[:4] == ENVELOPE_MAGIC == b"HCT1"
    assert GOLD[OFF_VERSION] == 1
    assert GOLD[OFF_BLOCK_ORDER] == 8
    assert GOLD[OFF_LEVEL_COUNT] == 2


def random_envelope(rng: random.Random) -> CipherEnvelope:
    """A structurally consistent envelope with arbitrary content."""
    block_order = rng.choice([8, 16, 32])
    levels = []
    for _ in range(rng.randint(1, 4)):
        x = rng.choice([2, 3, 5, 7, 13])
        orig = rng.randint(0, 4000)
        rec = LevelRecord(x, orig, SentinelSet(()))
        limit = rec.padded_group_count(block_order)
        positions = sorted(rng.sample(range(limit), rng.randint(0, min(5, limit))))
        levels.append(LevelRecord(x, orig, SentinelSet(tuple(positions))))
    last = levels[-1]
    payload_bits = last.padded_group_count(block_order) * last.x
    payload = BitSeq("".join(rng.choice("01") for _ in range(payload_bits)))
    return CipherEnvelope(ENVELOPE_VERSION, block_order, tuple(levels), payload)


def test_random_envelopes_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        env = random_envelope(rng)
        assert CipherEnvelope.from_bytes(env.to_bytes()) == env


def test_encrypted_envelopes_round_trip():
    rng = random.Random(12)
    for _ in range(50):
        bits = BitSeq("".join(rng.choice("01") for _ in range(rng.randint(0, 300))))
        key = KeySchedule.from_exponents(
            [rng.choice([2, 3, 5, 7]) for _ in range(rng.randint(1, 3))]
        )
        env = encrypt(bits, key)
        assert CipherEnvelope.from_bytes(env.to_bytes()) == env


def test_rejects_bad_magic():
    with pytest.raises(MalformedEnvelope, match="magic"):
        CipherEnvelope.from_bytes(patched(GOLD, 0, b"HCT2"))


def test_rejects_unknown_version():
    with pytest.raises(MalformedEnvelope, match="version"):
        CipherEnvelope.from_bytes(patched(GOLD, OFF_VERSION, b"\x02"))


def test_rejects_non_power_of_two_block_order():
    for bad in (0, 12, 24, 255):
        with pytest.raises(MalformedEnvelope, match="power of two"):
            CipherEnvelope.from_bytes(patched(GOLD, OFF_BLOCK_ORDER, bytes([bad])))


def test_rejects_zero_levels():
    with pytest.raises(MalformedEnvelope, match="no levels"):
        CipherEnvelope.from_bytes(patched(GOLD, OFF_LEVEL_COUNT, b"\x00"))


def test_rejects_zero_group_width():
    with pytest.raises(MalformedEnvelope, match="width 0"):
        CipherEnvelope.from_bytes(patched(GOLD, 7, b"\x00"))


def test_rejects_unsorted_sentinels():
    env = CipherEnvelope(
        ENVELOPE_VERSION,
        8,
        (LevelRecord(3, 24, SentinelSet((2, 4))),),
        BitSeq("0" * 24),
    )
    blob = bytearray(env.to_bytes())
    # The two sentinel indices sit right after the 13-byte level record.
    first = 7 + 13
    a = blob[first:first + 4]
    b = blob[first + 4:first + 8]
    blob[first:first + 4] = b
    blob[first + 4:first + 8] = a
    with pytest.raises(MalformedEnvelope, match="ascending"):
        CipherEnvelope.from_bytes(bytes(blob))


def test_rejects_duplicate_sentinels():
    env = CipherEnvelope(
        ENVELOPE_VERSION,
        8,
        (LevelRecord(3, 24, SentinelSet((2, 4))),),
        BitSeq("0" * 24),
    )
    blob = bytearray(env.to_bytes())
    first = 7 + 13
    blob[first:first + 4] = blob[first + 4:first + 8]
    with pytest.raises(MalformedEnvelope, match="ascending"):
        CipherEnvelope.from_bytes(bytes(blob))


def test_rejects_sentinel_index_out_of_range():
    # The worked example has 8 padded groups; index 8 is one past the end.
    with pytest.raises(MalformedEnvelope, match="out of range"):
        CipherEnvelope.from_bytes(
            patched(GOLD, OFF_L1_SENT_IDX, struct.pack(">I", 8))
        )
    with pytest.raises(MalformedEnvelope, match="out of range"):
        CipherEnvelope.from_bytes(
            patched(GOLD, OFF_L1_SENT_IDX, struct.pack(">I", 999))
        )


def test_rejects_inconsistent_payload_length():
    for bad in (0, 39, 41, 2**32):
        with pytest.raises(MalformedEnvelope, match="inconsistent"):
            CipherEnvelope.from_bytes(
                patched(GOLD, OFF_PAYLOAD_BITLEN, struct.pack(">Q", bad))
            )


def test_rejects_truncation_everywhere():
    for cut in range(len(GOLD)):
        with pytest.raises(MalformedEnvelope):
            CipherEnvelope.from_bytes(GOLD[:cut])


def test_rejects_trailing_bytes():
    with pytest.raises(MalformedEnvelope, match="trailing"):
        CipherEnvelope.from_bytes(GOLD + b"\x00")
    with pytest.raises(MalformedEnvelope, match="trailing"):
        CipherEnvelope.from_bytes(GOLD + GOLD)


def test_rejects_metadata_encrypt_cannot_write():
    # encrypt() only writes supported block orders and exponents.  Order 4
    # would end this payload mid-byte; the others parse to consistent lengths
    # or are caught here before the length check.
    order4 = (
        ENVELOPE_MAGIC
        + struct.pack(">BBB", 1, 4, 1)
        + struct.pack(">BQI", 3, 3, 0)
        + struct.pack(">Q", 12)
        + b"\xa0\x00"
    )
    for blob in [order4] + [patched(GOLD, OFF_BLOCK_ORDER, bytes([n])) for n in (1, 2, 4)]:
        with pytest.raises(MalformedEnvelope, match="not a supported power of two"):
            CipherEnvelope.from_bytes(blob)
    for x in (4, 11, 200):
        with pytest.raises(MalformedEnvelope, match=f"level 0 has group width {x},"):
            CipherEnvelope.from_bytes(patched(GOLD, OFF_L1_X, bytes([x])))


def test_rejects_garbage():
    for junk in (b"", b"\x00", b"not an envelope", bytes(100)):
        with pytest.raises(MalformedEnvelope):
            CipherEnvelope.from_bytes(junk)


def test_to_bytes_rejects_unencodable_level_count():
    env = CipherEnvelope(
        ENVELOPE_VERSION,
        8,
        tuple(LevelRecord(3, 0, SentinelSet(())) for _ in range(256)),
        BitSeq(""),
    )
    with pytest.raises(MalformedEnvelope, match="level count"):
        env.to_bytes()


@pytest.mark.parametrize(
    "bad",
    [
        LevelRecord(3, 2**40, SentinelSet((2**32,))),
        LevelRecord(3, 2**64, SentinelSet(())),
        LevelRecord(3, -1, SentinelSet(())),
    ],
)
def test_to_bytes_rejects_unencodable_level_record(bad):
    good = LevelRecord(3, 0, SentinelSet(()))
    env = CipherEnvelope(ENVELOPE_VERSION, 8, (good, bad), BitSeq(""))
    with pytest.raises(MalformedEnvelope, match="^level 1 does not fit the format"):
        env.to_bytes()


GOLD_ENV = CipherEnvelope.from_bytes(GOLD)


@pytest.mark.parametrize(
    "fields, blob",
    [
        ({"version": 2}, patched(GOLD, OFF_VERSION, b"\x02")),
        ({"block_order": 12}, patched(GOLD, OFF_BLOCK_ORDER, b"\x0c")),
        (
            {"levels": (LevelRecord(4, 24, SentinelSet((4,))), GOLD_ENV.levels[1])},
            patched(GOLD, OFF_L1_X, b"\x04"),
        ),
        (
            {"levels": (LevelRecord(3, 24, SentinelSet((8,))), GOLD_ENV.levels[1])},
            patched(GOLD, OFF_L1_SENT_IDX, struct.pack(">I", 8)),
        ),
        (
            {"payload": BitSeq(CIPHER_BITS + "0" * 8)},
            patched(GOLD, OFF_PAYLOAD_BITLEN, struct.pack(">Q", 48)),
        ),
    ],
    ids=["version", "block-order", "group-width", "sentinel-range", "payload-length"],
)
def test_to_bytes_refuses_what_from_bytes_refuses(fields, blob):
    with pytest.raises(MalformedEnvelope) as parsed:
        CipherEnvelope.from_bytes(blob)
    with pytest.raises(MalformedEnvelope) as written:
        replace(GOLD_ENV, **fields).to_bytes()
    assert str(written.value) == str(parsed.value)


def test_to_bytes_refuses_header_fields_too_wide_for_the_format():
    # Neither value fits its one-byte slot, so no blob can carry them.
    with pytest.raises(MalformedEnvelope, match="^block order 256 is not a supported"):
        replace(GOLD_ENV, block_order=256).to_bytes()
    with pytest.raises(MalformedEnvelope, match="^unsupported version 300$"):
        replace(GOLD_ENV, version=300).to_bytes()


def test_far_sentinel_index_costs_memory_only_for_the_payload():
    # Why SentinelSet keeps parsed indices as a tuple: the tuple grows with
    # the sentinel count, which the envelope's bytes bound, while lane flags
    # grow with the lane count.  Here level 0 claims 2^63 bits and a sentinel
    # at lane 2^32 - 1, but decrypt builds flags only for the 8 lanes the
    # 24-bit payload yields.
    blob = (
        ENVELOPE_MAGIC
        + struct.pack(">BBB", ENVELOPE_VERSION, 8, 2)
        + struct.pack(">BQII", 3, 2**63, 1, 2**32 - 1)
        + struct.pack(">BQI", 3, 24, 0)
        + struct.pack(">Q", 24)
        + bytes(3)
    )
    assert len(blob) == 48
    key = KeySchedule.from_exponents([3, 3])
    tracemalloc.start()
    try:
        env = CipherEnvelope.from_bytes(blob)
        with pytest.raises(SentinelConflict) as exc:
            decrypt(env, key)
        _, anomalies = decrypt_tolerant(env, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "level 0: sentinel index 4294967295 beyond value count 8"
    assert anomalies == DecryptAnomalies(
        sentinel_conflicts=1, padding_violations=0, length_underflows=1
    )
    assert peak < 2**20


edits = st.tuples(
    st.sampled_from(["overwrite", "cut", "insert"]),
    st.integers(0, 10**6),
    st.binary(min_size=1, max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(
    st.binary(max_size=200),
    st.sampled_from([(3, 5, 31), (2, 7), (13,), (3, 5)]),
    st.sampled_from([8, 16, 32]),
    st.lists(edits, min_size=1, max_size=4),
)
def test_mutated_envelopes_parse_exactly_or_raise_malformed(message, exponents, n, mutations):
    key = KeySchedule.from_exponents(exponents)
    blob = bytearray(encrypt(BitSeq.from_bytes(message), key, n).to_bytes())
    for kind, where, chunk in mutations:
        at = where % (len(blob) + 1)
        if kind == "overwrite":
            blob[at:at + len(chunk)] = chunk
        elif kind == "cut":
            del blob[at:at + len(chunk)]
        else:
            blob[at:at] = chunk
    try:
        env = CipherEnvelope.from_bytes(bytes(blob))
    except MalformedEnvelope:
        return
    assert env.to_bytes() == blob
    for run in (decrypt, decrypt_tolerant):
        try:
            run(env, key)
        except CodecError:
            pass
