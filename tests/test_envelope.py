"""HCT1 container: byte layout, parsing, and rejection of malformed input."""

import copy
import hashlib
import pickle
import random
import re
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hctcodec import bitcodec, cipher
from hctcodec.bitcodec import BitSeq, SentinelSet, _positions
from hctcodec.cipher import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    CipherEnvelope,
    KeySchedule,
    LevelRecord,
    decrypt,
    decrypt_tolerant,
    encrypt,
)
from hctcodec.errors import CodecError, MalformedEnvelope
from hctcodec.hadamard import SUPPORTED_ORDERS
from hctcodec.modmath import SUPPORTED_EXPONENTS
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


def test_known_answer_vectors():
    # Written once by make_kat.py from the per-block oracle; see the file's header.
    text = (Path(__file__).parent / "data" / "kat_v1.txt").read_text()
    cases = [line.split() for line in text.splitlines() if not line.startswith("#")]
    one_level = {(key, int(n)) for key, n, *_ in cases if "," not in key}
    assert one_level == {(str(x), n) for x in SUPPORTED_EXPONENTS for n in SUPPORTED_ORDERS}
    for key, n, bits, content, answer in cases:
        length = int(bits)
        if content == "ones":
            value = (1 << length) - 1
        else:
            value = random.Random(int(content)).getrandbits(length)
        key_schedule = KeySchedule.from_exponents(map(int, key.split(",")))
        blob = encrypt(BitSeq.from_int(value, length), key_schedule, int(n)).to_bytes()
        kind, expected = answer.split(":")
        got = blob.hex() if kind == "hex" else hashlib.sha256(blob).hexdigest()
        assert got == expected, (key, n, bits, content)


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
    unsorted = "^level 0: sentinel indices not strictly ascending$"
    with pytest.raises(MalformedEnvelope, match=unsorted):
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
    unsorted = "^level 0: sentinel indices not strictly ascending$"
    with pytest.raises(MalformedEnvelope, match=unsorted):
        CipherEnvelope.from_bytes(bytes(blob))


def test_rejects_sentinel_index_out_of_range():
    # The worked example has 8 padded groups; index 8 is one past the end.
    for index in (8, 999):
        with pytest.raises(MalformedEnvelope, match="^level 0: sentinels lie past its 8 groups$"):
            CipherEnvelope.from_bytes(
                patched(GOLD, OFF_L1_SENT_IDX, struct.pack(">I", index))
            )


def test_rejects_inconsistent_payload_length():
    # The last record, x = 5 over 24 bits, pads to 8 groups of 5 bits.
    for bad in (0, 39, 41, 2**32):
        with pytest.raises(MalformedEnvelope, match="^level 1: recorded length 24 pads to "
                                                    f"40 bits, but {bad} bits reach it$"):
            CipherEnvelope.from_bytes(
                patched(GOLD, OFF_PAYLOAD_BITLEN, struct.pack(">Q", bad))
            )


def test_rejects_truncation_everywhere():
    # Each cut names the field it ends inside; level 1 records no sentinels.
    fields = [("header", 7), ("level 0 record", 13), ("level 0 sentinel indices", 4),
              ("level 1 record", 13), ("payload length", 8), ("payload", 5)]
    start = 0
    for what, size in fields:
        for cut in range(start, start + size):
            with pytest.raises(MalformedEnvelope,
                               match=f"^truncated envelope while reading {what}$"):
                CipherEnvelope.from_bytes(GOLD[:cut])
        start += size
    assert start == len(GOLD)


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
        message = f"level 0: group width {x}, not one of (2, 3, 5, 7, 13, 17, 19, 31)"
        with pytest.raises(MalformedEnvelope, match=f"^{re.escape(message)}$"):
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


def test_to_bytes_rejects_unencodable_level_record():
    good, bad = LevelRecord(3, 0, SentinelSet(())), LevelRecord(3, 2**64, SentinelSet(()))
    env = CipherEnvelope(ENVELOPE_VERSION, 8, (good, bad), BitSeq(""))
    with pytest.raises(MalformedEnvelope, match="^level 1: does not fit the format: "):
        env.to_bytes()


def test_to_bytes_formats_no_sentinel_words(monkeypatch):
    # Encrypt formats each level's flags into words once; to_bytes writes
    # the words its sets hold, and formats nothing.
    key = KeySchedule.from_exponents([3, 5, 31])
    env = encrypt(BitSeq.from_bytes(random.Random(5).randbytes(1 << 16)), key, 8)
    assert len(env.levels[0].sentinels) > 1
    expected = env.to_bytes()

    def refuse(*args):
        raise AssertionError("to_bytes formatted sentinel flags")

    monkeypatch.setattr(bitcodec, "_positions", refuse)
    monkeypatch.setattr(cipher, "_positions", refuse)
    assert env.to_bytes() == expected
    assert CipherEnvelope.from_bytes(expected) == env


def test_to_bytes_rejects_a_negative_recorded_length():
    good, bad = LevelRecord(3, 0, SentinelSet(())), LevelRecord(3, -1, SentinelSet(()))
    env = CipherEnvelope(ENVELOPE_VERSION, 8, (good, bad), BitSeq(""))
    with pytest.raises(MalformedEnvelope, match="^level 1: recorded length -1 is negative$"):
        env.to_bytes()


def test_to_bytes_writes_flag_sentinels_carried_onto_another_record():
    # Level 0 holds 33 sentinels in 48 groups, the highest at position 32.
    # Carried onto a record of 56 or 40 groups, the set that encrypt made
    # writes what the same ints write; 32 or 24 groups refuse both.
    env = encrypt(BitSeq("1" * 100 + "0110" * 10), KEY35)
    flags, level1 = env.levels[0].sentinels, env.levels[1]
    assert (len(flags), max(flags), env.levels[0].padded_group_count(8)) == (33, 32, 48)
    for length in (164, 120):
        blobs = []
        for sentinels in (flags, SentinelSet(flags.indices)):
            carried = replace(env, levels=(LevelRecord(3, length, sentinels), level1))
            blobs.append(carried.to_bytes())
            assert len(blobs[-1]) == 193
            assert CipherEnvelope.from_bytes(blobs[-1]) == carried
            for sent in (carried, CipherEnvelope.from_bytes(blobs[-1])):
                for run in (decrypt, decrypt_tolerant):
                    with pytest.raises(MalformedEnvelope, match=f"^level 0: recorded length "
                                       f"{length} pads to .* bits, but 144 bits reach it$"):
                        run(sent, KEY35)
        assert blobs[0] == blobs[1]
    for length, groups in ((96, 32), (72, 24)):
        for sentinels in (flags, SentinelSet(flags.indices)):
            short = replace(env, levels=(LevelRecord(3, length, sentinels), level1))
            with pytest.raises(MalformedEnvelope,
                               match=f"^level 0: sentinels lie past its {groups} groups$"):
                short.to_bytes()


GOLD_ENV = CipherEnvelope.from_bytes(GOLD)


@pytest.mark.parametrize(
    "fields, blob, keyed",
    [
        ({"version": 2}, patched(GOLD, OFF_VERSION, b"\x02"), False),
        ({"block_order": 12}, patched(GOLD, OFF_BLOCK_ORDER, b"\x0c"), False),
        (
            {"levels": (LevelRecord(4, 24, SentinelSet((4,))), GOLD_ENV.levels[1])},
            patched(GOLD, OFF_L1_X, b"\x04"),
            False,
        ),
        (
            {"levels": (LevelRecord(3, 24, SentinelSet((8,))), GOLD_ENV.levels[1])},
            patched(GOLD, OFF_L1_SENT_IDX, struct.pack(">I", 8)),
            True,
        ),
        (
            {"payload": BitSeq(CIPHER_BITS + "0" * 8)},
            patched(GOLD, OFF_PAYLOAD_BITLEN, struct.pack(">Q", 48)),
            True,
        ),
    ],
    ids=["version", "block-order", "group-width", "sentinel-range", "payload-length"],
)
def test_to_bytes_refuses_what_from_bytes_refuses(fields, blob, keyed):
    with pytest.raises(MalformedEnvelope) as parsed:
        CipherEnvelope.from_bytes(blob)
    with pytest.raises(MalformedEnvelope) as written:
        replace(GOLD_ENV, **fields).to_bytes()
    assert str(written.value) == str(parsed.value)
    if keyed:  # records whose x match key 3,5, so decrypt meets the same defect
        for run in (decrypt, decrypt_tolerant):
            with pytest.raises(MalformedEnvelope) as decrypted:
                run(replace(GOLD_ENV, **fields), KEY35)
            assert str(decrypted.value) == str(parsed.value)


def test_to_bytes_refuses_header_fields_too_wide_for_the_format():
    # Neither value fits its one-byte slot, so no blob can carry them.
    with pytest.raises(MalformedEnvelope, match="^block order 256 is not a supported"):
        replace(GOLD_ENV, block_order=256).to_bytes()
    with pytest.raises(MalformedEnvelope, match="^unsupported version 300$"):
        replace(GOLD_ENV, version=300).to_bytes()


def test_far_sentinel_index_costs_memory_only_for_the_payload():
    # Why SentinelSet keeps parsed indices as packed words: the words grow
    # with the sentinel count, which the envelope's bytes bound, while lane
    # flags grow with the lane count.  Here level 0 claims 2^63 bits and a
    # sentinel at lane 2^32 - 1; the record check refuses it before any
    # flags exist.
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
        with pytest.raises(MalformedEnvelope, match="^level 0: ") as strict:
            decrypt(env, key)
        with pytest.raises(MalformedEnvelope, match="^level 0: ") as tolerant:
            decrypt_tolerant(env, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(strict.value) == str(tolerant.value)
    assert peak < 2**20


def test_hostile_sentinel_count_is_refused_before_reading():
    # One x = 3 level over 24 bits that claims 2^32 - 1 sentinels (16 GiB of
    # indices) in a 31-byte envelope: the length check runs before any slice.
    blob = (
        ENVELOPE_MAGIC
        + struct.pack(">BBB", ENVELOPE_VERSION, 8, 1)
        + struct.pack(">BQI", 3, 24, 2**32 - 1)
        + bytes(11)
    )
    assert len(blob) == 31
    tracemalloc.start()
    try:
        with pytest.raises(MalformedEnvelope,
                           match="^truncated envelope while reading level 0 sentinel indices$"):
            CipherEnvelope.from_bytes(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def long_envelope() -> tuple[BitSeq, CipherEnvelope]:
    """8 KiB of random bytes and their envelope under 3,5: two pieces past SLICE_BITS."""
    plain = BitSeq.from_bytes(random.Random(35).randbytes(1 << 13))
    return plain, encrypt(plain, KEY35)


def test_a_parsed_payload_views_its_bytes_blob():
    # The payload of a bytes blob is a read-only view of the blob, not a
    # copy; to_bytes still gives bytes, and the parsed envelope equals,
    # hashes, writes and decrypts alike, piece by piece from the view.
    plain, env = long_envelope()
    blob = env.to_bytes()
    parsed = CipherEnvelope.from_bytes(blob)
    held = parsed.payload._data
    assert type(held) is memoryview and held.obj is blob and held.readonly
    payload = parsed.payload.to_bytes()
    assert type(payload) is bytes and payload == env.payload.to_bytes()
    assert parsed == env and hash(parsed.payload) == hash(env.payload)
    assert parsed.to_bytes() == blob
    assert decrypt(parsed, KEY35) == plain


def test_a_mutable_blob_is_copied_so_later_writes_leave_the_envelope():
    plain, env = long_envelope()
    blob = env.to_bytes()
    for buffer in (bytearray(blob), memoryview(bytearray(blob))):
        parsed = CipherEnvelope.from_bytes(buffer)
        assert parsed.payload._data.obj is not buffer
        buffer[:] = bytes(len(blob))
        assert parsed == env and parsed.to_bytes() == blob
        assert decrypt(parsed, KEY35) == plain


def test_a_parsed_envelope_pickles_and_copies_as_bytes():
    # A view of the blob cannot be pickled: the payload and every sentinel
    # set rebuild from bytes, and the twin equals, hashes and decrypts alike.
    plain, env = long_envelope()
    blob = env.to_bytes()
    parsed = CipherEnvelope.from_bytes(blob)
    assert all(record.sentinels._words.obj is blob for record in parsed.levels)
    assert len(parsed.levels[0].sentinels) > 0
    for twin in (pickle.loads(pickle.dumps(parsed)), copy.deepcopy(parsed)):
        assert type(twin.payload._data) is bytes
        for record, held in zip(twin.levels, parsed.levels):
            assert type(record.sentinels._words) is bytes
            assert record.sentinels == held.sentinels and hash(record.sentinels) == hash(
                held.sentinels)
        assert twin == parsed == env and twin.to_bytes() == blob
        assert decrypt(twin, KEY35) == plain


@pytest.mark.parametrize("exponents, n", [((3, 5, 31), 8), ((13,), 128), ((2, 7), 16)])
def test_every_form_of_a_sentinel_set_agrees(exponents, n):
    # The set encrypt records (bytes), the same positions given as ints,
    # flags rebuilt from those ints, and the words parsed back from HCT1 (a
    # view of the blob) are one set; and a parsed envelope writes the bytes
    # it was read from.
    key = KeySchedule.from_exponents(exponents)
    env = encrypt(BitSeq.from_bytes(random.Random(n).randbytes(1 << 16)), key, n)
    blob = env.to_bytes()
    parsed = CipherEnvelope.from_bytes(blob)
    assert parsed.to_bytes() == blob
    assert parsed == env
    for record, read in zip(env.levels, parsed.levels):
        count = record.padded_group_count(n)
        indices = record.sentinels.indices
        given_ints = SentinelSet(indices)
        rebuilt = SentinelSet._of(
            _positions(0, count, given_ints.lanes(record.x, count), record.x))
        forms = (record.sentinels, given_ints, rebuilt, read.sentinels)
        assert type(record.sentinels._words) is bytes and read.sentinels._words.obj is blob
        last = indices[-1] if indices else -1
        for form in forms:
            assert form == forms[0] and hash(form) == hash(forms[0])
            assert (len(form), form.indices, form.to_words()) == (
                len(indices), indices, struct.pack(f">{len(indices)}I", *indices))
            assert form.fits(last + 1) and form.fits(count)
            assert not form.fits(last) or not indices
    assert sum(len(record.sentinels) for record in env.levels) > 0


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


# The work budget of any blob: parse, strict and tolerant decrypt raise only
# CodecError subclasses, and each call's tracemalloc peak stays under
# BUDGET_PER_BYTE * len(blob) + BUDGET_BASE bytes.  Measured at most
# 1.3 B/B of blob plus 0.5 MiB (the lane kernel's mask cache, filled cold);
# the bounds allow twice that.
BUDGET_PER_BYTE, BUDGET_BASE = 2.6, 1 << 20
LONG_KEYS = [(3, 5, 31), (2, 7), (13,), (5, 3, 2), (31, 19, 17, 13), (2, 31)]


def some(draw, rng, plausible, strategy):
    """``plausible``, or a value of ``strategy`` one time in sixteen."""
    return draw(strategy) if rng.random() < 1 / 16 else plausible


@st.composite
def field_blobs(draw):
    """An HCT1 blob built field by field, each field either consistent with a plan or any value."""
    exponents = draw(st.lists(st.sampled_from(SUPPORTED_EXPONENTS), min_size=1, max_size=4))
    n = draw(st.sampled_from(SUPPORTED_ORDERS))
    length = draw(st.integers(0, 8 << 12) | st.integers(0, 8 << 16))
    plan, bits = cipher._plan(tuple(exponents), n, length)
    if bits > 8 << 16:  # at most 64 KiB of payload
        length, (plan, bits) = 0, cipher._plan(tuple(exponents), n, 0)
    rng = random.Random(draw(st.integers(0, 2**32)))
    blob = bytearray(some(draw, rng, ENVELOPE_MAGIC, st.binary(min_size=4, max_size=4)))
    blob += bytes([some(draw, rng, ENVELOPE_VERSION, st.integers(0, 255)),
                   some(draw, rng, n, st.integers(0, 255)),
                   some(draw, rng, len(plan), st.integers(0, 255))])
    for x, bits_in, count, _ in plan:
        positions = sorted(rng.sample(range(count), min(count, draw(st.integers(0, 64)))))
        words = struct.pack(f">{len(positions)}I", *positions)
        blob += struct.pack(">BQI", some(draw, rng, x, st.integers(0, 255)),
                            some(draw, rng, bits_in, st.integers(0, 2**64 - 1)),
                            some(draw, rng, len(positions), st.integers(0, 2**32 - 1)))
        blob += some(draw, rng, words, st.binary(max_size=64))
    blob += struct.pack(">Q", some(draw, rng, bits, st.integers(0, 2**64 - 1)))
    blob += rng.randbytes(some(draw, rng, bits // 8, st.integers(0, 1 << 16)))
    return bytes(blob), exponents


@st.composite
def mutated_blobs(draw):
    """A real envelope, S up to 31,19,17,13/128, with a few bytes overwritten, cut or inserted."""
    exponents = draw(st.sampled_from(LONG_KEYS))
    n = draw(st.sampled_from(SUPPORTED_ORDERS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    message = rng.randbytes(draw(st.integers(0, 1 << 13)))
    env = encrypt(BitSeq.from_bytes(message), KeySchedule.from_exponents(exponents), n)
    blob, payload = bytearray(env.to_bytes()), len(env.payload) // 8
    for kind, where, chunk in draw(st.lists(edits, min_size=1, max_size=3)):
        at = where % (len(blob) + 1)
        if rng.random() < 0.75 and payload:  # damage the payload, which the parse accepts
            kind, at = "overwrite", len(blob) - 1 - where % payload
        if kind == "overwrite":
            blob[at:at + len(chunk)] = chunk
        elif kind == "cut":
            del blob[at:at + len(chunk)]
        else:
            blob[at:at] = chunk
    return bytes(blob), list(exponents)


def budget_peaks(blob: bytes, exponents: list) -> list:
    """tracemalloc peak of parsing ``blob``, then of each decrypt under a key of its
    length and under one of another length; every call raises only CodecError."""
    keys = [KeySchedule.from_exponents(exponents),
            KeySchedule.from_exponents(exponents[:-1] if len(exponents) > 1 else [3, 5])]
    peaks = []

    def traced(call):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            result = call()
        except CodecError:
            result = None
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return result

    tracemalloc.start()
    try:
        env = traced(lambda: CipherEnvelope.from_bytes(blob))
        if env is not None:
            for run in (decrypt, decrypt_tolerant):
                for key in keys:
                    traced(lambda: run(env, key))
    finally:
        tracemalloc.stop()
    return peaks


@settings(max_examples=300, deadline=None)
@given(field_blobs() | mutated_blobs())
def test_any_blob_costs_at_most_its_work_budget(case):
    blob, exponents = case
    peaks = budget_peaks(blob, exponents)
    assert max(peaks) <= BUDGET_PER_BYTE * len(blob) + BUDGET_BASE, (len(blob), peaks)
