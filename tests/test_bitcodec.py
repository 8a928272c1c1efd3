"""Bit plumbing: BitSeq conversions, grouping, sentinels, truncation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hctcodec.bitcodec import (
    BitSeq,
    GroupedSeq,
    SentinelSet,
    detect_sentinels,
    pad_and_group,
    restore_sentinels,
    truncate,
    ungroup,
)
from hctcodec.errors import (
    LengthUnderflow,
    NonZeroPadding,
    SentinelConflict,
    ValueOverflow,
)
from vectors import (
    D1_BITS_PADDED,
    D1_RECOVERED,
    D1_RESTORED,
    D2_RECOVERED,
    L1_GROUPS,
    L1_SENTINELS,
    PLAIN_BITS,
    PLAIN_BYTES,
)

bit_strings = st.text(alphabet="01", max_size=256)


def test_bitseq_rejects_foreign_characters():
    for bad in ("2", "01a", "0 1", "0b1"):
        with pytest.raises(ValueError):
            BitSeq(bad)


def test_bitseq_rejects_non_str():
    for bad in (b"01", 5, None, ["0", "1"]):
        with pytest.raises(TypeError):
            BitSeq(bad)


def first_bits(data: bytes, n: int) -> BitSeq:
    """The first n bits of data, MSB-first."""
    return BitSeq.from_int(int.from_bytes(data, "big") >> 8 * len(data) - n, n)


def ref_pack(bits: str) -> bytes:
    """Plain-string reference for BitSeq.to_bytes."""
    padded = bits + "0" * (-len(bits) % 8)
    return bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8))


@given(st.text(alphabet="01", max_size=300), st.data())
def test_bitseq_matches_string_reference(bits, data):
    seq = BitSeq(bits)
    assert seq.bits == bits
    assert len(seq) == len(bits)
    assert seq.value == sum(int(c) << len(bits) - 1 - i for i, c in enumerate(bits))
    assert BitSeq.from_int(seq.value, len(bits)) == seq
    packed = seq.to_bytes()
    assert packed == ref_pack(bits)
    assert first_bits(packed, len(bits)) == seq
    cut = data.draw(st.integers(0, 8 * len(packed)))
    unpacked = "".join(f"{byte:08b}" for byte in packed)
    assert first_bits(packed, cut).bits == unpacked[:cut]
    assert BitSeq.from_bytes(packed).bits == unpacked
    if bits:
        i = data.draw(st.integers(0, len(bits) - 1))
        flipped = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1:]
        assert seq.flip(i).bits == flipped
    # Equal value at another length, and one changed bit, are different sequences.
    variants = {bits, "0" + bits, bits[1:], bits + "0"}
    if bits:
        variants.add(flipped)
    for other in variants:
        assert (BitSeq(other) == seq) == (other == bits)
    assert len({BitSeq(v) for v in variants}) == len(variants)
    assert hash(BitSeq(bits)) == hash(seq)


@given(st.integers(0, 300), st.integers(1, 1 << 310))
def test_from_int_rejects_values_outside_length(length, excess):
    with pytest.raises(ValueError):
        BitSeq.from_int(-excess, length)
    with pytest.raises(ValueError):
        BitSeq.from_int((1 << length) - 1 + excess, length)
    assert BitSeq.from_int((1 << length) - 1, length).bits == "1" * length


def test_bitseq_length_and_empty():
    assert len(BitSeq("")) == 0
    assert len(BitSeq("0101")) == 4
    assert BitSeq("").to_bytes() == b""


def test_flip():
    assert BitSeq("000").flip(1) == BitSeq("010")
    assert BitSeq("111").flip(0) == BitSeq("011")
    with pytest.raises(IndexError):
        BitSeq("000").flip(3)
    with pytest.raises(IndexError):
        BitSeq("000").flip(-1)


def test_bytes_worked_example():
    assert BitSeq(PLAIN_BITS).to_bytes() == PLAIN_BYTES
    assert BitSeq.from_bytes(PLAIN_BYTES) == BitSeq(PLAIN_BITS)


def test_from_bytes_partial_tail():
    assert BitSeq.from_bytes(b"\xa0") == BitSeq("10100000")
    assert first_bits(b"\xa0", 3) == BitSeq("101")
    assert first_bits(b"\xff", 0) == BitSeq("")


def test_to_bytes_zero_fills_tail():
    assert BitSeq("101").to_bytes() == b"\xa0"
    assert BitSeq("000000001").to_bytes() == b"\x00\x80"


@given(bit_strings)
def test_bytes_round_trip(bits):
    seq = BitSeq(bits)
    assert first_bits(seq.to_bytes(), len(seq)) == seq


@given(st.binary(max_size=64))
def test_bytes_round_trip_other_direction(data):
    assert BitSeq.from_bytes(data).to_bytes() == data


def test_grouping_worked_example():
    grouped = pad_and_group(BitSeq(PLAIN_BITS), 3, 8)
    assert grouped == GroupedSeq(L1_GROUPS, 3, 24)
    assert detect_sentinels(grouped) == SentinelSet(L1_SENTINELS)


def test_grouping_pads_to_whole_blocks():
    grouped = pad_and_group(BitSeq("11111"), 3, 8)
    # The trailing "11" reads as "110": padding zeros extend the stream.
    assert grouped.values == (7, 6, 0, 0, 0, 0, 0, 0)
    assert grouped.orig_bit_len == 5
    # 5 bits -> 2 groups of 3 -> padded to one block of 8.
    assert len(grouped.values) == 8


def test_grouping_empty_input():
    grouped = pad_and_group(BitSeq(""), 5, 8)
    assert grouped == GroupedSeq((), 5, 0)
    assert detect_sentinels(grouped) == SentinelSet(())


@given(bit_strings, st.sampled_from([2, 3, 5, 7]), st.sampled_from([8, 16, 32]))
def test_grouping_shape_invariants(bits, x, n):
    grouped = pad_and_group(BitSeq(bits), x, n)
    assert grouped.orig_bit_len == len(bits)
    assert len(grouped.values) % n == 0
    if bits:
        assert len(grouped.values) >= -(-len(bits) // x)
    assert all(0 <= v < (1 << x) for v in grouped.values)


@given(bit_strings, st.sampled_from([2, 3, 5]), st.sampled_from([8, 16]))
def test_group_ungroup_truncate_round_trip(bits, x, n):
    grouped = pad_and_group(BitSeq(bits), x, n)
    back = truncate(ungroup(grouped.values, x), grouped.orig_bit_len)
    assert back == BitSeq(bits)


def test_sentinel_set_validation():
    with pytest.raises(ValueError):
        SentinelSet((3, 1))
    with pytest.raises(ValueError):
        SentinelSet((2, 2))
    with pytest.raises(ValueError):
        SentinelSet((-1, 4))
    assert SentinelSet(sorted({4, 1, 4})).indices == (1, 4)
    s = SentinelSet((1, 4))
    assert len(s) == 2
    assert 4 in s
    assert 2 not in s
    assert list(s) == [1, 4]


def test_restore_worked_example():
    assert restore_sentinels(D1_RECOVERED, SentinelSet(L1_SENTINELS), 3) == list(D1_RESTORED)


def test_restore_requires_zero_slots():
    with pytest.raises(SentinelConflict):
        restore_sentinels([6, 2, 3, 5, 1, 6, 0, 3], SentinelSet((4,)), 3)
    with pytest.raises(SentinelConflict):
        restore_sentinels([0, 0], SentinelSet((5,)), 3)


def test_restore_empty_sentinels_is_identity():
    vals = [1, 2, 3]
    assert restore_sentinels(vals, SentinelSet(()), 3) == vals


@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=40),
    st.data(),
)
def test_detect_restore_round_trip(body, data):
    # Plant the maximum at chosen positions, mask, then restore.
    x = 3
    positions = data.draw(
        st.sets(st.integers(0, len(body) - 1), max_size=len(body))
    )
    original = list(body)
    for i in positions:
        original[i] = 7
    grouped = GroupedSeq(tuple(original), x, len(original) * x)
    sentinels = detect_sentinels(grouped)
    masked = [0 if v == 7 else v for v in original]
    assert restore_sentinels(masked, sentinels, x) == original


def test_ungroup_worked_example():
    # Level-2 words re-emit the padded 40-bit stream; level-1 groups
    # re-emit the original message.
    assert ungroup(D2_RECOVERED, 5) == BitSeq(D1_BITS_PADDED)
    assert ungroup(D1_RESTORED, 3) == BitSeq(PLAIN_BITS)


def test_ungroup_rejects_oversized_values():
    with pytest.raises(ValueOverflow):
        ungroup([8], 3)
    with pytest.raises(ValueOverflow):
        ungroup([-1], 3)


def test_truncate_strips_zero_padding():
    assert truncate(BitSeq("10100000"), 3) == BitSeq("101")
    assert truncate(BitSeq("101"), 3) == BitSeq("101")
    assert truncate(BitSeq("000"), 0) == BitSeq("")


def test_truncate_rejects_dirty_padding():
    with pytest.raises(NonZeroPadding):
        truncate(BitSeq("10100001"), 3)


def test_truncate_rejects_overlong_claims():
    with pytest.raises(LengthUnderflow):
        truncate(BitSeq("101"), 4)
