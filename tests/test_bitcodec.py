"""Bit plumbing: BitSeq conversions, grouping, sentinels, truncation."""

import copy
import pickle
import random
import struct
import tracemalloc
from itertools import accumulate, islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hctcodec.bitcodec import (
    SLICE_BITS,
    BitSeq,
    GroupedSeq,
    SentinelSet,
    _WINDOW,
    _positions,
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
from hctcodec.hadamard import lane_slices
from hctcodec.modmath import SUPPORTED_EXPONENTS
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


@given(st.text(alphabet="01", max_size=300), st.data())
def test_byte_int_and_text_forms_agree(bits, data):
    # from_bytes keeps bytes, from_int an int; the cipher's byte form
    # (_packed) may end in zero fill, as to_bytes writes it, and may be a
    # read-only view of bytes, as a parsed payload is, here also one cut
    # from inside a larger blob.  Every form of one sequence reads and
    # compares alike, to_bytes gives bytes, and a different sequence differs
    # in each.
    text = BitSeq(bits)
    packed = text.to_bytes()
    framed = memoryview(b"\xff" + packed + b"\xff")[1:-1]
    forms = [text, BitSeq.from_int(text.value, len(bits)), BitSeq._packed(packed, len(bits)),
             BitSeq._packed(memoryview(packed), len(bits)), BitSeq._packed(framed, len(bits))]
    if len(bits) % 8 == 0:
        forms += [BitSeq.from_bytes(packed), BitSeq.from_bytes(bytearray(packed))]
    others = [BitSeq(bits + "0")]
    if len(bits) % 8:
        others.append(BitSeq.from_bytes(packed))  # the same bytes, their fill read as bits
    if bits:
        i = data.draw(st.integers(0, len(bits) - 1))
        others.append(text.flip(i))
    for seq in forms:
        assert (seq.bits, seq.value, len(seq)) == (bits, text.value, len(bits))
        assert seq.to_bytes() == packed and type(seq.to_bytes()) is bytes
        assert repr(seq) == repr(text)
        assert all(seq == other and hash(seq) == hash(other) for other in forms)
        assert all(seq != other and other != seq for other in others)
        if bits:
            assert seq.flip(i) == text.flip(i) and seq.flip(i).bits == text.flip(i).bits


def test_long_byte_forms_compare_slice_by_slice():
    # == reads a held view in slices of SLICE_BITS // 8 bytes, compared as
    # bytes, so two views of a blob compare with no copy of their length; a
    # change in any slice, or next to a cut, still shows, and the bytes, view
    # and int forms of one sequence are equal and hash alike.
    step = SLICE_BITS // 8
    data = random.Random(35).randbytes(8 * step + 5)
    length = 8 * len(data)

    def view(payload):
        return BitSeq._packed(memoryview(b"\xff" + payload + b"\xff")[1:-1], length)

    forms = [BitSeq.from_bytes(data), view(data),
             BitSeq.from_int(int.from_bytes(data, "big"), length)]
    for seq in forms:
        assert all(seq == other and hash(seq) == hash(other) for other in forms)
    for byte in (0, step - 1, step, 4 * step + 7, len(data) - 1):
        changed = bytearray(data)
        changed[byte] ^= 8
        for other in (BitSeq.from_bytes(bytes(changed)), view(bytes(changed))):
            assert all(seq != other and other != seq for seq in forms), byte
    twin = view(data)
    tracemalloc.start()
    try:
        assert forms[1] == twin
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * step, peak


def test_from_bytes_keeps_bytes_and_copies_a_mutable_buffer():
    data = b"\xa5\x0f"
    assert BitSeq.from_bytes(data).to_bytes() is data
    for buffer in (bytearray(data), memoryview(bytearray(data))):
        seq = BitSeq.from_bytes(buffer)
        buffer[0] = 0
        assert seq.to_bytes() == data and seq == BitSeq("1010010100001111")
    with pytest.raises(TypeError):
        BitSeq.from_bytes(5)
    with pytest.raises(AttributeError):
        BitSeq.from_bytes(data).length = 3


def test_bitseq_copies_and_pickles_in_its_form():
    # A view is rebuilt as bytes: a memoryview cannot be pickled.
    view = BitSeq._packed(memoryview(b"\x00\xa5\x0f")[1:], 16)
    for seq in (BitSeq("101"), BitSeq.from_bytes(b"\xa5\x0f"), BitSeq._packed(b"\xa0", 3), view):
        for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
            assert twin == seq and type(twin) is type(seq)
            assert twin._data is None or type(twin._data) is bytes


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
    with pytest.raises(ValueError):
        SentinelSet((-1,))
    with pytest.raises(ValueError):
        SentinelSet.from_words(struct.pack(">3I", 1, 5, 5))
    for ragged in (b"\x05", struct.pack(">2I", 1, 4)[:-1], struct.pack(">2I", 1, 4) + b"\0"):
        with pytest.raises(ValueError, match="whole 4-byte words"):
            SentinelSet.from_words(ragged)
    assert SentinelSet(sorted({4, 1, 4})).indices == (1, 4)
    s = SentinelSet((1, 4))
    assert len(s) == 2
    assert 4 in s
    assert 2 not in s
    assert list(s) == [1, 4]
    assert s.to_words() == struct.pack(">2I", 1, 4)
    assert s == SentinelSet.from_words(struct.pack(">2I", 1, 4))


word_values = st.one_of(
    st.sampled_from([-1, 0, 1, 2, 2**31, 2**32 - 2, 2**32 - 1, 2**32, 2**40]),
    st.integers(0, 2**32 - 1),
)


@given(st.lists(word_values, max_size=8), st.booleans())
def test_parsed_words_must_strictly_ascend(values, ordered):
    # from_words checks all words at once with whole-int borrows, and the
    # int form, from a sequence, a generator or bytes, packs its values and
    # runs the same check; the reference is the pairwise comparison.
    if ordered:
        values = sorted(values)
    builds = [lambda: SentinelSet(values), lambda: SentinelSet(iter(values))]
    if not all(0 <= v < 2**32 for v in values):
        for build in builds:
            with pytest.raises(ValueError, match="must lie in"):
                build()
        return
    if all(v < 256 for v in values):  # bytes hold one int each, like any sequence
        builds.append(lambda: SentinelSet(bytes(values)))
    data = struct.pack(f">{len(values)}I", *values)
    builds.append(lambda: SentinelSet.from_words(data))
    if all(a < b for a, b in zip(values, values[1:])):
        sets = [build() for build in builds]
        for s in sets:
            assert s.indices == tuple(values) and s.to_words() == data
            assert s == sets[-1] and hash(s) == hash(sets[-1])
    else:
        for build in builds:
            with pytest.raises(ValueError, match="strictly ascending"):
                build()


def test_parsed_words_ascend_across_slice_cuts():
    # The check runs per slice of SLICE_BITS // 32 words; a repeat or a
    # descent on either side of a cut, or across it, must still show.
    per_slice = SLICE_BITS // 32
    values = list(range(5, 3 * per_slice + 100))
    assert SentinelSet.from_words(struct.pack(f">{len(values)}I", *values)).indices == tuple(values)
    for at in (1, per_slice - 1, per_slice, per_slice + 1, 2 * per_slice, len(values) - 1):
        for bad in (values[at - 1], values[at - 1] - 1):
            broken = values[:at] + [bad] + values[at + 1:]
            with pytest.raises(ValueError, match="strictly ascending"):
                SentinelSet.from_words(struct.pack(f">{len(broken)}I", *broken))


def test_sentinel_set_past_four_bytes():
    # HCT1 carries a position as a 4-byte word; one it cannot carry makes
    # no set, as a negative one makes none, whether given as an int or
    # flagged over more than 2^32 lanes, as one piece or as encrypt's piece
    # of a level.  The highest word round-trips.
    past = r"^sentinel indices must lie in 0\.\.2\^32 - 1$"
    for indices in ((1, 2**33 + 3), (2**32,), (-1,)):
        with pytest.raises(ValueError, match=past):
            SentinelSet(indices)
    with pytest.raises(ValueError, match=past):
        _positions(0, 2**32 + 1, 1, 3)
    with pytest.raises(ValueError, match=past):
        _positions(2**32, 1, 1, 3)
    assert SentinelSet._of(_positions(0, 2**32, 1, 3)) == SentinelSet((2**32 - 1,))
    top = SentinelSet((2**32 - 1,))
    assert top.to_words() == b"\xff\xff\xff\xff"
    back = SentinelSet.from_words(top.to_words())
    assert back == top and back.indices == (2**32 - 1,)


def words(indices):
    """Reference: ``indices`` as HCT1's big-endian 4-byte words."""
    return struct.pack(f">{len(indices)}I", *indices)


def text_lanes(indices, x, count):
    """Reference: a '1' at the lowest bit of every listed lane, parsed as text."""
    marks = bytearray(b"0") * (count * x)
    for i in indices:
        marks[i * x + x - 1] = ord("1")
    return int(marks, 2) if marks else 0


def test_sparse_and_dense_conversions_match_the_text_path():
    # Levels of 1, 2 and 3 slices, each one lane short or over, and counts
    # whose bits end mid-byte.  Sentinels: none, the lanes on both sides of
    # every slice cut, in one slice only, a few, and about one lane in eight.
    # Both conversions handle only the span from a slice's first flagged lane
    # to its last, so also: one lane in the middle of every slice, and only
    # the first and last lanes of the middle slice.
    rng = random.Random(64)
    for x in SUPPORTED_EXPONENTS:
        _, (_, step, _) = islice(lane_slices(x, 128 * SLICE_BITS), 2)  # a whole slice
        for count in (1, 63, 1001, *(k * step + d for k in (1, 2, 3) for d in (-1, 0, 1))):
            slices = [range(first, first + lanes) for first, lanes, _ in lane_slices(x, count)]
            cuts = [piece.start for piece in slices[1:]]
            edges = {0, count - 1, *cuts, *(cut - 1 for cut in cuts)}
            last, middle = slices[-1], slices[len(slices) // 2]
            for indices in (
                (),
                tuple(sorted(edges)),
                tuple(sorted(rng.sample(last, min(5, len(last))))),
                tuple(sorted(rng.sample(range(count), min(3, count)))),
                tuple(sorted(edges.union(rng.sample(range(count), count // 8)))),
                tuple(piece[len(piece) // 2] for piece in slices),
                tuple(sorted({middle[0], middle[-1]})),
            ):
                flags = text_lanes(indices, x, count)
                assert SentinelSet(indices).lanes(x, count) == flags, (x, count, len(indices))
                assert _positions(0, count, flags, x) == words(indices), (
                    x, count, len(indices),
                )


def test_table_conversions_at_their_edges():
    # _positions spreads flags to a byte per lane in windows of _WINDOW lanes
    # from the highest flagged one, and forms each position as its window's
    # base plus a local index of two 7-bit digits; lanes gathers marks back
    # per lane slot.  For every x both match the text reference: all lanes
    # flagged, one lane, spans that end on either side of a window cut, and
    # bases that carry into the high digit and across the bytes of a word.
    past = r"^sentinel indices must lie in 0\.\.2\^32 - 1$"
    t, w, wide = 3, _WINDOW, 2 * _WINDOW + 10
    cases = [(count, tuple(range(count))) for count in (1, 7, 8, 9, 2 * w + 3)]
    cases += [(count, (i,)) for count in (1, 8, 1001) for i in {0, count // 2, count - 1}]
    cases += [(wide, (t, *rest)) for rest in ((t + w - 1,), (t + w,), (t + w - 1, t + w),
                                              (t + w + 1, t + 2 * w), (t + 2 * w - 1,))]
    cases += [(wide, tuple(sorted(random.Random(34).sample(range(wide), wide // 4))))]
    for x in SUPPORTED_EXPONENTS:
        for count, indices in cases:
            flags = text_lanes(indices, x, count)
            for first in (0, 1, 127, 128, 2**14 - 1, 2**14, 2**16 - 3, 2**24 - 1, 2**32 - count):
                shifted = words([first + i for i in indices])
                assert _positions(first, count, flags, x) == shifted, (x, count, first)
                assert SentinelSet._of(shifted).lanes(x, count, first) == flags, (x, count, first)
            assert _positions(0, count, flags, x) == words(indices)
            assert SentinelSet(indices).lanes(x, count) == flags
        assert _positions(2**32 - 1, 1, 1, x) == words([2**32 - 1])
        # Past 2^32 - 1 alone, or after a position whose word a carry would
        # reach, or a flag above the lanes given (a negative position).
        for first, count, flags in ((2**32, 1, 1), (2**32 - 2, 3, text_lanes((0, 2), x, 3)),
                                    (0, 1, 1 << x)):
            with pytest.raises(ValueError, match=past):
                _positions(first, count, flags, x)


def test_piece_flags_match_the_text_path():
    # Encrypt formats each piece's flags into positions, and decrypt asks a
    # set for the flags of one piece of a level at a time, bisecting its
    # positions for the piece.  The sets of ints, of encrypt's pieces and of
    # one piece for the level are one set, and its flags equal the text
    # reference, with positions on both sides of every cut, for the pieces,
    # for ranges across cuts, for the whole level and for another x.
    rng = random.Random(30)
    sizes = (128, 384, 128, 256, 40)
    firsts = tuple(accumulate(sizes, initial=0))
    count, cuts = firsts[-1], firsts[1:-1]
    ranges = [*zip(firsts, sizes), (100, 300), (500, 20), (0, count)]
    for x in SUPPORTED_EXPONENTS:
        positions = sorted(p for p in {0, count - 1, *cuts, *(c - 1 for c in cuts),
                                       *rng.sample(range(count), 30)}
                           if not firsts[2] <= p < firsts[3])  # the third piece has none

        def flags(first, lanes, width=x):
            return text_lanes([p - first for p in positions if first <= p < first + lanes],
                              width, lanes)

        pieces = [_positions(first, lanes, flags(first, lanes), x)
                  for first, lanes in zip(firsts, sizes)]
        assert [len(piece) > 0 for piece in pieces] == [True, True, False, True, True]
        sets = (SentinelSet(positions), SentinelSet._of(b"".join(pieces)),
                SentinelSet._of(_positions(0, count, flags(0, count), x)))
        other = 3 if x != 3 else 5
        for s in sets:
            assert s == sets[0] and s.indices == tuple(positions) and len(s) == len(positions)
            for first, lanes in ranges:
                assert s.lanes(x, lanes, first) == flags(first, lanes), (x, first, lanes)
                assert s.lanes(other, lanes, first) == flags(first, lanes, other)
            assert s.lanes(x, count) == flags(0, count)
            low = 0  # as decrypt runs a level's pieces: in order, carrying the word offset
            for first, lanes in zip(firsts, sizes):
                piece = s._piece(first, first + lanes, low)
                assert s.lanes(x, lanes, first, piece) == flags(first, lanes), (x, first, lanes)
                low += len(piece)
            assert low == len(positions)


def test_a_dense_piece_before_a_far_position():
    # lanes (_piece) converts as many of a piece's words as the density past its
    # first word predicts, and doubles them while they end short of the
    # piece: 1495 positions in a row before one far position take several
    # doublings, from either end of a run or inside it.
    positions = [*range(5, 1500), 10**6 + 7]
    s = SentinelSet(positions)
    for x in (2, 13):
        for first, lanes in ((0, 1500), (0, 700), (600, 1000), (1400, 2000), (10**6, 8)):
            inside = [p - first for p in positions if first <= p < first + lanes]
            for low in {0, positions.index(first + inside[0])}:
                piece = s._piece(first, first + lanes, low)
                assert s.lanes(x, lanes, first, piece) == text_lanes(inside, x, lanes), (x, first)


def test_flag_sets_compare_by_their_flags():
    # Two sets made from the same flags are equal; so are a set made from
    # flags and the words parsed from the same positions, which hash the
    # same.  One lane more or less makes a different set.
    rng = random.Random(23)
    for x in (2, 13, 31):
        _, (_, step, _) = islice(lane_slices(x, 128 * SLICE_BITS), 2)
        count = 2 * step + 5
        indices = tuple(sorted(rng.sample(range(count), 40)))
        flags = text_lanes(indices, x, count)
        lanes = SentinelSet._of(_positions(0, count, flags, x))
        words = SentinelSet.from_words(lanes.to_words())
        assert words.indices == indices
        assert lanes == words and words == lanes and hash(lanes) == hash(words)
        assert lanes == SentinelSet._of(_positions(0, count, flags, x))
        spare = next(i for i in range(count) if i not in indices)
        for lane in (spare, indices[7]):  # one flag more, one flag fewer
            flipped = flags ^ 1 << (count - 1 - lane) * x
            changed = SentinelSet._of(_positions(0, count, flipped, x))
            assert changed != lanes and lanes != changed
            assert changed != words and SentinelSet.from_words(changed.to_words()) == changed


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
    with pytest.raises(NonZeroPadding, match="^discarded padding contains 1 one bits, "
                                             "the first at bit 7$"):
        truncate(BitSeq("10100001"), 3)


def test_truncate_rejects_overlong_claims():
    with pytest.raises(LengthUnderflow):
        truncate(BitSeq("101"), 4)
