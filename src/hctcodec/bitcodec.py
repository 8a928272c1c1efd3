"""Bit-level plumbing: grouping, padding, sentinels, and binary conversion.

A level of the cipher reads the running bit sequence in x-bit MSB-first
windows, pads the resulting value sequence up to a multiple of the block
order with zeros, and remembers two things needed for lossless inversion:
the pre-padding bit length and the positions holding the group maximum
2^x - 1 (which is congruent to 0 mod p and would otherwise be lost).

``BitSeq`` holds a bit sequence once, as an MSB-first int or as bytes,
which may be a read-only view of a parsed blob; ``SentinelSet`` holds a
level's positions once, as HCT1's big-endian 4-byte words.  Encrypt turns
lane flags into words (``_positions``) one piece of a level at a time;
decrypt finds a piece's positions (``SentinelSet._piece``) and turns them
into flags (``_flags``).  Both conversions run through byte tables, never
text.  The per-group helpers (``pad_and_group``, ``ungroup``,
``truncate``, ...) work on the '0'/'1' text form one value at a time; the
tests use them as the oracle for the packed path.
"""

import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .errors import LengthUnderflow, NonZeroPadding, SentinelConflict, ValueOverflow

# Whole-level passes run over slices of at most this many bits.
SLICE_BITS = 1 << 15


class BitSeq:
    """An ordered bit sequence and its bit count, held as an MSB-first int or as bytes.

    ``BitSeq("0101")`` parses text and ``from_int`` keeps an int;
    ``from_bytes`` keeps bytes, whose last byte may end in zero fill as
    ``to_bytes`` writes it.  The cipher's byte form (``_packed``) may hold a
    read-only ``memoryview`` of bytes instead, which ``to_bytes`` copies
    into ``bytes`` and copy and pickle rebuild as bytes.  The other forms
    (``value``, ``bits``, ``to_bytes``) are formed on each access.  ``==``
    and ``hash`` read the length and the held buffer (``_buffer``, compared
    by ``_same``), or compare two ints, so all forms agree.
    """

    __slots__ = ("_value", "length", "_data")

    def __init__(self, bits: str = ""):
        if not isinstance(bits, str):
            raise TypeError(f"BitSeq takes a str of '0'/'1', not {type(bits).__name__}")
        if bits.encode().translate(None, b"01"):
            raise ValueError("bit sequence may contain only '0' and '1'")
        _set(self, "_value", int(bits, 2) if bits else 0)
        _set(self, "length", len(bits))
        _set(self, "_data", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"BitSeq is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild the form through its constructor
        if self._data is None:
            return BitSeq.from_int, (self._value, self.length)
        return BitSeq._packed, (self.to_bytes(), self.length)

    def __repr__(self) -> str:
        return f"BitSeq({self.bits!r})"

    @property
    def value(self) -> int:
        """The MSB-first int; a byte form forms it on each access."""
        if self._data is None:
            return self._value
        return int.from_bytes(self._data, "big") >> -self.length % 8

    @property
    def bits(self) -> str:
        """The '0'/'1' text form, formatted on each access."""
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitSeq):
            return NotImplemented
        if self._data is None and other._data is None:
            return self._value == other._value and self.length == other.length
        return self.length == other.length and _same(self._buffer(), other._buffer())

    def __hash__(self) -> int:
        return hash((self.length, self._buffer()))

    def flip(self, index: int) -> "BitSeq":
        """Return a copy with the bit at ``index`` inverted."""
        if not 0 <= index < self.length:
            raise IndexError(f"bit index {index} out of range 0..{self.length - 1}")
        return BitSeq.from_int(self.value ^ (1 << self.length - 1 - index), self.length)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitSeq":
        """The ``length``-bit MSB-first form of ``value``; needs 0 <= value < 2^length."""
        if value < 0 or value >> length:
            raise ValueError(f"value does not fit in {length} unsigned bits")
        seq = object.__new__(cls)
        _set(seq, "_value", value)
        _set(seq, "length", length)
        _set(seq, "_data", None)
        return seq

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitSeq":
        """Every bit of ``data``, MSB-first, held as bytes (a copy, unless ``data`` is bytes)."""
        data = data if type(data) is bytes else bytes(memoryview(data))
        return cls._packed(data, 8 * len(data))

    @classmethod
    def _packed(cls, data: bytes | memoryview, length: int) -> "BitSeq":
        """The first ``length`` bits of ``data``, bytes or a read-only view of bytes, as they are.

        Its ``-length % 8`` fill bits must be 0.
        """
        seq = object.__new__(cls)
        _set(seq, "length", length)
        _set(seq, "_data", data)
        return seq

    def _int(self, start: int, end: int) -> int:
        """Bits ``start`` to ``end - 1`` as an MSB-first int; a byte form reads only their bytes."""
        if self._data is None:
            return self._value >> self.length - end & (1 << end - start) - 1
        return int.from_bytes(self._data[start // 8:-(-end // 8)], "big") >> -end % 8 & (
            1 << end - start) - 1

    def _buffer(self) -> bytes | memoryview:
        """The bytes or view held, as they are, or the int form packed as ``to_bytes`` packs it."""
        if self._data is not None:
            return self._data
        fill = -self.length % 8
        return (self._value << fill).to_bytes((self.length + fill) // 8, "big")

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-filling the final partial byte; a held view is copied."""
        data = self._buffer()
        return data if type(data) is bytes else bytes(data)


_set = object.__setattr__  # BitSeq's constructors; its own __setattr__ refuses


@dataclass(frozen=True)
class GroupedSeq:
    """Decimated values read from a bit sequence in x-bit windows."""

    values: tuple[int, ...]
    x: int
    orig_bit_len: int


class SentinelSet:
    """Group positions that held the maximum value 2^x - 1.

    A set holds its strictly ascending positions in one form, HCT1's
    big-endian 4-byte words: ``bytes``, or a read-only ``memoryview`` of
    the HCT1 blob an envelope views, so every position lies in
    0..2^32 - 1.  ``SentinelSet(indices)`` packs ints and raises
    ValueError for one outside that range or out of order; ``from_words``
    checks words (``_ascending``) and holds them as they are; ``_of``
    wraps encrypt's words (``_positions``) unchecked.  ``len``, ``fits``,
    ``==``, ``hash`` and ``CipherEnvelope.to_bytes`` read the words as they
    are; ``indices``, iteration and ``_piece`` convert them to native ints on
    each call.  ``to_words``, copy and pickle give ``bytes``.
    """

    __slots__ = ("_words",)

    def __init__(self, indices: Iterable[int] = ()):
        try:
            self._words = b"".join(i.to_bytes(4, "big") for i in indices)
        except OverflowError:
            raise ValueError(_PAST) from None
        if not _ascending(self._words):
            raise ValueError("sentinel indices must be strictly ascending")

    def __reduce__(self):  # a view of a blob cannot be pickled
        return SentinelSet._of, (self.to_words(),)

    @classmethod
    def _of(cls, words: bytes | memoryview) -> "SentinelSet":
        """The set holding ``words``, ascending big-endian words, as they are: no check, no copy."""
        held = object.__new__(cls)
        held._words = words
        return held

    @classmethod
    def from_words(cls, data: bytes | memoryview) -> "SentinelSet":
        """The set HCT1 carries as ``data``: strictly ascending big-endian 4-byte words.

        ``bytes`` and a contiguous byte ``memoryview`` of ``bytes`` are held
        as they are; any other buffer, which a later write could change, is
        copied into ``bytes`` first.
        """
        if not (type(data) is bytes or type(data) is memoryview and type(data.obj) is bytes
                and data.format == "B" and data.c_contiguous):
            data = bytes(memoryview(data))
        if len(data) % 4:
            raise ValueError("sentinel words must be whole 4-byte words")
        if not _ascending(data):
            raise ValueError("sentinel indices must be strictly ascending")
        return cls._of(data)

    @property
    def indices(self) -> tuple[int, ...]:
        """The ascending index tuple, formatted on each access."""
        return tuple(self)

    def to_words(self) -> bytes:
        """The positions as HCT1's big-endian 4-byte words; a held view is copied."""
        return bytes(self._words)

    def fits(self, count: int) -> bool:
        """Whether every position lies below ``count``."""
        return not self._words or int.from_bytes(self._words[-4:], "big") < count

    def _piece(self, first: int, end: int, low: int) -> array:
        """The positions in ``first``..``end`` - 1 as native ints.

        ``low`` is the number of positions below ``first``, so the piece's
        positions start at word ``low``.  The words from it on are converted
        to native ints, as many as their density predicts and doubled while
        they end short of the piece, and a native bisection cuts them at
        ``end``.
        """
        words, total = self._words, len(self._words) // 4
        if low >= total or _word(words, low) >= end:
            return array("I")
        high = most = min(total, low + end - first)  # the piece has at most end - first positions
        if most - low > 64:  # convert as many words as their density predicts
            guess = (total - low) * (end - first) * 9 // 8 // (_word(words, total - 1) + 1 - first)
            high = min(most, low + 64 + guess)
        positions = _native(words[4 * low:4 * high])
        while positions[-1] < end and high < most:
            high = min(most, 2 * high - low)
            positions = _native(words[4 * low:4 * high])
        del positions[bisect_left(positions, end):]
        return positions

    def __len__(self) -> int:
        return len(self._words) // 4

    def __iter__(self):
        return iter(_native(self._words))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SentinelSet):
            return NotImplemented
        return _same(self._words, other._words)

    def __hash__(self) -> int:
        return hash(self._words)  # a read-only byte view hashes in place, as its bytes do

    def __repr__(self) -> str:
        return f"SentinelSet({self.indices!r})"


def _word(words: bytes | memoryview, i: int) -> int:
    """Word ``i`` of big-endian 4-byte ``words``."""
    return int.from_bytes(words[4 * i:4 * i + 4], "big")


def _native(words: bytes | memoryview) -> array:
    """Big-endian 4-byte ``words`` as an ``array('I')`` of native ints."""
    native = array("I")
    native.frombytes(words)
    if sys.byteorder == "little":
        native.byteswap()
    return native


def _same(mine: bytes | memoryview, theirs: bytes | memoryview) -> bool:
    """Whether two byte buffers hold equal bytes.

    A memoryview compares byte by byte, bytes at memcmp speed: views are
    compared as bytes in slices of SLICE_BITS // 8, so no copy grows with them.
    """
    if type(mine) is bytes and type(theirs) is bytes:
        return mine == theirs
    step = SLICE_BITS // 8
    return len(mine) == len(theirs) and all(
        bytes(mine[i:i + step]) == bytes(theirs[i:i + step]) for i in range(0, len(mine), step))


def _positions(first: int, lanes: int, flags: int, x: int) -> bytes:
    """HCT1's words of the ascending positions ``flags`` marks over ``lanes`` lanes from ``first``.

    A 1 at bit j*x marks lane j from the least significant end, which is
    position first + lanes - 1 - j.  Only the lanes from the highest marked
    one down to the lowest are read, as whole groups of 8 lanes, x bytes
    each, MSB first (a bit gather, Warren, *Hacker's Delight*, §7-4): per
    window of 2^14 lanes, one ``translate`` table per lane slot spreads the
    flags to a byte per lane, 0xFF if marked; ANDing in the lanes' local
    indices, two 7-bit digits each with a 0x80 marker, leaves nonzero bytes
    only for marked lanes, and deleting the zero bytes keeps their digits in
    order.  Strided slices widen the digits to 4-byte words, and whole-int
    masks decode them and add the window's first position, with no object
    per position.  ValueError for a position outside 0..2^32 - 1, raised
    before any word is packed: a word-wide add would carry silently into
    the word before.
    """
    if not flags:
        return b""
    low = ((flags & -flags).bit_length() - 1) // x  # the lanes below the lowest mark
    span = (flags.bit_length() - 1) // x + 1 - low
    top = first + lanes - low - span  # the highest marked lane's position
    if top < 0 or top + span > 1 << 32:
        raise ValueError(_PAST)
    groups = -(-span // 8)  # padded at the least significant end, so lane k is position top + k
    data = (flags >> low * x << (8 * groups - span) * x).to_bytes(groups * x, "big")
    positions = []
    for lane in range(0, 8 * groups, _WINDOW):
        chunk = data[lane * x // 8:(lane + _WINDOW) * x // 8]
        count = 8 * len(chunk) // x
        spread = bytearray(count)
        for slot, (column, shift) in enumerate(_slots(x)):
            spread[slot::8] = chunk[column::x].translate(_SPREAD[shift])
        marked, cut = int.from_bytes(spread, "big"), 8 * (_WINDOW - count)
        high = (marked & _HIGH >> cut).to_bytes(count, "big").translate(None, b"\0")
        words = bytearray(4 * len(high))
        words[2::4] = high
        words[3::4] = (marked & _LOW >> cut).to_bytes(count, "big").translate(None, b"\0")
        v, ones = int.from_bytes(words, "big"), int.from_bytes(b"\0\0\0\1" * len(high), "big")
        v = (v >> 1 & 0x3F80 * ones | v & 0x7F * ones) + (top + lane) * ones
        positions.append(v.to_bytes(len(words), "big"))
    return b"".join(positions)


def _flags(first: int, lanes: int, positions: array, x: int) -> int:
    """The inverse of ``_positions``: the flags of ascending ``positions``; 0 for none.

    A bit scatter (Warren, *Hacker's Delight*, §7-5).
    """
    if not positions:
        return 0
    # Marks from the piece's first position to its last, a byte per lane in
    # groups of 8 that end on the last, then per lane slot one int shifted
    # to its flag bit and written through its byte of every group.
    stop = positions[-1]
    groups = (stop - positions[0]) // 8 + 1
    marks, base = bytearray(8 * groups), stop + 1 - 8 * groups
    for i in positions:
        marks[i - base] = 1
    planes = {}
    for slot, (column, shift) in enumerate(_slots(x)):
        planes[column] = planes.get(column, 0) | int.from_bytes(marks[slot::8], "big") << shift
    out = bytearray(x * groups)
    for column, plane in planes.items():
        out[column::x] = plane.to_bytes(groups, "big")
    return int.from_bytes(out, "big") << (first + lanes - 1 - stop) * x


@cache
def _slots(x: int) -> tuple[tuple[int, int], ...]:
    """(byte, bit) of each of 8 x-bit lanes' lowest bit in their x bytes, MSB first."""
    return tuple((bit // 8, 7 - bit % 8) for bit in range(x - 1, 8 * x, x))


# Flags <-> positions: _SPREAD[s] maps a byte to 0xFF if its bit s is set,
# else to 0; _HIGH and _LOW hold the high and low 7-bit digit of each local
# lane index 0..2^14 - 1 of a window, a byte per lane, each with a 0x80 marker.
_WINDOW = 1 << 14
_SPREAD = [(b"\0" * (1 << s) + b"\xff" * (1 << s)) * (128 >> s) for s in range(8)]
_HIGH = int.from_bytes(b"".join(bytes([digit]) * 128 for digit in range(128, 256)), "big")
_LOW = int.from_bytes(bytes(range(128, 256)) * 128, "big")
_PAST = "sentinel indices must lie in 0..2^32 - 1"


def _ascending(data: bytes) -> bool:
    """Whether the big-endian 4-byte words of ``data`` strictly ascend, in a few int operations.

    Read the words as the 32-bit lanes of one int ``v``; ``v >> 32`` holds
    each lane's predecessor.  In ``v - (v >> 32)`` the lowest lane below its
    predecessor is the lowest to borrow out, so no lane borrows iff none is
    below; then subtracting 1 from every lane but the first word's borrows
    iff one equals its predecessor.  The borrows into the bits of a - b are
    a ^ b ^ (a - b).  The check runs over slices of SLICE_BITS bits, each
    with the next slice's first word, so no temporary grows with the input.
    """
    step, ones = SLICE_BITS // 8, None
    for start in range(0, len(data), step):
        piece = data[start:start + step + 4]
        if ones is None or len(piece) <= step:  # the first slice's serves every full one
            ones = int.from_bytes(b"\0\0\0\1" * (len(piece) // 4 - 1), "big")
        v = int.from_bytes(piece, "big")
        prev = v >> 32
        diff = v - prev
        if ((v ^ prev ^ diff) | (diff ^ ones ^ (diff - ones))) & ones << 32:
            return False
    return True


def padded_group_count(bit_len: int, x: int, n: int) -> int:
    """ceil(bit_len / x) groups rounded up to whole blocks of n; 0 for no bits."""
    groups = -(-bit_len // x)
    return n * -(-groups // n)


def pad_and_group(bits: BitSeq, x: int, n: int) -> GroupedSeq:
    """Read ``bits`` in x-bit MSB-first windows, zero-padded to a multiple of n groups.

    The group count is ceil(len/x) rounded up to the next multiple of the
    block order n; empty input stays empty.  The pre-padding bit length is
    recorded so the padding can be stripped exactly on the way back.
    """
    length = len(bits)
    total = padded_group_count(length, x, n)
    padded = bits.bits.ljust(total * x, "0")
    values = tuple(int(padded[i:i + x], 2) for i in range(0, total * x, x))
    return GroupedSeq(values, x, length)


def detect_sentinels(grouped: GroupedSeq) -> SentinelSet:
    """Positions whose value equals the group maximum 2^x - 1."""
    maximum = (1 << grouped.x) - 1
    return SentinelSet(
        tuple(i for i, v in enumerate(grouped.values) if v == maximum)
    )


def restore_sentinels(
    values: Sequence[int], sentinels: SentinelSet, x: int
) -> list[int]:
    """Write 2^x - 1 back at each recorded sentinel position.

    Every marked position must currently hold 0; anything else means the
    ciphertext was corrupted or decrypted under the wrong key.
    """
    maximum = (1 << x) - 1
    out = list(values)
    for i in sentinels:
        if i >= len(out):
            raise SentinelConflict(
                f"sentinel index {i} beyond value count {len(out)}"
            )
        if out[i] != 0:
            raise SentinelConflict(
                f"sentinel position {i} holds {out[i]}, expected 0"
            )
        out[i] = maximum
    return out


def ungroup(values: Sequence[int], x: int) -> BitSeq:
    """Concatenate the x-bit MSB-first encodings of ``values``."""
    limit = 1 << x
    for i, v in enumerate(values):
        if not 0 <= v < limit:
            raise ValueOverflow(f"value {v} at position {i} does not fit in {x} bits")
    return BitSeq("".join(format(v, f"0{x}b") for v in values))


def truncate(bits: BitSeq, orig_bit_len: int) -> BitSeq:
    """Drop the zero padding beyond ``orig_bit_len``, verifying it is all zeros."""
    if orig_bit_len > len(bits):
        raise LengthUnderflow(
            f"recorded length {orig_bit_len} exceeds available {len(bits)} bits"
        )
    text = bits.bits
    tail = text[orig_bit_len:]
    if "1" in tail:
        raise NonZeroPadding(f"discarded padding contains {tail.count('1')} one bits, "
                             f"the first at bit {orig_bit_len + tail.index('1')}")
    return BitSeq(text[:orig_bit_len])
