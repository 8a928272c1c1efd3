"""Bit-level plumbing: grouping, padding, sentinels, and binary conversion.

A level of the cipher reads the running bit sequence in x-bit MSB-first
windows, pads the resulting value sequence up to a multiple of the block
order with zeros, and remembers two things needed for lossless inversion:
the pre-padding bit length and the positions holding the group maximum
2^x - 1 (which is congruent to 0 mod p and would otherwise be lost).

``BitSeq`` holds a sequence once, as an MSB-first int or as bytes, and a
bit count, so the cipher's packed level loop, the envelope and the byte
packing never format it as text, and a file stays bytes through the
cipher.  The bytes may be a read-only ``memoryview`` of a larger
``bytes``: a parsed envelope's payload views the blob it was read from
(``CipherEnvelope.from_bytes``), and the cipher, ``==`` and ``hash`` read
that view without copying it.  ``SentinelSet`` likewise holds one form,
a native ``array('I')`` of its ascending positions, never an int per
position; HCT1's big-endian words appear only in ``to_words``,
``_big_endian`` and ``from_words``.  The cipher's lane flags become
positions once, in ``encrypt``, one piece of a level at a time
(``_positions``), and decrypt turns the positions back into one piece's
flags at a time (``SentinelSet.lanes``), each only over the span of the
piece's positions and through byte tables, never text: ``translate``
spreads flags to a byte per lane or gathers them back, and strided
slices and whole-int masks do the rest.  So a piece without sentinels
costs none, and no step holds a buffer the size of the level.
The per-group helpers below (``pad_and_group``, ``ungroup``, ``truncate``,
...) work on the '0'/'1' text form one value at a time; the tests use them
as the oracle for the packed path.
"""

import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

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
    and ``hash`` read the length and the held buffer (``_buffer``), ``==``
    a view as bytes in slices of SLICE_BITS // 8 bytes, or compare two
    ints, so all forms agree.
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
        if self.length != other.length:
            return False
        mine, theirs, step = self._buffer(), other._buffer(), SLICE_BITS // 8
        if type(mine) is bytes and type(theirs) is bytes:
            return mine == theirs
        # A memoryview compares byte by byte, bytes at memcmp speed: compare
        # bounded slices as bytes, so no copy grows with the sequence.
        return all(bytes(mine[i:i + step]) == bytes(theirs[i:i + step])
                   for i in range(0, len(mine), step))

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

    A set holds its strictly ascending positions in one form, a native
    ``array('I')``, 4 bytes a position where a tuple of ints would take 36,
    so every position lies in 0..2^32 - 1.  ``SentinelSet(indices)`` and
    encrypt's ``_positions``, whose array ``_of`` wraps, raise ValueError
    for a position outside 0..2^32 - 1, and the first for one out of
    order.  HCT1 carries the positions as big-endian 4-byte words:
    ``from_words`` checks that they are whole words and ascend
    (``_ascending``) and copies them into an array once, and ``to_words``
    joins byte-swapped copies of the array's slices (``_big_endian``).
    ``fits``, ``len``, ``indices``, ``==`` and ``hash`` read the array.
    Decrypt asks ``fits``, then the flags of each piece it runs
    (``lanes``): two bisections of the array find the piece's positions,
    which mark a byte per lane only over the span from the first to the
    last, and the lane-slot table (``_slots``) gathers those bytes into
    flag bits, so a sparse set costs work only around its positions and no
    step builds a buffer the size of the level.
    """

    __slots__ = ("_words",)

    def __init__(self, indices: Iterable[int] = ()):
        self._words = _array(indices)
        if not _ascending(self.to_words()):
            raise ValueError("sentinel indices must be strictly ascending")

    @classmethod
    def _of(cls, words: array) -> "SentinelSet":
        """The set holding ``words``, strictly ascending positions, as they are: no check, no copy."""
        held = object.__new__(cls)
        held._words = words
        return held

    @classmethod
    def from_words(cls, data: bytes) -> "SentinelSet":
        """The set HCT1 carries as ``data``: strictly ascending big-endian 4-byte words."""
        if len(data) % 4:
            raise ValueError("sentinel words must be whole 4-byte words")
        if not _ascending(data):
            raise ValueError("sentinel indices must be strictly ascending")
        words = array("I", [0]) * (len(data) // 4)  # exact size, where frombytes leaves spare room
        memoryview(words).cast("B")[:] = data
        if sys.byteorder == "little":
            words.byteswap()
        return cls._of(words)

    @property
    def indices(self) -> tuple[int, ...]:
        """The ascending index tuple, formatted on each access."""
        return tuple(self._words)

    def to_words(self) -> bytes:
        """The positions as HCT1's big-endian 4-byte words, formed on each call."""
        return b"".join(self._big_endian())

    def _big_endian(self) -> Iterator[array]:
        """HCT1's words in copies of at most SLICE_BITS // 32 positions, for a buffered writer."""
        step = SLICE_BITS // 32
        for start in range(0, len(self._words), step):
            words = self._words[start:start + step]
            if sys.byteorder == "little":
                words.byteswap()
            yield words

    def fits(self, count: int) -> bool:
        """Whether every position lies below ``count``."""
        return not self._words or self._words[-1] < count

    def lanes(self, x: int, count: int, first: int = 0) -> int:
        """Flags of this set's positions in the ``count`` x-bit lanes from position ``first``.

        Lane j from the least significant end is position first + count - 1 - j.
        Two bisections of the array find the piece's positions.  The inverse
        of ``_positions`` (a bit scatter, Warren, *Hacker's Delight*, §7-5).
        """
        end = first + count
        words = self._words
        low = bisect_left(words, first)
        positions = words[low:bisect_left(words, end, low)]
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
        return int.from_bytes(out, "big") << (end - 1 - stop) * x

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self):
        return iter(self._words)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SentinelSet):
            return NotImplemented
        return self._words == other._words

    def __hash__(self) -> int:
        return hash(self._words.tobytes())

    def __repr__(self) -> str:
        return f"SentinelSet({self.indices!r})"


def _positions(first: int, lanes: int, flags: int, x: int) -> array:
    """The ascending positions that ``flags`` marks over ``lanes`` x-bit lanes from ``first``.

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
        return array("I")
    low = ((flags & -flags).bit_length() - 1) // x  # the lanes below the lowest mark
    span = (flags.bit_length() - 1) // x + 1 - low
    top = first + lanes - low - span  # the highest marked lane's position
    if top < 0 or top + span > 1 << 32:
        raise ValueError(_PAST)
    groups = -(-span // 8)  # padded at the least significant end, so lane k is position top + k
    data = (flags >> low * x << (8 * groups - span) * x).to_bytes(groups * x, "big")
    positions = array("I")
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
        positions.frombytes(v.to_bytes(len(words), "big"))
    if sys.byteorder == "little":
        positions.byteswap()
    return positions


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


def _array(indices: Iterable[int]) -> array:
    """``indices`` as an ``array('I')``; ValueError for one outside 0..2^32 - 1."""
    try:  # iter: array would read bytes as machine words, not one int each
        return array("I", iter(indices))
    except OverflowError:
        raise ValueError(_PAST) from None


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
        raise NonZeroPadding(
            f"discarded padding contains {tail.count('1')} one bits"
        )
    return BitSeq(text[:orig_bit_len])
