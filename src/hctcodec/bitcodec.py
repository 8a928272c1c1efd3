"""Bit-level plumbing: grouping, padding, sentinels, and binary conversion.

A level of the cipher reads the running bit sequence in x-bit MSB-first
windows, pads the resulting value sequence up to a multiple of the block
order with zeros, and remembers two things needed for lossless inversion:
the pre-padding bit length and the positions holding the group maximum
2^x - 1 (which is congruent to 0 mod p and would otherwise be lost).

``BitSeq`` holds a sequence once, as an MSB-first int or as bytes, and a
bit count, so the cipher's packed level loop, the envelope and the byte
packing never format it as text, and a file stays bytes through the
cipher.  ``SentinelSet`` likewise holds one form: the lane flags the
cipher finds, as bytes, or the big-endian 4-byte words the envelope
carries, never an int per position; it converts between them only when
asked, one slice at a time (``lane_slices``) and only over each slice's
span of positions, so no text grows with the lane count and an empty
slice costs none.  The per-group helpers below (``pad_and_group``,
``ungroup``, ``truncate``, ...) work on the '0'/'1' text form one value at
a time; the tests use them as the oracle for the packed path.
"""

import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Iterable, Iterator, Sequence

from .errors import LengthUnderflow, NonZeroPadding, SentinelConflict, ValueOverflow

# Whole-level passes run over slices of at most this many bits.
SLICE_BITS = 1 << 15


def lane_slices(x: int, count: int) -> Iterator[tuple[int, int, slice]]:
    """(first lane, lane count, byte range) of each slice of ``count`` x-bit lanes, MSB first.

    A slice is whole blocks of 128 lanes, at most SLICE_BITS bits; every
    supported block order divides 128, so every whole-level pass cuts a level
    at the same places.  The short slice comes first, so each byte range cuts
    ``v.to_bytes(ceil(count * x / 8), "big")`` of the lanes' int ``v`` on
    lane boundaries; the first range also holds the leading zero fill.
    """
    step = 128 * (SLICE_BITS // (128 * x))
    fill = -count * x % 8
    lane, end = 0, (count - 1) % step + 1
    while lane < count:
        yield lane, end - lane, slice((fill + lane * x) // 8, (fill + end * x) // 8)
        lane, end = end, end + step


class BitSeq:
    """An ordered bit sequence and its bit count, held as an MSB-first int or as bytes.

    ``BitSeq("0101")`` parses text and ``from_int`` keeps an int;
    ``from_bytes`` keeps bytes, whose last byte may end in zero fill as
    ``to_bytes`` writes it.  The other forms (``value``, ``bits``,
    ``to_bytes``) are formed on each access.  ``==`` and ``hash`` read the
    length and ``to_bytes()``, or compare two ints, so all forms agree.
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
        return BitSeq._packed, (self._data, self.length)

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
        return self.length == other.length and self.to_bytes() == other.to_bytes()

    def __hash__(self) -> int:
        return hash((self.length, self.to_bytes()))

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
    def _packed(cls, data: bytes, length: int) -> "BitSeq":
        """The first ``length`` bits of ``data``; its ``-length % 8`` fill bits must be 0."""
        seq = object.__new__(cls)
        _set(seq, "length", length)
        _set(seq, "_data", data)
        return seq

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-filling the final partial byte."""
        if self._data is not None:
            return self._data
        fill = -self.length % 8
        return (self._value << fill).to_bytes((self.length + fill) // 8, "big")


_set = object.__setattr__  # BitSeq's constructors; its own __setattr__ refuses


@dataclass(frozen=True)
class GroupedSeq:
    """Decimated values read from a bit sequence in x-bit windows."""

    values: tuple[int, ...]
    x: int
    orig_bit_len: int


class SentinelSet:
    """Group positions that held the maximum value 2^x - 1.

    A set is held in one of two forms.  ``from_lanes`` keeps the lane flags
    ``encrypt`` finds, the ``ceil(count * x / 8)`` big-endian bytes (as
    given, or b"" for none) of an int in which, for ``count`` x-bit lanes,
    a 1 at bit j*x marks lane j from the least significant end, which is
    group position count - 1 - j.
    ``SentinelSet(indices)`` and ``from_words`` keep the positions as HCT1
    carries them, big-endian 4-byte words, 4 bytes a position where a tuple
    of ints would take 36; so every position must lie in 0..2^32 - 1, and
    both constructors check that the words ascend with a few whole-int
    operations (``_ascending``).  ``to_words`` writes the words as they
    are, ``fits`` reads only the last one, and ``lanes`` bisects an
    ``array('I')`` view of them.  ``indices`` formats the int tuple on each
    access.  Two flag sets over the same lanes compare their flags; any
    other pair compares ``to_words()``, so both forms of one set are equal,
    and ``hash`` is always that of ``to_words()``.  Decrypt asks ``fits``,
    then ``lanes``, or its bytes piece by piece on a long message; neither
    builds a collection of ints.

    Parsed positions stay words because they grow with the sentinel count,
    which the envelope's bytes bound, while flags grow with the lane count:
    one 4-byte index can name lane 2^32 - 1.  Decrypt builds flags only
    once ``fits`` has held the positions below the level's lane count.
    Flags over more than 2^32 lanes can hold a position HCT1 cannot carry;
    ``to_words``, ``indices``, ``hash`` and any ``==`` that compares words
    raise OverflowError on it.

    Both conversions walk ``lane_slices``, the cuts of the lane kernels, and
    in each slice handle only the span from its first position to its last:
    flags are formatted from the highest flagged lane down to the lowest
    (``f & -f``, ``bit_length``) and skipped where all zero, and ``lanes``
    builds its text from the first to the last position that ``bisect``
    finds in the slice, then shifts it into place.  So a sparse set costs
    text only around its positions, and a dense one what a whole slice does.
    """

    __slots__ = ("_words", "_flags", "_x", "_count")

    def __init__(self, indices: Iterable[int] = ()):
        try:  # iter: array would read bytes as machine words, not one int each
            self._words = _pack(array("I", iter(indices)))
        except OverflowError:
            raise ValueError("sentinel indices must lie in 0..2^32 - 1") from None
        if not _ascending(self._words):
            raise ValueError("sentinel indices must be strictly ascending")

    @classmethod
    def from_words(cls, data: bytes) -> "SentinelSet":
        """The set HCT1 carries as ``data``: strictly ascending big-endian 4-byte words."""
        if not _ascending(data):
            raise ValueError("sentinel indices must be strictly ascending")
        words = object.__new__(cls)
        words._words = bytes(data)
        return words

    @classmethod
    def from_lanes(cls, flags: int | bytes, x: int, count: int) -> "SentinelSet":
        """The set of ``flags`` over ``count`` x-bit lanes, an int or bytes (see above)."""
        if isinstance(flags, int):
            flags = flags.to_bytes(-(-count * x // 8), "big") if flags else b""
        lanes = object.__new__(cls)
        lanes._words, lanes._flags, lanes._x, lanes._count = None, flags, x, count
        return lanes

    def _view(self) -> array:
        """The ascending positions as an ``array('I')``; OverflowError past 2^32 - 1."""
        if self._words is not None:
            return _unpack(self._words)
        x, count, data = self._x, self._count, self._flags
        out = array("I")
        for first, lanes, cut in lane_slices(x, count):
            flags = int.from_bytes(data[cut], "big")
            if not flags:
                continue
            # Only the lanes from the highest flagged one down to the lowest:
            # the text then starts and ends on a mark, one every x characters.
            marks = format(flags >> (flags & -flags).bit_length() - 1, "b")[::x]
            top = first + lanes - 1 - (flags.bit_length() - 1) // x  # the first mark's position
            runs = marks.replace("1", "1,").split(",")  # every run but the last ends on a mark
            out.extend(islice(accumulate(map(len, runs), initial=top - 1), 1, len(runs)))
        return out

    @property
    def indices(self) -> tuple[int, ...]:
        """The ascending index tuple, formatted on each access."""
        return tuple(self._view())

    def to_words(self) -> bytes:
        """The positions as big-endian 4-byte words; OverflowError past 2^32 - 1."""
        return self._words if self._words is not None else _pack(self._view())

    def fits(self, count: int) -> bool:
        """Whether every position lies below ``count``."""
        words = self._words
        if words is None:  # all lie below _count; the highest is the lowest flagged lane's
            flags = int.from_bytes(self._flags, "big") if count < self._count else 0
            return not flags or self._count - 1 - (flags & -flags).bit_length() // self._x < count
        return not words or int.from_bytes(words[-4:], "big") < count

    def lanes(self, x: int, count: int) -> int:
        """Flags over ``count`` x-bit lanes; every position must lie below ``count``."""
        return int.from_bytes(self._lane_bytes(x, count), "big")

    def _lane_bytes(self, x: int, count: int) -> bytes:
        """``lanes`` as its ``ceil(count * x / 8)`` big-endian bytes, or b"" for none."""
        if self._words is None and x == self._x and count == self._count:
            return self._flags
        indices = self._view()
        if not indices:
            return b""
        flags = bytearray(-(-count * x // 8))
        low = 0
        for first, lanes, cut in lane_slices(x, count):
            high = bisect_left(indices, first + lanes, low)
            if low == high:
                continue
            # Text only from the slice's first position to its last, a mark
            # every x characters; the shift puts the last mark at its lane's
            # lowest bit.  No name holds the int: it would stay alive beside
            # the next slice's.
            start, end = indices[low], indices[high - 1]
            lane_marks = bytearray(b"0") * (end - start + 1)
            for i in indices[low:high]:
                lane_marks[i - start] = 49  # ord("1")
            marks = bytearray(b"0") * ((end - start) * x + 1)
            marks[::x] = lane_marks
            shift = (first + lanes - 1 - end) * x
            flags[cut] = (int(marks, 2) << shift).to_bytes(cut.stop - cut.start, "big")
            low = high
        return flags

    def __len__(self) -> int:
        if self._words is None:
            return int.from_bytes(self._flags, "big").bit_count()
        return len(self._words) // 4

    def __iter__(self):
        return iter(self._view())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SentinelSet):
            return NotImplemented
        if self._words is None and other._words is None:
            if (self._x, self._count) == (other._x, other._count):  # no words to format
                return self._flags == other._flags
        return self.to_words() == other.to_words()

    def __hash__(self) -> int:
        return hash(self.to_words())

    def __repr__(self) -> str:
        return f"SentinelSet({self.indices!r})"


def _pack(words: array) -> bytes:
    """Big-endian bytes of ``words``; byteswaps ``words`` in place on little-endian hosts."""
    if sys.byteorder == "little":
        words.byteswap()
    return words.tobytes()


def _unpack(data: bytes) -> array:
    """The values of big-endian 4-byte words, as a native ``array('I')``."""
    words = array("I", data)
    if sys.byteorder == "little":
        words.byteswap()
    return words


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
    step = SLICE_BITS // 8
    for start in range(0, len(data), step):
        piece = data[start:start + step + 4]
        v = int.from_bytes(piece, "big")
        prev = v >> 32
        diff = v - prev
        ones = int.from_bytes(b"\0\0\0\1" * (len(piece) // 4 - 1), "big")
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
