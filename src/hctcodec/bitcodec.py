"""Bit-level plumbing: grouping, padding, sentinels, and binary conversion.

A level of the cipher reads the running bit sequence in x-bit MSB-first
windows, pads the resulting value sequence up to a multiple of the block
order with zeros, and remembers two things needed for lossless inversion:
the pre-padding bit length and the positions holding the group maximum
2^x - 1 (which is congruent to 0 mod p and would otherwise be lost).

``BitSeq`` holds a sequence once, as an MSB-first int and a bit count, so
the cipher's packed level loop, the envelope and the byte packing never
format it as text.  ``SentinelSet`` likewise holds one form: the lane
flags the cipher finds, or the index tuple the envelope carries; it
converts between them only when asked.  The per-group helpers below
(``pad_and_group``, ``ungroup``, ``truncate``, ...) work on the '0'/'1'
text form one value at a time; the tests use them as the oracle for the
packed path.
"""

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Iterable, Sequence

from .errors import LengthUnderflow, NonZeroPadding, SentinelConflict, ValueOverflow


@dataclass(frozen=True, init=False)
class BitSeq:
    """An ordered bit sequence: one MSB-first int and its bit count.

    ``BitSeq("0101")`` parses and validates text; ``from_int`` and
    ``from_bytes`` build one without any text, and ``bits`` formats the
    text form on demand.  Leading zeros are carried by ``length``.
    """

    value: int
    length: int

    def __init__(self, bits: str = ""):
        if not isinstance(bits, str):
            raise TypeError(f"BitSeq takes a str of '0'/'1', not {type(bits).__name__}")
        if bits.encode().translate(None, b"01"):
            raise ValueError("bit sequence may contain only '0' and '1'")
        object.__setattr__(self, "value", int(bits, 2) if bits else 0)
        object.__setattr__(self, "length", len(bits))

    def __repr__(self) -> str:
        return f"BitSeq({self.bits!r})"

    @property
    def bits(self) -> str:
        """The '0'/'1' text form, formatted on each access."""
        return format(self.value, f"0{self.length}b") if self.length else ""

    def __len__(self) -> int:
        return self.length

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
        object.__setattr__(seq, "value", value)
        object.__setattr__(seq, "length", length)
        return seq

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitSeq":
        """Unpack every bit of ``data``, MSB-first."""
        return cls.from_int(int.from_bytes(data, "big"), 8 * len(data))

    def to_bytes(self) -> bytes:
        """Pack MSB-first, zero-filling the final partial byte."""
        fill = -self.length % 8
        return (self.value << fill).to_bytes((self.length + fill) // 8, "big")


@dataclass(frozen=True)
class GroupedSeq:
    """Decimated values read from a bit sequence in x-bit windows."""

    values: tuple[int, ...]
    x: int
    orig_bit_len: int


class SentinelSet:
    """Group positions that held the maximum value 2^x - 1.

    A set is held in one form only.  ``SentinelSet(indices)`` keeps the
    strictly ascending index tuple that HCT1 carries.  ``from_lanes`` keeps
    the lane flags ``encrypt`` finds: for ``count`` x-bit lanes, a 1 at bit
    j*x marks lane j from the least significant end, which is group position
    count - 1 - j.  ``indices`` formats the tuple from the flags on each
    access and is not cached; ``==``, ``hash``, iteration and ``repr`` go
    through it, so both forms of one set are equal.  ``lanes`` gives the
    decrypt loop the flags, formatting no index from the flag form.

    Parsed indices stay a tuple because it grows with the sentinel count,
    which the envelope's bytes bound, while flags grow with the lane count:
    one 4-byte index can name lane 2^32 - 1.  Decrypt builds flags only for
    the lane count it derives from the payload.
    """

    __slots__ = ("_indices", "_flags", "_x", "_count")

    def __init__(self, indices: Iterable[int] = ()):
        idx = tuple(indices)
        if not all(map(lt, idx, islice(idx, 1, None))):
            raise ValueError("sentinel indices must be strictly ascending")
        if idx and idx[0] < 0:
            raise ValueError("sentinel indices must be non-negative")
        self._indices = idx

    @classmethod
    def from_lanes(cls, flags: int, x: int, count: int) -> "SentinelSet":
        """The set whose flags over ``count`` x-bit lanes are ``flags`` (see above)."""
        lanes = object.__new__(cls)
        lanes._indices, lanes._flags, lanes._x, lanes._count = None, flags, x, count
        return lanes

    @property
    def indices(self) -> tuple[int, ...]:
        """The ascending index tuple, formatted from the flags when held as lanes."""
        if self._indices is not None:
            return self._indices
        if not self._flags:
            return ()
        x = self._x
        marks = format(self._flags, f"0{self._count * x}b")[x - 1::x]
        return tuple(map(re.Match.start, re.finditer("1", marks)))

    def lanes(self, x: int, count: int) -> tuple[int, int]:
        """Flags over ``count`` x-bit lanes, and how many indices lie at or past ``count``."""
        if self._indices is None and x == self._x and count == self._count:
            return self._flags, 0
        indices = self.indices
        in_range = bisect_left(indices, count)
        if not in_range:
            return 0, len(indices)
        lane_marks = bytearray(b"0") * count
        for i in indices[:in_range]:
            lane_marks[i] = 49  # ord("1")
        marks = bytearray(b"0") * (count * x)
        marks[x - 1::x] = lane_marks  # the lowest bit of each lane
        return int(marks, 2), len(indices) - in_range

    def __len__(self) -> int:
        return self._flags.bit_count() if self._indices is None else len(self._indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, index: int) -> bool:
        if self._indices is not None:
            return index in self._indices
        lane = self._count - 1 - index
        return 0 <= lane < self._count and self._flags >> lane * self._x & 1 == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, SentinelSet):
            return NotImplemented
        return self.indices == other.indices

    def __hash__(self) -> int:
        return hash(self.indices)

    def __repr__(self) -> str:
        return f"SentinelSet({self.indices!r})"


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
