"""Bit-level plumbing: grouping, padding, sentinels, and binary conversion.

A level of the cipher reads the running bit sequence in x-bit MSB-first
windows, pads the resulting value sequence up to a multiple of the block
order with zeros, and remembers two things needed for lossless inversion:
the pre-padding bit length and the positions holding the group maximum
2^x - 1 (which is congruent to 0 mod p and would otherwise be lost).

``BitSeq`` holds a sequence once, as an MSB-first int and a bit count, so
the cipher's packed level loop, the envelope and the byte packing never
format text.  The per-group helpers below (``pad_and_group``, ``ungroup``,
``truncate``, ...) work on the '0'/'1' text form one value at a time; the
tests use them as the oracle for the packed path.
"""

from dataclasses import dataclass, field
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

    def to_int(self) -> int:
        """The bits read as one MSB-first unsigned integer; 0 when empty."""
        return self.value

    @classmethod
    def from_bytes(cls, data: bytes, bit_len: int | None = None) -> "BitSeq":
        """Unpack bytes MSB-first; ``bit_len`` trims the zero-filled tail."""
        total = 8 * len(data)
        if bit_len is None:
            bit_len = total
        elif bit_len > total:
            raise LengthUnderflow(f"bit length {bit_len} exceeds {total} unpacked bits")
        return cls.from_int(int.from_bytes(data, "big") >> total - bit_len, bit_len)

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


@dataclass(frozen=True)
class SentinelSet:
    """Strictly ascending group positions that held the maximum value 2^x - 1."""

    indices: tuple[int, ...] = field(default=())

    def __post_init__(self):
        idx = self.indices
        if not all(map(lt, idx, islice(idx, 1, None))):
            raise ValueError("sentinel indices must be strictly ascending")
        if idx and idx[0] < 0:
            raise ValueError("sentinel indices must be non-negative")

    @classmethod
    def from_positions(cls, positions: Iterable[int]) -> "SentinelSet":
        return cls(tuple(sorted(set(positions))))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self.indices


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
