"""Chained multi-level cipher pipeline, hashing mode, and ciphertext envelope.

Encryption walks the key exponents in order.  Each level reads the
running bit sequence as x-bit groups, pads to whole blocks, records the
sentinel positions and the pre-padding bit length, transforms every block
with the mod-(2^x - 1) Hadamard matrix, and re-emits bits.  Decryption
replays the levels in reverse with the inverse transform, restoring the
sentinels and stripping the recorded padding, which makes the round trip
exact for every input including lengths the exponents do not divide.
Decrypt checks every level record against the key first; one tolerant
pass then counts payload anomalies, and ``decrypt`` raises the first.

The level loops on ints (``_forward``, ``_inverse``) run a piece of at
most ``bitcodec.SLICE_BITS`` bits as one int, one x-bit lane per group
(``hadamard.apply_lanes``).  Encrypt and decrypt run a longer message
piece by piece (``_pieces``); the digest and the avalanche experiment
call the loops directly, with no envelope, on the superblocks they need.
An envelope from ``encrypt`` or ``from_bytes`` views one HCT1 blob, which
``to_bytes`` returns, so a round trip holds each byte once.
The per-group ``bitcodec`` helpers and the per-block ``hadamard`` kernels
describe the same steps one value at a time; tests use them as the oracle.

The envelope is the self-contained ciphertext container: without the
per-level bit lengths and sentinel sets the payload alone is not
invertible.  Carrying them in-band means a ciphertext file can always be
decrypted by the matching key, at the documented cost that sentinel
metadata reveals which plaintext groups were all ones.  ``to_bytes``
refuses what ``from_bytes`` refuses: both call the same field rules, and
decrypt checks each record with the same ``_check_level``, so a bad record
reads alike on every path, its message starting ``level k:``.
"""

import io
import math
import struct
from dataclasses import dataclass
from typing import Iterable

from .bitcodec import SLICE_BITS, BitSeq, SentinelSet, _flags, _positions, padded_group_count
from .errors import (
    InvalidKeyElement,
    MalformedEnvelope,
    NonZeroPadding,
    SentinelConflict,
)
from .hadamard import SUPPORTED_ORDERS, apply_lanes, check_order
from .modmath import SUPPORTED_EXPONENTS, ModulusParams, validate_key_element

ENVELOPE_MAGIC = b"HCT1"
ENVELOPE_VERSION = 1
# HCT1: header; per level a record, then its sentinel indices as >I; payload.
_HEADER = struct.Struct(">4sBBB")  # magic, version, block order, level count
_LEVEL = struct.Struct(">BQI")  # x, pre-padding bit length, sentinel count
_PAYLOAD_LEN = struct.Struct(">Q")


@dataclass(frozen=True)
class KeySchedule:
    """Ordered, validated sequence of Mersenne exponents; order is significant."""

    elements: tuple[ModulusParams, ...]

    def __post_init__(self):
        if not self.elements:
            raise InvalidKeyElement("key must contain at least one exponent")
        for params in self.elements:
            validate_key_element(params.x)
        exponents = tuple(params.x for params in self.elements)
        object.__setattr__(self, "_exponents", exponents)  # for _plan
        object.__setattr__(self, "_lcm", math.lcm(*exponents))  # for superblock_bits

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "KeySchedule":
        return cls(tuple(validate_key_element(x) for x in exponents))

    def __len__(self) -> int:
        return len(self.elements)

    def superblock_bits(self, block_order: int) -> int:
        """S = block_order * lcm(x_1..x_k): every level maps each S-aligned range onto itself."""
        return block_order * self._lcm


@dataclass(frozen=True)
class LevelRecord:
    """Per-level inversion metadata: exponent, pre-padding length, sentinels."""

    x: int
    orig_bit_len: int
    sentinels: SentinelSet

    def padded_group_count(self, block_order: int) -> int:
        """Group count after padding to whole blocks; 0 for empty input."""
        return padded_group_count(self.orig_bit_len, self.x, block_order)


@dataclass(frozen=True)
class CipherEnvelope:
    """Versioned ciphertext container: block order, level records, payload bits."""

    version: int
    block_order: int
    levels: tuple[LevelRecord, ...]
    payload: BitSeq
    _blob = None  # the HCT1 blob the fields view (_view); not a field, so __init__ holds none

    def __getstate__(self):  # a copy or pickle rebuilds its fields as bytes and holds no blob
        return {name: held for name, held in vars(self).items() if name != "_blob"}

    def to_bytes(self) -> bytes:
        """Serialize to HCT1 (big-endian); refuses what ``from_bytes`` refuses.

        An envelope from ``encrypt`` or ``from_bytes`` returns the blob its
        fields view, the same object on every call; any other joins its fields.
        """
        _check_header(self.version, self.block_order, len(self.levels))
        parts = [_HEADER.pack(ENVELOPE_MAGIC, self.version, self.block_order, len(self.levels))]
        for index, rec in enumerate(self.levels):
            _check_level(index, rec, self.block_order)
            try:
                parts.append(_LEVEL.pack(rec.x, rec.orig_bit_len, len(rec.sentinels)))
            except struct.error as exc:
                raise MalformedEnvelope(f"level {index}: does not fit the format: {exc}") from None
            parts.append(rec.sentinels._words)
        _check_level(index, rec, self.block_order, len(self.payload))
        return self._blob or b"".join(
            [*parts, _PAYLOAD_LEN.pack(len(self.payload)), self.payload._buffer()])

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherEnvelope":
        """Parse and fully validate an HCT1 envelope; raises MalformedEnvelope.

        The block order and each x must be supported, as ``encrypt`` checks,
        so n >= 8 and the payload always fills whole bytes.  The envelope
        views a ``bytes`` blob as it is, and any other buffer, a mutable one
        included, after copying it into ``bytes`` once.
        """
        return cls._view(data if type(data) is bytes else bytes(memoryview(data)),
                         SentinelSet.from_words)

    @classmethod
    def _view(cls, blob: bytes, words_of) -> "CipherEnvelope":
        """The envelope holding the HCT1 ``blob``, its payload and words read-only views of it.

        ``words_of`` makes each level's ``SentinelSet`` of its words' view.
        """
        view = memoryview(blob)
        what = "header"
        try:
            magic, version, block_order, level_count = _HEADER.unpack_from(view)
            if magic != ENVELOPE_MAGIC:
                raise MalformedEnvelope(f"bad magic {magic!r}, expected {ENVELOPE_MAGIC!r}")
            _check_header(version, block_order, level_count)
            offset = _HEADER.size
            levels = []
            for index in range(level_count):
                what = f"level {index} record"
                x, orig_bit_len, sentinel_count = _LEVEL.unpack_from(view, offset)
                what = f"level {index} sentinel indices"
                words = _cut(view, offset + _LEVEL.size, 4 * sentinel_count)
                offset += _LEVEL.size + len(words)
                try:
                    record = LevelRecord(x, orig_bit_len, words_of(words))
                except ValueError:
                    raise MalformedEnvelope(
                        f"level {index}: sentinel indices not strictly ascending"
                    ) from None
                _check_level(index, record, block_order)
                levels.append(record)
            what = "payload length"
            (payload_bit_len,) = _PAYLOAD_LEN.unpack_from(view, offset)
            offset += _PAYLOAD_LEN.size
            _check_level(index, record, block_order, payload_bit_len)
            what = "payload"
            payload = _cut(view, offset, payload_bit_len // 8)
        except struct.error:
            raise MalformedEnvelope(f"truncated envelope while reading {what}") from None
        trailing = len(view) - offset - len(payload)
        if trailing:
            raise MalformedEnvelope(f"{trailing} trailing bytes after payload")
        envelope = cls(version, block_order, tuple(levels), BitSeq._packed(payload, payload_bit_len))
        object.__setattr__(envelope, "_blob", blob)
        return envelope


def _cut(view: memoryview, start: int, size: int) -> memoryview:
    """``view[start:start + size]``; struct.error, as ``unpack_from`` raises, past its end."""
    if start + size > len(view):
        raise struct.error(f"{size} bytes at offset {start} lie past {len(view)}")
    return view[start:start + size]


# The rules HCT1 places on its fields.  Parse and serialize call both;
# decrypt calls _check_level, so every record error has one text.
def _check_header(version: int, block_order: int, level_count: int) -> None:
    if version != ENVELOPE_VERSION:
        raise MalformedEnvelope(f"unsupported version {version}")
    if block_order not in SUPPORTED_ORDERS:
        raise MalformedEnvelope(f"block order {block_order} is not a supported power of two")
    if not level_count:
        raise MalformedEnvelope("envelope carries no levels")
    if level_count > 255:
        raise MalformedEnvelope(f"level count {level_count} does not fit the format (1..255)")


def _check_level(level: int, record: LevelRecord, n: int, bits: int | None = None) -> None:
    """Raise MalformedEnvelope("level k: ...") for a record that cannot be inverted.

    ``bits`` is the length that reaches the level, when known: the payload's
    for the last record and, under a key, the next record's.
    """
    x, length = record.x, record.orig_bit_len
    if x not in SUPPORTED_EXPONENTS:
        raise MalformedEnvelope(f"level {level}: group width {x}, "
                                f"not one of {SUPPORTED_EXPONENTS}")
    if length < 0:
        raise MalformedEnvelope(f"level {level}: recorded length {length} is negative")
    count = record.padded_group_count(n)
    if bits is not None and count * x != bits:
        raise MalformedEnvelope(f"level {level}: recorded length {length} "
                                f"pads to {count * x} bits, but {bits} bits reach it")
    if not record.sentinels.fits(count):
        raise MalformedEnvelope(f"level {level}: sentinels lie past its {count} groups")


def _plan(exponents: tuple[int, ...], n: int, length: int) -> tuple[list, int]:
    """Each level's (x, bits in, padded lane count, can carry sentinels), and the payload bits.

    Level 0 can carry sentinels.  Level k >= 1 reads level k-1's canonical
    residues, none all ones, and zero padding, so its longest run of ones
    is 2 x_{k-1} - 2 bits, and equal widths make each group one lane: its
    groups can be all ones iff x_k != x_{k-1} and x_k <= 2 x_{k-1} - 2.
    """
    levels, below = [], 0
    for x in exponents:
        count = padded_group_count(length, x, n)
        levels.append((x, length, count, not below or x != below and x <= 2 * below - 2))
        length, below = count * x, x
    return levels, length


def _forward(v: int, length: int, exponents: tuple[int, ...], n: int) -> tuple[int, int, list, list]:
    """The payload int and bit count of the ``length``-bit int ``v``, the plan, each level's flags."""
    plan, bits = _plan(exponents, n, length)
    marks = []
    for x, length, count, carry in plan:
        pad = count * x - length
        v, flags = apply_lanes(v << pad if pad else v, x, n, count, False, carry)
        marks.append(flags)
    return v, bits, plan, marks


def _pieces(length: int, key: KeySchedule, n: int) -> list[tuple[slice, int]]:
    """Byte range and bit count of each piece of a ``length``-bit message: chunks, then the tail.

    A chunk is the most whole superblocks within SLICE_BITS bits, or one;
    the tail holds the bits past the last whole superblock, and its last
    byte ends in the message's fill.  Every level maps each piece onto the
    same byte range of its input and, but for the tail, of its output, so
    the piece starts at lane ``8 * start // x`` of every level.
    """
    superblock = key.superblock_bits(n)
    head = (length - length % superblock) // 8
    cuts = [*range(0, head, max(SLICE_BITS // superblock, 1) * superblock // 8), head]
    return [(slice(start, end), 8 * (end - start)) for start, end in zip(cuts, cuts[1:])] + [
        (slice(head, None), length - 8 * head)]


def encrypt(plaintext: BitSeq, key: KeySchedule, block_order: int = 8) -> CipherEnvelope:
    """Run the full multi-level pipeline and wrap the result in an envelope.

    The ciphertext bit length is a multiple of block_order * x for the last
    exponent x, so it generally differs from the plaintext length.  Empty
    input is legal and produces an empty payload with one record per level.
    The envelope views the HCT1 blob that ``to_bytes`` returns, as a parsed
    one does; a key of more than 255 exponents, which HCT1 cannot hold,
    gives the fields alone.
    """
    check_order(block_order)
    n, exponents, length = block_order, key._exponents, plaintext.length
    if length <= SLICE_BITS:
        v, bits, plan, flags = _forward(plaintext.value, length, exponents, n)
        payload = v.to_bytes(bits // 8, "big")  # n >= 8 lanes a level: whole bytes
        found = [_positions(0, count, f, x) for (x, _, count, _), f in zip(plan, flags)]
    else:  # the chunks of whole superblocks, then the tail, byte range by byte range
        plan, bits = _plan(exponents, n, length)
        data, pieces = memoryview(plaintext._buffer()), io.BytesIO()
        found = [io.BytesIO() for _ in plan]
        for cut, size in _pieces(length, key, n):
            v, out, part, flags = _forward(int.from_bytes(data[cut], "big") >> -size % 8,
                                           size, exponents, n)
            pieces.write(v.to_bytes(out // 8, "big"))
            for words, (x, _, count, _), f in zip(found, part, flags):
                words.write(_positions(8 * cut.start // x, count, f, x))
        payload = pieces.getvalue()  # the buffer itself, trimmed
        found = [words.getvalue() for words in found]
    # Each piece's positions ascend and follow the last piece's: no second order check.
    if len(plan) > 255:  # no HCT1 header holds the levels: the fields alone, as to_bytes refuses
        return CipherEnvelope(ENVELOPE_VERSION, n, tuple(
            LevelRecord(x, bits_in, SentinelSet._of(words))
            for (x, bits_in, _, _), words in zip(plan, found)), BitSeq._packed(payload, bits))
    blob = io.BytesIO()  # HCT1 in order, each level's words dropped once written
    blob.write(_HEADER.pack(ENVELOPE_MAGIC, ENVELOPE_VERSION, n, len(plan)))
    for level, (x, bits_in, _, _) in enumerate(plan):
        blob.writelines((_LEVEL.pack(x, bits_in, len(found[level]) // 4), found[level]))
        found[level] = None
    blob.writelines((_PAYLOAD_LEN.pack(bits), payload))
    return CipherEnvelope._view(blob.getvalue(), SentinelSet._of)


@dataclass
class DecryptAnomalies:
    """What the tolerant decrypt path skipped over instead of raising."""

    sentinel_conflicts: int = 0
    padding_violations: int = 0


def _check_records(envelope: CipherEnvelope, key: KeySchedule) -> list:
    """Raise MalformedEnvelope for a record the key cannot invert, last level first.

    Then the records match the returned plan, and a level that cannot carry
    sentinels must record none.
    """
    if len(key.elements) != len(envelope.levels):
        raise MalformedEnvelope(f"envelope has {len(envelope.levels)} levels but key "
                                f"supplies {len(key.elements)} exponents")
    n = envelope.block_order
    check_order(n)
    plan, _ = _plan(key._exponents, n, envelope.levels[0].orig_bit_len)
    bits = envelope.payload.length
    for level in reversed(range(len(plan))):
        x, record = plan[level][0], envelope.levels[level]
        if record.x != x:
            raise MalformedEnvelope(f"level {level}: recorded x {record.x}, key has x {x}")
        _check_level(level, record, n, bits)
        bits = record.orig_bit_len
    for level in reversed(range(1, len(plan))):  # the records now hold the key's chain
        if not plan[level][3] and envelope.levels[level].sentinels:
            raise MalformedEnvelope(f"level {level}: sentinels recorded where x {plan[level][0]} "
                                    f"after x {plan[level - 1][0]} cannot carry any")
    return plan


def _inverse(v: int, plan: list, marks: list, n: int, head: int = 0) -> tuple[int, int, int, list]:
    """Undo the plan's levels in reverse on the payload int ``v``, restoring each level's flags.

    Returns the int, the sentinel conflict and padding violation counts and
    each level's first anomaly, or None: (level, position, value, None) for
    the lowest sentinel lane not holding 0, else (level, None, one bits,
    first one bit's index in the level's padded output) for nonzero padding.
    ``v`` starts ``head`` bits into every level, so its positions count the
    ``head // x`` lanes before it and its bits the ``head`` bits.
    """
    conflicts = violations = 0
    found = [None] * len(plan)
    for level in reversed(range(len(plan))):
        x, length, count, _ = plan[level]
        v, _ = apply_lanes(v, x, n, count, True)
        flags = marks[level]
        if flags:
            # A flagged lane holds a nonzero value iff its top bit is set or adding
            # 2^(x-1) - 1 to its low x - 1 bits sets it (no carry leaves the lane).
            p = (1 << x) - 1
            low = flags * (p >> 1)
            held = ((v & low) + low | v) >> x - 1 & flags
            v |= (flags ^ held) * p
            if held:
                conflicts += held.bit_count()
                lane = (held.bit_length() - 1) // x
                found[level] = level, head // x + count - 1 - lane, v >> lane * x & p, None
        drop = count * x - length
        if drop:
            padding = v & (1 << drop) - 1
            if padding:
                violations += 1
                found[level] = found[level] or (
                    level, None, padding.bit_count(), head + count * x - padding.bit_length())
            v >>= drop
    return v, conflicts, violations, found


def _decrypt_levels(
    envelope: CipherEnvelope, key: KeySchedule
) -> tuple[BitSeq, DecryptAnomalies, list]:
    """Check the records, then undo the levels in reverse, counting payload anomalies.

    Returns the bits, the counts and each level's first anomaly, as
    ``_inverse`` does; the level is that of HCT1 record k.  A message longer
    than SLICE_BITS runs piece by piece, each cut at the same byte range of
    the payload, and the anomalies of earlier pieces come first.  Each
    level's flags are formed per piece from the count of its positions
    before the piece; a shorter message is one piece from position 0.
    """
    plan = _check_records(envelope, key)
    n, length = envelope.block_order, envelope.levels[0].orig_bit_len
    if length <= SLICE_BITS:
        marks = [_flags(0, count, record.sentinels._piece(0, count, 0), x)
                 for record, (x, _, count, _) in zip(envelope.levels, plan)]
        v, conflicts, violations, found = _inverse(envelope.payload.value, plan, marks, n)
        return BitSeq.from_int(v, length), DecryptAnomalies(conflicts, violations), found
    data, pieces, found = memoryview(envelope.payload._buffer()), io.BytesIO(), [None] * len(plan)
    conflicts = violations = 0
    lows = [0] * len(plan)  # each level's positions before the piece
    for cut, size in _pieces(length, key, n):
        levels, marks = _plan(key._exponents, n, size)[0], []
        for level, (record, (x, _, count, _)) in enumerate(zip(envelope.levels, levels)):
            first = 8 * cut.start // x
            positions = record.sentinels._piece(first, first + count, lows[level])
            lows[level] += len(positions)
            marks.append(_flags(first, count, positions, x))
        v, held, bad, part = _inverse(int.from_bytes(data[cut], "big"), levels, marks,
                                      n, 8 * cut.start)
        pieces.write((v << -size % 8).to_bytes(-(-size // 8), "big"))
        conflicts, violations = conflicts + held, violations + bad
        found = [a or b for a, b in zip(found, part)]
    return (BitSeq._packed(pieces.getvalue(), length),
            DecryptAnomalies(conflicts, violations), found)


def decrypt(envelope: CipherEnvelope, key: KeySchedule) -> BitSeq:
    """Invert the pipeline level by level in reverse key order.

    Each level record is first checked against the key, which compares
    exponents the envelope carries in the clear but authenticates nothing;
    a failing record raises MalformedEnvelope.  Then the tolerant pass runs,
    and its first payload anomaly (SentinelConflict / NonZeroPadding) is raised.
    """
    bits, _, found = _decrypt_levels(envelope, key)
    for level, position, value, bit in filter(None, reversed(found)):
        if position is None:
            raise NonZeroPadding(f"level {level}: discarded padding contains {value} one bits, "
                                 f"the first at bit {bit}")
        raise SentinelConflict(f"level {level}: sentinel position {position} holds {value}, "
                               f"expected 0")
    return bits


def decrypt_tolerant(
    envelope: CipherEnvelope, key: KeySchedule
) -> tuple[BitSeq, DecryptAnomalies]:
    """Best-effort decrypt that records payload anomalies and keeps going.

    Level records are checked as in ``decrypt``.  Sentinel positions holding
    nonzero values are left as they are and nonzero padding is discarded
    anyway.  Used by diffusion experiments, where a corrupted payload must
    still produce an output to compare against.
    """
    return _decrypt_levels(envelope, key)[:2]


def hash_digest(
    data: BitSeq, key: KeySchedule, block_order: int = 8, digest_bits: int = 128
) -> BitSeq:
    """Keyed digest: the first digest_bits bits of ``encrypt``'s payload, without an envelope.

    The payload is zero-extended when shorter than the requested digest.
    Deterministic: equal inputs always produce equal digests.  This is a
    checksum-grade construction, not a cryptographic hash: it reads only the
    first ceil(digest_bits / S) superblocks of ``data`` (``KeySchedule.superblock_bits``).
    """
    if digest_bits < 1:
        raise ValueError(f"digest_bits must be >= 1, got {digest_bits}")
    check_order(block_order)
    size = key.superblock_bits(block_order)
    prefix = -(-digest_bits // size) * size
    # Past the prefix, whole superblocks: no level pads, the payload prefix is the same.
    length = min(data.length, prefix)
    v, bits, _, _ = _forward(data._int(0, length), length, key._exponents, block_order)
    spare = bits - digest_bits
    return BitSeq.from_int(v >> spare if spare >= 0 else v << -spare, digest_bits)
