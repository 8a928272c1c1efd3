"""Chained multi-level cipher pipeline, hashing mode, and ciphertext envelope.

Encryption walks the key exponents in order.  Each level reads the
running bit sequence as x-bit groups, pads to whole blocks, records the
sentinel positions and the pre-padding bit length, transforms every block
with the mod-(2^x - 1) Hadamard matrix, and re-emits bits.  Decryption
replays the levels in reverse with the inverse transform, restoring the
sentinels and stripping the recorded padding, which makes the round trip
exact for every input including lengths the exponents do not divide.
One tolerant pass counts the anomalies; ``decrypt`` raises the first.

Each level runs on the whole message as one Python int, one x-bit lane
per group (``hadamard.apply_lanes``): padding is a shift, sentinels are the
all-ones lanes, restoring them is one OR and truncation one shift.  A
``BitSeq`` already holds that int, and encrypt, decrypt, the envelope and
the digest keep it.  Each level's sentinels stay the lane flags that
``full_lanes`` finds (``SentinelSet.from_lanes``), which decrypt ORs back
in directly.  Index tuples exist only at the HCT1 boundary: ``to_bytes``
formats them, ``from_bytes`` reads them, and decrypt turns parsed indices
into flags once per level.  So the digest, the avalanche experiment and
an in-memory round trip never form an index.  The per-group ``bitcodec``
helpers and the per-block ``hadamard`` kernels describe the same steps one
value at a time; tests use them as the oracle.

The envelope is the self-contained ciphertext container: without the
per-level bit lengths and sentinel sets the payload alone is not
invertible.  Carrying them in-band means a ciphertext file can always be
decrypted by the matching key, at the documented cost that sentinel
metadata reveals which plaintext groups were all ones.  ``to_bytes``
refuses what ``from_bytes`` refuses: both call the same field rules.
"""

import struct
from dataclasses import dataclass
from typing import Iterable

from .bitcodec import BitSeq, SentinelSet, padded_group_count
from .errors import (
    InvalidKeyElement,
    LengthUnderflow,
    MalformedEnvelope,
    NonZeroPadding,
    SentinelConflict,
)
from .hadamard import SUPPORTED_ORDERS, apply_lanes, check_order, full_lanes
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

    @classmethod
    def from_exponents(cls, exponents: Iterable[int]) -> "KeySchedule":
        return cls(tuple(validate_key_element(x) for x in exponents))

    def __len__(self) -> int:
        return len(self.elements)


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

    def to_bytes(self) -> bytes:
        """Serialize to HCT1 (big-endian); refuses what ``from_bytes`` refuses."""
        _check_header(self.version, self.block_order, len(self.levels))
        parts = [_HEADER.pack(ENVELOPE_MAGIC, self.version, self.block_order, len(self.levels))]
        for index, rec in enumerate(self.levels):
            indices = rec.sentinels.indices
            _check_level(index, rec, indices, self.block_order)
            try:
                parts.append(_LEVEL.pack(rec.x, rec.orig_bit_len, len(indices)))
                parts.append(struct.pack(f">{len(indices)}I", *indices))
            except struct.error as exc:
                raise MalformedEnvelope(f"level {index} does not fit the format: {exc}") from None
        _check_payload(self.levels[-1], self.block_order, len(self.payload))
        parts.append(_PAYLOAD_LEN.pack(len(self.payload)))
        parts.append(self.payload.to_bytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherEnvelope":
        """Parse and fully validate an HCT1 envelope; raises MalformedEnvelope.

        The block order and each x must be supported, as ``encrypt`` checks,
        so n >= 8 and the payload always fills whole bytes.
        """
        what = "header"
        try:
            magic, version, block_order, level_count = _HEADER.unpack_from(data)
            if magic != ENVELOPE_MAGIC:
                raise MalformedEnvelope(f"bad magic {magic!r}, expected {ENVELOPE_MAGIC!r}")
            _check_header(version, block_order, level_count)
            offset = _HEADER.size
            levels = []
            for index in range(level_count):
                what = f"level {index} record"
                x, orig_bit_len, sentinel_count = _LEVEL.unpack_from(data, offset)
                what = f"level {index} sentinel indices"
                indices = struct.unpack_from(f">{sentinel_count}I", data, offset + _LEVEL.size)
                offset += _LEVEL.size + 4 * sentinel_count
                try:
                    record = LevelRecord(x, orig_bit_len, SentinelSet(indices))
                except ValueError:
                    raise MalformedEnvelope(
                        f"level {index} sentinel indices not strictly ascending"
                    ) from None
                _check_level(index, record, indices, block_order)
                levels.append(record)
            what = "payload length"
            (payload_bit_len,) = _PAYLOAD_LEN.unpack_from(data, offset)
            offset += _PAYLOAD_LEN.size
            _check_payload(levels[-1], block_order, payload_bit_len)
            what = "payload"
            (payload,) = struct.unpack_from(f"{payload_bit_len // 8}s", data, offset)
        except struct.error:
            raise MalformedEnvelope(f"truncated envelope while reading {what}") from None
        trailing = len(data) - offset - len(payload)
        if trailing:
            raise MalformedEnvelope(f"{trailing} trailing bytes after payload")
        return cls(version, block_order, tuple(levels), BitSeq.from_bytes(payload))


# The rules HCT1 places on the fields; both directions of the format call them.
def _check_header(version: int, block_order: int, level_count: int) -> None:
    if version != ENVELOPE_VERSION:
        raise MalformedEnvelope(f"unsupported version {version}")
    if block_order not in SUPPORTED_ORDERS:
        raise MalformedEnvelope(f"block order {block_order} is not a supported power of two")
    if not level_count:
        raise MalformedEnvelope("envelope carries no levels")
    if level_count > 255:
        raise MalformedEnvelope(f"level count {level_count} does not fit the format (1..255)")


def _check_level(index: int, record: LevelRecord, indices: tuple[int, ...], n: int) -> None:
    if record.x not in SUPPORTED_EXPONENTS:
        raise MalformedEnvelope(
            f"level {index} has group width {record.x}, not one of {SUPPORTED_EXPONENTS}"
        )
    limit = record.padded_group_count(n)
    if indices and indices[-1] >= limit:
        raise MalformedEnvelope(
            f"level {index} sentinel index {indices[-1]} out of range "
            f"(padded group count {limit})"
        )


def _check_payload(last: LevelRecord, block_order: int, bit_len: int) -> None:
    expected = last.padded_group_count(block_order) * last.x
    if bit_len != expected:
        raise MalformedEnvelope(
            f"payload bit length {bit_len} inconsistent with level records "
            f"(expected {expected})"
        )


def encrypt(plaintext: BitSeq, key: KeySchedule, block_order: int = 8) -> CipherEnvelope:
    """Run the full multi-level pipeline and wrap the result in an envelope.

    The ciphertext bit length is a multiple of block_order * x for the last
    exponent x, so it generally differs from the plaintext length.  Empty
    input is legal and produces an empty payload with one record per level.
    """
    check_order(block_order)
    v, length = plaintext.value, plaintext.length
    levels = []
    for params in key.elements:
        x = params.x
        count = padded_group_count(length, x, block_order)
        v <<= count * x - length
        sentinels = SentinelSet.from_lanes(full_lanes(v, x, count), x, count)
        levels.append(LevelRecord(x, length, sentinels))
        v = apply_lanes(v, x, block_order, count, False)
        length = count * x
    return CipherEnvelope(
        ENVELOPE_VERSION, block_order, tuple(levels), BitSeq.from_int(v, length)
    )


@dataclass
class DecryptAnomalies:
    """What the tolerant decrypt path skipped over instead of raising."""

    sentinel_conflicts: int = 0
    padding_violations: int = 0
    length_underflows: int = 0


def _decrypt_levels(
    envelope: CipherEnvelope, key: KeySchedule
) -> tuple[BitSeq, DecryptAnomalies, Exception | None]:
    """Undo the levels in reverse order, counting each anomaly and skipping it.

    Returns the bits, the counts and the first anomalous level's error: a
    held or out-of-range sentinel (SentinelConflict), else LengthUnderflow,
    else NonZeroPadding, its message starting ``level k:`` (HCT1 record k).
    """
    if len(key.elements) != len(envelope.levels):
        raise MalformedEnvelope(
            f"envelope has {len(envelope.levels)} levels but key supplies "
            f"{len(key.elements)} exponents"
        )
    n = envelope.block_order
    check_order(n)
    v, length = envelope.payload.value, envelope.payload.length
    anomalies, first = DecryptAnomalies(), None
    for level in reversed(range(len(key.elements))):
        params, record = key.elements[level], envelope.levels[level]
        x, p = params.x, params.p
        count = padded_group_count(length, x, n)
        size = count * x
        v = apply_lanes(v << size - length, x, n, count, True)
        flags, beyond = record.sentinels.lanes(x, count)
        # Sentinel lanes not holding 0, i.e. not all ones once complemented.
        held = flags and flags & ~full_lanes(v ^ ((1 << size) - 1), x, count)
        if flags:
            v |= (flags ^ held) * p
        keep = min(record.orig_bit_len, size)
        padding = v & ((1 << size - keep) - 1)
        underflow = record.orig_bit_len > size
        anomalies.sentinel_conflicts += beyond + held.bit_count()
        anomalies.length_underflows += underflow
        anomalies.padding_violations += padding != 0
        if first is None:
            if held:
                lane = (held.bit_length() - 1) // x
                first = SentinelConflict(
                    f"level {level}: sentinel position {count - 1 - lane} holds "
                    f"{v >> lane * x & p}, expected 0"
                )
            elif beyond:
                first = SentinelConflict(
                    f"level {level}: sentinel index {record.sentinels.indices[-beyond]} "
                    f"beyond value count {count}"
                )
            elif underflow:
                first = LengthUnderflow(
                    f"level {level}: recorded length {record.orig_bit_len} "
                    f"exceeds available {size} bits"
                )
            elif padding:
                first = NonZeroPadding(
                    f"level {level}: discarded padding contains {padding.bit_count()} one bits"
                )
        v >>= size - keep
        length = keep
    return BitSeq.from_int(v, length), anomalies, first


def decrypt(envelope: CipherEnvelope, key: KeySchedule) -> BitSeq:
    """Invert the pipeline level by level in reverse key order.

    The supplied key drives all grouping and arithmetic; the exponents
    recorded in the envelope are descriptive only and are never used to
    authenticate the key.  A wrong key therefore yields garbage output or
    surfaces as SentinelConflict / NonZeroPadding / LengthUnderflow when
    the recorded metadata stops matching what the arithmetic produces.
    It runs the tolerant pass and raises that pass's first anomaly.
    """
    bits, _, first = _decrypt_levels(envelope, key)
    if first:
        raise first
    return bits


def decrypt_tolerant(
    envelope: CipherEnvelope, key: KeySchedule
) -> tuple[BitSeq, DecryptAnomalies]:
    """Best-effort decrypt that records anomalies and keeps going.

    Sentinel positions holding nonzero values are left as they are,
    nonzero padding is discarded anyway, and a too-short level keeps
    whatever bits exist.  Used by diffusion experiments, where corrupted
    ciphertext must still produce an output to compare against.
    """
    return _decrypt_levels(envelope, key)[:2]


def hash_digest(
    data: BitSeq, key: KeySchedule, block_order: int = 8, digest_bits: int = 128
) -> BitSeq:
    """Keyed digest: encrypt, keep the first digest_bits payload bits.

    The payload is zero-extended when shorter than the requested digest.
    Deterministic: equal inputs always produce equal digests.  This is a
    checksum-grade construction, not a cryptographic hash.
    """
    if digest_bits < 1:
        raise ValueError(f"digest_bits must be >= 1, got {digest_bits}")
    payload = encrypt(data, key, block_order).payload
    spare = len(payload) - digest_bits
    value = payload.value >> spare if spare >= 0 else payload.value << -spare
    return BitSeq.from_int(value, digest_bits)
