"""Chained multi-level cipher pipeline, hashing mode, and ciphertext envelope.

Encryption walks the key exponents in order.  Each level reads the
running bit sequence as x-bit groups, pads to whole blocks, records the
sentinel positions and the pre-padding bit length, transforms every block
with the mod-(2^x - 1) Hadamard matrix, and re-emits bits.  Decryption
replays the levels in reverse with the inverse transform, restoring the
sentinels and stripping the recorded padding, which makes the round trip
exact for every input including lengths the exponents do not divide.

Each level runs on the whole message as one Python int, one x-bit lane
per group (``hadamard.apply_lanes``): padding is a shift, sentinels are the
all-ones lanes, restoring them is one OR and truncation one shift.  A
``BitSeq`` already holds that int, so encrypt, decrypt, the envelope and
the digest take it and hand it on without formatting any bit text.  The
per-group ``bitcodec`` helpers and the per-block ``hadamard`` kernels
describe the same steps one value at a time; tests use them as the oracle.

The envelope is the self-contained ciphertext container: without the
per-level bit lengths and sentinel sets the payload alone is not
invertible.  Carrying them in-band means a ciphertext file can always be
decrypted by the matching key, at the documented cost that sentinel
metadata reveals which plaintext groups were all ones.
"""

import re
import struct
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .bitcodec import BitSeq, SentinelSet, padded_group_count
from .errors import (
    InvalidKeyElement,
    LengthUnderflow,
    MalformedEnvelope,
    NonZeroPadding,
    SentinelConflict,
    UnsupportedBlockOrder,
)
from .hadamard import SUPPORTED_ORDERS, apply_lanes, full_lanes
from .modmath import ModulusParams, validate_key_element

ENVELOPE_MAGIC = b"HCT1"
ENVELOPE_VERSION = 1


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

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e.x for e in self.elements)

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
        """Serialize to the HCT1 binary layout (big-endian throughout)."""
        if not 1 <= len(self.levels) <= 255:
            raise MalformedEnvelope(
                f"level count {len(self.levels)} does not fit the format (1..255)"
            )
        parts = [
            ENVELOPE_MAGIC,
            struct.pack(">BBB", self.version, self.block_order, len(self.levels)),
        ]
        for rec in self.levels:
            parts.append(struct.pack(">BQI", rec.x, rec.orig_bit_len, len(rec.sentinels)))
            if rec.sentinels.indices:
                parts.append(
                    struct.pack(f">{len(rec.sentinels)}I", *rec.sentinels.indices)
                )
        parts.append(struct.pack(">Q", len(self.payload)))
        parts.append(self.payload.to_bytes())
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CipherEnvelope":
        """Parse and fully validate an HCT1 envelope; raises MalformedEnvelope."""
        cursor = _Cursor(data)
        magic = cursor.take(4, "magic")
        if magic != ENVELOPE_MAGIC:
            raise MalformedEnvelope(f"bad magic {magic!r}, expected {ENVELOPE_MAGIC!r}")
        version, block_order, level_count = struct.unpack(
            ">BBB", cursor.take(3, "header")
        )
        if version != ENVELOPE_VERSION:
            raise MalformedEnvelope(f"unsupported version {version}")
        if block_order == 0 or block_order & (block_order - 1):
            raise MalformedEnvelope(f"block order {block_order} is not a power of two")
        if level_count == 0:
            raise MalformedEnvelope("envelope carries no levels")

        levels = []
        for index in range(level_count):
            x, orig_bit_len, sentinel_count = struct.unpack(
                ">BQI", cursor.take(13, f"level {index} record")
            )
            if x == 0:
                raise MalformedEnvelope(f"level {index} has group width 0")
            raw = cursor.take(4 * sentinel_count, f"level {index} sentinel indices")
            indices = struct.unpack(f">{sentinel_count}I", raw)
            try:
                sentinels = SentinelSet(indices)
            except ValueError:
                raise MalformedEnvelope(
                    f"level {index} sentinel indices not strictly ascending"
                ) from None
            record = LevelRecord(x, orig_bit_len, sentinels)
            limit = record.padded_group_count(block_order)
            if indices and indices[-1] >= limit:
                raise MalformedEnvelope(
                    f"level {index} sentinel index {indices[-1]} out of range "
                    f"(padded group count {limit})"
                )
            levels.append(record)

        (payload_bit_len,) = struct.unpack(">Q", cursor.take(8, "payload length"))
        expected = levels[-1].padded_group_count(block_order) * levels[-1].x
        if payload_bit_len != expected:
            raise MalformedEnvelope(
                f"payload bit length {payload_bit_len} inconsistent with level "
                f"records (expected {expected})"
            )
        payload_bytes = cursor.take(-(-payload_bit_len // 8), "payload")
        if cursor.remaining():
            raise MalformedEnvelope(f"{cursor.remaining()} trailing bytes after payload")
        filler = 8 * len(payload_bytes) - payload_bit_len
        payload = int.from_bytes(payload_bytes, "big")
        if payload & ((1 << filler) - 1):
            raise MalformedEnvelope("nonzero filler bits after payload")
        return cls(
            version, block_order, tuple(levels),
            BitSeq.from_int(payload >> filler, payload_bit_len),
        )


class _Cursor:
    """Byte reader that turns short reads into MalformedEnvelope."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, count: int, what: str) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise MalformedEnvelope(f"truncated envelope while reading {what}")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def remaining(self) -> int:
        return len(self.data) - self.offset


def _check_block_order(block_order: int) -> None:
    if block_order not in SUPPORTED_ORDERS:
        raise UnsupportedBlockOrder(
            f"block order {block_order} not in supported set {SUPPORTED_ORDERS}"
        )


def encrypt(plaintext: BitSeq, key: KeySchedule, block_order: int = 8) -> CipherEnvelope:
    """Run the full multi-level pipeline and wrap the result in an envelope.

    The ciphertext bit length is a multiple of block_order * x for the last
    exponent x, so it generally differs from the plaintext length.  Empty
    input is legal and produces an empty payload with one record per level.
    """
    _check_block_order(block_order)
    v, length = plaintext.value, plaintext.length
    levels = []
    for params in key.elements:
        x = params.x
        count = padded_group_count(length, x, block_order)
        v <<= count * x - length
        flags = full_lanes(v, x, count)
        marks = format(flags, f"0{count * x}b")[x - 1::x] if flags else ""
        sentinels = SentinelSet(tuple(m.start() for m in re.finditer("1", marks)))
        levels.append(LevelRecord(x, length, sentinels))
        v = apply_lanes(v, x, block_order, count, False)
        length = count * x
    return CipherEnvelope(
        ENVELOPE_VERSION, block_order, tuple(levels), BitSeq.from_int(v, length)
    )


def _decrypt_levels(
    envelope: CipherEnvelope, key: KeySchedule, anomalies: "DecryptAnomalies | None"
) -> BitSeq:
    """Undo the levels in reverse order; raise on the first anomaly, or count it.

    Without ``anomalies`` a sentinel index past the lane count or over a
    nonzero lane raises SentinelConflict (naming the first such index), then
    a too-short level LengthUnderflow, then nonzero padding NonZeroPadding.
    With it, each is counted and skipped as decrypt_tolerant documents.
    """
    if len(key.elements) != len(envelope.levels):
        raise MalformedEnvelope(
            f"envelope has {len(envelope.levels)} levels but key supplies "
            f"{len(key.elements)} exponents"
        )
    n = envelope.block_order
    _check_block_order(n)
    v, length = envelope.payload.value, envelope.payload.length
    for params, record in zip(reversed(key.elements), reversed(envelope.levels)):
        x, p = params.x, params.p
        count = padded_group_count(length, x, n)
        size = count * x
        v = apply_lanes(v << size - length, x, n, count, True)
        indices = record.sentinels.indices
        if indices:
            in_range = bisect_left(indices, count)
            lane_marks = bytearray(b"0") * count
            for i in indices[:in_range]:
                lane_marks[i] = 49  # ord("1")
            marks = bytearray(b"0") * size
            marks[x - 1::x] = lane_marks  # the lowest bit of each lane
            flags = int(marks, 2) if size else 0
            # Sentinel lanes not holding 0, i.e. not all ones once complemented.
            held = flags & ~full_lanes(v ^ ((1 << size) - 1), x, count)
            if held or in_range < len(indices):
                if anomalies is None:
                    if held:
                        lane = (held.bit_length() - 1) // x
                        raise SentinelConflict(
                            f"sentinel position {count - 1 - lane} holds "
                            f"{v >> lane * x & p}, expected 0"
                        )
                    raise SentinelConflict(
                        f"sentinel index {indices[in_range]} beyond value count {count}"
                    )
                anomalies.sentinel_conflicts += len(indices) - in_range + held.bit_count()
            v |= (flags ^ held) * p
        keep = record.orig_bit_len
        if keep > size:
            if anomalies is None:
                raise LengthUnderflow(
                    f"recorded length {keep} exceeds available {size} bits"
                )
            anomalies.length_underflows += 1
            keep = size
        else:
            padding = v & ((1 << size - keep) - 1)
            if padding:
                if anomalies is None:
                    raise NonZeroPadding(
                        f"discarded padding contains {padding.bit_count()} one bits"
                    )
                anomalies.padding_violations += 1
        v >>= size - keep
        length = keep
    return BitSeq.from_int(v, length)


def decrypt(envelope: CipherEnvelope, key: KeySchedule) -> BitSeq:
    """Invert the pipeline level by level in reverse key order.

    The supplied key drives all grouping and arithmetic; the exponents
    recorded in the envelope are descriptive only and are never used to
    authenticate the key.  A wrong key therefore yields garbage output or
    surfaces as SentinelConflict / NonZeroPadding / LengthUnderflow when
    the recorded metadata stops matching what the arithmetic produces.
    """
    return _decrypt_levels(envelope, key, None)


@dataclass
class DecryptAnomalies:
    """What the tolerant decrypt path skipped over instead of raising."""

    sentinel_conflicts: int = 0
    padding_violations: int = 0
    length_underflows: int = 0

    def any(self) -> bool:
        return bool(
            self.sentinel_conflicts or self.padding_violations or self.length_underflows
        )


def decrypt_tolerant(
    envelope: CipherEnvelope, key: KeySchedule
) -> tuple[BitSeq, DecryptAnomalies]:
    """Best-effort decrypt that records anomalies and keeps going.

    Sentinel positions holding nonzero values are left as they are,
    nonzero padding is discarded anyway, and a too-short level keeps
    whatever bits exist.  Used by diffusion experiments, where corrupted
    ciphertext must still produce an output to compare against.
    """
    anomalies = DecryptAnomalies()
    return _decrypt_levels(envelope, key, anomalies), anomalies


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
