"""Write ``tests/data/kat_v1.txt``, the HCT1 known-answer vectors.

Run from the repository root: ``python tests/make_kat.py``.  Each envelope
comes from ``bench/oracle.py``'s ``encrypt``, which transforms every block
with the O(n^2) ``apply_naive`` and never runs the lane engine, and is
packed here with ``struct`` rather than ``CipherEnvelope.to_bytes``.
``test_envelope.test_known_answer_vectors`` re-encrypts every case.
"""

import hashlib
import random
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from hctcodec import BitSeq, KeySchedule  # noqa: E402
from hctcodec.bitcodec import SLICE_BITS  # noqa: E402
from hctcodec.hadamard import SUPPORTED_ORDERS  # noqa: E402
from hctcodec.modmath import SUPPORTED_EXPONENTS  # noqa: E402
from oracle import encrypt  # noqa: E402

# Every one-level key, the bench keys, and two-level keys on both sides of the
# rule for level-1 sentinels (x1 != x0 and x1 <= 2*x0 - 2): 3,5 and 3,3 cannot
# carry them, 5,3, 7,2 and 17,13 can.
KEYS = [((x,), n) for x in SUPPORTED_EXPONENTS for n in SUPPORTED_ORDERS] + [
    ((3, 5, 31), 8), ((2, 7), 16),
    ((3, 5), 8), ((5, 3), 16), ((3, 3), 32), ((7, 2), 64), ((17, 13), 8),
]
# Messages of 2 * SLICE_BITS + 1 bits, whose level 0 runs as three slices of
# the lane engine, so blocks sit on both sides of each slice cut.  Listed
# after KEYS, with seeds after theirs, so earlier lines never move.
LONG_KEYS = [((3, 5, 31), 8), ((13,), 128), ((2, 7), 16), ((7, 5), 128), ((2, 31), 128)]
# Messages that run chunk by chunk through every level (a key of two or more
# levels, longer than SLICE_BITS and than its superblock S): two whole
# chunks of 8 * S bits with no tail; S = 59520 > SLICE_BITS, so two
# one-superblock chunks and a 1-bit tail; and many chunks and a ragged tail
# with sentinels at every level.  Seeds follow LONG_KEYS'.
CHUNK_CASES = [((3, 5, 31), 8, 2 * 8 * 3720), ((3, 5, 31), 128, 2 * 59520 + 1),
               ((5, 3, 2), 16, 2 * SLICE_BITS + 1)]
HEX_LIMIT = 64  # longer envelopes are stored as their SHA-256


def envelope_bytes(records, payload: BitSeq, n: int) -> bytes:
    parts = [struct.pack(">4sBBB", b"HCT1", 1, n, len(records))]
    for x, orig_bit_len, indices in records:
        parts.append(struct.pack(f">BQI{len(indices)}I", x, orig_bit_len, len(indices), *indices))
    bits = payload.bits
    parts.append(struct.pack(">Q", len(bits)))
    parts.append(int(bits or "0", 2).to_bytes(len(bits) // 8, "big"))
    return b"".join(parts)


def vector(exponents, n: int, length: int, content: str, value: int) -> str:
    """One line of the file: the case and its envelope from the oracle."""
    key = KeySchedule.from_exponents(exponents)
    records, payload = encrypt(BitSeq.from_int(value, length), key, n)
    blob = envelope_bytes(records, payload, n)
    answer = (f"hex:{blob.hex()}" if len(blob) <= HEX_LIMIT
              else f"sha256:{hashlib.sha256(blob).hexdigest()}")
    return f"{','.join(map(str, exponents))} {n} {length} {content} {answer}"


def main() -> None:
    lines = [
        "# HCT1 known-answer vectors, written by tests/make_kat.py from the per-block",
        "# oracle (bench/oracle.py, apply_naive per block; no lane engine).",
        "# key  block-order  message-bits  content  envelope",
        "# content: an int seed, the message being random.Random(seed).getrandbits(bits),",
        "# or 'ones' for all ones.  envelope: 'hex:' and the bytes if at most",
        f"# {HEX_LIMIT} bytes long, else 'sha256:' and their SHA-256.",
    ]
    seed = 0
    for exponents, n in KEYS:
        x, size = exponents[0], KeySchedule.from_exponents(exponents).superblock_bits(n)
        cases = []
        for length in sorted({0, 1, x * n - 1, x * n + 1, size + 1}):
            seed += 1
            cases.append((length, str(seed), random.Random(seed).getrandbits(length)))
        cases.append((size + 1, "ones", (1 << size + 1) - 1))
        lines += [vector(exponents, n, *case) for case in cases]
    length = 2 * SLICE_BITS + 1
    for exponents, n in LONG_KEYS:
        seed += 1
        value = random.Random(seed).getrandbits(length)
        lines.append(vector(exponents, n, length, str(seed), value))
    for exponents, n, length in CHUNK_CASES:
        seed += 1
        value = random.Random(seed).getrandbits(length)
        lines.append(vector(exponents, n, length, str(seed), value))
    (ROOT / "tests" / "data" / "kat_v1.txt").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
