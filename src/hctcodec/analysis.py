"""Diffusion measurements and degenerate-input detection.

The cipher is linear over each block, so a single corrupted ciphertext
group changes every recovered value in its block.  These helpers quantify
that spread as bitwise difference series and flag the inputs (all zeros,
all ones) whose payload degenerates to zeros and carries no information
outside the sentinel metadata.
"""

from dataclasses import dataclass, replace

from .bitcodec import BitSeq
from .cipher import KeySchedule, decrypt_tolerant, encrypt


@dataclass(frozen=True)
class DiffReport:
    """Bitwise comparison of two bit sequences over their common prefix.

    sentinel_conflicts is nonzero only for reports produced by
    avalanche_experiment, counting restorations skipped during the
    tolerant decrypt of the corrupted ciphertext.
    """

    length_a: int
    length_b: int
    hamming: int
    length_delta: int
    series: tuple[int, ...]
    sentinel_conflicts: int = 0

    @property
    def common(self) -> int:
        return len(self.series)

    @property
    def fraction(self) -> float:
        """Differing share of the common prefix; 0.0 for empty prefixes."""
        return self.hamming / len(self.series) if self.series else 0.0


def difference_series(a: BitSeq, b: BitSeq) -> DiffReport:
    """Element-wise XOR over the common prefix; lengths reported separately."""
    common = min(len(a), len(b))
    d = (a.value >> len(a) - common) ^ (b.value >> len(b) - common)
    xor_bits = format(d, f"0{common}b").encode() if common else b""
    series = tuple(xor_bits.translate(bytes.maketrans(b"01", b"\0\1")))
    return DiffReport(
        length_a=len(a),
        length_b=len(b),
        hamming=d.bit_count(),
        length_delta=abs(len(a) - len(b)),
        series=series,
    )


def avalanche_experiment(
    plaintext: BitSeq, key: KeySchedule, block_order: int, flip_index: int
) -> DiffReport:
    """Encrypt, flip one payload bit, decrypt tolerantly, diff the plaintexts.

    Sentinel restorations that no longer apply are skipped and counted on
    the report, so the experiment always reaches a comparable output the
    way a corrupted transmission would.
    """
    envelope = encrypt(plaintext, key, block_order)
    if not 0 <= flip_index < len(envelope.payload):
        raise ValueError(
            f"flip index {flip_index} outside payload of {len(envelope.payload)} bits"
        )
    corrupted = replace(envelope, payload=envelope.payload.flip(flip_index))
    recovered, anomalies = decrypt_tolerant(corrupted, key)
    report = difference_series(plaintext, recovered)
    return replace(report, sentinel_conflicts=anomalies.sentinel_conflicts)


def degenerate_check(plaintext: BitSeq) -> str | None:
    """Warn when the input is all zeros or all ones.

    Such inputs encrypt to an all-zero payload (every group is congruent
    to 0), so the ciphertext body carries no information; only sentinel
    metadata distinguishes them.  Empty input gets no warning.
    """
    if not plaintext.length:
        return None
    if plaintext.value == 0:
        return "input is all zeros; payload will be all zeros"
    if plaintext.value == (1 << plaintext.length) - 1:
        return "input is all ones; payload will be all zeros (sentinels carry the data)"
    return None


def write_csv(a: BitSeq, report: DiffReport, stream) -> None:
    """Emit ``report`` on ``a`` as CSV rows (bit_b = bit_a ^ diff) plus a '#' summary row."""
    stream.write("position,bit_a,bit_b,diff\n")
    for i, (bit_a, d) in enumerate(zip(a.bits, report.series)):
        stream.write(f"{i},{bit_a},{int(bit_a) ^ d},{d}\n")
    stream.write(
        f"# length_a={report.length_a} length_b={report.length_b} "
        f"common={report.common} hamming={report.hamming} "
        f"length_delta={report.length_delta} fraction={report.fraction:.4f}\n"
    )
