"""Diffusion measurements and degenerate-input detection.

The cipher is linear over each block, so a single corrupted ciphertext
group changes every recovered value in its block.  These helpers quantify
that spread as a bitwise difference series, the XOR of two sequences over
their common prefix held as one ``BitSeq``, and flag the inputs (all
zeros, all ones) whose payload degenerates to zeros and carries no
information outside the sentinel metadata.
"""

from dataclasses import dataclass

from .bitcodec import BitSeq
from .cipher import KeySchedule, _forward, _inverse, _plan
from .hadamard import check_order


@dataclass(frozen=True)
class DiffReport:
    """Bitwise comparison of two bit sequences over their common prefix.

    series is the XOR of the two common prefixes as one BitSeq, a 1 where
    they differ, so a report holds one int whatever its length.  A
    sequence of 0/1 ints given as series is converted to that BitSeq, so a
    report built from a tuple of bits equals the one difference_series
    returns.  sentinel_conflicts is nonzero only for reports produced by
    avalanche_experiment, counting restorations skipped during the
    tolerant decrypt of the corrupted ciphertext.
    """

    length_a: int
    length_b: int
    hamming: int
    length_delta: int
    series: BitSeq
    sentinel_conflicts: int = 0

    def __post_init__(self):
        if not isinstance(self.series, BitSeq):
            object.__setattr__(self, "series", BitSeq("".join(map(str, self.series))))

    @property
    def common(self) -> int:
        return self.series.length

    @property
    def fraction(self) -> float:
        """Differing share of the common prefix; 0.0 for empty prefixes."""
        return self.hamming / self.series.length if self.series.length else 0.0


def difference_series(a: BitSeq, b: BitSeq) -> DiffReport:
    """Element-wise XOR over the common prefix; lengths reported separately."""
    common = min(len(a), len(b))
    d = (a.value >> len(a) - common) ^ (b.value >> len(b) - common)
    return DiffReport(
        length_a=len(a),
        length_b=len(b),
        hamming=d.bit_count(),
        length_delta=abs(len(a) - len(b)),
        series=BitSeq.from_int(d, common),
    )


def avalanche_experiment(
    plaintext: BitSeq, key: KeySchedule, block_order: int, flip_index: int
) -> DiffReport:
    """Encrypt, flip one payload bit, decrypt tolerantly, diff the plaintexts.

    Sentinel restorations that no longer apply are skipped and counted on
    the report, so the experiment always reaches a comparable output the
    way a corrupted transmission would.  Every level maps each S-bit
    superblock (``KeySchedule.superblock_bits``) onto itself and pads only
    the ragged tail, to at most S bits, so only the flipped bit's
    superblock is encrypted and decrypted; the rest of the message comes
    back unchanged.  That superblock runs through the cipher's level loops
    as one int, inverted with the plan and flags its encryption made, so
    no envelope is built and no record is checked; its forward pass also
    checks ``flip_index``, and only an error plans the whole message.
    """
    check_order(block_order)
    length = plaintext.length
    size = key.superblock_bits(block_order)
    # Past either end of the message, a start that fails the check below.
    start = min(max(flip_index, 0) // size * size, length)
    end = min(start + size, length)
    chunk = plaintext._int(start, end)
    v, out, plan, marks = _forward(chunk, end - start, key._exponents, block_order)
    if not 0 <= flip_index - start < out:
        _, payload_bits = _plan(key._exponents, block_order, length)
        raise ValueError(f"flip index {flip_index} outside payload of {payload_bits} bits")
    v, conflicts, _, _ = _inverse(v ^ 1 << out - 1 - (flip_index - start), plan, marks, block_order)
    diff = (v ^ chunk) << length - end  # the recovered message is plaintext ^ diff
    return DiffReport(length, length, diff.bit_count(), 0, BitSeq.from_int(diff, length), conflicts)


def degenerate_check(plaintext: BitSeq) -> str | None:
    """Warn when the input is all zeros or all ones.

    Such inputs encrypt to an all-zero payload (every group is congruent
    to 0), so the ciphertext body carries no information; only sentinel
    metadata distinguishes them.  Empty input gets no warning.
    """
    if not plaintext.length:
        return None
    value = plaintext.value  # a byte form forms the whole int on each read
    if value == 0:
        return "input is all zeros; payload will be all zeros"
    if value.bit_count() == plaintext.length:
        return "input is all ones; payload will be all zeros (sentinels carry the data)"
    return None


def write_csv(a: BitSeq, report: DiffReport, stream) -> None:
    """Emit ``report`` on ``a`` as CSV rows (bit_b = bit_a ^ diff) plus a '#' summary row."""
    stream.write("position,bit_a,bit_b,diff\n")
    for i, (bit_a, d) in enumerate(zip(a.bits, report.series.bits)):
        stream.write(f"{i},{bit_a},{int(bit_a) ^ int(d)},{d}\n")
    stream.write(
        f"# length_a={report.length_a} length_b={report.length_b} "
        f"common={report.common} hamming={report.hamming} "
        f"length_delta={report.length_delta} fraction={report.fraction:.4f}\n"
    )
