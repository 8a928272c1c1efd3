"""Reference results built from the naive O(n^2) kernel, never the fast path.

Each level regroups with the public bitcodec helpers and transforms every
block with ``apply_naive``; the inverse multiplies by H again and scales
by (n mod p)^-1 computed here, so neither direction touches
``apply_fast`` or ``apply_inverse``.
"""

from hctcodec import (
    BitSeq,
    DiffReport,
    HadamardSpec,
    apply_naive,
    detect_sentinels,
    pad_and_group,
    ungroup,
)

from ops import per_block


def encrypt(bits: BitSeq, key, block_order: int):
    """Return ([(x, orig_bit_len, sentinel indices)] per level, payload BitSeq)."""
    records = []
    for params in key.elements:
        grouped = pad_and_group(bits, params.x, block_order)
        sentinels = detect_sentinels(grouped)
        out = per_block(apply_naive, HadamardSpec(block_order, params.p), grouped.values)
        records.append((params.x, grouped.orig_bit_len, sentinels.indices))
        bits = ungroup(out, params.x)
    return records, bits


def decrypt_tolerant(payload: BitSeq, records, key, block_order: int):
    """Tolerant inverse (skip conflicting sentinels, cut padding); returns (bits, conflicts)."""
    bits = payload
    conflicts = 0
    for params, (_, orig_bit_len, sentinels) in zip(reversed(key.elements), reversed(records)):
        p = params.p
        grouped = pad_and_group(bits, params.x, block_order)
        scale = pow(block_order % p, -1, p)
        spec = HadamardSpec(block_order, p)
        values = [scale * v % p for v in per_block(apply_naive, spec, grouped.values)]
        for i in sentinels:
            if i < len(values) and values[i] == 0:
                values[i] = p
            else:
                conflicts += 1
        bits = BitSeq(ungroup(values, params.x).bits[:orig_bit_len])
    return bits, conflicts


def avalanche(message: BitSeq, key, block_order: int, flip: int) -> DiffReport:
    """The report avalanche_experiment should return, recomputed through the oracle."""
    records, payload = encrypt(message, key, block_order)
    recovered, conflicts = decrypt_tolerant(payload.flip(flip), records, key, block_order)
    series = tuple(int(a != b) for a, b in zip(message.bits, recovered.bits))
    return DiffReport(
        len(message), len(recovered), sum(series),
        abs(len(message) - len(recovered)), series, conflicts,
    )
