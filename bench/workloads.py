"""Workload table and seeded input generation (standard library only).

Inputs are built from the seed before any timing starts; the codec only
ever sees these generated values.
"""

import random
from typing import NamedTuple

FILE_BYTES = 64 * 1024
BULK_POOL = 2  # distinct files per run, cycled by the timed loop
SHORT_POOL = 256  # distinct short messages per run, cycled likewise
SHORT_MIN_BITS, SHORT_MAX_BITS = 64, 2048
DIGEST_BITS = 128
WARMUP_BYTES = 64  # length of the set-up probe's warm-up message on bulk workloads


class Workload(NamedTuple):
    name: str
    kind: str  # "bulk": file round trips; "short": hash_digest + avalanche_experiment
    exponents: tuple[int, ...]
    block_order: int


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk_n8", "bulk", (3, 5, 31), 8),
        Workload("bulk_n128", "bulk", (13,), 128),
        Workload("short_msgs", "short", (2, 7), 16),
    )
}


class ShortInput(NamedTuple):
    bits: str
    flip: int  # payload bit the avalanche experiment flips


def payload_bits(bit_len: int, exponents: tuple[int, ...], n: int) -> int:
    """Payload length the cipher produces for a plaintext of ``bit_len`` bits."""
    for x in exponents:
        if bit_len == 0:
            return 0
        groups = -(-bit_len // x)
        bit_len = n * -(-groups // n) * x
    return bit_len


def make_inputs(workload: Workload, seed: int) -> list:
    """The run's input pool: bytes for bulk workloads, ShortInput otherwise."""
    rng = random.Random(seed)
    if workload.kind == "bulk":
        return [rng.randbytes(FILE_BYTES) for _ in range(BULK_POOL)]
    # Lengths are stratified over the range (one uniform draw per equal
    # slice, then shuffled) so every seed sees the same length mix and only
    # contents and order change; per-op cost depends strongly on length.
    span = SHORT_MAX_BITS - SHORT_MIN_BITS + 1
    lengths = [
        SHORT_MIN_BITS + int((i + rng.random()) * span / SHORT_POOL)
        for i in range(SHORT_POOL)
    ]
    rng.shuffle(lengths)
    pool = []
    for length in lengths:
        bits = format(rng.getrandbits(length), f"0{length}b")
        flip = rng.randrange(payload_bits(length, workload.exponents, workload.block_order))
        pool.append(ShortInput(bits, flip))
    return pool


def sampled_indices(workload: Workload, seed: int) -> list[int]:
    """Pool positions whose outputs the oracle re-checks after the timed loop."""
    rng = random.Random(f"oracle-sample/{seed}")
    if workload.kind == "bulk":
        return [rng.randrange(BULK_POOL)]
    return sorted(rng.sample(range(256), 8))


def warmup_message(workload: Workload, pool: list):
    """Short message the set-up probe runs once: a prefix of the first file, or the first message."""
    if workload.kind == "bulk":
        return pool[0][:WARMUP_BYTES]
    return pool[0]
