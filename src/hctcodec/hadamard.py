"""Sylvester Hadamard transforms over Z_p with -1 mapped to p - 1.

The order-n matrix is defined entrywise by the parity rule
``H[i][j] = 1 if popcount(i & j) is even else p - 1``, which is exactly the
Sylvester recursion H_{2m} = [[H_m, H_m], [H_m, -H_m]] with -1 folded into
the residue p - 1.  The fast path never materializes the matrix; the naive
path multiplies against a cached materialized copy and serves as the
independent oracle for the butterfly kernel.

The cipher itself runs ``apply_lanes``, which transforms every block of a
whole message at once on one Python int; the per-block kernels above it are
kept as the reference that tests compare it with.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import DimensionMismatch, UnsupportedBlockOrder
from .modmath import mod_inverse

SUPPORTED_ORDERS = (8, 16, 32, 64, 128)


@dataclass(frozen=True)
class HadamardSpec:
    """Transform order n (power of two, 8..128) and prime modulus p."""

    n: int
    p: int

    def __post_init__(self):
        if self.n not in SUPPORTED_ORDERS:
            raise UnsupportedBlockOrder(
                f"order {self.n} not in supported set {SUPPORTED_ORDERS}"
            )
        if self.p < 2:
            raise ValueError(f"modulus {self.p} is not a prime")


def entry(i: int, j: int, spec: HadamardSpec) -> int:
    """Matrix entry at (i, j): 1 on even popcount(i & j), else p - 1."""
    if not (0 <= i < spec.n and 0 <= j < spec.n):
        raise DimensionMismatch(f"index ({i}, {j}) outside order {spec.n}")
    return 1 if (i & j).bit_count() % 2 == 0 else spec.p - 1


@lru_cache(maxsize=32)
def _matrix_rows(spec: HadamardSpec) -> tuple[tuple[int, ...], ...]:
    pm1 = spec.p - 1
    return tuple(
        tuple(1 if (i & j).bit_count() % 2 == 0 else pm1 for j in range(spec.n))
        for i in range(spec.n)
    )


def build_matrix(spec: HadamardSpec) -> list[list[int]]:
    """Materialize the full n x n residue matrix (display and tests only)."""
    return [list(row) for row in _matrix_rows(spec)]


def _check_length(spec: HadamardSpec, v: Sequence[int]) -> None:
    if len(v) != spec.n:
        raise DimensionMismatch(f"vector length {len(v)} != order {spec.n}")


def multiply_raw(spec: HadamardSpec, v: Sequence[int]) -> list[int]:
    """Unreduced products H . v with entries taken from {1, p - 1}.

    This is the textbook row-by-row multiply; apply_naive is its reduction
    mod p.  Kept public so the unreduced intermediate values are observable.
    """
    _check_length(spec, v)
    rows = _matrix_rows(spec)
    return [sum(map(int.__mul__, row, v)) for row in rows]


def apply_naive(spec: HadamardSpec, v: Sequence[int]) -> list[int]:
    """O(n^2) transform: w[i] = (sum_j H[i][j] * v[j]) mod p."""
    p = spec.p
    return [r % p for r in multiply_raw(spec, v)]


def apply_fast(spec: HadamardSpec, v: Sequence[int]) -> list[int]:
    """O(n log n) butterfly computing exactly the same transform as apply_naive.

    Subtraction is realized as addition of p - value, so every intermediate
    stays a canonical residue.  Input values equal to p fold to 0 on entry.
    """
    _check_length(spec, v)
    p = spec.p
    out = [value % p for value in v]
    h = 1
    n = spec.n
    while h < n:
        for base in range(0, n, 2 * h):
            for j in range(base, base + h):
                a = out[j]
                b = out[j + h]
                out[j] = (a + b) % p
                out[j + h] = (a + p - b) % p
        h *= 2
    return out


def apply_inverse(spec: HadamardSpec, w: Sequence[int]) -> list[int]:
    """Invert the transform: v = inv(n mod p) * (H . w) mod p.

    Works because H . H == (n mod p) * I over Z_p; n is a power of two and
    p is odd, so n mod p is always invertible.
    """
    scale = mod_inverse(spec.n % spec.p, spec.p)
    p = spec.p
    return [scale * value % p for value in apply_fast(spec, w)]


def self_check(spec: HadamardSpec) -> bool:
    """Brute-force confirmation that H . H == (n mod p) * I over Z_p."""
    rows = _matrix_rows(spec)
    n, p = spec.n, spec.p
    target = n % p
    cols = rows  # the matrix is symmetric
    for i in range(n):
        row = rows[i]
        for j in range(n):
            acc = sum(map(int.__mul__, row, cols[j])) % p
            if acc != (target if i == j else 0):
                return False
    return True


def _repeat(pattern: int, width: int, count: int) -> int:
    """``count`` copies of ``pattern``, one every ``width`` bits."""
    out, span, total = pattern, width, width * count
    while span < total:
        out |= out << span
        span *= 2
    return out & ((1 << total) - 1)


def full_lanes(v: int, x: int, count: int) -> int:
    """A 1 at bit j*x for every x-bit lane j of ``v`` that is all ones (count even)."""
    ones = _repeat(1, 2 * x, count // 2)
    p = (1 << x) - 1
    even = ((v & ones * p) + ones) >> x & ones
    odd = ((v >> x & ones * p) + ones) >> x & ones
    return even | odd << x


def apply_lanes(v: int, x: int, n: int, count: int, inverse: bool) -> int:
    """Transform all blocks of ``count`` x-bit lanes packed MSB-first in ``v``.

    Equal, block by block, to ``apply_fast`` (or ``apply_inverse``) with
    p = 2^x - 1; lanes may hold p, and the result is canonical.  Even and odd
    lanes go into the low and high halves of one int, each lane in a 2x-bit
    slot, so a butterfly has x bits of headroom and reduces with the Mersenne
    end-around carry.  Lanes run backwards inside a block, so the sum lands
    in the slot with the higher index.  The inverse scale (n mod p)^-1 is
    2^(-log2 n mod x): a rotation of each lane.
    """
    p = (1 << x) - 1
    slot, half = 2 * x, count * x
    low = _repeat(p, slot, count // 2)
    pm = low | low << half
    w = v & low | (v >> x & low) << half
    stages = [(low << half, half)]  # odd lane 2k+1 against even lane 2k
    g = 1
    while g < n // 2:  # slot k against slot k - g inside each half
        pattern = _repeat(p, slot, g) << g * slot
        stages.append((_repeat(pattern, 2 * g * slot, count // (2 * g)), g * slot))
        g *= 2
    for hi_mask, shift in stages:
        hi = w & hi_mask
        lo = w ^ hi
        w = hi + (lo << shift) + (hi >> shift) + (pm ^ hi_mask) - lo
        w = (w & pm) + (w >> x & pm)
    if inverse:
        r = -(n.bit_length() - 1) % x
        w = (w << r & pm) | (w >> (x - r) & pm)
    ones = pm // p
    w ^= ((w + ones) >> x & ones) * p
    return w & low | (w >> half) << x
