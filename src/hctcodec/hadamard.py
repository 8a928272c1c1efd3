"""Sylvester Hadamard transforms over Z_p with -1 mapped to p - 1.

The order-n matrix is defined entrywise by the parity rule
``H[i][j] = 1 if popcount(i & j) is even else p - 1``, which is exactly the
Sylvester recursion H_{2m} = [[H_m, H_m], [H_m, -H_m]] with -1 folded into
the residue p - 1.  The fast path never materializes the matrix; the naive
path reduces each row's product sum(v) + (p - 2) * (odd-parity sum) mod p and
serves as the independent oracle for the butterfly kernel.

The cipher itself runs ``apply_lanes``, which transforms every block of a
message, or of a piece of one, with a few operations on one Python int; the per-block kernels
above it are kept as the reference that tests compare it with.  Its lanes
sit in 2x-bit slots, and splitting the even lanes from the odd ones runs
the first butterfly stage.  Slots are reduced lazily: a stage lets each
slot grow past p, and the Mersenne fold runs only where the next stage
could fill the slot (D. Harvey, "Faster arithmetic for number-theoretic
transforms", J. Symbolic Computation 60, 2014).  One fold after the last
stage leaves each slot below 2p, the inverse scale is a shift and one
more fold, and one add then makes every lane canonical.  Where two
operands share no bits the kernel joins them with | or ^, which cost a
fraction of + or - on a long int and cannot carry: a + b = a | b when
a & b = 0, and p - e = p ^ e when e lies in p's bits (H. S. Warren,
"Hacker's Delight", ch. 2).
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterator, Sequence

from .bitcodec import SLICE_BITS
from .errors import DimensionMismatch, UnsupportedBlockOrder
from .modmath import mod_inverse

SUPPORTED_ORDERS = (8, 16, 32, 64, 128)


def check_order(n: int) -> int:
    """Return ``n``; raise UnsupportedBlockOrder unless it is in SUPPORTED_ORDERS."""
    if n not in SUPPORTED_ORDERS:
        raise UnsupportedBlockOrder(f"block order {n} not in supported set {SUPPORTED_ORDERS}")
    return n


@dataclass(frozen=True)
class HadamardSpec:
    """Transform order n (power of two, 8..128) and prime modulus p."""

    n: int
    p: int

    def __post_init__(self):
        check_order(self.n)
        if self.p < 2:
            raise ValueError(f"modulus {self.p} is not a prime")


@lru_cache(maxsize=None)
def _odd_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row i of the order-n selector: 1 where popcount(i & j) is odd, else 0."""
    return tuple(tuple((i & j).bit_count() & 1 for j in range(n)) for i in range(n))


def build_matrix(spec: HadamardSpec) -> list[list[int]]:
    """Materialize the full n x n residue matrix (display and tests only)."""
    scale = spec.p - 2
    return [[1 + scale * odd for odd in row] for row in _odd_rows(spec.n)]


def _check_length(spec: HadamardSpec, v: Sequence[int]) -> None:
    if len(v) != spec.n:
        raise DimensionMismatch(f"vector length {len(v)} != order {spec.n}")


def multiply_raw(spec: HadamardSpec, v: Sequence[int]) -> list[int]:
    """Unreduced products H . v with entries taken from {1, p - 1}.

    This is the textbook row-by-row multiply; apply_naive is its reduction
    mod p.  Kept public so the unreduced intermediate values are observable.
    Row i is 1 + (p - 2) * [popcount(i & j) odd], so its product is sum(v)
    plus p - 2 times the sum over the odd-parity columns, exactly.
    """
    _check_length(spec, v)
    total, scale = sum(v), spec.p - 2
    return [total + scale * sum(compress(v, odd)) for odd in _odd_rows(spec.n)]


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
    rows = build_matrix(spec)
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


def lane_slices(x: int, count: int) -> Iterator[tuple[int, int, slice]]:
    """(first lane, lane count, byte range) of each slice of ``count`` x-bit lanes, MSB first.

    A slice is whole blocks of 128 lanes, at most SLICE_BITS bits; every
    supported block order divides 128, so every whole-level pass cuts a level
    at the same places.  The short slice comes first, so each byte range cuts
    ``v.to_bytes(ceil(count * x / 8), "big")`` of the lanes' int ``v`` on
    lane boundaries; the first range also holds the leading zero fill.
    """
    step = 128 * (SLICE_BITS // (128 * x))
    fill = -count * x % 8
    lane, end = 0, (count - 1) % step + 1
    while lane < count:
        yield lane, end - lane, slice((fill + lane * x) // 8, (fill + end * x) // 8)
        lane, end = end, end + step


def _sliced(v: int, x: int, n: int, count: int, inverse: bool, find: bool) -> tuple[int, int]:
    """``apply_lanes`` over each of this kernel's slices of ``v`` (``lane_slices``), joined.

    Each result overwrites its slice's bytes: no level-sized int is shifted,
    which per slice would be quadratic.  Flags get a buffer once a slice has one.
    """
    data = bytearray(v.to_bytes(-(-count * x // 8), "big"))
    marks = None
    for _, lanes, cut in lane_slices(x, count):
        out, flags = apply_lanes(int.from_bytes(data[cut], "big"), x, n, lanes, inverse, find)
        data[cut] = out.to_bytes(cut.stop - cut.start, "big")
        if flags:
            if marks is None:
                marks = bytearray(len(data))
            marks[cut] = flags.to_bytes(cut.stop - cut.start, "big")
    out = int.from_bytes(data, "big")
    del data  # before the flags are joined: from_bytes copies a bytearray
    return out, int.from_bytes(marks, "big") if marks else 0


# One entry covers a level of at most SLICE_BITS bits or one slice of a
# larger level.  At n = 128 it holds 30 times its bits: two masks of twice
# its bits for each of the six stages after the first, pm and ones, and
# the half-width unit and low.  So 64 entries retain at most
# 64 * 30 * 2^15 bits (7.5 MiB), whatever the input sizes.
@lru_cache(maxsize=64)
def _lane_masks(
    x: int, n: int, count: int
) -> tuple[int, int, int, int, tuple[tuple[int, int, int, bool], ...]]:
    """Masks of ``apply_lanes``: even-slot units and p, every slot's p and 1, and stage plans.

    ``unit`` and ``low`` hold 1 and p in each 2x-bit slot of the low half,
    ``pm`` and ``ones`` p and 1 in every slot.  Stage 0 runs on the entry's
    even and odd halves and leaves at most 2p; a plan covers each later
    stage as (selection, addend, shift, fold first).  The selection covers
    whole lower slots, and the addend holds k * p in each, with
    k = ceil(bound / p) for the stage's input bound.  A fold (to at most 2p)
    runs first only where bound + k * p would reach 2^(2x), the slot's width.
    """
    p = (1 << x) - 1
    slot, half, top = 2 * x, count * x, 1 << 2 * x
    unit = _repeat(1, slot, count // 2)
    low = unit * p
    stages = []
    bound, g = 2 * p, 1
    while g < n // 2:  # slot k against slot k - g inside each half
        add = -(-bound // p) * p
        fold = bound + add >= top
        if fold:
            bound, add = 2 * p, 2 * p
        lower = _repeat(_repeat(1, slot, g), 2 * g * slot, count // (2 * g))
        stages.append((lower * (top - 1), lower * add, g * slot, fold))
        bound += add
        g *= 2
    return unit, low, low | low << half, unit | unit << half, tuple(stages)


def apply_lanes(
    v: int, x: int, n: int, count: int, inverse: bool, find: bool = True
) -> tuple[int, int]:
    """Transform all blocks of ``count`` x-bit lanes packed MSB-first in ``v``.

    Equal, block by block, to ``apply_fast`` (or ``apply_inverse``) with
    p = 2^x - 1; lanes may hold p, and the result is canonical.  The even
    lanes e and odd lanes o are taken apart in 2x-bit slots, and stage 0
    (odd lane 2k+1 against even lane 2k) joins them: e + o in the high half
    and o + (p ^ e) in the low, each at most 2p.  p ^ e is p - e, as e lies
    in each slot's p, and the low half stays below 2^(2x) per slot, so |
    joins the halves.  Lanes run backwards inside a block, so a sum lands
    in the slot with the higher index; each later stage splits w into its
    lower slots lo and the rest hi, and a difference adds k * p to a lower
    slot before subtracting, with k * p at least the slot's bound, so it
    never borrows.  The addend sits only in the slots hi has cleared, so
    hi | add is hi + add, and lo << shift and hi >> shift fill
    complementary slots, so | joins them too.  A stage thus leaves a slot
    at most bound + k * p, and the Mersenne end-around carry (low x bits
    plus the rest, at most 2p from below 2^(2x)) runs before a stage only
    where that would reach 2^(2x): for x >= 7 never inside n = 128's seven
    stages, for x = 2 before every stage from the third.  At x = 13 and
    n = 128 the forward pass is 40 adds, subtractions and shifts and 37
    bitwise operations, the inverse 38 and 36.

    Every bound is 2^j * p, and 2^(2x) - 1 = p * (p + 2) with p + 2 odd,
    so the last bound is at most 2^(2x) - 2 and one carry after the last
    stage leaves each slot at most 2p - 1.  The inverse scale (n mod p)^-1
    is 2^r with r = -log2 n mod x: a shift by r keeps a slot below
    2^(2x) - 1, as its low r bits are 0, and one more carry brings it back
    to 2p - 1.  Then one add makes the lanes canonical: t + 1 reaches bit x
    iff t >= p, and (t + that bit) & p is t mod p for t in 0..2p - 1.
    The masks and the fold plan depend only on (x, n, count) and are
    cached (``_lane_masks``).  Above SLICE_BITS bits each slice of
    ``lane_slices`` (whole 128-lane blocks) runs on its own, as blocks
    never mix, so temporaries and masks stay the size of one slice.  e and
    o are dropped once w is formed, and each stage rebinds w to hi, so a
    call's transient, its result included, is about 11 times the piece.
    Returns the result and flags (``bitcodec._positions`` reads them as
    positions): the lanes of ``v`` holding p, found from e + 1 and o + 1 on
    the half-width lanes, or 0 for the inverse and where ``find`` is false,
    as on a cipher level that cannot carry sentinels (``cipher._plan``).
    """
    half = count * x
    if half > SLICE_BITS:
        return _sliced(v, x, n, count, inverse, find)
    unit, low, pm, ones, stages = _lane_masks(x, n, count)
    e = v & low
    o = v >> x & low
    full = (e + unit >> x & unit) | (o + unit >> x & unit) << x if find and not inverse else 0
    w = (e + o << half) | o + (low ^ e)
    del e, o
    for sel, add, shift, fold in stages:
        if fold:
            w = (w & pm) + (w >> x & pm)
        lo = w & sel
        w ^= lo  # the rest, hi; the old w is no longer held
        w = (lo << shift | w >> shift) + (w | add) - lo
    w = (w & pm) + (w >> x & pm)  # each slot at most 2p - 1
    if inverse:
        r = -(n.bit_length() - 1) % x
        if r:
            w <<= r
            w = (w & pm) + (w >> x & pm)
    w += w + ones >> x & ones
    return w & low | (w >> half & low) << x, full
