"""Transform kernels: construction, equivalence, inversion."""

import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hctcodec import hadamard
from hctcodec.bitcodec import SLICE_BITS
from hctcodec.errors import DimensionMismatch, UnsupportedBlockOrder
from hctcodec.modmath import SUPPORTED_EXPONENTS
from hctcodec.hadamard import (
    SUPPORTED_ORDERS,
    HadamardSpec,
    apply_fast,
    apply_inverse,
    apply_lanes,
    apply_naive,
    build_matrix,
    lane_slices,
    multiply_raw,
    self_check,
)
from vectors import (
    D1_RAW_PRODUCTS,
    D1_RECOVERED,
    D2_RAW_PRODUCTS,
    D2_RECOVERED,
    HH_DIAG_MOD7,
    HH_DIAG_MOD31,
    HH_OFF_MOD7,
    HH_OFF_MOD31,
    L1_MASKED,
    L1_TRANSFORMED,
    L2_GROUPS,
    L2_TRANSFORMED,
    MOD7_MATRIX,
    MOD31_MATRIX,
    SUPPORTED_P,
)

SPEC7 = HadamardSpec(8, 7)
SPEC31 = HadamardSpec(8, 31)


def sylvester_signs(n):
    """Independent oracle: the classical +1/-1 doubling construction."""
    rows = [[1]]
    while len(rows) < n:
        m = len(rows)
        grown = []
        for r in rows:
            grown.append(r + r)
        for r in rows:
            grown.append(r + [-s for s in r])
        rows = grown
    return rows


def test_entry_matches_sign_construction():
    for n in (8, 16):
        signs = sylvester_signs(n)
        rows = build_matrix(HadamardSpec(n, 7))
        for i in range(n):
            for j in range(n):
                want = 1 if signs[i][j] == 1 else 6
                assert rows[i][j] == want


def test_matrix_mod7_matches_reference():
    assert tuple(map(tuple, build_matrix(SPEC7))) == MOD7_MATRIX


def test_matrix_mod31_matches_reference():
    assert tuple(map(tuple, build_matrix(SPEC31))) == MOD31_MATRIX


def test_matrix_is_symmetric_with_unit_border():
    for spec in (SPEC7, HadamardSpec(16, 31), HadamardSpec(32, 127)):
        rows = build_matrix(spec)
        n = spec.n
        assert all(rows[0][j] == 1 for j in range(n))
        assert all(rows[i][0] == 1 for i in range(n))
        for i in range(n):
            for j in range(n):
                assert rows[i][j] == rows[j][i]
                assert rows[i][j] in (1, spec.p - 1)


def test_row_dot_products_match_hand_computation():
    rows7 = build_matrix(SPEC7)
    assert sum(a * a for a in rows7[1]) == HH_DIAG_MOD7
    assert sum(a * b for a, b in zip(rows7[1], rows7[2])) == HH_OFF_MOD7
    rows31 = build_matrix(SPEC31)
    assert sum(a * a for a in rows31[1]) == HH_DIAG_MOD31
    assert sum(a * b for a, b in zip(rows31[1], rows31[2])) == HH_OFF_MOD31


def test_spec_rejects_unsupported_orders():
    for n in (0, 1, 2, 4, 12, 24, 256):
        with pytest.raises(UnsupportedBlockOrder):
            HadamardSpec(n, 7)


def test_forward_worked_example():
    assert apply_naive(SPEC7, list(L1_MASKED)) == list(L1_TRANSFORMED)
    assert apply_naive(SPEC31, list(L2_GROUPS)) == list(L2_TRANSFORMED)
    assert apply_fast(SPEC7, list(L1_MASKED)) == list(L1_TRANSFORMED)
    assert apply_fast(SPEC31, list(L2_GROUPS)) == list(L2_TRANSFORMED)


def test_raw_products_worked_example():
    assert multiply_raw(SPEC31, list(L2_TRANSFORMED)) == list(D2_RAW_PRODUCTS)
    assert multiply_raw(SPEC7, list(L1_TRANSFORMED)) == list(D1_RAW_PRODUCTS)


def test_inverse_worked_example():
    assert apply_inverse(SPEC31, list(L2_TRANSFORMED)) == list(D2_RECOVERED)
    assert apply_inverse(SPEC7, list(L1_TRANSFORMED)) == list(D1_RECOVERED)


def test_zero_vector_fixed_point():
    for spec in (SPEC7, HadamardSpec(64, 8191)):
        z = [0] * spec.n
        assert apply_naive(spec, z) == z
        assert apply_fast(spec, z) == z
        assert apply_inverse(spec, z) == z


def test_basis_vectors_give_matrix_columns():
    rows = build_matrix(SPEC31)
    for j in range(8):
        e = [0] * 8
        e[j] = 1
        assert apply_fast(SPEC31, e) == [rows[i][j] for i in range(8)]


def test_all_ones_concentrates_energy():
    # Row 0 is all ones, every other row sums to zero mod p.
    out = apply_fast(SPEC7, [1] * 8)
    assert out == [8 % 7, 0, 0, 0, 0, 0, 0, 0]


def test_dimension_mismatch_rejected():
    for fn in (apply_naive, apply_fast, apply_inverse, multiply_raw):
        with pytest.raises(DimensionMismatch):
            fn(SPEC7, [1, 2, 3])


@settings(max_examples=200)
@given(
    st.sampled_from([(8, 7), (8, 31), (16, 7), (16, 131071), (32, 127)]),
    st.data(),
)
def test_fast_equals_naive(config, data):
    n, p = config
    spec = HadamardSpec(n, p)
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    assert apply_fast(spec, v) == apply_naive(spec, v)


@settings(max_examples=200)
@given(
    st.sampled_from([(8, 7), (8, 31), (16, 7), (32, 8191)]),
    st.data(),
)
def test_inverse_round_trip(config, data):
    n, p = config
    spec = HadamardSpec(n, p)
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    assert apply_inverse(spec, apply_fast(spec, v)) == v
    assert apply_fast(spec, apply_inverse(spec, v)) == v


def test_double_application_scales_by_order():
    rng = random.Random(20260819)
    for n in (8, 64, 128):
        for p in (7, 2147483647):
            spec = HadamardSpec(n, p)
            v = [rng.randrange(p) for _ in range(n)]
            twice = apply_fast(spec, apply_fast(spec, v))
            assert twice == [(n % p) * a % p for a in v]


def test_self_check_brute_force():
    for n in (8, 16, 32):
        for p in SUPPORTED_P:
            assert self_check(HadamardSpec(n, p))


def test_inputs_may_exceed_modulus():
    # Callers hand in raw group values; reduction happens inside.
    out = apply_fast(SPEC7, [7, 14, 0, 0, 0, 0, 0, 0])
    assert out == apply_naive(SPEC7, [7, 14, 0, 0, 0, 0, 0, 0])
    assert out == apply_fast(SPEC7, [0, 0, 0, 0, 0, 0, 0, 0])


def pack(values, x):
    """MSB-first int holding one x-bit lane per value."""
    out = 0
    for value in values:
        out = out << x | value
    return out


def test_lane_engine_matches_block_kernels():
    # Every (x, n) pair: 1-4 blocks of lanes drawn from 0, 1, p - 1, p and
    # random values, then one block of all p and two alternating 0 and p,
    # whose sums and differences reach the kernel's bounds.  The forward pass
    # flags the lanes of its input that hold p; the inverse none.
    rng = random.Random(20261018)
    for x in SUPPORTED_EXPONENTS:
        p = (1 << x) - 1
        for n in SUPPORTED_ORDERS:
            spec = HadamardSpec(n, p)
            cases = [
                [rng.choice((0, 1, p - 1, p, rng.randrange(p + 1))) for _ in range(blocks * n)]
                for blocks in (1, 2, 3, 4)
            ]
            cases += [[p] * n, [0, p] * n]
            for values in cases:
                blocks, count = len(values) // n, len(values)
                v = pack(values, x)
                full = pack([int(a == p) for a in values], x)
                for inverse, kernel, flags in ((False, apply_fast, full),
                                               (True, apply_inverse, 0)):
                    want = [
                        out
                        for start in range(0, count, n)
                        for out in kernel(spec, values[start:start + n])
                    ]
                    assert apply_lanes(v, x, n, count, inverse) == (pack(want, x), flags), (
                        x, n, blocks, inverse,
                    )


def test_one_kernel_call_holds_at_most_twelve_times_its_piece():
    # e and o are dropped once w is formed, and each stage rebinds w to its
    # upper slots, so a call's transient, the result included, stays below
    # 12 times the piece's bytes: measured 10.7, and 11.8 forward where the
    # flags of x = 3 are found; 15-16.1 while e, o and the stage's w lived.
    # The first call of each fills the mask cache untraced.
    rng = random.Random(2432)
    for x, n, count in ((13, 128, 2432), (3, 8, 9920)):
        v = rng.getrandbits(count * x)
        for inverse in (False, True):
            apply_lanes(v, x, n, count, inverse)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = apply_lanes(v, x, n, count, inverse)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert out[0] >> count * x == 0
            assert peak <= 12 * count * x / 8, (x, n, inverse, peak / (count * x / 8))


def test_sliced_levels_match_block_kernels():
    # Levels of 1, 2 and 3 slices, each one block short or over, so blocks
    # sit on both sides of every slice cut.  Each block is one of 16 drawn
    # blocks, so the per-block kernels run 16 times per (x, n).
    rng = random.Random(SLICE_BITS)
    for x in SUPPORTED_EXPONENTS:
        p = (1 << x) - 1
        for n in SUPPORTED_ORDERS:
            spec, width = HadamardSpec(n, p), n * x // 8
            pool = [[rng.choice((0, p, rng.randrange(p + 1))) for _ in range(n)] for _ in range(16)]
            tables = [
                [pack(kernel(block), x).to_bytes(width, "big") for block in pool]
                for kernel in (
                    lambda block: block,
                    lambda block: apply_fast(spec, block),
                    lambda block: apply_inverse(spec, block),
                    lambda block: [int(a == p) for a in block],
                )
            ]
            step = full_slice_lanes(x) // n  # blocks per slice
            for blocks in (k * step + d for k in (1, 2, 3) for d in (-1, 0, 1)):
                order = [rng.randrange(16) for _ in range(blocks)]
                v, forward, inverse, full = (
                    int.from_bytes(b"".join(table[i] for i in order), "big") for table in tables
                )
                count = blocks * n
                assert apply_lanes(v, x, n, count, False) == (forward, full), (x, n, blocks)
                assert apply_lanes(v, x, n, count, True) == (inverse, 0), (x, n, blocks)


def full_slice_lanes(x):
    """Lanes in one whole slice of ``lane_slices``: the second slice of a long level."""
    _, (_, lanes, _) = islice(lane_slices(x, 128 * SLICE_BITS), 2)
    return lanes


def _slice_counts(x, count):
    """Lane counts of the pieces a level of ``count`` lanes runs as."""
    if count * x <= SLICE_BITS:
        return {count}
    return {lanes for _, lanes, _ in lane_slices(x, count)}


def lazy_plan(x, n):
    """(k * p, fold first) of each butterfly stage, rebuilt from the bound recursion.

    Lanes of at most p enter; a stage adds k * p with k = ceil(bound / p),
    and a fold, run first only where the stage would reach 2^(2x), leaves
    at most 2p.
    """
    p, width = (1 << x) - 1, 1 << 2 * x
    plan, bound = [], p
    for _ in range(n.bit_length() - 1):
        kp = -(-bound // p) * p
        fold = bound + kp >= width
        if fold:
            bound, kp = 2 * p, 2 * p
        plan.append((kp, fold))
        bound += kp
    return plan


def test_lazy_plan_keeps_every_slot_below_its_width():
    # The kernel's plan is the recursion's after stage 0, which the entry
    # runs as o + p - e, and along it no difference goes negative (each
    # k * p covers the bound) and no slot carries into the next (every
    # bound stays below 2^(2x)).  The last bound stays below 2^(2x) - 1, so
    # the one fold after the last stage leaves at most 2p - 1; the
    # inverse's shift of that by r stays below 2^(2x) - 1 too, so its
    # second fold also leaves at most 2p - 1.
    for x in SUPPORTED_EXPONENTS:
        p, width = (1 << x) - 1, 1 << 2 * x
        for n in SUPPORTED_ORDERS:
            _, _, _, _, stages = hadamard._lane_masks(x, n, n)
            plan = lazy_plan(x, n)
            assert plan[0] == (p, False)  # stage 0 meets lanes of at most p
            assert [(add & width - 1, fold) for _, add, _, fold in stages] == plan[1:], (x, n)
            bound = p
            for s, (kp, fold) in enumerate(plan):
                if fold:
                    bound = 2 * p
                assert kp % p == 0 and kp >= bound, (x, n, s)
                bound += kp
                assert bound < width, (x, n, s)
            assert bound <= width - 2, (x, n)
            r = -(n.bit_length() - 1) % x
            assert (2 * p - 1) << r < width - 1, (x, n)


def test_bitwise_joins_are_exact():
    # apply_lanes joins with | and ^ where + and - could carry or borrow.
    # Entry: e lies in each slot's p, so p - e is p ^ e, and the low half's
    # o + (p ^ e) stays below 2^(2x), so it never reaches the high half.
    # Stage: hi has cleared the selected lower slots and add sits only in
    # them, so hi + add is hi | add; lo << shift fills only unselected
    # slots and hi >> shift only selected ones, so their sum is an |.
    for x in SUPPORTED_EXPONENTS:
        p, width = (1 << x) - 1, 1 << 2 * x
        for e in (0, 1, p - 1, p):
            assert p - e == p ^ e, (x, e)
        for e in (0, p):
            for o in (0, p):
                assert o + (p ^ e) <= 2 * p < width, (x, e, o)
        for n in SUPPORTED_ORDERS:
            everything = (1 << 2 * n * x) - 1
            _, _, _, _, stages = hadamard._lane_masks(x, n, n)
            for s, (sel, add, shift, _) in enumerate(stages, 1):
                assert add & ~sel == 0, (x, n, s)
                assert sel << shift & (everything ^ sel) >> shift == 0, (x, n, s)
                assert sel << shift | (everything ^ sel) >> shift == everything, (x, n, s)


def test_one_add_makes_a_folded_lane_canonical():
    # After the last fold a lane t lies in 0..2p - 1; t + 1 reaches bit x
    # iff t >= p, and adding that bit then keeping the low x bits is t mod p.
    for x in SUPPORTED_EXPONENTS:
        p = (1 << x) - 1
        ts = range(2 * p) if x <= 13 else (0, p - 1, p, p + 1, 2 * p - 2, 2 * p - 1)
        for t in ts:
            assert (t + ((t + 1) >> x & 1)) & p == t % p, (x, t)


def test_memoized_masks_match_rebuilt_ones_and_stay_bounded():
    # Lane counts 0..4096 in steps of n, and counts around one and two slices,
    # which cross SLICE_BITS.  Every cached entry is one level or slice of at
    # most SLICE_BITS bits, never a whole level.
    cache, repeat = hadamard._lane_masks, hadamard._repeat
    rng = random.Random(2014)
    largest = 0
    for x in SUPPORTED_EXPONENTS:
        p, slot = (1 << x) - 1, 2 * x
        for n in SUPPORTED_ORDERS:
            step, plan = full_slice_lanes(x), lazy_plan(x, n)
            for count in (*range(0, 4097, n), step - n, step, step + n, 2 * step + n):
                v = rng.getrandbits(count * x)
                cache.cache_clear()
                cold = [apply_lanes(v, x, n, count, False), apply_lanes(v, x, n, count, True)]
                warm = [apply_lanes(v, x, n, count, False), apply_lanes(v, x, n, count, True)]
                assert cold == warm, (x, n, count)
                held = {(x, n, c) for c in _slice_counts(x, count)}
                # Exactly these entries: looking each one up again is a hit.
                assert cache.cache_info().currsize == len(held), (x, n, count)
                hits = cache.cache_info().hits
                entries = {key: cache(*key) for key in held}
                assert cache.cache_info().hits == hits + len(held)
                for (_, _, c), (unit, low, pm, ones, stages) in entries.items():
                    assert unit == repeat(1, slot, c // 2)
                    assert low == repeat(p, slot, c // 2)
                    assert pm == repeat(p, slot, c)
                    assert ones == repeat(1, slot, c)
                    # Stage 0 runs at the entry and has no plan; stage g's
                    # masks cover g whole lower slots of every 2g, and the
                    # addend holds k * p in each.
                    assert stages == tuple(
                        (
                            repeat(repeat((1 << slot) - 1, slot, g), 2 * g * slot, c // (2 * g)),
                            repeat(repeat(kp, slot, g), 2 * g * slot, c // (2 * g)),
                            g * slot,
                            fold,
                        )
                        for g, (kp, fold) in zip((1 << i for i in range(7)), plan[1:])
                    ), (x, n, c)
                    held_masks = (unit, low, pm, ones, *(m for stage in stages for m in stage[:2]))
                    masks = {id(m): m for m in held_masks}
                    largest = max(largest, sum(m.bit_length() for m in masks.values()))
    # Whatever the input sizes, the cache retains at most 64 * 30 * 2^15 bits
    # (7.5 MiB), within the 17 * 2^22 bits (8.5 MiB) it held before.
    assert cache.cache_info().maxsize == 64
    assert largest <= 30 * SLICE_BITS
    assert cache.cache_info().maxsize * largest <= 17 * 2**22
