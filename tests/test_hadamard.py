"""Transform kernels: construction, equivalence, inversion."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    full_lanes,
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
    # Every (x, n) pair, 1-4 blocks, lanes drawn from 0, p and random values.
    rng = random.Random(20261018)
    for x in SUPPORTED_EXPONENTS:
        p = (1 << x) - 1
        for n in SUPPORTED_ORDERS:
            spec = HadamardSpec(n, p)
            for blocks in (1, 2, 3, 4):
                count = blocks * n
                values = [rng.choice((0, p, rng.randrange(p + 1))) for _ in range(count)]
                v = pack(values, x)
                for inverse, kernel in ((False, apply_fast), (True, apply_inverse)):
                    want = [
                        out
                        for start in range(0, count, n)
                        for out in kernel(spec, values[start:start + n])
                    ]
                    assert apply_lanes(v, x, n, count, inverse) == pack(want, x), (
                        x, n, blocks, inverse,
                    )
                assert full_lanes(v, x, count) == pack([int(a == p) for a in values], x)
