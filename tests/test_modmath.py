"""Key exponent table, key validation, modular inverses."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hctcodec.errors import InvalidKeyElement, NoInverse
from hctcodec.modmath import (
    SUPPORTED_EXPONENTS,
    ModulusParams,
    mod_inverse,
    validate_key_element,
)
from vectors import M11_FACTORS, M23_FACTORS, SUPPORTED_P, SUPPORTED_X


def trial_division(u: int) -> bool:
    """Independent oracle: the slow schoolbook primality test."""
    if u < 2:
        return False
    if u % 2 == 0:
        return u == 2
    f = 3
    while f * f <= u:
        if u % f == 0:
            return False
        f += 2
    return True


def test_table_is_every_exponent_with_prime_mersenne():
    derived = {x for x in range(2, 32) if trial_division(x) and trial_division(2**x - 1)}
    assert derived == set(SUPPORTED_EXPONENTS)
    for x in range(-64, 300):
        if x in derived:
            assert validate_key_element(x) == ModulusParams(x)
        else:
            with pytest.raises(InvalidKeyElement):
                validate_key_element(x)


def test_supported_exponents_all_validate():
    for x in SUPPORTED_EXPONENTS:
        params = validate_key_element(x)
        assert isinstance(params, ModulusParams)
        assert params.x == x
        assert params.p == 2**x - 1


def test_supported_table_matches_vectors():
    assert SUPPORTED_EXPONENTS == SUPPORTED_X
    assert tuple(2**x - 1 for x in SUPPORTED_EXPONENTS) == SUPPORTED_P


def test_rejects_composite_exponent():
    for x in (4, 6, 8, 9, 10, 12, 30):
        with pytest.raises(InvalidKeyElement):
            validate_key_element(x)


def test_rejects_prime_exponent_with_composite_mersenne():
    # 2^11-1 and 2^23-1 factor; the exponent being prime is not enough.
    a, b = M11_FACTORS
    assert a * b == 2**11 - 1
    c, d = M23_FACTORS
    assert c * d == 2**23 - 1
    with pytest.raises(InvalidKeyElement):
        validate_key_element(11)
    with pytest.raises(InvalidKeyElement):
        validate_key_element(23)
    with pytest.raises(InvalidKeyElement):
        validate_key_element(29)


def test_rejects_out_of_range():
    for x in (-5, 0, 1, 32, 37, 61, 1000):
        with pytest.raises(InvalidKeyElement):
            validate_key_element(x)


def test_rejects_non_integers():
    for bad in (3.0, "3", None, True, False):
        with pytest.raises(InvalidKeyElement):
            validate_key_element(bad)


def test_inverse_worked_values():
    assert mod_inverse(8, 31) == 4
    assert (8 * 4) % 31 == 1
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(2, 3) == 2


def test_inverse_reduces_argument_first():
    assert mod_inverse(8 + 31 * 5, 31) == 4
    assert mod_inverse(-23, 31) == 4  # -23 = 8 mod 31


def test_inverse_exhaustive_small_moduli():
    for p in (3, 7, 31, 127):
        for a in range(1, p):
            inv = mod_inverse(a, p)
            assert (a * inv) % p == 1
            assert inv == pow(a, -1, p)  # stdlib cross-check


def test_zero_has_no_inverse():
    for p in (3, 7, 31):
        with pytest.raises(NoInverse):
            mod_inverse(0, p)
        with pytest.raises(NoInverse):
            mod_inverse(p, p)
        with pytest.raises(NoInverse):
            mod_inverse(-p, p)


@given(st.integers(min_value=1, max_value=2**40), st.sampled_from(SUPPORTED_P))
def test_inverse_property(a, p):
    if a % p == 0:
        with pytest.raises(NoInverse):
            mod_inverse(a, p)
    else:
        assert (a * mod_inverse(a, p)) % p == 1
