"""Key exponent table and validation, and the modular inverse.

Every modulus used by the codec is a Mersenne prime p = 2^x - 1 with x itself
prime.  For x <= 31 those exponents are a fixed set of eight, so a key
element is validated by looking it up in that table.  Arithmetic stays in
plain Python integers, which are arbitrary precision, so no intermediate
product can overflow or lose exactness.
"""

from dataclasses import dataclass

from .errors import InvalidKeyElement, NoInverse

# Exponents x <= 31 with both x and 2^x - 1 prime.  31 keeps the largest
# modulus (2^31 - 1) comfortably inside exact machine-word range for callers
# that care, while Python itself has no width limit.
SUPPORTED_EXPONENTS = (2, 3, 5, 7, 13, 17, 19, 31)


@dataclass(frozen=True)
class ModulusParams:
    """A validated group width ``x`` and its Mersenne modulus ``p = 2^x - 1``."""

    x: int
    p: int

    def __post_init__(self):
        if self.p != (1 << self.x) - 1:
            raise ValueError(f"p={self.p} is not 2^{self.x} - 1")


def validate_key_element(x: int) -> ModulusParams:
    """Check one key exponent and return its modulus parameters.

    A usable exponent is an int in SUPPORTED_EXPONENTS: x prime, 2^x - 1
    prime, and 2 <= x <= 31.  Raises InvalidKeyElement otherwise.
    """
    # The type test comes first: 3.0 == 3, so a float would pass the lookup.
    if not isinstance(x, int) or isinstance(x, bool) or x not in SUPPORTED_EXPONENTS:
        raise InvalidKeyElement(
            f"key element {x!r} is not one of the supported exponents {SUPPORTED_EXPONENTS}"
        )
    return ModulusParams(x, (1 << x) - 1)


def mod_inverse(a: int, p: int) -> int:
    """Return b with (a * b) % p == 1 and 0 < b < p, for prime p.

    Computed by ``pow(a, -1, p)``.  Raises NoInverse when a is congruent to
    zero mod p.
    """
    try:
        return pow(a, -1, p)
    except ValueError:
        raise NoInverse(f"{a % p} has no multiplicative inverse mod {p}") from None
