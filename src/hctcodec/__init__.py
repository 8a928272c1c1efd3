"""Chained Hadamard-transform codec over Mersenne-prime moduli.

Multi-level block cipher and keyed digest built from generalized Sylvester
Hadamard matrices acting over Z_(2^x - 1), with a self-contained ciphertext
envelope (magic HCT1) carrying the per-level metadata that makes decryption
lossless.  Educational construction; the scheme is linear and offers no
real cryptographic security.
"""

from .analysis import (
    DiffReport,
    avalanche_experiment,
    degenerate_check,
    difference_series,
    write_csv,
)
from .bitcodec import (
    BitSeq,
    GroupedSeq,
    SentinelSet,
    detect_sentinels,
    pad_and_group,
    restore_sentinels,
    truncate,
    ungroup,
)
from .cipher import (
    ENVELOPE_MAGIC,
    ENVELOPE_VERSION,
    CipherEnvelope,
    DecryptAnomalies,
    KeySchedule,
    LevelRecord,
    decrypt,
    decrypt_tolerant,
    encrypt,
    hash_digest,
)
from .hadamard import (
    SUPPORTED_ORDERS,
    HadamardSpec,
    apply_fast,
    apply_inverse,
    apply_naive,
    build_matrix,
    multiply_raw,
    self_check,
)
from .modmath import (
    SUPPORTED_EXPONENTS,
    ModulusParams,
    mod_inverse,
    validate_key_element,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "BitSeq",
    "CipherEnvelope",
    "DecryptAnomalies",
    "DiffReport",
    "ENVELOPE_MAGIC",
    "ENVELOPE_VERSION",
    "GroupedSeq",
    "HadamardSpec",
    "KeySchedule",
    "LevelRecord",
    "ModulusParams",
    "SUPPORTED_EXPONENTS",
    "SUPPORTED_ORDERS",
    "SentinelSet",
    "apply_fast",
    "apply_inverse",
    "apply_naive",
    "avalanche_experiment",
    "build_matrix",
    "decrypt",
    "decrypt_tolerant",
    "degenerate_check",
    "detect_sentinels",
    "difference_series",
    "encrypt",
    "errors",
    "hash_digest",
    "mod_inverse",
    "multiply_raw",
    "pad_and_group",
    "restore_sentinels",
    "self_check",
    "truncate",
    "ungroup",
    "validate_key_element",
    "write_csv",
]
