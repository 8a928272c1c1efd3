"""The operations the benchmark times, written against hctcodec's public API.

Each function takes a ``span`` factory and wraps every library call in
``span("<layer>.<what>_s")``.  The timed pass passes ``no_span``; the
traced pass passes ``Tracer.span``, so both passes run the same calls.
The caller puts ``src`` on ``sys.path`` before importing this module.
"""

from contextlib import nullcontext

from hctcodec import (
    BitSeq,
    CipherEnvelope,
    avalanche_experiment,
    decrypt,
    encrypt,
    hash_digest,
)

_OFF = nullcontext()


def no_span(name):
    return _OFF


def per_block(kernel, spec, values) -> list[int]:
    """Apply a one-block kernel (``apply_naive``, ``apply_fast``, ...) to each block of n values."""
    out: list[int] = []
    for start in range(0, len(values), spec.n):
        out.extend(kernel(spec, values[start:start + spec.n]))
    return out


def encrypt_file(data: bytes, key, block_order: int, span=no_span):
    """Encrypt side of a file round trip; returns (envelope, serialized blob)."""
    with span("bitcodec.unpack_s"):
        bits = BitSeq.from_bytes(data)
    with span("cipher.encrypt_s"):
        envelope = encrypt(bits, key, block_order)
    with span("cipher.serialize_s"):
        blob = envelope.to_bytes()
    return envelope, blob


def decrypt_file(blob: bytes, key, span=no_span):
    """Decrypt side of a file round trip; returns (parsed envelope, bits, recovered bytes)."""
    with span("cipher.parse_s"):
        envelope = CipherEnvelope.from_bytes(blob)
    with span("cipher.decrypt_s"):
        bits = decrypt(envelope, key)
    with span("bitcodec.pack_s"):
        data = bits.to_bytes()
    return envelope, bits, data


def checksum(message: BitSeq, key, block_order: int, digest_bits: int, span=no_span):
    with span("cipher.hash_s"):
        return hash_digest(message, key, block_order, digest_bits)


def avalanche(message: BitSeq, key, block_order: int, flip: int, span=no_span):
    with span("analysis.avalanche_s"):
        return avalanche_experiment(message, key, block_order, flip)
