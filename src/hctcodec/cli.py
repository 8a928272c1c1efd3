"""Command-line front end: encrypt, decrypt, hash, analyze, matrix, bench."""

import argparse
import random
import sys
import time
from pathlib import Path

from .analysis import avalanche_experiment, degenerate_check, difference_series, write_csv
from .bitcodec import BitSeq
from .cipher import CipherEnvelope, KeySchedule, decrypt, encrypt, hash_digest
from .errors import CodecError
from .hadamard import HadamardSpec, apply_fast, apply_naive, build_matrix
from .modmath import validate_key_element


def _parse_key(text: str) -> KeySchedule:
    try:
        exponents = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"key {text!r} is not a comma-separated integer list")
    return KeySchedule.from_exponents(exponents)


def _read_bits(args) -> BitSeq:
    if args.text is not None:
        return BitSeq(args.text)
    return BitSeq.from_bytes(Path(args.infile).read_bytes())


def _add_input_flags(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--text", help="input as an ASCII '0'/'1' string")
    src.add_argument("--in", dest="infile", help="input file (bytes, MSB-first)")


def _add_key_flags(parser):
    parser.add_argument("--key", required=True,
                        help="comma-separated exponent list, e.g. 3,5")
    parser.add_argument("--block-size", dest="block_size", type=int, default=8,
                        help="transform block order (default 8)")


def _cmd_encrypt(args) -> int:
    key = _parse_key(args.key)
    bits = _read_bits(args)
    envelope = encrypt(bits, key, args.block_size)
    if args.out:
        Path(args.out).write_bytes(envelope.to_bytes())
    elif args.text is None:
        raise ValueError("file input requires --out for the envelope")
    if args.text is not None:
        print(envelope.payload.bits)
    else:
        print(f"wrote envelope {args.out}: payload {len(envelope.payload)} bits, "
              f"{len(envelope.levels)} levels")
    return 0


def _cmd_decrypt(args) -> int:
    key = _parse_key(args.key)
    envelope = CipherEnvelope.from_bytes(Path(args.infile).read_bytes())
    bits = decrypt(envelope, key)
    if args.out:
        if len(bits) % 8:
            raise ValueError(
                f"recovered {len(bits)} bits is not a whole number of bytes; "
                "omit --out to print the bit string"
            )
        Path(args.out).write_bytes(bits.to_bytes())
        print(f"wrote {len(bits) // 8} bytes to {args.out}")
    else:
        print(bits.bits)
    return 0


def _cmd_hash(args) -> int:
    key = _parse_key(args.key)
    bits = _read_bits(args)
    digest = hash_digest(bits, key, args.block_size, args.digest_bits)
    print(f"bits: {digest.bits}")
    print(f"hex: {digest.to_bytes().hex()}")
    return 0


def _cmd_analyze(args) -> int:
    key = _parse_key(args.key)
    bits = _read_bits(args)
    warning = degenerate_check(bits)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    if args.flip is not None:
        report = avalanche_experiment(bits, key, args.block_size, args.flip)
        label = f"single-flip avalanche (payload bit {args.flip})"
    else:
        report = difference_series(bits, encrypt(bits, key, args.block_size).payload)
        label = "plaintext vs ciphertext payload"
    if args.emit_csv:
        with open(args.emit_csv, "w") as stream:
            write_csv(bits, report, stream)
        print(f"wrote {args.emit_csv}")
    else:
        write_csv(bits, report, sys.stdout)
    print(f"# {label}: hamming={report.hamming} of {report.common} common bits "
          f"(fraction {report.fraction:.4f}), length_delta={report.length_delta}, "
          f"sentinel_conflicts={report.sentinel_conflicts}")
    return 0


def _cmd_matrix(args) -> int:
    params = validate_key_element(args.exponent)
    spec = HadamardSpec(args.order, params.p)
    for row in build_matrix(spec):
        print(" ".join(str(v) for v in row))
    return 0


def run_bench(spec: HadamardSpec, trials: int, seed: int = 0) -> tuple[float, float]:
    """Time the naive and fast kernels over the same random vectors."""
    rng = random.Random(seed)
    vectors = [[rng.randrange(spec.p) for _ in range(spec.n)] for _ in range(trials)]
    apply_naive(spec, [0] * spec.n)  # warm the cached rows out of the timed region
    start = time.perf_counter()
    for v in vectors:
        apply_naive(spec, v)
    naive_s = time.perf_counter() - start
    start = time.perf_counter()
    for v in vectors:
        apply_fast(spec, v)
    fast_s = time.perf_counter() - start
    return naive_s, fast_s


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    params = validate_key_element(args.exponent)
    spec = HadamardSpec(args.order, params.p)
    naive_s, fast_s = run_bench(spec, args.trials)
    print(f"order={spec.n} modulus={spec.p} trials={args.trials}")
    print(f"naive: {naive_s:.6f} s ({naive_s / args.trials * 1e3:.3f} ms/op)")
    print(f"fast:  {fast_s:.6f} s ({fast_s / args.trials * 1e3:.3f} ms/op)")
    print(f"speedup: {naive_s / fast_s:.1f}x" if fast_s else "speedup: inf")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hctcodec",
        description="Chained Hadamard-transform codec over Mersenne-prime moduli",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encrypt", help="encrypt text bits or a file into an envelope")
    _add_key_flags(p)
    _add_input_flags(p)
    p.add_argument("--out", help="envelope output path")
    p.set_defaults(func=_cmd_encrypt)

    p = sub.add_parser("decrypt", help="decrypt an envelope file")
    p.add_argument("--key", required=True, help="comma-separated exponent list, e.g. 3,5")
    p.add_argument("--in", dest="infile", required=True, help="envelope file to read")
    p.add_argument("--out", help="recovered bytes output path (default: print bits)")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("hash", help="keyed digest of text bits or a file")
    _add_key_flags(p)
    _add_input_flags(p)
    p.add_argument("--digest-bits", dest="digest_bits", type=int, required=True,
                   help="digest length in bits")
    p.set_defaults(func=_cmd_hash)

    p = sub.add_parser("analyze", help="difference series and avalanche experiment")
    _add_key_flags(p)
    _add_input_flags(p)
    p.add_argument("--flip", type=int, default=None,
                   help="payload bit to flip; omit to compare plaintext vs ciphertext")
    p.add_argument("--emit-csv", dest="emit_csv", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("matrix", help="print the mod-(2^x - 1) transform matrix")
    p.add_argument("--exponent", type=int, required=True, help="group width x")
    p.add_argument("--order", type=int, default=8, help="matrix order (default 8)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("bench", help="time the naive vs fast transform kernels")
    p.add_argument("--exponent", type=int, default=31, help="group width x (default 31)")
    p.add_argument("--order", type=int, default=128, help="transform order (default 128)")
    p.add_argument("--trials", type=int, default=100, help="vectors per kernel (default 100)")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CodecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
