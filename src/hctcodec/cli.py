"""Command-line front end: the codec commands and the trace, avalanche and
collisions experiments.

Every flag value passes an argparse ``type=`` converter that ``_flag`` builds
from the library's own checks: a bad value is a usage error (status 2) naming
the flag, and codec or I/O errors on the data exit with status 1.
"""

import argparse
import random
import statistics
import sys
import time
from pathlib import Path

from .analysis import avalanche_experiment, degenerate_check, difference_series, write_csv
from .bitcodec import BitSeq, pad_and_group
from .cipher import CipherEnvelope, KeySchedule, _plan, decrypt, encrypt, hash_digest
from .errors import CodecError
from .hadamard import HadamardSpec, apply_fast, apply_naive, build_matrix, check_order
from .modmath import validate_key_element

DEMO_BITS = "110010011101111110000011"


def _parse_key(text: str) -> KeySchedule:
    try:
        exponents = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"key {text!r} is not a comma-separated integer list")
    return KeySchedule.from_exponents(exponents)


def _parse_count(text: str) -> int:
    if int(text) < 1:
        raise ValueError(f"must be at least 1, got {text}")
    return int(text)


def _flag(check):
    """An argparse ``type=`` converter that runs ``check`` on the flag's text.

    A ValueError or CodecError becomes a usage error that keeps the
    exception's name and text; argparse prefixes the flag's name.
    """
    def convert(text: str):
        try:
            return check(text)
        except (ValueError, CodecError) as exc:
            raise argparse.ArgumentTypeError(f"{type(exc).__name__}: {exc}") from None
    return convert


_KEY = _flag(_parse_key)
_ORDER = _flag(lambda text: check_order(int(text)))
_EXPONENT = _flag(lambda text: validate_key_element(int(text)))
_COUNT = _flag(_parse_count)
_WIDTHS = _flag(lambda text: [_parse_count(width) for width in text.split(",")])
_BITS = _flag(BitSeq)


def _key_text(key: KeySchedule) -> str:
    return ",".join(str(params.x) for params in key.elements)


def _read_bits(args) -> BitSeq:
    if args.text is not None:
        return args.text
    return BitSeq.from_bytes(Path(args.infile).read_bytes())


def _add_input_flags(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--text", type=_BITS, help="input as an ASCII '0'/'1' string")
    src.add_argument("--in", dest="infile", help="input file (bytes, MSB-first)")


def _add_key_flags(parser, default=None, block_size=True):
    parser.add_argument("--key", type=_KEY, default=default, required=default is None,
                        help="comma-separated exponent list, e.g. 3,5")
    if block_size:
        parser.add_argument("--block-size", dest="block_size", type=_ORDER, default=8,
                            help="transform block order (default 8)")


def _cmd_encrypt(args) -> int:
    if args.text is None and not args.out:
        args.usage_error("--in FILE requires --out for the envelope")
    envelope = encrypt(_read_bits(args), args.key, args.block_size)
    if args.out:
        Path(args.out).write_bytes(envelope.to_bytes())
    if args.text is not None:
        print(envelope.payload.bits)
    else:
        print(f"wrote envelope {args.out}: payload {len(envelope.payload)} bits, "
              f"{len(envelope.levels)} levels")
    return 0


def _cmd_decrypt(args) -> int:
    envelope = CipherEnvelope.from_bytes(Path(args.infile).read_bytes())
    bits = decrypt(envelope, args.key)
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
    digest = hash_digest(_read_bits(args), args.key, args.block_size, args.digest_bits)
    print(f"bits: {digest.bits}")
    print(f"hex: {digest.to_bytes().hex()}")
    return 0


def _cmd_analyze(args) -> int:
    bits = _read_bits(args)
    warning = degenerate_check(bits)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    if args.flip is not None:
        report = avalanche_experiment(bits, args.key, args.block_size, args.flip)
        label = f"single-flip avalanche (payload bit {args.flip})"
    else:
        report = difference_series(bits, encrypt(bits, args.key, args.block_size).payload)
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
    for row in build_matrix(HadamardSpec(args.order, args.exponent.p)):
        print(" ".join(str(v) for v in row))
    return 0


def run_bench(spec: HadamardSpec, trials: int, seed: int = 0) -> tuple[float, float]:
    """Time the naive and fast kernels over the same random vectors."""
    rng = random.Random(seed)
    vectors = [[rng.randrange(spec.p) for _ in range(spec.n)] for _ in range(trials)]
    apply_naive(spec, [0] * spec.n)  # warm the cached rows out of the timed region
    times = []
    for kernel in (apply_naive, apply_fast):
        start = time.perf_counter()
        for v in vectors:
            kernel(spec, v)
        times.append(time.perf_counter() - start)
    return times[0], times[1]


def _cmd_bench(args) -> int:
    spec = HadamardSpec(args.order, args.exponent.p)
    naive_s, fast_s = run_bench(spec, args.trials)
    print(f"order={spec.n} modulus={spec.p} trials={args.trials}")
    print(f"naive: {naive_s:.6f} s ({naive_s / args.trials * 1e3:.3f} ms/op)")
    print(f"fast:  {fast_s:.6f} s ({fast_s / args.trials * 1e3:.3f} ms/op)")
    print(f"speedup: {naive_s / fast_s:.1f}x" if fast_s else "speedup: inf")
    return 0


def _trace_encrypt(bits: BitSeq, key: KeySchedule, envelope: CipherEnvelope) -> None:
    """Run each level as a one-exponent encrypt of the previous payload."""
    n = envelope.block_order
    print(f"plaintext ({len(bits)} bits): {bits.bits}")
    current, records = bits, []
    for depth, params in enumerate(key.elements, 1):
        step = encrypt(current, KeySchedule((params,)), n)
        records.extend(step.levels)
        print(f"\nlevel {depth}: x={params.x}, modulus {params.p}")
        print(f"  groups     {list(pad_and_group(current, params.x, n).values)}")
        print(f"  sentinels  {list(step.levels[0].sentinels)}")
        print(f"  transformed{list(pad_and_group(step.payload, params.x, n).values)}")
        print(f"  bits out   {step.payload.bits}")
        current = step.payload
    assert envelope.levels == tuple(records) and envelope.payload == current


def _trace_decrypt(envelope: CipherEnvelope, key: KeySchedule) -> BitSeq:
    """Undo each level as a one-exponent decrypt of a one-level envelope."""
    n = envelope.block_order
    current = envelope.payload
    for depth, (params, record) in enumerate(
        zip(reversed(key.elements), reversed(envelope.levels)), 1
    ):
        one_level = CipherEnvelope(envelope.version, n, (record,), current)
        current = decrypt(one_level, KeySchedule((params,)))
        # The output only lost zero padding, which pad_and_group puts back;
        # restoration only turned the recorded sentinel lanes from 0 into p.
        restored = list(pad_and_group(current, params.x, n).values)
        sentinels = set(record.sentinels)
        recovered = [0 if i in sentinels else v for i, v in enumerate(restored)]
        print(f"\nundo level {len(key) - depth + 1}: x={params.x}, modulus {params.p}")
        print(f"  recovered  {recovered}")
        print(f"  restored   {restored}")
        print(f"  bits out   {current.bits} ({record.orig_bit_len} kept)")
    return current


def _cmd_trace(args) -> int:
    bits, key = args.text, args.key
    envelope = encrypt(bits, key, args.block_size)
    blob = envelope.to_bytes()  # HCT1 holds at most 255 levels
    _trace_encrypt(bits, key, envelope)
    print(f"\nenvelope ({len(blob)} bytes): {blob.hex()}")
    recovered = _trace_decrypt(envelope, key)
    print(f"\nround trip {'OK' if recovered == bits else 'MISMATCH'}: {recovered.bits}")
    assert decrypt(envelope, key) == recovered
    return 0 if recovered == bits else 1


def _cmd_avalanche(args) -> int:
    key, n = args.key, args.block_size
    rng = random.Random(args.seed)
    _, payload_len = _plan(key._exponents, n, args.bits)
    size = key.superblock_bits(n)
    rows, outside = [], 0
    for trial in range(args.trials):
        message = BitSeq.from_int(rng.getrandbits(args.bits), args.bits)
        flip = rng.randrange(payload_len)
        report = avalanche_experiment(message, key, n, flip)
        rows.append((trial, flip, report.hamming, report.common,
                     report.fraction, report.sentinel_conflicts))
        start = flip - flip % size  # payload bit i lies in plaintext superblock i // S
        end = min(start + size, report.common)
        inside = report.series.value >> report.common - end & (1 << end - start) - 1
        outside += report.hamming - inside.bit_count()

    fractions = [r[4] for r in rows]
    print(f"trials={args.trials} message_bits={args.bits} key={_key_text(key)} block={n}")
    print(f"superblock S={size} bits at block order {n}")
    print(f"fraction changed: mean {statistics.mean(fractions):.4f}, "
          f"min {min(fractions):.4f}, max {max(fractions):.4f}")
    print(f"differing bits outside the flipped bit's superblock: {outside}")
    print(f"sentinel conflicts across all trials: {sum(r[5] for r in rows)}")
    if args.emit_csv:
        with open(args.emit_csv, "w") as stream:
            stream.write("trial,flip_index,hamming,common,fraction,sentinel_conflicts\n")
            for row in rows:
                stream.write(",".join(str(v) for v in row) + "\n")
        print(f"wrote {args.emit_csv}", file=sys.stderr)
    return 0


def _cmd_collisions(args) -> int:
    rng = random.Random(args.seed)
    pairs = []
    for _ in range(args.pairs):
        a = BitSeq.from_int(rng.getrandbits(args.bits), args.bits)
        pairs.append((a, a.flip(rng.randrange(args.bits))))
    size = args.key.superblock_bits(8)
    print(f"pairs={args.pairs} message_bits={args.bits} key={_key_text(args.key)}")
    print(f"superblock S={size} bits at block order 8")
    # A digest is a zero-extended payload prefix, so narrower ones are shifts.
    widest = max(args.widths)
    digests = [[hash_digest(m, args.key, 8, widest).value for m in pair] for pair in pairs]
    flips = [args.bits - (a.value ^ b.value).bit_length() for a, b in pairs]
    for width in args.widths:
        prefix = -(-width // size) * size  # the bits a width-bit digest reads
        same = [a >> widest - width == b >> widest - width for a, b in digests]
        beyond = [hit for hit, flip in zip(same, flips) if flip >= prefix]
        collisions = sum(same)
        share = f" ({sum(beyond) / len(beyond):.1%})" if beyond else ""
        print(f"digest {width:4d} bits: {collisions:4d} collisions "
              f"({collisions / args.pairs:.1%}); flips inside the {prefix}-bit prefix: "
              f"{collisions - sum(beyond)} of {args.pairs - len(beyond)}, "
              f"beyond it: {sum(beyond)} of {len(beyond)}{share}")
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
    p.add_argument("--out", help="envelope output path (required with --in)")
    p.set_defaults(func=_cmd_encrypt, usage_error=p.error)

    p = sub.add_parser("decrypt", help="decrypt an envelope file")
    _add_key_flags(p, block_size=False)
    p.add_argument("--in", dest="infile", required=True, help="envelope file to read")
    p.add_argument("--out", help="recovered bytes output path (default: print bits)")
    p.set_defaults(func=_cmd_decrypt)

    p = sub.add_parser("hash", help="keyed digest of text bits or a file")
    _add_key_flags(p)
    _add_input_flags(p)
    p.add_argument("--digest-bits", dest="digest_bits", type=_COUNT, required=True,
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
    p.add_argument("--exponent", type=_EXPONENT, required=True, help="group width x")
    p.add_argument("--order", type=_ORDER, default=8, help="matrix order (default 8)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("bench", help="time the naive vs fast transform kernels")
    p.add_argument("--exponent", type=_EXPONENT, default="31",
                   help="group width x (default 31)")
    p.add_argument("--order", type=_ORDER, default=128, help="transform order (default 128)")
    p.add_argument("--trials", type=_COUNT, default=100, help="vectors per kernel (default 100)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("trace", help="print every intermediate of one round trip")
    _add_key_flags(p, default="3,5")
    p.add_argument("--text", type=_BITS, default=DEMO_BITS,
                   help="bit string to trace (default: the 24-bit demo message)")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("avalanche", help="diffusion of random single-bit payload flips")
    _add_key_flags(p, default="3,5")
    p.add_argument("--trials", type=_COUNT, default=100)
    p.add_argument("--bits", type=_COUNT, default=256, help="message length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-csv", dest="emit_csv", help="write per-trial rows to this path")
    p.set_defaults(func=_cmd_avalanche)

    p = sub.add_parser("collisions", help="digest collisions of inputs one bit apart")
    _add_key_flags(p, default="3,5", block_size=False)
    p.add_argument("--pairs", type=_COUNT, default=1000)
    p.add_argument("--bits", type=_COUNT, default=256, help="message length")
    p.add_argument("--widths", type=_WIDTHS, default="32,64,128,256",
                   help="comma-separated digest widths to test")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_collisions)

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
