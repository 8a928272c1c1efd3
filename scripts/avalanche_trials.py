#!/usr/bin/env python3
"""Measure diffusion over many random single-bit ciphertext corruptions.

Each trial encrypts a random message, flips one random payload bit, runs
the tolerant decrypt, and records the fractional difference between the
original and the recovered message.  Prints summary statistics and can
dump the per-trial numbers as CSV.
"""

import argparse
import random
import statistics
import sys

from hctcodec.analysis import avalanche_experiment
from hctcodec.bitcodec import BitSeq
from hctcodec.cipher import KeySchedule, encrypt
from hctcodec.errors import CodecError
from hctcodec.hadamard import check_order


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--bits", type=int, default=256, help="message length")
    parser.add_argument("--key", default="3,5", help="comma-separated exponents")
    parser.add_argument("--block-size", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--emit-csv", help="write per-trial rows to this path")
    args = parser.parse_args()
    if min(args.trials, args.bits) < 1:
        parser.error("--trials and --bits must be at least 1")

    try:
        key = KeySchedule.from_exponents(int(x) for x in args.key.split(","))
        check_order(args.block_size)
    except (ValueError, CodecError) as exc:
        parser.error(f"bad --key or --block-size: {exc}")
    rng = random.Random(args.seed)
    # The payload length depends only on the message length, key and block size.
    payload_len = len(encrypt(BitSeq("0" * args.bits), key, args.block_size).payload)

    rows = []
    for trial in range(args.trials):
        message = BitSeq("".join(rng.choice("01") for _ in range(args.bits)))
        flip = rng.randrange(payload_len)
        report = avalanche_experiment(message, key, args.block_size, flip)
        rows.append((trial, flip, report.hamming, report.common,
                     report.fraction, report.sentinel_conflicts))

    fractions = [r[4] for r in rows]
    conflicts = sum(r[5] for r in rows)
    print(f"trials={args.trials} message_bits={args.bits} key={args.key} "
          f"block={args.block_size}")
    print(f"fraction changed: mean {statistics.mean(fractions):.4f}, "
          f"min {min(fractions):.4f}, max {max(fractions):.4f}")
    print(f"sentinel conflicts across all trials: {conflicts}")

    if args.emit_csv:
        with open(args.emit_csv, "w") as stream:
            stream.write("trial,flip_index,hamming,common,fraction,sentinel_conflicts\n")
            for row in rows:
                stream.write(",".join(str(v) for v in row) + "\n")
        print(f"wrote {args.emit_csv}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
