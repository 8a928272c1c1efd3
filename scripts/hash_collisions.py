#!/usr/bin/env python3
"""Count digest collisions between inputs differing in exactly one bit.

Generates random message pairs that differ in a single random position,
hashes both at several digest widths, and reports how often the digests
collide.  The construction truncates the ciphertext, so flips that only
disturb payload bits past the digest width collide by design; this script
makes that weakness measurable.
"""

import argparse
import random

from hctcodec.bitcodec import BitSeq
from hctcodec.cipher import KeySchedule, hash_digest
from hctcodec.errors import CodecError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=1000)
    parser.add_argument("--bits", type=int, default=256, help="message length")
    parser.add_argument("--key", default="3,5", help="comma-separated exponents")
    parser.add_argument("--widths", default="32,64,128,256",
                        help="comma-separated digest widths to test")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        key = KeySchedule.from_exponents(int(x) for x in args.key.split(","))
        widths = [int(w) for w in args.widths.split(",")]
    except (ValueError, CodecError) as exc:
        parser.error(f"bad --key or --widths: {exc}")
    if min(args.pairs, args.bits, *widths) < 1:
        parser.error("--pairs, --bits and every --widths entry must be at least 1")
    rng = random.Random(args.seed)

    pairs = []
    for _ in range(args.pairs):
        a = BitSeq("".join(rng.choice("01") for _ in range(args.bits)))
        pairs.append((a, a.flip(rng.randrange(args.bits))))

    print(f"pairs={args.pairs} message_bits={args.bits} key={args.key}")
    # A digest is a zero-extended payload prefix, so narrower ones are shifts.
    widest = max(widths)
    digests = [[hash_digest(m, key, 8, widest).value for m in pair] for pair in pairs]
    for width in widths:
        collisions = sum(a >> widest - width == b >> widest - width for a, b in digests)
        print(f"digest {width:4d} bits: {collisions:4d} collisions "
              f"({collisions / args.pairs:.1%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
