#!/usr/bin/env python3
"""Walk a message through every level of the pipeline, printing intermediates.

The default run traces the 24-bit demo message under key 3,5 and shows the
decimated groups, sentinel positions, transformed blocks, and the recovery
of each on the way back.  Useful for eyeballing what the codec does to a
specific input.

Each level runs as a one-exponent encrypt of the previous level's payload,
and is undone as a one-exponent decrypt of a one-level envelope.
"""

import argparse

from hctcodec.bitcodec import BitSeq, pad_and_group
from hctcodec.cipher import CipherEnvelope, KeySchedule, decrypt, encrypt
from hctcodec.errors import CodecError

DEMO_BITS = "110010011101111110000011"


def trace_encrypt(bits: BitSeq, key: KeySchedule, envelope: CipherEnvelope) -> None:
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


def trace_decrypt(envelope: CipherEnvelope, key: KeySchedule) -> BitSeq:
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
        recovered = [0 if i in record.sentinels else v for i, v in enumerate(restored)]
        print(f"\nundo level {len(key) - depth + 1}: x={params.x}, modulus {params.p}")
        print(f"  recovered  {recovered}")
        print(f"  restored   {restored}")
        print(f"  bits out   {current.bits} ({record.orig_bit_len} kept)")
    return current


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--text", default=DEMO_BITS, help="bit string to trace")
    parser.add_argument("--key", default="3,5", help="comma-separated exponents")
    parser.add_argument("--block-size", type=int, default=8)
    args = parser.parse_args()

    try:
        key = KeySchedule.from_exponents(int(x) for x in args.key.split(","))
        bits = BitSeq(args.text)
        envelope = encrypt(bits, key, args.block_size)
        blob = envelope.to_bytes()  # HCT1 holds at most 255 levels
    except (ValueError, CodecError) as exc:
        parser.error(f"bad --key, --block-size or --text: {exc}")

    trace_encrypt(bits, key, envelope)
    print(f"\nenvelope ({len(blob)} bytes): {blob.hex()}")

    recovered = trace_decrypt(envelope, key)
    print(f"\nround trip {'OK' if recovered == bits else 'MISMATCH'}: {recovered.bits}")
    assert decrypt(envelope, key) == recovered
    return 0 if recovered == bits else 1


if __name__ == "__main__":
    raise SystemExit(main())
