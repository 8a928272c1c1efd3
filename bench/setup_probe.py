"""Set-up time in a fresh interpreter: import hctcodec, build the key, finish one warm-up op.

run.py starts this file with the interpreter running it, once per set-up
sample:

    python3 bench/setup_probe.py <kind> <exponents> <block order> <message> [<flip>]

<kind> is "bulk" (message is hex bytes, one file round trip) or "short"
(message is a bit string; hash_digest then avalanche_experiment flipping
payload bit <flip>).  Prints the seconds from before the import to the
end of the warm-up op, in process CPU time, then the CPU time of a
reference run (calibrate.py) made right after, for run.py to calibrate it.
"""

import sys
import time
from pathlib import Path


def main() -> int:
    kind, exponents, block_order, message = sys.argv[1:5]
    n = int(block_order)
    start = time.process_time()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import hctcodec
    import ops

    key = hctcodec.KeySchedule.from_exponents(int(x) for x in exponents.split(","))
    if kind == "bulk":
        data = bytes.fromhex(message)
        _, blob = ops.encrypt_file(data, key, n)
        ok = ops.decrypt_file(blob, key)[2] == data
    else:
        bits = hctcodec.BitSeq(message)
        ops.checksum(bits, key, n, 128)  # workloads.DIGEST_BITS, not imported so as not to time it
        ok = ops.avalanche(bits, key, n, int(sys.argv[5])).length_a == len(bits)
    elapsed = time.process_time() - start
    if not ok:
        print("warm-up op did not round-trip", file=sys.stderr)
        return 1
    import calibrate

    print(repr(elapsed), repr(calibrate.reference_s(runs=5)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
