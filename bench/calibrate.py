"""A fixed reference loop that turns CPU time into calibrated seconds.

On a shared host, other tenants slow the CPU itself, not just the
scheduler: thread CPU time of the same op moves by up to 1.8x over
stretches from seconds to minutes, with no steal time reported.  Two kinds
of slowdown show up, one that hits interpreter-bound loops and one that
hits work on data larger than the L2 cache; the codec suffers both.  The
reference run below is frozen and independent of the library: about two
thirds of it imitate one cipher level (bit string -> groups -> 8-point
butterflies mod 31 -> bit string), and one third sums a strided slice of a
9 MB list, so it slows by about the same factor as the codec.  The
benchmark times it next to every op and reports

    calibrated seconds = op CPU seconds * REF_S / reference CPU seconds

that is, the op's time on a host where one reference run takes REF_S
(1 ms; on the 2-vCPU Intel Xeon VM with Python 3.11 where the benchmark
was written, a quiet reference run took about 0.92 ms).  Never change
the reference run or REF_S: every figure before and after depends on them.
"""

import random
from time import thread_time

REF_S = 1e-3  # CPU seconds of one reference run on the nominal host
_X, _P, _N = 5, 31, 8
_BITS = format(random.Random(7).getrandbits(4000), "04000b")
_WORDS = list(range(1 << 18))


def _reference_run() -> int:
    groups = [int(_BITS[i:i + _X], 2) for i in range(0, len(_BITS) - _X + 1, _X)]
    groups += [0] * (-len(groups) % _N)
    out: list[int] = []
    for start in range(0, len(groups), _N):
        v = groups[start:start + _N]
        h = 1
        while h < _N:
            for i in range(0, _N, 2 * h):
                for j in range(i, i + h):
                    a, b = v[j], v[j + h]
                    v[j], v[j + h] = (a + b) % _P, (a - b) % _P
            h *= 2
        out.extend(v)
    return len("".join(format(g, "05b") for g in out)) + sum(_WORDS[::14])


def reference_s(runs: int = 2) -> float:
    """Thread CPU seconds of one reference run: the best of ``runs`` back-to-back runs."""
    best = float("inf")
    for _ in range(runs):
        t0 = thread_time()
        _reference_run()
        best = min(best, thread_time() - t0)
    return best


def scale(ref_before: float, ref_after: float) -> float:
    """Factor from CPU seconds to calibrated seconds for work between two reference runs."""
    return REF_S / ((ref_before + ref_after) / 2)
