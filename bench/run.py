#!/usr/bin/env python3
"""hctcodec benchmark: one caller in a closed loop on the package's public API.

    python3 bench/run.py --workload bulk_n8 --seed 1 --seconds 30 --trace 0

The package is imported from ``src`` next to this directory.  With
``--trace 0`` the run times the workload's op for ``--seconds`` (in thread
CPU time, calibrated by calibrate.py) and then, off the clock, measures
set-up time in fresh interpreters, the tracemalloc peak of one op and the
envelope size; it prints the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced ops for ``--seconds``,
replays every level out of public functions, and prints the per-layer
metrics.  Every output is checked; the last line of stdout is the JSON
result, and the exit code is 1 when any check failed.  See README.md.
"""

import argparse
import gc
import importlib.util
import json
import math
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter, thread_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import hctcodec
except ImportError as exc:
    sys.exit(f"run.py: cannot import hctcodec from {ROOT / 'src'}: {exc}")
from hctcodec import BitSeq, KeySchedule

import calibrate
import ops
import oracle
import tracing
from workloads import DIGEST_BITS, WORKLOADS, make_inputs, sampled_indices, warmup_message

SETUP_SAMPLES = 15  # fresh interpreters per run, after one that may compile bytecode
KEY_SETUPS = 200  # KeySchedule builds timed for modmath.key_setup_s
SHORT_SIZE_SET = 256  # short messages behind envelope_bytes_per_byte and the counts
MEMORY_SET = 32  # short messages behind peak_mem_per_byte
MAX_REPORTED_FAILURES = 5

END_TO_END = (
    ("encrypt_kBps", "kB/s"),
    ("decrypt_kBps", "kB/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_mem_per_byte", "B/B"),
    ("envelope_bytes_per_byte", "B/B"),
    ("setup_s", "s"),
)


class Failures:
    """Failed ops (``count``) and failed checks outside ops; prints the first few reasons."""

    def __init__(self):
        self.count = 0
        self.other = 0

    def add(self, op: int, reason: str) -> None:
        self.count += 1
        self._report(f"op {op}", reason)

    def add_other(self, what: str, reason: str) -> None:
        self.other += 1
        self._report(what, reason)

    def _report(self, what: str, reason: str) -> None:
        if self.count + self.other <= MAX_REPORTED_FAILURES:
            print(f"{what} failed: {reason}", file=sys.stderr)


def plaintext(wl, item) -> BitSeq:
    return BitSeq.from_bytes(item) if wl.kind == "bulk" else item.bits


def plain_bytes(wl, item) -> float:
    return len(item) if wl.kind == "bulk" else len(item.bits) / 8


def run_op(wl, key, item, span=ops.no_span, between=None):
    """One op; returns (encrypt-side seconds, decrypt-side seconds, outputs).

    Bulk: the file round trip, split after serialization.  Short: the
    hash_digest call counts as the encrypt side and avalanche_experiment
    (encrypt, flip, tolerant decrypt, diff) as the decrypt side.  Both sides
    are timed in thread CPU time; ``between`` runs between them, off the clock.
    """
    n = wl.block_order
    if wl.kind == "bulk":
        t0 = thread_time()
        envelope, blob = ops.encrypt_file(item, key, n, span)
        t1 = thread_time()
        if between:
            between()
        t2 = thread_time()
        parsed, bits, data = ops.decrypt_file(blob, key, span)
        t3 = thread_time()
        return t1 - t0, t3 - t2, (envelope, parsed, bits, data)
    t0 = thread_time()
    digest = ops.checksum(item.bits, key, n, DIGEST_BITS, span)
    t1 = thread_time()
    if between:
        between()
    t2 = thread_time()
    report = ops.avalanche(item.bits, key, n, item.flip, span)
    t3 = thread_time()
    return t1 - t0, t3 - t2, (digest, report)


def op_problem(wl, item, outputs) -> str | None:
    if wl.kind == "bulk" and outputs[3] != item:
        return "round trip did not return the input bytes"
    return None


def digest_of(payload: BitSeq) -> str:
    """What hash_digest documents: the payload's first DIGEST_BITS bits, zero-extended."""
    return payload.bits[:DIGEST_BITS].ljust(DIGEST_BITS, "0")


def oracle_problem(wl, key, item, outputs) -> str | None:
    """Compare a sampled op's outputs with the naive-kernel oracle."""
    n = wl.block_order
    records, payload = oracle.encrypt(plaintext(wl, item), key, n)
    if wl.kind == "bulk":
        parsed = outputs[1]
        got = [(r.x, r.orig_bit_len, r.sentinels.indices) for r in parsed.levels]
        if got != records or parsed.payload != payload:
            return "envelope differs from the naive-kernel oracle"
        return None
    digest, report = outputs
    if digest.bits != digest_of(payload):
        return "hash_digest differs from the oracle payload prefix"
    if report != oracle.avalanche(item.bits, key, n, item.flip):
        return "avalanche report differs from the oracle inverse"
    return None


def check_sampled(wl, key, pool, kept: dict, failures: Failures) -> None:
    for index, outputs in kept.items():
        problem = oracle_problem(wl, key, pool[index], outputs)
        if problem:
            failures.add(index, problem)


def worked_example_problem() -> str | None:
    """The 24-bit worked example must serialize to ENVELOPE_HEX in tests/vectors.py."""
    spec = importlib.util.spec_from_file_location("vectors", ROOT / "tests" / "vectors.py")
    vectors = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(vectors)
    key = KeySchedule.from_exponents((3, 5))
    blob = hctcodec.encrypt(BitSeq(vectors.PLAIN_BITS), key, 8).to_bytes()
    if blob.hex() != vectors.ENVELOPE_HEX:
        return "worked example does not serialize to ENVELOPE_HEX"
    return None


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


# ---------------------------------------------------------------- trace 0


def timed_pass(wl, key, pool, seconds, sample, failures, interlude, interludes: int):
    """Closed loop for ``seconds``; returns {pool index: [(encrypt s, decrypt s)]}, raw op CPU
    seconds and attempts.

    Each side's CPU time is calibrated (calibrate.py) by the reference runs
    just before and after it.  ``interlude`` runs ``interludes`` times
    between ops, spread evenly over the run and off the clock.
    """
    times, kept, raw = defaultdict(list), {}, []
    attempted = 0
    min_ops = max(len(pool), max(sample) + 1)  # every input, and every sampled one, at least once
    start = perf_counter()
    due = [start + (i + 0.5) * seconds / interludes for i in range(interludes)]
    refs = [calibrate.reference_s()]  # reference runs before, between and after each op's sides

    def ref_between():
        refs.append(calibrate.reference_s())

    while attempted < min_ops or perf_counter() < start + seconds:
        if due and perf_counter() >= due[0]:
            due.pop(0)
            interlude()
            refs = [calibrate.reference_s()]
        index = attempted % len(pool)
        item = pool[index]
        try:
            enc_s, dec_s, outputs = run_op(wl, key, item, between=ref_between)
        except Exception:
            failures.add(attempted, traceback.format_exc())
            refs = [calibrate.reference_s()]
        else:
            refs.append(calibrate.reference_s())
            raw_s = enc_s + dec_s
            enc_s *= calibrate.scale(refs[0], refs[1])
            dec_s *= calibrate.scale(refs[1], refs[2])
            refs = refs[2:]
            problem = op_problem(wl, item, outputs)
            if problem:
                failures.add(attempted, problem)
            else:
                times[index].append((enc_s, dec_s))
                raw.append(raw_s)
                if attempted in sample:
                    kept[attempted] = outputs
        attempted += 1
    for _ in due:
        interlude()
    check_sampled(wl, key, pool, kept, failures)
    return times, raw, attempted


class SetupProbe:
    """Set-up time in fresh interpreters running setup_probe.py on the warm-up message."""

    def __init__(self, wl, pool, failures):
        message = warmup_message(wl, pool)
        self.args = [sys.executable, str(BENCH / "setup_probe.py"), wl.kind,
                     ",".join(map(str, wl.exponents)), str(wl.block_order)]
        if wl.kind == "bulk":
            self.args.append(message.hex())
        else:
            self.args += [message.bits.bits, str(message.flip)]
        self.failures = failures
        self.times: list[float] = []

    def __call__(self) -> None:
        try:
            done = subprocess.run(self.args, capture_output=True, text=True, timeout=120)
        except subprocess.TimeoutExpired:
            self.failures.add_other("set-up probe", "no result within 120 s")
            return
        if done.returncode != 0:
            self.failures.add_other("set-up probe", f"exit {done.returncode}: {done.stderr.strip()}")
        else:
            cpu_s, ref_s = map(float, done.stdout.split())
            self.times.append(cpu_s * calibrate.scale(ref_s, ref_s))


def peak_mem_per_byte(wl, key, pool) -> float:
    """tracemalloc peak of one op per plaintext byte.

    Bulk: the first file.  Short: summed over the MEMORY_SET messages of
    middle length, each op's peak taken on its own, because one message's
    peak depends on its contents.
    """
    if wl.kind == "bulk":
        items = pool[:1]
    else:
        middle = (len(pool) - MEMORY_SET) // 2
        items = sorted(pool, key=lambda m: len(m.bits))[middle:middle + MEMORY_SET]
    peaks = 0
    tracemalloc.start()
    try:
        for item in items:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_op(wl, key, item)
            peaks += tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peaks / sum(plain_bytes(wl, item) for item in items)


def size_set(wl, pool) -> list:
    return pool[:1] if wl.kind == "bulk" else pool[:SHORT_SIZE_SET]


def envelope_sizes(wl, key, pool) -> tuple[float, int, int]:
    """(plaintext bytes, envelope bytes before the payload, payload bytes) over the size set."""
    plain = meta = payload = 0
    for item in size_set(wl, pool):
        envelope = hctcodec.encrypt(plaintext(wl, item), key, wl.block_order)
        body = -(-len(envelope.payload) // 8)
        plain += plain_bytes(wl, item)
        meta += len(envelope.to_bytes()) - body
        payload += body
    return plain, meta, payload


def end_to_end(wl, key, pool, seconds, sample, failures):
    probe = SetupProbe(wl, pool, failures)
    probe()  # may compile bytecode; not counted
    probe.times.clear()
    times, raw, attempted = timed_pass(
        wl, key, pool, seconds, sample, failures, probe, SETUP_SAMPLES
    )
    if len(times) < len(pool) or not probe.times:
        return {}, attempted, []
    # Per input, the median of its calibrated runs; the metrics are medians
    # (or the sum, for ops_per_s) of these over the inputs.
    size = [plain_bytes(wl, item) for item in pool]
    enc = [statistics.median(e for e, _ in times[i]) for i in range(len(pool))]
    dec = [statistics.median(d for _, d in times[i]) for i in range(len(pool))]
    op = [statistics.median(e + d for e, d in times[i]) for i in range(len(pool))]
    every_op = [e + d for runs in times.values() for e, d in runs]
    # Short runs time thousands of ops, so their p99 is a real tail; a bulk run
    # times tens, too few for one.
    if wl.kind == "short":
        p99 = percentile(every_op, 0.99)
        p99_note = f"op_p99_ms: nearest-rank p99 over all {len(every_op)} timed ops"
    else:
        p99 = percentile(op, 0.99)
        p99_note = (f"op_p99_ms: only {len(every_op)} timed ops, so it is the nearest-rank p99 "
                    f"of the {len(pool)} per-input medians and carries no tail information")
    plain, meta, payload = envelope_sizes(wl, key, pool)
    values = {
        "encrypt_kBps": statistics.median(b / t for b, t in zip(size, enc)) / 1000,
        "decrypt_kBps": statistics.median(b / t for b, t in zip(size, dec)) / 1000,
        "ops_per_s": len(pool) / sum(op),
        "op_p50_ms": statistics.median(op) * 1000,
        "op_p99_ms": p99 * 1000,
        "peak_mem_per_byte": peak_mem_per_byte(wl, key, pool),
        "envelope_bytes_per_byte": (meta + payload) / plain,
        "setup_s": statistics.median(probe.times),
    }
    notes = [
        f"{len(every_op)} ops over {len(pool)} inputs; times are calibrated CPU times "
        f"(calibrate.py); raw median op CPU time {statistics.median(raw) * 1000:.4g} ms",
        p99_note,
        f"setup_s: median calibrated CPU time of {len(probe.times)} fresh interpreters "
        "spread over the run",
    ]
    return {name: (values[name], unit) for name, unit in END_TO_END}, attempted, notes


# ---------------------------------------------------------------- trace 1


def replay(wl, key, item, outputs, span) -> list[str]:
    """Re-run the op's levels from public functions and compare with the direct results."""
    n = wl.block_order
    if wl.kind == "bulk":
        envelope, parsed, bits, _ = outputs
        message = plaintext(wl, item)
    else:
        digest, report = outputs
        message = item.bits
        with span("cipher.encrypt_s"):
            envelope = hctcodec.encrypt(message, key, n)
        with span("cipher.decrypt_s"):
            bits = hctcodec.decrypt(envelope, key)
        parsed = envelope
    enc_levels = tracing.replay_encrypt(message, key, n, span)
    dec_levels = tracing.replay_decrypt(parsed, key, span)
    problems = tracing.replay_mismatches(enc_levels, dec_levels, envelope, bits)
    if wl.kind == "short":
        if digest.bits != digest_of(envelope.payload):
            problems.append("hash_digest differs from the encrypt payload prefix")
        corrupted = replace(envelope, payload=envelope.payload.flip(item.flip))
        recovered, anomalies = hctcodec.decrypt_tolerant(corrupted, key)
        with span("analysis.diff_s"):
            diff = hctcodec.difference_series(message, recovered)
        if replace(diff, sentinel_conflicts=anomalies.sentinel_conflicts) != report:
            problems.append("avalanche replay differs from avalanche_experiment")
    return problems


def timed_op(wl, key, item) -> float:
    t0 = thread_time()
    run_op(wl, key, item)
    return thread_time() - t0


def traced_pass(wl, key, pool, seconds, sample, failures):
    """Alternate untraced and traced ops; each traced op is followed by its replay."""
    tracer = tracing.Tracer()
    for _ in range(KEY_SETUPS):
        with tracer.span("modmath.key_setup_s"):
            KeySchedule.from_exponents(wl.exponents)
    untraced, traced, done, kept = [], [], [], {}
    attempted = 0
    min_ops = max(sample) + 1
    deadline = perf_counter() + seconds
    while attempted < min_ops or perf_counter() < deadline:
        item = pool[attempted % len(pool)]
        tracer.op = attempted
        try:
            # Alternate which twin runs first so warm-up effects cancel in trace.overhead.
            if attempted % 2:
                untraced_s = timed_op(wl, key, item)
            t0 = thread_time()
            with tracer.span("op"):
                _, _, outputs = run_op(wl, key, item, tracer.span)
            traced_s = thread_time() - t0
            if not attempted % 2:
                untraced_s = timed_op(wl, key, item)
            with tracer.span("replay"):
                problems = replay(wl, key, item, outputs, tracer.span)
        except Exception:
            failures.add(attempted, traceback.format_exc())
        else:
            problem = op_problem(wl, item, outputs)
            problems += [problem] if problem else []
            if problems:
                failures.add(attempted, "; ".join(problems))
            else:
                untraced.append(untraced_s)
                traced.append(traced_s)
                done.append(attempted)
                if attempted in sample:
                    kept[attempted] = outputs
        attempted += 1
    check_sampled(wl, key, pool, kept, failures)
    return tracer, untraced, traced, done, attempted


def level_count_pass(wl, key, pool, failures) -> Counter:
    """Per-level counts over the size set, from an untimed replay (exact for a seed)."""
    counts: Counter = Counter()
    for index, item in enumerate(size_set(wl, pool)):
        message = plaintext(wl, item)
        try:
            envelope = hctcodec.encrypt(message, key, wl.block_order)
            enc_levels = tracing.replay_encrypt(message, key, wl.block_order, ops.no_span)
            dec_levels = tracing.replay_decrypt(envelope, key, ops.no_span)
        except Exception:
            failures.add_other(f"replay of size-set input {index}", traceback.format_exc())
            continue
        for problem in tracing.replay_mismatches(enc_levels, dec_levels, envelope, message):
            failures.add_other(f"replay of size-set input {index}", problem)
        counts.update(tracing.level_counts(enc_levels, dec_levels, wl.block_order))
    return counts


def per_layer(wl, key, pool, seconds, sample, failures):
    tracer, untraced, traced, done, attempted = traced_pass(
        wl, key, pool, seconds, sample, failures
    )
    if not done:
        return {}, attempted, []
    per_op: dict[int, Counter] = defaultdict(Counter)
    for (name, _, _, _, op), self_s in zip(tracer.spans, tracer.self_times()):
        per_op[op][name] += self_s
    key_setup = [end - start for name, start, end, _, _ in tracer.spans
                 if name == "modmath.key_setup_s"]
    replay_over_direct = [
        sum(t for name, t in per_op[op].items() if name in tracing.REPLAY_SPANS)
        / (per_op[op]["cipher.encrypt_s"] + per_op[op]["cipher.decrypt_s"])
        for op in done
    ]
    counts = level_count_pass(wl, key, pool, failures)
    _, counts["cipher.meta_bytes"], counts["cipher.payload_bytes"] = envelope_sizes(wl, key, pool)
    for layer in tracing.LAYERS:
        counts[f"{layer}.errors"] = tracer.errors[layer]
    counts["trace.overhead"] = statistics.median(map(float.__truediv__, traced, untraced))
    counts["trace.replay_over_direct"] = statistics.median(replay_over_direct)
    counts["modmath.key_setup_s"] = statistics.median(key_setup)
    metrics = {}
    for name, unit in tracing.per_layer_metrics():
        if name in counts:
            value = counts[name]
        else:
            value = statistics.median(per_op[op][name] for op in done)
        metrics[name] = (value, unit)
    trace_file = BENCH / "out" / f"trace-{wl.name}.jsonl"
    tracer.write(trace_file)
    notes = [
        f"traced ops: {len(done)} (each with an untraced twin and a replay); "
        "span metrics are per-op medians of self time",
        f"counts are totals over {len(size_set(wl, pool))} input(s); spans written to "
        f"{trace_file.relative_to(ROOT)}",
    ]
    return metrics, attempted, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="hctcodec benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    pool = make_inputs(wl, args.seed)
    if wl.kind == "short":
        pool = [m._replace(bits=BitSeq(m.bits)) for m in pool]
    sample = sampled_indices(wl, args.seed)
    key = KeySchedule.from_exponents(wl.exponents)
    failures = Failures()
    try:
        problem = worked_example_problem()
        run_op(wl, key, warmup_message(wl, pool))  # lazy set-up off the clock
    except Exception:
        problem = traceback.format_exc()
    if problem:
        failures.add_other("start check", problem)
    gc.collect()

    measure = per_layer if args.trace else end_to_end
    metrics, attempted, notes = measure(wl, key, pool, args.seconds, sample, failures)
    correct = failures.count == failures.other == 0 and bool(metrics)

    print(f"workload {wl.name}: key {','.join(map(str, wl.exponents))}, block order "
          f"{wl.block_order}, seed {args.seed}, one caller, closed loop")
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    print(f"failed_share {failures.count / attempted:.6g} ({failures.count} of {attempted} ops)")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failures.count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
