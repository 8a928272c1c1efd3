"""In-memory spans and the per-level replay behind the per-layer metrics.

Spans are recorded from the benchmark's own code, around calls into the
package's public functions; nothing inside hctcodec is instrumented.  The
per-level phases come from a replay: the traced pass re-runs each level out
of public ``bitcodec``/``hadamard`` functions and checks bit for bit that
the replay reproduces what ``encrypt``/``decrypt`` returned.
"""

import json
from collections import Counter
from contextlib import contextmanager
from time import thread_time

from hctcodec import (
    HadamardSpec,
    apply_fast,
    apply_inverse,
    detect_sentinels,
    pad_and_group,
    restore_sentinels,
    truncate,
    ungroup,
)

from ops import per_block
from workloads import WORKLOADS

LAYERS = ("modmath", "hadamard", "bitcodec", "cipher", "analysis")
MAX_LEVELS = max(len(w.exponents) for w in WORKLOADS.values())

ENC_PHASES = ("bitcodec.group_s.enc", "bitcodec.sentinel_scan_s", "hadamard.forward_s",
              "bitcodec.ungroup_s.enc")
DEC_PHASES = ("bitcodec.group_s.dec", "hadamard.inverse_s", "bitcodec.restore_s",
              "bitcodec.ungroup_s.dec", "bitcodec.truncate_s")
LEVEL_COUNTS = ("bitcodec.groups", "bitcodec.padding_bits", "bitcodec.sentinels",
                "hadamard.blocks", "hadamard.zero_residues")
# Spans around single public calls (the op's own, the key build, the replay's diff).
CALL_SPANS = ("bitcodec.unpack_s", "cipher.encrypt_s", "cipher.serialize_s",
              "cipher.parse_s", "cipher.decrypt_s", "bitcodec.pack_s", "cipher.hash_s",
              "analysis.avalanche_s", "modmath.key_setup_s", "analysis.diff_s")


def level_names(phases, level: int) -> list[str]:
    return [f"{phase}.L{level}" for phase in phases]


REPLAY_SPANS = frozenset(
    name
    for level in range(1, MAX_LEVELS + 1)
    for name in level_names(ENC_PHASES + DEC_PHASES, level)
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in the order they are printed."""
    metrics = [(name, "s") for name in CALL_SPANS]
    for level in range(1, MAX_LEVELS + 1):
        metrics += [(name, "s") for name in level_names(ENC_PHASES + DEC_PHASES, level)]
        metrics += [(name, "count") for name in level_names(LEVEL_COUNTS, level)]
    metrics += [("cipher.meta_bytes", "count"), ("cipher.payload_bytes", "count")]
    metrics += [(f"{layer}.errors", "count") for layer in LAYERS]
    metrics += [("trace.overhead", "ratio"), ("trace.replay_over_direct", "ratio")]
    return metrics


class Tracer:
    """Spans as [name, start, end, parent index, op id], kept until ``write``.

    Start and end are read from the thread CPU clock.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.op = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = thread_time()
        try:
            yield
        except Exception:
            layer = name.split(".", 1)[0]
            if layer in LAYERS:
                self.errors[layer] += 1
            raise
        finally:
            record[2] = thread_time()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for record, self_s in zip(self.spans, self.self_times()):
                out.write(json.dumps(record + [self_s]) + "\n")


def replay_encrypt(bits, key, block_order: int, span) -> list[tuple]:
    """Encrypt level by level; per level (input bits, GroupedSeq, SentinelSet, output bits)."""
    levels = []
    for level, params in enumerate(key.elements, 1):
        group, scan, forward, emit = level_names(ENC_PHASES, level)
        with span(group):
            grouped = pad_and_group(bits, params.x, block_order)
        with span(scan):
            sentinels = detect_sentinels(grouped)
        spec = HadamardSpec(block_order, params.p)
        with span(forward):
            transformed = per_block(apply_fast, spec, grouped.values)
        with span(emit):
            out = ungroup(transformed, params.x)
        levels.append((bits, grouped, sentinels, out))
        bits = out
    return levels


def replay_decrypt(envelope, key, span) -> list[tuple]:
    """Decrypt level by level in reverse; per level (output bits, zero residues), L1 first."""
    n = envelope.block_order
    bits = envelope.payload
    levels = []
    for level in range(len(key.elements), 0, -1):
        params, record = key.elements[level - 1], envelope.levels[level - 1]
        group, inverse, restore, emit, cut = level_names(DEC_PHASES, level)
        with span(group):
            grouped = pad_and_group(bits, params.x, n)
        spec = HadamardSpec(n, params.p)
        with span(inverse):
            recovered = per_block(apply_inverse, spec, grouped.values)
        with span(restore):
            restored = restore_sentinels(recovered, record.sentinels, params.x)
        with span(emit):
            raw = ungroup(restored, params.x)
        with span(cut):
            bits = truncate(raw, record.orig_bit_len)
        kept_groups = -(-record.orig_bit_len // params.x)
        levels.append((bits, recovered[:kept_groups].count(0)))
    return levels[::-1]


def replay_mismatches(enc_levels, dec_levels, envelope, plaintext) -> list[str]:
    """Where the replay differs from the direct encrypt/decrypt results."""
    problems = []
    for level, ((bits_in, grouped, sentinels, _), record, (bits_back, _)) in enumerate(
        zip(enc_levels, envelope.levels, dec_levels), 1
    ):
        if (grouped.x, grouped.orig_bit_len, sentinels) != (
            record.x, record.orig_bit_len, record.sentinels
        ):
            problems.append(f"L{level} encrypt replay level record differs from the envelope")
        if bits_back != bits_in:
            problems.append(f"L{level} decrypt replay output differs from the level input")
    if enc_levels[-1][3] != envelope.payload:
        problems.append("encrypt replay payload differs from encrypt()")
    if dec_levels[0][0] != plaintext:
        problems.append("decrypt replay output differs from decrypt()")
    return problems


def level_counts(enc_levels, dec_levels, block_order: int) -> Counter:
    counts: Counter = Counter()
    for level, ((_, grouped, sentinels, _), (_, zeros)) in enumerate(
        zip(enc_levels, dec_levels), 1
    ):
        groups = len(grouped.values)
        for name, value in zip(
            level_names(LEVEL_COUNTS, level),
            (groups, groups * grouped.x - grouped.orig_bit_len, len(sentinels),
             groups // block_order, zeros),
        ):
            counts[name] += value
    return counts
