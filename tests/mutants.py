"""Mutation check: each known fault of the package must fail the tests named for it.

Run from anywhere, after the tier-1 tests:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # some of them

For each mutant the runner copies ``src/`` into a temporary directory,
replaces the mutant's old text by its new text in one file of the copy
(the old text must occur there exactly once), and runs the mutant's tests
with ``-x`` against the copy.  A mutant is killed when pytest reports a
failed test.  The runner exits 1 if a mutant survives or no longer
applies, so a test edit that stops catching a known fault, or a source
edit that moves the faulty text, shows up here.

Only mutants that change behaviour belong in the list.  For example,
``bound + add >= top`` -> ``>`` in ``_lane_masks`` changes nothing, as no
bound 2^j * p + k * p equals 2^(2x), and swapping ``|``, ``^`` and ``+``
at a disjoint join changes nothing either; no test can catch those.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # under src/hctcodec
    old: str
    new: str
    tests: tuple[str, ...]  # test ids, relative to the repository root


HADAMARD = "tests/test_hadamard.py::"
MUTANTS = [
    # The lane kernel's exactness rests on its slot bounds, its disjoint
    # joins and its one-add canonicalization.
    Mutant("addend widened into the upper slots", "hadamard.py",
           "lower * add, g * slot, fold))",
           "(lower | lower << g * slot) * add, g * slot, fold))",
           (HADAMARD + "test_lane_engine_matches_block_kernels",)),
    Mutant("fold planned against 2 * top, so slots may overflow", "hadamard.py",
           "fold = bound + add >= top",
           "fold = bound + add >= 2 * top",
           (HADAMARD + "test_lazy_plan_keeps_every_slot_below_its_width",
            HADAMARD + "test_lane_engine_matches_block_kernels")),
    Mutant("no fold after the last stage", "hadamard.py",
           "    w = (w & pm) + (w >> x & pm)  # each slot at most 2p - 1\n",
           "",
           (HADAMARD + "test_lane_engine_matches_block_kernels",)),
    Mutant("wrong inverse scale", "hadamard.py",
           "r = -(n.bit_length() - 1) % x",
           "r = (n.bit_length() - 1) % x",
           (HADAMARD + "test_lane_engine_matches_block_kernels",)),
    Mutant("canonicalizing add without the + 1", "hadamard.py",
           "w += w + ones >> x & ones",
           "w += w >> x & ones",
           (HADAMARD + "test_one_add_makes_a_folded_lane_canonical",
            HADAMARD + "test_lane_engine_matches_block_kernels")),
    # A call drops its temporaries once they are dead.
    Mutant("lane kernel keeps e and o alive", "hadamard.py",
           "    del e, o\n",
           "",
           (HADAMARD + "test_one_kernel_call_holds_at_most_twelve_times_its_piece",)),
    # SentinelSet holds HCT1's big-endian words: bytes, or a view of the
    # parsed blob, never a copy of it.
    Mutant("constructor accepts unordered positions", "bitcodec.py",
           "        if not _ascending(self._words):\n",
           "        if False:\n",
           ("tests/test_bitcodec.py::test_sentinel_set_validation",)),
    Mutant("positions packed as machine words", "bitcodec.py",
           'i.to_bytes(4, "big") for i in indices',
           "i.to_bytes(4, sys.byteorder) for i in indices",
           ("tests/test_bitcodec.py::test_parsed_words_must_strictly_ascend",)),
    Mutant("from_words copies the parsed words", "bitcodec.py",
           "        return cls._of(data)\n",
           "        return cls._of(bytes(data))\n",
           ("tests/test_cipher.py::test_parsed_envelope_holds_its_sentinels_as_packed_words",)),
    Mutant("from_words holds a read-only view of a writable buffer", "bitcodec.py",
           "type(data.obj) is bytes",
           "data.readonly",
           ("tests/test_bitcodec.py::test_words_of_a_writable_buffer_are_copied",)),
    Mutant("flags over more than 2^32 lanes skip the 4-byte check", "bitcodec.py",
           "if top < 0 or top + span > 1 << 32:",
           "if top < 0:",
           ("tests/test_bitcodec.py::test_table_conversions_at_their_edges",
            "tests/test_bitcodec.py::test_sentinel_set_past_four_bytes")),
    Mutant("parsed bytes need not be whole words", "bitcodec.py",
           "        if len(data) % 4:\n",
           "        if False:\n",
           ("tests/test_bitcodec.py::test_sentinel_set_validation",)),
    # A parsed envelope views a bytes blob and copies any other buffer once;
    # encrypt's envelope views the blob it writes through the same parse, and
    # to_bytes returns the blob an envelope holds.
    Mutant("from_bytes views a mutable buffer", "cipher.py",
           "cls._view(data if type(data) is bytes else bytes(memoryview(data)),",
           "cls._view(data,",
           ("tests/test_envelope.py::"
            "test_a_mutable_blob_is_copied_so_later_writes_leave_the_envelope",)),
    Mutant("from_bytes keeps no blob", "cipher.py",
           '        object.__setattr__(envelope, "_blob", blob)\n',
           "",
           ("tests/test_envelope.py::test_an_envelope_holds_the_blob_its_fields_view",)),
    Mutant("to_bytes joins although it holds a blob", "cipher.py",
           "return self._blob or b\"\".join(",
           "return b\"\".join(",
           ("tests/test_envelope.py::test_an_envelope_holds_the_blob_its_fields_view",)),
    Mutant("payload slice skips its truncation check", "cipher.py",
           "payload = _cut(view, offset, payload_bit_len // 8)",
           "payload = view[offset:offset + payload_bit_len // 8]",
           ("tests/test_envelope.py::test_rejects_truncation_everywhere",)),
    # The digest and the avalanche experiment run on the cipher's level cores.
    Mutant("avalanche flips the bit after the chosen one", "analysis.py",
           "v ^ 1 << out - 1 - (flip_index - start)",
           "v ^ 1 << out - (flip_index - start)",
           ("tests/test_analysis.py::test_digest_and_avalanche_equal_the_envelope_pipeline",)),
    Mutant("inverse core does not restore flagged lanes", "cipher.py",
           "v |= (flags ^ held) * p",
           "v |= 0",
           ("tests/test_cipher.py::test_round_trip_property",
            "tests/test_analysis.py::test_digest_and_avalanche_equal_the_envelope_pipeline",
            "tests/test_cipher.py::test_each_level_is_one_kernel_pass_each_way")),
    # Chunks and the tail of a long message run through the same cores.
    Mutant("head offset dropped", "cipher.py",
           "head // x + count - 1 - lane",
           "count - 1 - lane",
           ("tests/test_cipher.py::test_chunk_path_matches_the_per_level_path",)),
    Mutant("padding's first one bit counted from its piece", "cipher.py",
           "head + count * x - padding.bit_length()",
           "count * x - padding.bit_length()",
           ("tests/test_cipher.py::test_nonzero_padding_names_its_first_one_bit",)),
    Mutant("a later piece's anomaly merged before an earlier one's", "cipher.py",
           "[a or b for a, b in zip(found, part)]",
           "[b or a for a, b in zip(found, part)]",
           ("tests/test_cipher.py::test_chunk_path_matches_the_per_level_path",)),
    # Encrypt formats each piece's flags into its level's positions once, and
    # decrypt finds each piece's positions from the count of those before it.
    Mutant("encrypt counts a piece's positions from lane 0", "cipher.py",
           "_positions(8 * cut.start // x, count, f, x)",
           "_positions(0, count, f, x)",
           ("tests/test_cipher.py::test_flag_sets_of_the_chunk_path_and_the_level_loop_are_equal",)),
    Mutant("encrypt's levels copy their words out of the blob", "cipher.py",
           "CipherEnvelope._view(blob.getvalue(), SentinelSet._of)",
           "CipherEnvelope._view(blob.getvalue(), lambda words: SentinelSet._of(bytes(words)))",
           ("tests/test_cipher.py::test_a_long_envelope_holds_four_bytes_per_sentinel",)),
    Mutant("encrypt keeps each level's words once written", "cipher.py",
           "        found[level] = None\n",
           "",
           ("tests/test_cipher.py::"
            "test_round_trip_peak_memory_does_not_grow_with_size[exponents1-8-4.6]",)),
    # Flags and positions convert through byte tables, per lane slot and per
    # window of local indices.
    Mutant("a lane slot's table reads the wrong bit", "bitcodec.py",
           "translate(_SPREAD[shift])",
           "translate(_SPREAD[shift or 1])",
           ("tests/test_bitcodec.py::test_table_conversions_at_their_edges",)),
    Mutant("a later window's local index is off by one", "bitcodec.py",
           "(top + lane) * ones",
           "(top + lane - (lane > 0)) * ones",
           ("tests/test_bitcodec.py::test_table_conversions_at_their_edges",)),
    Mutant("words bisect stops one lane short of a piece's end", "bitcodec.py",
           "bisect_left(positions, end)",
           "bisect_left(positions, end - 1)",
           ("tests/test_bitcodec.py::test_piece_flags_match_the_text_path",)),
    Mutant("a piece's words are found one word late", "bitcodec.py",
           "_word(words, low)",
           "_word(words, low + 1)",
           ("tests/test_bitcodec.py::test_piece_flags_match_the_text_path",)),
    Mutant("decrypt's carried count is not advanced", "cipher.py",
           "lows[level] += len(positions)",
           "lows[level] = len(positions)",
           ("tests/test_cipher.py::test_decrypt_finds_each_piece_from_the_count_before_it",)),
    Mutant("a dense piece's words stop at the density guess", "bitcodec.py",
           "while positions[-1] < end and high < most:",
           "while False:",
           ("tests/test_bitcodec.py::test_a_dense_piece_before_a_far_position",)),
    # The modulus is derived from x, and the kernel's slices start with the short one.
    Mutant("modulus loses its - 1", "modmath.py",
           "return (1 << self.x) - 1",
           "return 1 << self.x",
           ("tests/test_modmath.py::test_supported_exponents_all_validate",
            "tests/test_cli.py::test_matrix_output_matches_reference")),
    Mutant("all ones read as one bit fewer", "analysis.py",
           "value.bit_count() == plaintext.length",
           "value.bit_count() == plaintext.length - 1",
           ("tests/test_analysis.py::test_degenerate_detection",)),
    Mutant("slices start with a full slice", "hadamard.py",
           "lane, end = 0, (count - 1) % step + 1",
           "lane, end = 0, min(step, count)",
           ("tests/test_cipher.py::test_chunk_path_matches_the_per_level_path",)),
    # A long message crosses the cipher as bytes; its tail's last byte ends in fill.
    Mutant("encrypt reads the tail without shifting out its fill", "cipher.py",
           'int.from_bytes(data[cut], "big") >> -size % 8',
           'int.from_bytes(data[cut], "big")',
           ("tests/test_cipher.py::test_chunk_path_matches_the_per_level_path",)),
]


def run(mutant: Mutant, scratch: Path) -> str | None:
    """None if the mutant's tests fail, else why the mutant is not killed."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "hctcodec" / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        return f"its old text occurs {text.count(mutant.old)} times in {mutant.path}, not once"
    target.write_text(text.replace(mutant.old, mutant.new))
    # The copy replaces src/ both on PYTHONPATH and in the ini's pythonpath;
    # the working directory keeps pytest's and hypothesis's caches out of the
    # tree, and a fixed seed makes each verdict repeatable.
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "--rootdir", str(ROOT), "-o", f"pythonpath={src}",
               *(str(ROOT / test) for test in mutant.tests)]
    done = subprocess.run(command, cwd=scratch, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if done.returncode == 1:
        return None
    if done.returncode == 0:
        return "survived: its tests pass"
    return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="hctcodec-mutant-") as scratch:
            problem = run(mutant, Path(scratch))
        verdict = "killed" if problem is None else f"NOT KILLED, {problem}"
        print(f"{mutant.name}: {verdict} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed += problem is not None
    print(f"{failed} of {len(names) or len(MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
