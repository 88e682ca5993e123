"""A standing mutant catalogue: each mutant must make its named tests fail.

    python tests/mutants.py [--out FILE] [NAME ...]

Each entry of ``MUTANTS`` is (name, file, exact old text, new text, named
tests), the file relative to the repository root. The old text occurs
exactly once in the file; the tier-1 test ``tests/test_mutants.py`` checks
that, so that the catalogue cannot go stale silently. The script copies
``src``, ``tests`` and ``bench`` to a temporary directory once, then for
each mutant (or each one named on the command line) writes the file with
the old text replaced, runs only the named tests there with
``python -m pytest -q -x``, and writes the file back. The mutant is killed
when the tests fail and survives when they pass; any other pytest exit
status (no test collected, a usage error) is an error. It prints each
survivor and error, and writes {"killed": k, "survived": s, "errors": e,
"mutants": {name: "killed" | "survived" | "error"}} as JSON to FILE, or to
stdout. The exit status is 0 when every mutant run was killed.

A survivor is a fault the named tests miss: report it, and do not delete the
mutant. An equivalent mutant, one that changes no result, does not belong
here. pytest does not collect this file, since its name does not start with
``test_``. It uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BIASED = "src/frobmat/biased.py"
GROUPS = "src/frobmat/groups.py"
RECOVERY = "src/frobmat/recovery.py"
REPRESENT = "src/frobmat/represent.py"
TB = "tests/test_biased.py::"
TG = "tests/test_groups.py::"
TR = "tests/test_recovery.py::"
TP = "tests/test_represent.py::"

MUTANTS = [
    # the cycle set above order 10
    ("column-dropped", RECOVERY,
     "            elif i == 1:\n",
     "            elif False:\n",
     [TR + "test_reduced_cycle_stream_comes_in_sorted_order[AGL(1,5)-4]",
      TR + "test_a_balanced_cycle_below_circuit_rank_is_refused"]),
    ("generator-rows-on-pair-1-2-only", RECOVERY,
     "            if a == 0 or (i == 1 and a in gens):\n"
     "                rows = itertools.product(range(i + 1, n), range(order))\n",
     "            if a == 0:\n"
     "                rows = itertools.product(range(i + 1, n), range(order))\n"
     "            elif i == 1 and a in gens:\n"
     "                rows = itertools.product(range(2, 3), range(order))\n",
     [TR + "test_reduced_cycle_stream_comes_in_sorted_order[AGL(1,5)-4]",
      TR + "test_a_balanced_cycle_below_circuit_rank_is_refused"]),
    ("greedy-generators-stopped-after-one", RECOVERY,
     "    gens = group.generators\n",
     "    gens = group.generators[:1]\n",
     [TR + "test_reduced_cycle_stream_comes_in_sorted_order[AGL(1,5)-4]",
      TR + "test_a_balanced_cycle_below_circuit_rank_is_refused"]),
    ("identity-rows-through-vertex-1-only", RECOVERY,
     "            if a == 0 or (i == 1 and a in gens):\n",
     "            if (a == 0 and i == 1) or (i == 1 and a in gens):\n",
     [TR + "test_reduced_cycle_stream_comes_in_sorted_order[AGL(1,5)-4]",
      TR + "test_a_balanced_cycle_below_circuit_rank_is_refused"]),
    # the cycle streams, read in turn below the least failure
    ("least-failure-bound-inclusive", RECOVERY,
     "lambda item: item < least",
     "lambda item: item <= least",
     [TR + "test_the_witness_is_the_least_failing_cycle_of_all_streams"]),
    ("least-failure-bound-dropped", RECOVERY,
     "            stream = itertools.takewhile(lambda item: item < least, stream)\n",
     "            pass\n",
     [TR + "test_the_witness_is_the_least_failing_cycle_of_all_streams"]),
    ("break-dropped", RECOVERY,
     "                least = cycle, balanced\n                break\n",
     "                least = cycle, balanced\n",
     [TR + "test_the_witness_is_the_least_failing_cycle_of_all_streams"]),
    # the listing walker of the sampled comparison
    ("walk-stops-when-either-is-full", BIASED,
     "            if ra == full_a and rb == full_b:\n",
     "            if ra == full_a or rb == full_b:\n",
     [TR + "test_the_walk_of_a_frame_and_a_lift_stops_at_neither_full_rank_alone",
      TR + "test_the_bundle_walk_of_a_frame_and_a_lift_stops_at_neither_full_rank_alone",
      TR + "test_a_walk_of_random_listings_names_the_witness_of_per_set_asks"]),
    ("state-kept-when-both-are-full", BIASED,
     "        else:  # below full rank in one of them: kept for the node's children\n",
     "        if True:\n",
     [TR + "test_recovery_walks_the_prefixes_of_an_incremental_m",
      TR + "test_a_walk_of_random_listings_names_the_witness_of_per_set_asks"]),
    ("every-step-taken-as-last", BIASED,
     "        last = last_child[parent] == i\n",
     "        last = True\n",
     [TR + "test_a_saved_bundle_state_reads_the_same_rank_after_each_extension",
      TR + "test_a_walk_of_random_listings_names_the_witness_of_per_set_asks"]),
    ("state-always-copied", BIASED,
     "        last = last_child[parent] == i\n",
     "        last = False\n",
     [TR + "test_a_saved_bundle_state_reads_the_same_rank_after_each_extension"]),
    ("per-set-fallback-removed", BIASED,
     "    if not (a.incremental and b.incremental):\n",
     "    if False:\n",
     [TR + "test_prefixes_of_an_oracle_asked_per_set_are_each_asked",
      TR + "test_bundles_of_an_oracle_asked_per_set_are_each_asked"]),
    ("compare-skipped-when-both-are-full", BIASED,
     "        if ra != rb:\n",
     "        if ra != rb and (ra != full_a or rb != full_b):\n",
     [TR + "test_the_walk_of_a_frame_and_a_lift_stops_at_neither_full_rank_alone",
      TR + "test_the_bundle_walk_of_a_frame_and_a_lift_stops_at_neither_full_rank_alone"]),
    # the parts of the sampled comparison
    ("prefix-range-one-short", BIASED,
     "enumerate(listing)]",
     "enumerate(listing[:-1])]",
     [TB + "test_a_sampled_comparison_asks_its_parts_in_order",
      TR + "test_the_last_prefix_is_the_whole_ground"]),
    ("prefixes-deleted", BIASED,
     '        ("prefixes", functools.partial(_listing_disagreement, nodes=prefixes)),\n',
     "",
     [TB + "test_comparison_parts_sweep_every_subset_up_to_the_limit",
      TR + "test_the_last_prefix_is_the_whole_ground"]),
    ("halves-before-prefixes", BIASED,
     '        ("prefixes", functools.partial(_listing_disagreement, nodes=prefixes)),\n'
     '        ("halves", lambda a, b: first_disagreement(\n'
     "            a, b, subset_sweep(listing, SAMPLES, random.Random(seed)))),\n",
     '        ("halves", lambda a, b: first_disagreement(\n'
     "            a, b, subset_sweep(listing, SAMPLES, random.Random(seed)))),\n"
     '        ("prefixes", functools.partial(_listing_disagreement, nodes=prefixes)),\n',
     [TB + "test_comparison_parts_sweep_every_subset_up_to_the_limit",
      TR + "test_the_last_prefix_is_the_whole_ground"]),
    ("samples-214", BIASED,
     "SAMPLES = 215\n",
     "SAMPLES = 214\n",
     [TB + "test_samples_is_the_least_count_under_the_escape_bound"]),
    ("exhaustive-bound-strict", BIASED,
     "    if len(listing) <= EXHAUSTIVE_LIMIT:\n",
     "    if len(listing) < EXHAUSTIVE_LIMIT:\n",
     [TB + "test_comparison_parts_sweep_every_subset_up_to_the_limit"]),
    ("representation-skips-the-prefixes", REPRESENT,
     "    parts = comparison_parts(ids, seed)\n",
     '    parts = [p for p in comparison_parts(ids, seed) if p[0] != "prefixes"]\n',
     [TP + "test_verify_representation_samples_above_sixteen_edges"]),
    ("counted-full-rank-fix-removed", RECOVERY,
     "        if not self.incremental:  # so that the ground is asked through ``rank``\n"
     "            return RankOracle.full_rank(self)\n",
     "",
     [TR + "test_a_counted_full_rank_of_an_oracle_asked_per_set_counts_its_ask"]),
    ("counted-walk-fix-removed", RECOVERY,
     "        if not self.incremental:  # so that every set is asked through ``rank``\n"
     "            return RankOracle.walk(self)\n",
     "",
     [TR + "test_a_counted_walk_of_an_oracle_asked_per_set_counts_every_ask"]),
    # the recovered partition, checked by validate_partition alone
    ("recovered-partition-unvalidated", RECOVERY,
     "        ctx = FrobeniusContext(group, partition)\n",
     "        ctx = FrobeniusContext(group, partition, validate=False)\n",
     [TR + "test_every_flipped_bundle_relation_is_refused_in_the_bundles_phase",
      TR + "test_recovery_refuses_a_flipped_relation_when_the_reference_does"]),
    ("cover-check-misses-earlier-complements", GROUPS,
     "            if e in seen or e in part.kernel:\n",
     "            if e in part.kernel:\n",
     [TG + "test_validate_partition_rejects_bad_family"]),
    ("rank-n-kernel-check-dropped", RECOVERY,
     "            if kernel.order > 1:\n",
     "            if False:\n",
     [TR + "test_rejects_rank_n_with_a_nontrivial_kernel"]),
    # the group layer
    ("close-expands-one-coset-only", GROUPS,
     "    for r in reps:\n",
     "    for r in reps[:1]:\n",
     [TG + "test_subgroups_match_brute_force",
      TG + "test_generated_subgroup_is_smallest_containing_subgroup"]),
    ("field-affine-cap-dropped", GROUPS,
     "    if q >= 3:\n        _check_table_order(q * (q - 1))\n",
     "",
     [TG + "test_partition_search_refuses_by_order_before_the_table"]),
]


def run(names: list[str]) -> dict:
    """{"killed", "survived", "errors", "mutants"} for the named mutants, or
    for every one, each applied alone to one temporary copy."""
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    verdicts = {}
    with tempfile.TemporaryDirectory(prefix="frobmat-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        # no bytecode is kept, so no stale .pyc outlives a mutant of the same size
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        for name, file, old, new, tests in chosen:
            path = copy / file
            original = path.read_text()
            if original.count(old) != 1:
                verdicts[name] = "error"
                continue
            path.write_text(original.replace(old, new))
            try:
                status = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                    cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ).returncode
            finally:
                path.write_text(original)
            verdicts[name] = {0: "survived", 1: "killed"}.get(status, "error")
    counts = {kind: sum(v == verdict for v in verdicts.values())
              for kind, verdict in (("killed", "killed"), ("survived", "survived"),
                                    ("errors", "error"))}
    return counts | {"mutants": verdicts}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--out", help="write the JSON here rather than to stdout")
    args = parser.parse_args()
    unknown = set(args.names) - {m[0] for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    report = run(args.names)
    for name, verdict in report["mutants"].items():
        if verdict != "killed":
            print(f"{verdict}: {name}", file=sys.stderr)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0 if report["killed"] == len(report["mutants"]) else 1


if __name__ == "__main__":
    sys.exit(main())
