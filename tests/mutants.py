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
GAINGRAPH = "src/frobmat/gaingraph.py"
GROUPS = "src/frobmat/groups.py"
LIFTS = "src/frobmat/lifts.py"
RECOVERY = "src/frobmat/recovery.py"
REPRESENT = "src/frobmat/represent.py"
TB = "tests/test_biased.py::"
TG = "tests/test_groups.py::"
TGG = "tests/test_gaingraph.py::"
TL = "tests/test_lifts.py::"
TR = "tests/test_recovery.py::"
TP = "tests/test_represent.py::"

MUTANTS = [
    # the one cycle set, at every order
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
     "    offset, gens = complete_pair_offsets(order, n), group.generators\n",
     "    offset, gens = complete_pair_offsets(order, n), group.generators[:1]\n",
     [TR + "test_reduced_cycle_stream_comes_in_sorted_order[AGL(1,5)-4]",
      TR + "test_a_balanced_cycle_below_circuit_rank_is_refused"]),
    ("identity-rows-through-vertex-1-only", RECOVERY,
     "            if a == 0 or (i == 1 and a in gens):\n",
     "            if (a == 0 and i == 1) or (i == 1 and a in gens):\n",
     [TR + "test_reduced_cycle_stream_comes_in_sorted_order[AGL(1,5)-4]",
      TR + "test_a_balanced_cycle_below_circuit_rank_is_refused"]),
    ("identity-rows-skip-the-last-vertex", RECOVERY,
     "                rows = itertools.product(range(i + 1, n), range(order))\n",
     "                rows = itertools.product(range(i + 1, n - 1), range(order))\n",
     [TR + "test_cycle_streams_come_in_sorted_order[D6-4]",
      TR + "test_the_cycle_phase_asks_the_closed_form_count[Z7]"]),
    # one digon per class of the kernel less the identity
    ("last-kernel-class-dropped", RECOVERY,
     "    return sorted(set(least.values()))\n",
     "    return sorted(set(least.values()))[:-1]\n",
     [TR + "test_every_unbalanced_n_circuit_brings_in_a_listed_digon[K4-Z7/Z7]",
      TR + "test_the_kernel_classes_map_onto_each_other_under_relabeling"]),
    ("kernel-classes-closed-under-inversion-only", RECOVERY,
     "                todo += [inverse[x], *(table[table[inverse[s]][x]][s] for s in gens)]\n",
     "                todo += [inverse[x]]\n",
     [TR + "test_recovery_rank_query_count_on_k5_over_agl15",
      TR + "test_the_kernel_classes_map_onto_each_other_under_relabeling"]),
    # the one stream, read to its first failure
    ("circuit-verdict-at-most", RECOVERY,
     "        if balanced != (m.rank(cycle) == len(cycle) - 1):\n",
     "        if balanced != (m.rank(cycle) <= len(cycle) - 1):\n",
     [TR + "test_a_balanced_cycle_below_circuit_rank_is_refused[D6]"]),
    ("digons-not-checked", RECOVERY,
     "        if balanced != (m.rank(cycle) == len(cycle) - 1):\n",
     "        if len(cycle) > 2 and balanced != (m.rank(cycle) == len(cycle) - 1):\n",
     [TR + "test_rejects_cycle_hypothesis_violation",
      TR + "test_the_witness_is_the_least_failing_cycle_of_all_streams[Q8-1]"]),
    # the exhaustive comparison, one level of the walk at a time
    ("level-walk-prunes-when-either-is-full", BIASED,
     "                if not last and (xa != full_a or xb != full_b):\n",
     "                if not last and xa != full_a and xb != full_b:\n",
     [TB + "test_walk_disagreement_skips_where_both_walks_are_full"]),
    ("level-walk-keeps-a-state-where-both-are-full", BIASED,
     "                if not last and (xa != full_a or xb != full_b):\n",
     "                if not last:\n",
     [TB + "test_walk_disagreement_skips_where_both_walks_are_full"]),
    ("level-walk-children-in-reverse-order", BIASED,
     "            for j in range(start, m):\n",
     "            for j in reversed(range(start, m)):\n",
     [TB + "test_first_disagreement_asks_every_subset_by_size"]),
    ("level-walk-skips-each-first-child", BIASED,
     "            for j in range(start, m):\n",
     "            for j in range(start + 1, m):\n",
     [TB + "test_a_failing_walked_pair_stops_at_its_by_size_witness"]),
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
     "    if not (a.incremental and b.incremental):\n"
     "        return first_disagreement(a, b, (_node_set(",
     "    if False:\n"
     "        return first_disagreement(a, b, (_node_set(",
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
     '        ("halves", functools.partial(_halves_disagreement, listing=listing, seed=seed)),\n',
     '        ("halves", functools.partial(_halves_disagreement, listing=listing, seed=seed)),\n'
     '        ("prefixes", functools.partial(_listing_disagreement, nodes=prefixes)),\n',
     [TB + "test_comparison_parts_sweep_every_subset_up_to_the_limit",
      TR + "test_the_last_prefix_is_the_whole_ground"]),
    # the halves, decided from their heads
    ("halves-per-set-fallback-removed", BIASED,
     "    if not (a.incremental and b.incremental):\n"
     "        return first_disagreement(a, b, subset_sweep(",
     "    if False:\n"
     "        return first_disagreement(a, b, subset_sweep(",
     [TB + "test_a_sampled_comparison_asks_its_parts_in_order"]),
    ("halves-head-asked-of-one-oracle", BIASED,
     "            if a.rank(half) == full_a and b.rank(half) == full_b and full_a == full_b:\n",
     "            if a.rank(half) == full_a and full_a == full_b:\n",
     [TB + "test_a_half_is_asked_whole_when_either_head_falls_short"]),
    ("halves-full-heads-pass-unequal-full-ranks", BIASED,
     "            if a.rank(half) == full_a and b.rank(half) == full_b and full_a == full_b:\n",
     "            if a.rank(half) == full_a and b.rank(half) == full_b:\n",
     [TB + "test_halves_of_oracles_of_different_full_rank_name_a_half_both_heads_span"]),
    ("halves-short-head-not-asked-whole", BIASED,
     "            half = tuple(itertools.compress(listing, digits))\n",
     "",
     [TB + "test_heads_that_fall_short_are_asked_again_whole"]),
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
    # the recovered partition, its complements checked by validate_complements
    # alone and the declared kernel once
    ("recovered-partition-unvalidated", RECOVERY,
     "        validate_complements(group, partition)\n",
     "        pass\n",
     [TR + "test_every_flipped_bundle_relation_is_refused_in_the_bundles_phase",
      TR + "test_recovery_refuses_a_flipped_relation_when_the_reference_does"]),
    ("complements-check-retests-the-kernel", GROUPS,
     "    conjugates: set[Subgroup] = set()\n",
     "    conjugates: set[Subgroup] = set()\n    kernel_fault(group, part.kernel)\n",
     [TR + "test_recovery_checks_the_declared_kernel_once"]),
    ("cover-check-misses-earlier-complements", GROUPS,
     "            if e in seen or e in part.kernel:\n",
     "            if e in part.kernel:\n",
     [TG + "test_validate_partition_rejects_bad_family"]),
    ("rank-n-kernel-check-dropped", RECOVERY,
     "            if kernel.order > 1:\n",
     "            if False:\n",
     [TR + "test_rejects_rank_n_with_a_nontrivial_kernel"]),
    # one rank pass per lift: N's rank is the lift's count less l
    ("underlying-rank-keeps-the-lift-bit", LIFTS,
     "        return _rank_pass(self._engine, subset, self._cap, state) - state[4]\n",
     "        return _rank_pass(self._engine, subset, self._cap, state)\n",
     [TL + "test_underlying_rank_is_the_lift_pass_less_its_lift_bit"]),
    ("rank-pass-starts-lifted", BIASED,
     "state or ([-1] * n, [0] * n, [None] * n, {}, False)\n",
     "state or ([-1] * n, [0] * n, [None] * n, {}, True)\n",
     [TL + "test_union_find_ranks_are_order_invariant_on_every_branch",
      TL + "test_rank_table_walk_matches_per_subset_routes"]),
    ("walk-and-underlying-rank-start-lifted", BIASED,
     "    return [[-1] * n, [0] * n, [None] * n, {}, False]\n",
     "    return [[-1] * n, [0] * n, [None] * n, {}, True]\n",
     [TL + "test_union_find_ranks_are_order_invariant_on_every_branch",
      TL + "test_underlying_rank_is_the_lift_pass_less_its_lift_bit"]),
    # Brylawski's membership rule, stated once, and the explicit-set route's
    # one part encoding
    ("linear-class-takes-every-frame-circuit", BIASED,
     "    return [c for c in circuits if m.rank(c) == len(c) - 1]\n",
     "    return [c for c in circuits if m.rank(c) >= len(c) - 1]\n",
     [TL + "test_circuits_match_minimal_dependent_sets"]),
    ("scan-rank-kernel-part-test-negated", BIASED,
     "        if part == KERNEL_PART:\n            lifted = lifted or not b.component_balanced(sc)\n",
     "        if part != KERNEL_PART:\n            lifted = lifted or not b.component_balanced(sc)\n",
     [TB + "test_gain_ranks_match_explicit_balanced_set"]),
    # each cycle's gain off the search that lists it, and masks read off
    # their set bits
    ("cycle-gain-reverse-orientation-not-inverted", GAINGRAPH,
     "        adj.setdefault(e.head, []).append((e.id, e.tail, inverse[e.gain]))\n",
     "        adj.setdefault(e.head, []).append((e.id, e.tail, e.gain))\n",
     [TGG + "test_cycle_gains_match_the_walk_of_each_cycle"]),
    ("frame-circuits-gain-derived-branch-negated", BIASED,
     "    if b.gain_derived:\n        flags = [x == 0 for _, x in listed]\n",
     "    if not b.gain_derived:\n        flags = [x == 0 for _, x in listed]\n",
     [TB + "test_frame_circuits_match_minimal_dependent_sets_on_sparse_ids"]),
    ("edge-index-ids-drops-the-lowest-set-bit", BIASED,
     "        ids, out = self._sorted, []\n        while mask:\n",
     "        ids, out = self._sorted, []\n        mask &= mask - 1\n        while mask:\n",
     [TB + "test_edge_index_ids_read_back_each_mask"]),
    # contraction, the one place that reads an edge's kind
    ("identity-loop-sent-to-the-complement-loop-rule", LIFTS,
     "    if e.gain == 0:\n        return delete(ctx, g, eid)\n",
     "    if e.gain == 0:\n        return _rewrite_loops(ctx, g, e)\n",
     [TL + "test_contract_identity_loop_falls_back_to_deletion",
      TL + "test_contract_picks_the_rule_for_each_edge_kind"]),
    ("contract-in-kernel-negated", LIFTS,
     "    if ctx.in_kernel(e.gain):\n        return _reembed_gains(ctx, g, e)\n",
     "    if not ctx.in_kernel(e.gain):\n        return _reembed_gains(ctx, g, e)\n",
     [TL + "test_contract_kernel_loop_d6",
      TL + "test_contract_picks_the_rule_for_each_edge_kind"]),
    ("same-part-loop-given-the-kernel-element", LIFTS,
     "        elif f.gain in part_set:\n",
     "        elif False:\n",
     [TL + "test_contract_unbalanced_loop_bullet_cases"]),
    # the group layer
    ("subgroups-joined-from-the-trivial-subgroup-only", GROUPS,
     "    frontier: list[tuple[Subgroup, tuple[int, ...]]] = []\n"
     "    cyclic_gens = []\n"
     "    for g in range(1, group.order):\n"
     "        c = generated_subgroup(group, (g,))\n"
     "        if c.elements not in found:\n"
     "            found[c.elements] = c\n"
     "            cyclic_gens.append(g)\n"
     "            frontier.append((c, (g,)))\n",
     "    frontier: list[tuple[Subgroup, tuple[int, ...]]] = [(found[(0,)], ())]\n"
     "    cyclic_gens = []\n"
     "    for g in range(1, group.order):\n"
     "        c = generated_subgroup(group, (g,))\n"
     "        if c.elements not in found:\n"
     "            found[c.elements] = c\n"
     "            cyclic_gens.append(g)\n",
     [TG + "test_subgroups_match_brute_force",
      TG + "test_subgroups_match_the_reference_join_search"]),
    ("close-expands-one-coset-only", GROUPS,
     "    for r in reps:\n",
     "    for r in reps[:1]:\n",
     [TG + "test_subgroups_match_brute_force",
      TG + "test_generated_subgroup_is_smallest_containing_subgroup"]),
    ("quotient-takes-a-normal-set-that-is-no-subgroup", GROUPS,
     "    fault = kernel_fault(group, normal)\n",
     "    fault = None if is_normal(group, normal) else \"kernel is not normal\"\n",
     [TG + "test_quotient_rejects_a_normal_set_that_is_no_subgroup"]),
    # K_n's ids: one edge cap, where they are laid out
    ("complete-pair-offsets-uncapped", GAINGRAPH,
     "    if count > MAX_COMPLETE_EDGES:\n",
     "    if False:\n",
     [TR + "test_edge_bundle_refuses_a_k_n_above_the_edge_cap_before_any_id"]),
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
