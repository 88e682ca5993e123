"""Build or verify ``reference.json``, the expected output of every job.

    python3 bench/reference.py            # recompute, compare, cross-check
    python3 bench/reference.py --write    # recompute and write the file

The reference holds one digest per instance a workload can draw, computed
from each instance's plain presentation. Verifying also checks the digests
against routes that share no code with the job they check:

- catalog: the known partition counts D6:3 (kernels 6, 1, 3), Z4:2, Q8:2;
- structure, on instances with at most 10 edges: circuits against
  ``minimal_dependent_sets`` of ``brylawski_lift``; the linear class against
  the lift's minimal dependent sets that are frame circuits; bases against a
  brute-force scan of ``brylawski_lift``; the axiom verdict against
  ``brylawski_lift`` ranks on every subset; the representation verdict and
  witness against ``VectorOracle`` ranks on every subset (the matrix
  represents the lift of the nontrivial partition only, so on the lift and
  frame partitions the verdict is a failure with its witness subset);
- converse: each recovered partition equals the partition the oracle was
  built from.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
CROSS_CHECK_EDGES = 10


def compute(workload: str) -> dict[str, str]:
    from workloads import digest, reference_jobs

    out = {}
    for job in reference_jobs(workload):
        if job.key in out:
            raise AssertionError(f"duplicate instance key {job.key}")
        out[job.key] = digest(job.canon(job.run()))
    return out


def cross_check_catalog(ref: dict[str, str]) -> int:
    import frobmat.fileio as fileio
    import frobmat.groups as groups
    from workloads import _catalog_job, digest, quaternion_spec

    d6 = groups.frobenius_partitions(groups.make_dihedral(6))
    assert [p.kernel.order for p in d6] == [6, 1, 3], "D6 catalog"
    assert len(groups.frobenius_partitions(groups.make_cyclic(4))) == 2, "Z4 catalog"
    q8 = fileio.group_from_spec(quaternion_spec())
    assert len(groups.frobenius_partitions(q8)) == 2, "Q8 catalog"
    job = _catalog_job({"kind": "dihedral", "order": 6})
    assert ref["D6"] == digest(job.canon((groups.make_dihedral(6), d6))), "D6 reference"
    return 3


def _lift_route(ctx, graph):
    """brylawski_lift of the quotient frame matroid with the structural class."""
    import frobmat.biased as biased
    import frobmat.lifts as lifts

    qb = lifts.LiftedMatroid(ctx, graph).quotient_biased
    host = biased.FrameOracle(qb)
    host_circuits = biased.minimal_dependent_sets(host)
    members = lifts.linear_class(ctx, graph)
    return host, host_circuits, biased.brylawski_lift(host, host_circuits, members)


def cross_check_structure(ref: dict[str, str]) -> int:
    import frobmat.biased as biased
    import frobmat.fileio as fileio
    import frobmat.gaingraph as gaingraph
    import frobmat.groups as groups
    import frobmat.lifts as lifts
    import frobmat.represent as represent
    from workloads import STRUCTURE_GROUPS, digest, structure_instances

    contexts = {}
    for gname, spec in STRUCTURE_GROUPS.items():
        group = fileio.group_from_spec(spec)
        contexts[gname] = [
            lifts.FrobeniusContext(group, p, validate=False)
            for p in groups.frobenius_partitions(group)
        ]
    checked = 0
    for kind, gname, pi, nv, ne, triples in structure_instances():
        if ne > CROSS_CHECK_EDGES:
            continue
        ctx = contexts[gname][pi]
        graph = gaingraph.GainGraph.from_triples(ctx.group, nv, triples)
        host, host_circuits, lift = _lift_route(ctx, graph)
        ground = lift.ground
        if kind == "circuits":
            text = fileio.format_circuits(biased.minimal_dependent_sets(lift))
        elif kind == "linear_class":
            oracle = lifts.LiftedMatroid(ctx, graph)
            frame = set(host_circuits)
            members = [c for c in biased.minimal_dependent_sets(oracle) if c in frame]
            text = fileio.format_circuits(members) + repr((True, None))
        elif kind == "bases":
            r = lift.full_rank()
            text = fileio.format_circuits(
                c for c in itertools.combinations(ground, r) if lift.rank(c) == r
            )
        else:
            # the verdict is the first subset, in verify_representation's
            # order, on which the two rank routes disagree
            oracle = (
                lifts.LiftedMatroid(ctx, graph)
                if kind == "axioms"
                else represent.VectorOracle(
                    represent.incidence_matrix(graph), [e.id for e in graph.edges]
                )
            )
            witness = next(
                (
                    s
                    for k in range(len(ground) + 1)
                    for s in itertools.combinations(ground, k)
                    if oracle.rank(s) != lift.rank(s)
                ),
                None,
            )
            if kind == "axioms":
                assert witness is None, f"{kind}: rank routes disagree on {witness}"
                witness = biased.matroid_axiom_check(lift)[1]
            text = repr((witness is None, witness))
        key = f"{kind}:{gname}:p{pi}:e{ne}"
        assert ref[key] == digest(text), f"{key}: reference differs from the independent route"
        checked += 1
    return checked


def cross_check_converse(ref: dict[str, str]) -> int:
    import frobmat.fileio as fileio
    import frobmat.gaingraph as gaingraph
    import frobmat.groups as groups
    import frobmat.lifts as lifts
    import frobmat.recovery as recovery
    from workloads import CONVERSE_GROUPS, digest, partition_text

    checked = 0
    for gname, spec in CONVERSE_GROUPS.items():
        group = fileio.group_from_spec(spec)
        for pi, part in enumerate(groups.frobenius_partitions(group)):
            ctx = lifts.FrobeniusContext(group, part, validate=False)
            oracle = lifts.LiftedMatroid(ctx, gaingraph.complete_gain_graph(group, 4))
            recovered = recovery.recover_partition(group, part.kernel, 4, oracle)
            assert recovered == part, f"{gname}:p{pi}: round trip"
            assert ref[f"{gname}:p{pi}"] == digest(partition_text(part)), f"{gname}:p{pi}"
            checked += 1
    return checked


CROSS_CHECKS = {
    "catalog": cross_check_catalog,
    "structure": cross_check_structure,
    "converse": cross_check_converse,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="write reference.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH.parent / "src"))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    path = BENCH / "reference.json"
    fresh = {w: compute(w) for w in WORKLOADS}
    if args.write:
        path.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {sum(map(len, fresh.values()))} digests to {path.name}")
        return 0
    committed = json.loads(path.read_text())
    status = 0
    for w in WORKLOADS:
        if fresh[w] != committed[w]:
            differ = sorted(k for k in fresh[w].keys() | committed[w].keys()
                            if fresh[w].get(k) != committed[w].get(k))
            print(f"{w}: {len(differ)} digests differ from {path.name}, e.g. {differ[:3]}")
            status = 1
            continue
        n = CROSS_CHECKS[w](committed[w])
        print(f"{w}: {len(fresh[w])} digests match; {n} cross-checked by independent routes")
    return status


if __name__ == "__main__":
    sys.exit(main())
