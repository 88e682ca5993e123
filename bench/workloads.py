"""Seeded job lists for the three benchmark workloads.

A job is the library call behind one CLI subcommand, made in-process. Each
workload builder is the benchmark's set-up: it builds every group, partition,
context and graph a job needs, so the timed loop runs frobmat's work only.

The builders fix *which* instances a run covers and let the seed vary how
they are presented (job order, vertex and element labels, switching, group
presentation, recovery sampling seed). That keeps the cost mix of every run
the same, so runs with different seeds can be compared, while the program
still receives different inputs for every seed. Each job's output is reduced
to a canonical text that is compared with a committed reference digest; for
presentations that relabel the input, the output is mapped back first.

Functions are looked up on the frobmat modules at call time, so a tracer that
rebinds them sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import frobmat.biased as biased
import frobmat.fileio as fileio
import frobmat.gaingraph as gaingraph
import frobmat.groups as groups
import frobmat.lifts as lifts
import frobmat.recovery as recovery
import frobmat.represent as represent

WORKLOADS = ("catalog", "structure", "converse")


@dataclass
class Job:
    """One unit of timed work.

    ``key`` names the reference digest its output must match, ``run`` does
    the work and ``canon`` turns the output into the text that is digested.
    ``inputs`` holds what the seed generated for the job.
    """

    key: str
    run: Callable[[], Any]
    canon: Callable[[Any], str]
    inputs: Any = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def build(workload: str, seed: int) -> list[Job]:
    return BUILDERS[workload](seed)


# ---------------------------------------------------------------------------
# catalog: group_from_spec + frobenius_partitions on distinct specs


def _cyclic(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def _dihedral(order: int) -> dict:
    return {"kind": "dihedral", "order": order}


def _direct(*factors: dict) -> dict:
    return {"kind": "direct", "factors": list(factors)}


def _cyclic_action(m: int, k: int, u: int) -> dict:
    """Z_m ⋊ Z_k where the generator of Z_k multiplies by the unit u."""
    action = [[pow(u, b, m) * x % m for x in range(m)] for b in range(k)]
    return {"kind": "semidirect", "g1": _cyclic(m), "g2": _cyclic(k), "action": action}


def _name(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "cyclic":
        return f"Z{spec['n']}"
    if kind == "dihedral":
        return f"D{spec['order']}"
    if kind == "field_affine":
        return f"AGL(1,{spec['q']})"
    if kind == "inversion":
        return f"Inv({_name(spec['base'])})"
    if kind == "direct":
        return "x".join(_name(f) for f in spec["factors"])
    m, k = len(spec["action"][0]), len(spec["action"])
    u = spec["action"][1][1] if k > 1 else 1
    return f"Z{m}:{u}Z{k}"


def catalog_slots() -> list[list[dict]]:
    """Every catalog instance, each as its list of equivalent presentations.

    Orders run from 6 to 56 across the cyclic, dihedral, direct, semidirect,
    field_affine (q <= 7) and inversion families. A slot's presentations are
    isomorphic groups with different Cayley tables (direct factors swapped,
    or another generator of the same group of units acting), so the seed can
    vary the input without changing the instance's cost class.
    """
    slots: list[list[dict]] = []
    for n in range(6, 57):
        slots.append([_cyclic(n)])
    for order in range(6, 57, 2):
        slots.append([_dihedral(order)])
    for q in (3, 5, 7):
        slots.append([{"kind": "field_affine", "q": q}])
    for n in range(3, 24, 2):
        slots.append([{"kind": "inversion", "base": _cyclic(n)}])
    for a in (3, 5):
        slots.append([{"kind": "inversion", "base": _direct(_cyclic(a), _cyclic(a))}])
    pairs = [
        (_cyclic(2), _cyclic(4)), (_cyclic(2), _cyclic(6)), (_cyclic(2), _cyclic(8)),
        (_cyclic(2), _cyclic(12)), (_cyclic(2), _cyclic(18)), (_cyclic(2), _cyclic(24)),
        (_cyclic(3), _cyclic(6)), (_cyclic(3), _cyclic(12)), (_cyclic(3), _cyclic(15)),
        (_cyclic(4), _cyclic(4)), (_cyclic(4), _cyclic(8)), (_cyclic(5), _cyclic(10)),
        (_cyclic(6), _cyclic(6)),
        (_cyclic(2), _dihedral(6)), (_cyclic(2), _dihedral(10)), (_cyclic(2), _dihedral(14)),
        (_cyclic(2), _dihedral(20)), (_cyclic(3), _dihedral(6)), (_cyclic(3), _dihedral(10)),
        (_cyclic(3), _dihedral(14)), (_cyclic(4), _dihedral(6)), (_cyclic(4), _dihedral(10)),
        (_cyclic(5), _dihedral(6)), (_cyclic(2), {"kind": "field_affine", "q": 5}),
        (_dihedral(6), _dihedral(6)),
    ]
    for a, b in pairs:
        slots.append([_direct(a, b)] if a == b else [_direct(a, b), _direct(b, a)])
    for m, k, units in (
        (3, 4, (2,)), (5, 4, (2, 3)), (7, 3, (2, 4)), (7, 6, (3, 5)), (9, 2, (8,)),
        (11, 5, (3, 4)), (13, 3, (3, 9)), (13, 4, (5, 8)),
        (3, 8, (2,)), (5, 8, (2, 3)), (8, 2, (3,)), (8, 2, (5,)), (8, 4, (3,)),
        (16, 2, (7,)), (12, 2, (5,)), (7, 2, (6,)), (11, 2, (10,)),
    ):
        slots.append([_cyclic_action(m, k, u) for u in units])
    return slots


def _catalog_job(spec: dict) -> Job:
    text = json.dumps(spec)

    def run():
        group = fileio.group_from_spec(json.loads(text))
        return group, groups.frobenius_partitions(group)

    def canon(out) -> str:
        group, parts = out
        return "\n".join(
            fileio.format_partition(group, p, i) for i, p in enumerate(parts, start=1)
        )

    return Job(_name(spec), run, canon, text)


def build_catalog(seed: int) -> list[Job]:
    rng = random.Random(f"catalog/{seed}")
    jobs = [_catalog_job(rng.choice(slot)) for slot in catalog_slots()]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# structure: one verdict on a small gain graph under a fixed partition

STRUCTURE_GROUPS = {
    "D6": {"kind": "dihedral", "order": 6},
    "AGL(1,5)": {"kind": "field_affine", "q": 5},
    "Inv(Z9)": {"kind": "inversion", "base": {"kind": "cyclic", "n": 9}},
}

# (kind, edge counts); axiom and representation sweeps are exhaustive over
# subsets, so they stop at 12 edges
STRUCTURE_KINDS = (
    ("circuits", (8, 10, 12, 14)),
    ("linear_class", (8, 10, 12, 14)),
    ("bases", (8, 10, 12, 14)),
    ("axioms", (8, 10, 11, 12)),
    ("representation", (8, 10, 11, 12)),
)


def structure_instances() -> list[tuple[str, str, int, int, int, list]]:
    """The fixed instance list: (kind, group, partition index, vertices,
    edges, triples) for every kind, group, partition and edge count.

    Graphs have 3-5 vertices and loops and parallel edges are allowed. They
    come from a constant seed, so every run covers the same instances.
    """
    out = []
    for kind, edge_counts in STRUCTURE_KINDS:
        for gname, spec in STRUCTURE_GROUPS.items():
            if kind == "representation" and spec["kind"] != "field_affine":
                continue
            order = fileio.group_from_spec(spec).order
            for pi in range(3):
                for ne in edge_counts:
                    rng = random.Random(f"structure/{kind}/{gname}/{pi}/{ne}")
                    nv = rng.randint(3, 5)
                    triples = [
                        (rng.randrange(nv), rng.randrange(nv), rng.randrange(order))
                        for _ in range(ne)
                    ]
                    out.append((kind, gname, pi, nv, ne, triples))
    return out


def _present(group, nv: int, triples: list, rng: random.Random) -> list:
    """Switch by a random function, then relabel the vertices.

    Both leave the matroid on the edge ids unchanged, so every structural
    answer is the same as for the instance itself.
    """
    eta = [rng.randrange(group.order) for _ in range(nv)]
    perm = list(range(nv))
    rng.shuffle(perm)
    out = []
    for t, h, g in triples:
        gain = group.mul(group.mul(group.inv(eta[t]), g), eta[h])
        out.append((perm[t], perm[h], gain))
    return out


def _structure_job(kind: str, key: str, ctx, graph, inputs=None) -> Job:
    if kind == "circuits":
        def run():
            return lifts.circuits(ctx, graph)
        canon = fileio.format_circuits
    elif kind == "linear_class":
        def run():
            # what `frobmat verify --linear-class` does
            oracle = lifts.LiftedMatroid(ctx, graph)
            qb = oracle.quotient_biased
            cand = lifts.linear_class(ctx, graph)
            verdict = biased.is_linear_class(
                biased.FrameOracle(qb), biased.frame_circuits(qb), cand
            )
            return cand, verdict

        def canon(out):
            return fileio.format_circuits(out[0]) + repr(out[1])
    elif kind == "bases":
        def run():
            return lifts.bases(ctx, graph)
        canon = fileio.format_circuits
    elif kind == "axioms":
        def run():
            return biased.matroid_axiom_check(lifts.LiftedMatroid(ctx, graph))
        canon = repr
    else:
        def run():
            return represent.verify_representation(ctx, graph)
        canon = repr
    return Job(key, run, canon, inputs)


def build_structure(seed: int) -> list[Job]:
    rng = random.Random(f"structure/{seed}")
    contexts = {}
    for gname, spec in STRUCTURE_GROUPS.items():
        group = fileio.group_from_spec(spec)
        ctxs = [
            lifts.FrobeniusContext(group, p, validate=False)
            for p in groups.frobenius_partitions(group)
        ]
        for ctx in ctxs:
            ctx.quotient  # built here, not by whichever job comes first
        contexts[gname] = ctxs
    jobs = []
    for kind, gname, pi, nv, ne, triples in structure_instances():
        ctx = contexts[gname][pi]
        presented = _present(ctx.group, nv, triples, rng)
        graph = gaingraph.GainGraph.from_triples(ctx.group, nv, presented)
        key = f"{kind}:{gname}:p{pi}:e{ne}"
        jobs.append(_structure_job(kind, key, ctx, graph, presented))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# converse: recover_partition on K_n with a LiftedMatroid oracle


def quaternion_spec() -> dict:
    """Q8 as a table spec; elements 1,-1,i,-i,j,-j,k,-k in that order."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def product(a: str, b: str) -> str:
        negative = a.startswith("-") != b.startswith("-")
        a, b = a.lstrip("-"), b.lstrip("-")
        r = b if a == "1" else a if b == "1" else base[(a, b)]
        if negative:
            r = r[1:] if r.startswith("-") else "-" + r
        return r

    return {"kind": "table", "table": [[names.index(product(a, b)) for b in names] for a in names]}


CONVERSE_GROUPS = {
    "Z12": _cyclic(12),
    "Z16": _cyclic(16),
    "D6": _dihedral(6),
    "D8": _dihedral(8),
    "D10": _dihedral(10),
    "D14": _dihedral(14),
    "D18": _dihedral(18),
    "D20": _dihedral(20),
    "Q8": quaternion_spec(),
    "A4": {
        "kind": "semidirect",
        "g1": _direct(_cyclic(2), _cyclic(2)),
        "g2": _cyclic(3),
        "action": [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
    },
    "Dic3": _cyclic_action(3, 4, 2),
    "GDih(3x3)": {"kind": "inversion", "base": _direct(_cyclic(3), _cyclic(3))},
    "AGL(1,5)": {"kind": "field_affine", "q": 5},
    "AGL(1,3)": {"kind": "field_affine", "q": 3},
}

# recover_partition's exhaustive cycle check on K_5 over a group of order
# <= 10 enumerates more than a million cycles and raises LimitExceeded, so K_5
# is drawn only over larger groups (see README.md)
EXHAUSTIVE_K5_ORDER = 10


def _map_partition(p, perm: list[int]):
    def sub(s):
        return groups.Subgroup(tuple(sorted(perm[x] for x in s.elements)))

    return groups.FrobeniusPartition(
        sub(p.kernel), tuple(sorted((sub(c) for c in p.complements), key=lambda s: s.elements))
    )


def partition_text(p) -> str:
    lines = ["kernel " + ",".join(map(str, p.kernel.elements))]
    lines += ["complement " + ",".join(map(str, c.elements)) for c in p.complements]
    return "\n".join(lines)


def build_converse(seed: int) -> list[Job]:
    """Recoveries over the order-20 catalog.

    Each group of order above 10 gets K_4 and K_5 on two different
    partitions, each smaller group K_4 on one. The partition indices rotate
    with the group's position, so that lift, frame and nontrivial partitions
    all occur, and are the same for every seed, so every run has the same
    cost mix. The seed relabels each group's elements, seeds
    recover_partition's sampling and orders the jobs.
    """
    rng = random.Random(f"converse/{seed}")
    jobs = []
    for g, (gname, spec) in enumerate(CONVERSE_GROUPS.items()):
        base = fileio.group_from_spec(spec)
        parts = groups.frobenius_partitions(base)
        perm = [0] + rng.sample(range(1, base.order), base.order - 1)
        inverse = [0] * base.order
        for a, b in enumerate(perm):
            inverse[b] = a
        table = [[0] * base.order for _ in range(base.order)]
        for a in range(base.order):
            for b in range(base.order):
                table[perm[a]][perm[b]] = perm[base.table[a][b]]
        group = fileio.group_from_spec({"kind": "table", "table": table})
        found = groups.frobenius_partitions(group)
        sizes = [4] if base.order <= EXHAUSTIVE_K5_ORDER else [4, 5]
        for k, n in enumerate(sizes):
            pi = (g + k) % len(parts)
            part = _map_partition(parts[pi], perm)
            if part not in found:
                raise AssertionError(f"relabeled partition {pi} of {gname} not found")
            ctx = lifts.FrobeniusContext(group, part, validate=False)
            oracle = lifts.LiftedMatroid(ctx, gaingraph.complete_gain_graph(group, n))
            rseed = rng.randrange(2**31)
            jobs.append(_converse_job(gname, pi, n, group, part, oracle, rseed, inverse))
    rng.shuffle(jobs)
    return jobs


def _converse_job(gname, pi, n, group, part, oracle, rseed, inverse) -> Job:
    def run():
        return recovery.recover_partition(group, part.kernel, n, oracle, seed=rseed)

    def canon(out) -> str:
        # the recovered partition must be the input partition; in the
        # original labels it must match the reference
        if out != part:
            return "recovered a different partition:\n" + partition_text(out)
        return partition_text(_map_partition(out, inverse))

    return Job(f"{gname}:p{pi}", run, canon, (group.table, n, rseed))


BUILDERS = {
    "catalog": build_catalog,
    "structure": build_structure,
    "converse": build_converse,
}


def reference_jobs(workload: str) -> list[Job]:
    """Every instance a workload can draw, in its plain presentation.

    These are the jobs whose outputs the committed reference records.
    """
    if workload == "catalog":
        return [_catalog_job(spec) for slot in catalog_slots() for spec in slot]
    if workload == "structure":
        contexts = {}
        for gname, spec in STRUCTURE_GROUPS.items():
            group = fileio.group_from_spec(spec)
            contexts[gname] = [
                lifts.FrobeniusContext(group, p, validate=False)
                for p in groups.frobenius_partitions(group)
            ]
        return [
            _structure_job(
                kind, f"{kind}:{gname}:p{pi}:e{ne}", contexts[gname][pi],
                gaingraph.GainGraph.from_triples(contexts[gname][pi].group, nv, triples),
            )
            for kind, gname, pi, nv, ne, triples in structure_instances()
        ]
    jobs = []
    for gname, spec in CONVERSE_GROUPS.items():
        group = fileio.group_from_spec(spec)
        identity = list(range(group.order))
        for pi, part in enumerate(groups.frobenius_partitions(group)):
            ctx = lifts.FrobeniusContext(group, part, validate=False)
            oracle = lifts.LiftedMatroid(ctx, gaingraph.complete_gain_graph(group, 4))
            jobs.append(_converse_job(gname, pi, 4, group, part, oracle, 0, identity))
    return jobs
