"""Recovering a Frobenius partition from an elementary lift over a complete
gain graph.

Given a group, a normal subgroup, and a rank oracle for an elementary lift of
the quotient frame matroid of the complete gain graph that respects balanced
cycles, this reconstructs the partition through bundle-rank queries and
re-verifies every property the reconstruction relies on.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Sequence

from .biased import BiasedGraph, FrameOracle, RankOracle, subset_sweep
from .errors import RecoveryError
from .gaingraph import (
    GainGraph,
    complete_edge_id,
    complete_gain_graph,
    enumerate_cycles,
    is_balanced_cycle,
    quotient_gains,
)
from .groups import (
    FiniteGroup,
    FrobeniusPartition,
    Subgroup,
    is_malnormal,
    is_normal,
    is_subgroup,
    quotient,
    validate_partition,
)
from .lifts import FrobeniusContext, LiftedMatroid, is_elementary_lift

EXHAUSTIVE_GROUP_ORDER = 10
EXHAUSTIVE_EDGE_LIMIT = 16


def edge_bundle(group: FiniteGroup, n: int, elements: Iterable[int]) -> tuple[int, ...]:
    """All edges of the complete gain graph whose gain lies in the given set."""
    out = []
    for alpha in sorted(set(elements)):
        if not 0 <= alpha < group.order:
            raise ValueError(f"element {alpha} out of range")
        for i in range(n):
            for j in range(i + 1, n):
                out.append(complete_edge_id(group, n, i, j, alpha))
    return tuple(sorted(out))


def _is_circuit(m: RankOracle, subset: Sequence[int]) -> bool:
    ids = sorted(subset)
    if m.rank(ids) != len(ids) - 1:
        return False
    return all(m.rank([x for x in ids if x != e]) == len(ids) - 1 for e in ids)


def _random_cycle(g: GainGraph, n: int, rng: random.Random, balanced: bool) -> list[int]:
    group = g.group
    # balanced digons do not exist in a complete gain graph (parallel edges
    # carry distinct gains), so balanced samples use length >= 3
    k = rng.randint(3 if balanced else 2, n)
    verts = rng.sample(range(n), k)
    gains = [rng.randrange(group.order) for _ in range(k)]
    if balanced:
        acc = 0
        for x in gains[:-1]:
            acc = group.mul(acc, x)
        gains[-1] = group.inv(acc)
    ids = []
    for t in range(k):
        i, j = verts[t], verts[(t + 1) % k]
        if i < j:
            ids.append(complete_edge_id(group, n, i, j, gains[t]))
        else:
            ids.append(complete_edge_id(group, n, j, i, group.inv(gains[t])))
    if len(set(ids)) != k:
        return []
    return sorted(ids)


def _check_cycle_hypothesis(
    group: FiniteGroup,
    n: int,
    g: GainGraph,
    m: RankOracle,
    rng: random.Random,
    samples: int,
) -> None:
    """A cycle must be a circuit of m exactly when it is balanced."""
    if group.order <= EXHAUSTIVE_GROUP_ORDER:
        cycles: Iterable[Sequence[int]] = enumerate_cycles(g, max_edges=len(g.edges))
    else:
        seen = set()
        # all digons (the sharpest probes), plus random cycles of both kinds
        for i, j in itertools.combinations(range(n), 2):
            for a, b in itertools.combinations(range(group.order), 2):
                seen.add(
                    (
                        complete_edge_id(group, n, i, j, a),
                        complete_edge_id(group, n, i, j, b),
                    )
                )
        for _ in range(samples):
            for want_balanced in (False, True):
                c = _random_cycle(g, n, rng, want_balanced)
                if c:
                    seen.add(tuple(c))
        cycles = sorted(seen)
    for cycle in cycles:
        balanced = is_balanced_cycle(g, cycle)
        if balanced != _is_circuit(m, cycle):
            raise RecoveryError(
                f"cycle {tuple(cycle)} is {'balanced' if balanced else 'unbalanced'} "
                f"but is {'not ' if balanced else ''}a circuit of the lift"
            )


def _check_elementary(
    m: RankOracle,
    frame: RankOracle,
    rng: random.Random,
    samples: int,
) -> None:
    ids = list(m.ground)
    if tuple(frame.ground) != tuple(ids):
        raise RecoveryError("ground sets of the lift and frame oracles differ")
    if len(ids) <= EXHAUSTIVE_EDGE_LIMIT:
        ok, witness = is_elementary_lift(m, frame)
        if not ok:
            raise RecoveryError(f"not an elementary lift of the frame matroid: {witness}")
        return
    if m.rank(()) != 0:
        raise RecoveryError("rank of the empty set is not zero")
    for subset in subset_sweep(ids, EXHAUSTIVE_EDGE_LIMIT, samples, rng):
        d = m.rank(subset) - frame.rank(subset)
        if d not in (0, 1):
            raise RecoveryError(
                f"subset {tuple(subset)} has lift rank {d} above the frame rank"
            )


def recover_partition(
    group: FiniteGroup,
    kernel: Subgroup,
    n: int,
    m: RankOracle,
    seed: int = 0,
    samples: int = 1500,
    verify_sweep: int = 1500,
) -> FrobeniusPartition:
    """Reconstruct the partition whose lift over the complete gain graph is m.

    Relates two non-kernel elements when the rank of their joint bundle with
    the identity stays at n; the classes (plus the identity) are verified to
    be malnormal subgroups forming a conjugation-closed exact cover, and the
    reconstructed matroid is checked against m before returning.
    """
    if n < 4:
        raise RecoveryError("recovery requires n >= 4")
    if not is_subgroup(group, kernel.elements) or not is_normal(group, kernel):
        raise RecoveryError("the declared kernel is not a normal subgroup")
    rng = random.Random(seed)
    g = complete_gain_graph(group, n)
    if tuple(m.ground) != tuple(e.id for e in g.edges):
        raise RecoveryError("oracle ground set does not match the complete gain graph")
    qm = quotient(group, kernel)
    frame = FrameOracle(BiasedGraph.from_gain_graph(quotient_gains(g, qm)))
    _check_elementary(m, frame, rng, samples)
    _check_cycle_hypothesis(group, n, g, m, rng, samples)

    kernel_set = kernel.element_set
    if len(kernel_set) == group.order:
        partition = FrobeniusPartition(kernel, ())
    else:
        outside = [x for x in group.elements() if x not in kernel_set]
        full = m.rank(m.ground)
        if full == n:
            if kernel.order > 1:
                raise RecoveryError(
                    "rank n with a nontrivial kernel contradicts the cycle hypothesis"
                )
            partition = FrobeniusPartition(kernel, (Subgroup(tuple(group.elements())),))
        elif full != n + 1:
            raise RecoveryError(f"full rank {full} is neither n nor n+1")
        else:
            for alpha in outside:
                if m.rank(edge_bundle(group, n, (0, alpha))) != n:
                    raise RecoveryError(
                        f"bundle of the identity and {alpha} does not have rank n"
                    )
            related: dict[int, set[int]] = {a: {a} for a in outside}
            for alpha, beta in itertools.combinations(outside, 2):
                if m.rank(edge_bundle(group, n, (0, alpha, beta))) == n:
                    related[alpha].add(beta)
                    related[beta].add(alpha)
            classes: list[frozenset[int]] = []
            for alpha in outside:
                cls = frozenset(related[alpha])
                if cls not in classes:
                    classes.append(cls)
            for cls in classes:
                for beta in cls:
                    if related[beta] != set(cls):
                        raise RecoveryError(
                            "bundle relation is not an equivalence relation "
                            f"(witness classes of {min(cls)} and {beta})"
                        )
            comps = []
            for cls in classes:
                elems = tuple(sorted(cls | {0}))
                if not is_subgroup(group, elems):
                    raise RecoveryError(f"recovered class {elems} is not a subgroup")
                sub = Subgroup(elems)
                if not is_malnormal(group, sub):
                    raise RecoveryError(f"recovered subgroup {elems} is not malnormal")
                comps.append(sub)
            partition = FrobeniusPartition(
                kernel, tuple(sorted(comps, key=lambda s: s.elements))
            )
            validate_partition(group, partition)

    reconstructed = LiftedMatroid(FrobeniusContext(group, partition, validate=False), g)
    ids = list(m.ground)
    subsets: Iterable[Sequence[int]] = subset_sweep(ids, EXHAUSTIVE_EDGE_LIMIT, verify_sweep, rng)
    if len(ids) > EXHAUSTIVE_EDGE_LIMIT:
        structured = [
            edge_bundle(group, n, (0, a, b))
            for a, b in itertools.combinations_with_replacement(group.elements(), 2)
        ]
        subsets = itertools.chain(structured, subsets)
    for subset in subsets:
        if m.rank(subset) != reconstructed.rank(subset):
            raise RecoveryError(
                f"reconstructed matroid disagrees with the input on {tuple(sorted(subset))}"
            )
    return partition


def induced_edge_permutation(
    group: FiniteGroup, n: int, eta: Sequence[int]
) -> dict[int, int]:
    """Edge map of switching on the complete gain graph: the (i, j) edge with
    gain alpha goes to the edge with gain eta_i^-1 ∘ alpha ∘ eta_j."""
    if len(eta) != n:
        raise ValueError("switching function length must be n")
    perm = {}
    for i in range(n):
        for j in range(i + 1, n):
            for alpha in group.elements():
                new = group.mul(group.mul(group.inv(eta[i]), alpha), eta[j])
                perm[complete_edge_id(group, n, i, j, alpha)] = complete_edge_id(
                    group, n, i, j, new
                )
    return perm


def switching_action_check(
    group: FiniteGroup,
    kernel: Subgroup,
    n: int,
    linear_class: Iterable[Iterable[int]],
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """Single-vertex switchings must map the class onto itself.

    Requires n >= 3 and that every balanced cycle is in the class (spot-checked
    on triangles).
    """
    if n < 3:
        raise ValueError("the switching action needs n >= 3")
    g = complete_gain_graph(group, n)
    members = {frozenset(c) for c in linear_class}
    rng = random.Random(seed)
    for _ in range(samples):
        alpha, beta = rng.randrange(group.order), rng.randrange(group.order)
        tri = sorted(
            (
                complete_edge_id(group, n, 0, 1, alpha),
                complete_edge_id(group, n, 1, 2, beta),
                complete_edge_id(group, n, 0, 2, group.mul(alpha, beta)),
            )
        )
        if frozenset(tri) not in members:
            raise ValueError(
                f"hypothesis violated: balanced triangle {tuple(tri)} is missing"
            )
    for _ in range(samples):
        v = rng.randrange(n)
        gamma = rng.randrange(group.order)
        eta = [0] * n
        eta[v] = gamma
        perm = induced_edge_permutation(group, n, eta)
        image = {frozenset(perm[e] for e in c) for c in members}
        if image != members:
            return False
    return True
