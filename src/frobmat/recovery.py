"""Recovering a Frobenius partition from an elementary lift over a complete
gain graph.

Given a group, a normal subgroup, and a rank oracle for an elementary lift of
the quotient frame matroid of the complete gain graph that respects balanced
cycles, this reconstructs the partition through bundle-rank queries and
re-verifies every property the reconstruction relies on.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Optional, Sequence

from .biased import (
    EXHAUSTIVE_LIMIT,
    BiasedGraph,
    FrameOracle,
    RankOracle,
    first_disagreement,
    subset_sweep,
)
from .errors import LimitExceeded, RecoveryError
from .gaingraph import (
    DEFAULT_CYCLE_COUNT_LIMIT,
    complete_edge_id,
    complete_gain_graph,
    complete_pair_offsets,
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
# Random draws per sampled check: cycles of each kind in the cycle
# hypothesis, and subsets in the elementary check and the final comparison
SAMPLES = 1500


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


def _is_circuit(m: RankOracle, ids: Sequence[int]) -> bool:
    """True iff the sorted ids form a circuit of m."""
    r = len(ids) - 1
    if m.rank(ids) != r:
        return False
    return all(m.rank([x for x in ids if x != e]) == r for e in ids)


def _complete_cycle(
    group: FiniteGroup, n: int, verts: Sequence[int], gains: Sequence[int]
) -> tuple[tuple[int, ...], bool]:
    """The closed walk on K_n through the distinct ``verts`` whose step from
    verts[t] to verts[t+1] carries gain gains[t]: its sorted edge ids, and
    whether it is balanced (the product of its gains is the identity).

    A balanced walk of length two uses one edge twice, so it is no cycle.
    """
    table, inverse = group.table, group.inverse
    offset = complete_pair_offsets(group.order, n)
    k = len(verts)
    acc = 0
    ids = []
    for t in range(k):
        i, j, x = verts[t], verts[(t + 1) % k], gains[t]
        acc = table[acc][x]
        ids.append(offset[i][j] + (x if i < j else inverse[x]))
    ids.sort()
    return tuple(ids), acc == 0


def _complete_digons(group: FiniteGroup, n: int) -> Iterable[tuple[tuple[int, ...], bool]]:
    """Every digon of K_n with its balance flag; parallel edges carry
    distinct gains, so none is balanced."""
    inverse = group.inverse
    for i, j in itertools.combinations(range(n), 2):
        for a, b in itertools.combinations(range(group.order), 2):
            yield _complete_cycle(group, n, (i, j), (a, inverse[b]))


def complete_cycle_count(group_order: int, n: int) -> int:
    """The number of cycles of K_n over a group of the given order:
    sum over k >= 3 of C(n,k)·(k-1)!/2·|G|^k vertex cycles with gain words,
    plus C(n,2)·C(|G|,2) digons."""
    longer = sum(
        math.comb(n, k) * math.factorial(k - 1) // 2 * group_order**k for k in range(3, n + 1)
    )
    return longer + math.comb(n, 2) * math.comb(group_order, 2)


def _all_complete_cycles(group: FiniteGroup, n: int) -> list[tuple[tuple[int, ...], bool]]:
    """Every cycle of K_n with its balance flag, sorted by edge ids.

    Each vertex cycle is listed once, from its least vertex in the direction
    whose second vertex is below its last, and crossed with every gain word.
    The count is checked against the enumeration cap before anything is built.
    """
    if complete_cycle_count(group.order, n) > DEFAULT_CYCLE_COUNT_LIMIT:
        raise LimitExceeded(f"more than {DEFAULT_CYCLE_COUNT_LIMIT} cycles")
    out = list(_complete_digons(group, n))
    for k in range(3, n + 1):
        for first, *rest in itertools.combinations(range(n), k):
            for tail in itertools.permutations(rest):
                if tail[0] > tail[-1]:
                    continue
                verts = (first,) + tail
                for word in itertools.product(range(group.order), repeat=k):
                    out.append(_complete_cycle(group, n, verts, word))
    out.sort()
    return out


def _random_cycle(
    group: FiniteGroup, n: int, rng: random.Random, balanced: bool
) -> Optional[tuple[tuple[int, ...], bool]]:
    """A random cycle of K_n and its balance flag, or None for a balanced
    digon, which is one edge walked twice."""
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
    cycle = _complete_cycle(group, n, verts, gains)
    if k == 2 and cycle[1]:
        return None
    return cycle


def _check_cycle_hypothesis(
    group: FiniteGroup,
    n: int,
    m: RankOracle,
    rng: random.Random,
) -> None:
    """A cycle must be a circuit of m exactly when it is balanced."""
    if group.order <= EXHAUSTIVE_GROUP_ORDER:
        cycles = _all_complete_cycles(group, n)
    else:
        # all digons (the sharpest probes), plus random cycles of both kinds
        found = dict(_complete_digons(group, n))
        for _ in range(SAMPLES):
            for want_balanced in (False, True):
                c = _random_cycle(group, n, rng, want_balanced)
                if c is not None:
                    found[c[0]] = c[1]
        cycles = sorted(found.items())
    for cycle, balanced in cycles:
        if balanced != _is_circuit(m, cycle):
            raise RecoveryError(
                f"cycle {cycle} is {'balanced' if balanced else 'unbalanced'} "
                f"but is {'not ' if balanced else ''}a circuit of the lift"
            )


def _check_elementary(
    m: RankOracle, frame: RankOracle, bundled: Sequence[int], rng: random.Random
) -> None:
    """m must be an elementary lift of ``frame``: checked on every subset
    when the ground has at most EXHAUSTIVE_LIMIT edges, else on random
    halves of the ground listed as ``bundled``."""
    if tuple(frame.ground) != tuple(m.ground):
        raise RecoveryError("ground sets of the lift and frame oracles differ")
    if len(bundled) <= EXHAUSTIVE_LIMIT:
        ok, witness = is_elementary_lift(m, frame)
        if not ok:
            raise RecoveryError(f"not an elementary lift of the frame matroid: {witness}")
        return
    if m.rank(()) != 0:
        raise RecoveryError("rank of the empty set is not zero")
    for subset in subset_sweep(bundled, SAMPLES, rng):
        d = m.rank(subset) - frame.rank(subset)
        if d not in (0, 1):
            raise RecoveryError(
                f"subset {tuple(sorted(subset))} has lift rank {d} above the frame rank"
            )


def recover_partition(
    group: FiniteGroup,
    kernel: Subgroup,
    n: int,
    m: RankOracle,
    seed: int = 0,
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
    # the ground bundle by bundle, the identity bundle first: a random half
    # listed this way reaches a spanning forest of identity edges, and then
    # its first unbalanced edges, within a few reads, where a rank pass stops
    bundled = tuple(e for a in group.elements() for e in edge_bundle(group, n, (a,)))
    qm = quotient(group, kernel)
    frame = FrameOracle(BiasedGraph.from_gain_graph(quotient_gains(g, qm)))
    _check_elementary(m, frame, bundled, rng)
    _check_cycle_hypothesis(group, n, m, rng)

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
    sample = None
    if len(bundled) > EXHAUSTIVE_LIMIT:
        structured = (
            edge_bundle(group, n, (0, a, b))
            for a, b in itertools.combinations_with_replacement(group.elements(), 2)
        )
        sample = itertools.chain(structured, subset_sweep(bundled, SAMPLES, rng))
    bad = first_disagreement(m, reconstructed, sample)
    if bad is not None:
        raise RecoveryError(
            f"reconstructed matroid disagrees with the input on {tuple(sorted(bad))}"
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
