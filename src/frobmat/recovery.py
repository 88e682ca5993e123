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
from typing import Iterable, Sequence

from .biased import EXHAUSTIVE_LIMIT, RankOracle, first_disagreement, subset_sweep
from .errors import LimitExceeded, RecoveryError
from .gaingraph import (
    DEFAULT_CYCLE_COUNT_LIMIT,
    complete_gain_graph,
    complete_pair_offsets,
)
from .groups import (
    FiniteGroup,
    FrobeniusPartition,
    Subgroup,
    is_malnormal,
    is_normal,
    is_subgroup,
)
from .lifts import FrobeniusContext, LiftedMatroid

EXHAUSTIVE_GROUP_ORDER = 10
# Random halves the final comparison draws above EXHAUSTIVE_LIMIT edges. On
# each it asks that m's rank equal the rebuilt lift's, which is what decides
# there whether m is an elementary lift of the quotient frame matroid.
SAMPLES = 1500


def edge_bundle(group: FiniteGroup, n: int, elements: Iterable[int]) -> tuple[int, ...]:
    """All edges of the complete gain graph whose gain lies in the given set."""
    offset = complete_pair_offsets(group.order, n)
    identity = [offset[i][j] for i, j in itertools.combinations(range(n), 2)]
    out = []
    for alpha in sorted(set(elements)):
        if not 0 <= alpha < group.order:
            raise ValueError(f"element {alpha} out of range")
        out.extend(e + alpha for e in identity)
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
    """
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


def _reduced_cycles(group: FiniteGroup, n: int) -> Iterable[tuple[tuple[int, ...], bool]]:
    """Every digon of K_n, then every balanced triangle 0 -> i -> j -> 0 with
    0 < i < j, each once, with gains (a, b, (ab)^-1), and their balance flags."""
    yield from _complete_digons(group, n)
    table, inverse = group.table, group.inverse
    for i, j in itertools.combinations(range(1, n), 2):
        for a, b in itertools.product(range(group.order), repeat=2):
            yield _complete_cycle(group, n, (0, i, j), (a, b, inverse[table[a][b]]))


def _check_cycle_hypothesis(group: FiniteGroup, n: int, m: RankOracle) -> None:
    """A cycle must be a circuit of m exactly when it is balanced.

    Up to order EXHAUSTIVE_GROUP_ORDER every cycle of K_n is checked, which
    asks nothing of m. Above it only the ``_reduced_cycles`` are, and that is
    exact when m is an elementary lift of N, the quotient frame matroid of K_n
    over Γ/Γ₁, with n >= 4. Sketch: if two cycles of a theta are circuits of
    m and the third is an N-circuit, so is the third of m, since m's class is
    linear (Brylawski) and two N-circuits of a theta are a modular pair. A
    balanced triangle ijk avoiding 0 follows from the thetas of 0ij and 0jk,
    then 0ijk and 0ik, all balanced. An unbalanced triangle that is an
    N-circuit shares two edges with a balanced one, and were both circuits
    their theta would force a digon inside one Γ₁-coset. A longer cycle splits
    at a chord that balances one side into a theta of two shorter cycles of
    its quotient balance; induct. A cycle that is no N-circuit is independent
    in N, so in m, and unbalanced.

    Whether m is an elementary lift of N is left to the final comparison in
    ``recover_partition`` with the rebuilt lift.
    """
    if group.order <= EXHAUSTIVE_GROUP_ORDER:
        cycles = _all_complete_cycles(group, n)
    else:
        cycles = sorted(_reduced_cycles(group, n))
    for cycle, balanced in cycles:
        if balanced != _is_circuit(m, cycle):
            raise RecoveryError(
                f"cycle {cycle} is {'balanced' if balanced else 'unbalanced'} "
                f"but is {'not ' if balanced else ''}a circuit of the lift"
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

    That final comparison is the one check that m is an elementary lift of
    N, the quotient frame matroid: the rebuilt lift is one, with the declared
    kernel, so a subset on which m's rank less N's is not 0 or 1 is one on
    which m and the rebuilt lift differ. It asks every subset up to
    EXHAUSTIVE_LIMIT edges; above, the empty set, the bundles of the identity
    and two elements, and SAMPLES random halves seeded by ``seed``.

    The cycles the hypothesis check lists (see ``_check_cycle_hypothesis``)
    are counted first, before the graph or any sample is built, against
    DEFAULT_CYCLE_COUNT_LIMIT.
    """
    if n < 4:
        raise RecoveryError("recovery requires n >= 4")
    order = group.order
    if order <= EXHAUSTIVE_GROUP_ORDER:
        checked = complete_cycle_count(order, n)
    else:  # digons and balanced triangles through vertex 0
        checked = math.comb(n, 2) * math.comb(order, 2) + math.comb(n - 1, 2) * order**2
    if checked > DEFAULT_CYCLE_COUNT_LIMIT:
        raise LimitExceeded(f"more than {DEFAULT_CYCLE_COUNT_LIMIT} cycles")
    if not is_subgroup(group, kernel.elements) or not is_normal(group, kernel):
        raise RecoveryError("the declared kernel is not a normal subgroup")
    g = complete_gain_graph(group, n)
    if tuple(m.ground) != tuple(e.id for e in g.edges):
        raise RecoveryError("oracle ground set does not match the complete gain graph")
    _check_cycle_hypothesis(group, n, m)

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

    reconstructed = LiftedMatroid(FrobeniusContext(group, partition, validate=False), g)
    sample = None
    if len(g.edges) > EXHAUSTIVE_LIMIT:
        # the ground bundle by bundle, the identity bundle first: a random half
        # listed this way reaches a spanning forest of identity edges, and then
        # its first unbalanced edges, within a few reads, where a rank pass stops
        bundled = tuple(e for a in group.elements() for e in edge_bundle(group, n, (a,)))
        sample = itertools.chain(
            [()],
            (
                edge_bundle(group, n, (0, a, b))
                for a, b in itertools.combinations_with_replacement(group.elements(), 2)
            ),
            subset_sweep(bundled, SAMPLES, random.Random(seed)),
        )
    bad = first_disagreement(m, reconstructed, sample)
    if bad is not None:
        raise RecoveryError(
            f"reconstructed matroid disagrees with the input on {tuple(sorted(bad))}"
        )
    return partition
