"""Recovering a Frobenius partition from an elementary lift over a complete
gain graph.

Given a group, a normal subgroup and a rank oracle m, this reconstructs the
partition through bundle-rank queries, checking that the circuits of m among
the cycles are the balanced ones and that the classes form a Frobenius
partition. The cycle check reads sorted streams of cycles in turn and names
the least failing one; above order EXHAUSTIVE_GROUP_ORDER it asks the
digons and C(n-1,2)·|Γ| + (n-2)·|S|·|Γ| + |Γ| balanced triangles through
vertex 0, less overlaps, for S a generating set. It takes m to be an
elementary lift of N, the quotient frame matroid; the final comparison with
the rebuilt lift is the one check of that, asked on the parts of
``biased.comparison_parts`` with the distinct bundles of the identity and
two elements as its leading part (see ``recover_partition``).
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Iterable, Sequence

from .biased import Node, RankOracle, comparison_parts
from .errors import LimitExceeded, RecoveryError
from .gaingraph import (
    DEFAULT_CYCLE_COUNT_LIMIT,
    complete_gain_graph,
    complete_pair_offsets,
)
from .groups import FiniteGroup, FrobeniusPartition, Subgroup, is_normal, is_subgroup
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


def _cosets(group: FiniteGroup, kernel: Subgroup) -> list[list[int]]:
    """The coset x·Γ₁ of each element x, sorted: Γ₁ is normal, so it is Γ₁·x."""
    return [sorted(group.table[x][k] for k in kernel.elements) for x in group.elements()]


def _pair_digons(offset: int, cosets: list[list[int]]) -> Cycles:
    """The N-circuit digons of the pair whose identity edge is ``offset``, in
    sorted id order; parallel edges carry distinct gains, so none is balanced."""
    for a, coset in enumerate(cosets):
        for b in coset[coset.index(a) + 1 :]:
            yield (offset + a, offset + b), False


def _walk_cycles(
    group: FiniteGroup, n: int, verts: Sequence[int], cosets: list[list[int]]
) -> Cycles:
    """The N-circuits of K_n around the distinct ``verts`` (at least three),
    one per gain word, in sorted id order, with their balance flags.

    The walk's pairs are sorted by id once. An edge's id within its pair's
    block is its gain read from the lower vertex, so the cycles in sorted
    order are the words over the sorted pairs in lexicographic order. Their
    product is the identity for one gain on the last pair, found once per
    prefix of the other gains, and lies in Γ₁ for that gain's coset.
    """
    order, table, inverse = group.order, group.table, group.inverse
    offset = complete_pair_offsets(order, n)
    k = len(verts)
    steps = sorted(
        (offset[verts[t]][verts[(t + 1) % k]], t, verts[t] < verts[(t + 1) % k])
        for t in range(k)
    )
    *head, (last, t_last, forward_last) = steps
    at = {t: s for s, (_, t, _) in enumerate(head)}
    # the other steps in walk order, from the one after the last pair's
    rest = [at[(t_last + d) % k] for d in range(1, k)]
    id_ranges = [range(o, o + order) for o, _, _ in head]
    # the gain of each step read along the walk, by its id within the block
    walk_gains = [range(order) if forward else inverse for _, _, forward in head]
    prefixes = zip(itertools.product(*id_ranges), itertools.product(*walk_gains))
    for ids, gains in prefixes:
        acc = 0
        for s in rest:
            acc = table[acc][gains[s]]
        balancing = inverse[acc] if forward_last else acc
        for y in cosets[balancing]:
            yield ids + (last + y,), y == balancing


def _all_cycles(group: FiniteGroup, kernel: Subgroup, n: int) -> list[Cycles]:
    """Every N-circuit of K_n with its balance flag, every cycle if
    ``kernel`` is Γ, as streams, each in sorted id order and none started:
    the digons, then one per vertex cycle.

    Each vertex cycle is taken once, from its least vertex in the direction
    whose second vertex is below its last, so no cycle is in two streams,
    and no cycle list is held.
    """
    offset, cosets = complete_pair_offsets(group.order, n), _cosets(group, kernel)
    streams = [
        itertools.chain.from_iterable(
            _pair_digons(offset[i][j], cosets) for i, j in itertools.combinations(range(n), 2)
        )
    ]
    for k in range(3, n + 1):
        for first, *rest in itertools.combinations(range(n), k):
            for tail in itertools.permutations(rest):
                if tail[0] < tail[-1]:
                    streams.append(_walk_cycles(group, n, (first,) + tail, cosets))
    return streams


def _reduced_cycles(group: FiniteGroup, kernel: Subgroup, n: int) -> Cycles:
    """Every N-circuit digon of K_n and some balanced triangles 0 -> i -> j -> 0
    with 0 < i < j, each once, with their balance flags, in sorted id order.

    T(i, j, a, c), the triangle through the edges (0, i, a) and (0, j, c),
    closes with (i, j, a^-1 c). With S = ``group.generators`` the triangles
    are the identity rows T(i, j, 0, c), the generator rows T(1, j, s, c)
    for s in S and the column T(1, 2, a, 0). Their ids, like a digon's on
    (0, i), start with pair (0, i); a digon's second id stays in that pair's
    block and a triangle's does not, so for each first edge its digons come
    before its triangles. The digons of the pairs that avoid vertex 0 come last.
    """
    order, table, inverse = group.order, group.table, group.inverse
    offset, cosets = complete_pair_offsets(order, n), _cosets(group, kernel)
    gens = group.generators
    for i in range(1, n):
        oi = offset[0][i]
        for a in range(order):
            for b in cosets[a][cosets[a].index(a) + 1 :]:
                yield (oi + a, oi + b), False
            if a == 0 or (i == 1 and a in gens):
                rows = itertools.product(range(i + 1, n), range(order))
            elif i == 1:
                rows = itertools.product(range(2, min(n, 3)), (0,))
            else:
                continue
            quotient_row = table[inverse[a]]
            for j, c in rows:
                yield (oi + a, offset[0][j] + c, offset[i][j] + quotient_row[c]), True
    for i, j in itertools.combinations(range(1, n), 2):
        yield from _pair_digons(offset[i][j], cosets)


def _check_cycle_hypothesis(group: FiniteGroup, kernel: Subgroup, n: int, m: RankOracle) -> None:
    """A cycle must be a circuit of m exactly when it is balanced.

    Both routes take m to be an elementary lift of N, the quotient frame
    matroid of K_n over Γ/Γ₁. Then a cycle C is a circuit of m exactly when
    r_m(C) = |C| - 1, one query per cycle: every proper subset of C is a
    forest, independent in N and so in m, since r_m >= r_N (Brylawski).

    Only N-circuits, the cycles with gain in the ``kernel`` Γ₁, are asked:
    any other is independent in N (Zaslavsky), so in m, and unbalanced. Up
    to order EXHAUSTIVE_GROUP_ORDER all are. Above it only the
    ``_reduced_cycles`` are, the digons and the rows and column of balanced
    triangles through 0 read from S = ``group.generators``, and under the
    promise that is exact with n >= 4. Sketch: if two cycles of a theta are
    circuits of m and the third is an N-circuit, so is the third of m, since
    m's class is linear (Brylawski) and two N-circuits of a theta are a
    modular pair. Every balanced triangle through 0 is one of m's. On
    {0, 1, j, k} a switching η = (η₁, η_j, η_k) gives a bundle, a balanced
    K_4 (Zaslavsky), whose triangles T(1, j, η₁, η_j), T(1, k, η₁, η_k),
    T(j, k, η_j, η_k) and U(η₁⁻¹η_j, η₁⁻¹η_k), where U(x, y) has gain x on
    (1, j) and y on (1, k), pairwise form thetas of balanced cycles: if
    three are m's, the 4-cycle of two and the third give the fourth. The
    bundles (0, x, y) and (s, x, y), s in S, give T(j, k, x, y) ⇔ U(x, y)
    ⇔ U(s⁻¹x, s⁻¹y), so m's U's are closed under ⟨S⟩ = Γ; U(0, y) holds by
    an identity row, so every U and every T(j, k, x, y) does. On
    {0, 1, 2, k} the bundles (a, 0, y) then give T(1, k, a, y) from the
    column's T(1, 2, a, 0), and (a, x, y) give T(1, 2, a, x). A balanced
    triangle ijk avoiding 0 follows from the thetas of 0ij and 0jk, then
    0ijk and 0ik, all balanced. An unbalanced triangle that is an N-circuit
    shares two edges with a balanced one, and were both circuits their theta
    would force a digon inside one Γ₁-coset. A longer cycle splits at a
    chord that balances one side into a theta of two shorter cycles of its
    quotient balance; induct.

    Whether m is an elementary lift of N is left to the final comparison in
    ``recover_partition`` with the rebuilt lift. So is an oracle with
    r(C) = |C| - 1 on a cycle C that holds a dependent proper subset: it is
    no matroid, so no elementary lift of N.

    Either set comes as streams, each in sorted id order, and no cycle is
    held past its check. They are read in turn, each to its first failure
    and, after one, only below the least failure so far: so the witness is
    the least failing cycle, and on success every listed cycle is asked once.
    """
    if group.order <= EXHAUSTIVE_GROUP_ORDER:
        streams = _all_cycles(group, kernel, n)
    else:
        streams = [_reduced_cycles(group, kernel, n)]
    least = None
    for stream in streams:
        if least is not None:
            stream = itertools.takewhile(lambda item: item < least, stream)
        for cycle, balanced in stream:
            if balanced != (m.rank(cycle) == len(cycle) - 1):
                least = cycle, balanced
                break
    if least is not None:
        cycle, balanced = least
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
    complements, and ``groups.validate_partition`` checks the partition as
    the rebuilt lift's context is made: classes that overlap, from a
    relation that is no equivalence, or that are no malnormal subgroups
    raise RecoveryError("recovered partition: ..."). The reconstructed
    matroid is checked against m before returning.

    Both routes of the cycle hypothesis check (see
    ``_check_cycle_hypothesis``) take m to be an elementary lift of N, the
    quotient frame matroid. The final comparison is the one check of that:
    the rebuilt lift is one, with the declared kernel, so a subset on which
    m's rank less N's is not 0 or 1 is one on which m and the rebuilt lift
    differ. It asks the parts of ``biased.comparison_parts`` over the
    ground listed bundle by bundle, with ``seed``, and with each distinct
    bundle of the identity and at most two other elements, {0, a} from {0}
    and {0, a, b} from {0, a}, as the leading part: above EXHAUSTIVE_LIMIT
    edges the empty set, the bundles, the prefixes and SAMPLES halves.

    The cycle check is exact for every elementary lift of N with n >= 4. Of
    any oracle it asks the N-circuits among every cycle, or above order
    EXHAUSTIVE_GROUP_ORDER the N-circuit digons and the
    C(n-1,2)·|Γ| + (n-2)·|S|·|Γ| + |Γ| balanced triangles through vertex 0,
    less overlaps, of ``_reduced_cycles``. Every digon and balanced triangle
    through 0, or every cycle, is counted first, before the graph or any
    sample is built, against DEFAULT_CYCLE_COUNT_LIMIT: so the cap bounds
    the check's queries, each asked once and never held, and not its memory.
    An oracle that is no lift and is wrong only on cycles not asked, such as
    a balanced triangle through 0 outside that set, passes the check.

    With ``stats``, a dict, m is wrapped to count the rank queries asked of
    it, and each phase that runs records its queries and perf_counter
    seconds there: "cycles" (the hypothesis check), "bundles" (the full
    rank, the bundle relation and the partition) and "final" (the final
    comparison), as {"rank_queries": {phase: count, ..., "total": count},
    "seconds": {phase: seconds, ...}}. The final comparison is split the
    same way under "final_parts", into "empty", "bundles", "prefixes" and
    "halves" when sampled, or one "subsets" part, and the parts add up to
    "final"; drawing a subset counts in its part. The phases and parts are
    marked as they start: each mark runs to the next; the first part starts
    with its phase, so rebuilding the lift counts in it; a phase that raises
    is recorded up to the raise. Without ``stats`` m is asked directly and
    no hook runs per query.
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
    if order <= EXHAUSTIVE_GROUP_ORDER:
        checked = complete_cycle_count(order, n)
    else:  # every digon and balanced triangle through vertex 0, more than are asked
        checked = math.comb(n, 2) * math.comb(order, 2) + math.comb(n - 1, 2) * order**2
    if checked > DEFAULT_CYCLE_COUNT_LIMIT:
        raise LimitExceeded(f"more than {DEFAULT_CYCLE_COUNT_LIMIT} cycles")
    if not is_subgroup(group, kernel.elements) or not is_normal(group, kernel):
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
        ctx = FrobeniusContext(group, partition)
    except ValueError as err:
        raise RecoveryError(f"recovered partition: {err}") from None

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
