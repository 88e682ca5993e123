import dataclasses
import functools
import itertools
import math
import random
import types
from typing import Callable, Iterable, Iterator, Optional, Sequence

import pytest

from frobmat import (
    BiasedGraph,
    Edge,
    FiniteGroup,
    FrameOracle,
    FrobeniusContext,
    FrobeniusPartition,
    GainGraph,
    LiftedMatroid,
    Subgroup,
    complete_gain_graph,
    frobenius_partitions,
    from_table,
    is_malnormal,
    is_normal,
    make_cyclic,
    make_dihedral,
    make_field_affine,
    quotient_gains,
    subgroups,
)
from frobmat.biased import RankOracle, _dense_ends, _rank_pass
from frobmat.gaingraph import complete_pair_offsets
from frobmat.groups import generated_subgroup, quotient


@pytest.fixture(scope="session")
def d6():
    return make_dihedral(6)


@pytest.fixture(scope="session")
def d6_partitions(d6):
    return frobenius_partitions(d6)


@pytest.fixture(scope="session")
def d6_frobenius(d6, d6_partitions):
    return FrobeniusContext(d6, d6_partitions[2])


@pytest.fixture(scope="session")
def f20():
    return make_field_affine(5)


@pytest.fixture(scope="session")
def f20_frobenius(f20):
    return FrobeniusContext(f20, frobenius_partitions(f20)[2])


@pytest.fixture(scope="session")
def z2():
    return make_cyclic(2)


@pytest.fixture
def rows_spy(monkeypatch):
    """Every FiniteGroup made while the fixture is on, in ``made``, and the
    group again in ``built`` each time its rows function runs."""
    spy = types.SimpleNamespace(made=[], built=[])
    init = FiniteGroup.__init__

    def spied(self, order, rows, *args, **kwargs):
        def counted():
            spy.built.append(self)
            return rows()

        spy.made.append(self)
        init(self, order, counted, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", spied)
    return spy


def random_gain_graph(group, rng: random.Random, max_vertices=4, max_edges=8):
    nv = rng.randint(2, max_vertices)
    ne = rng.randint(1, max_edges)
    triples = [
        (rng.randrange(nv), rng.randrange(nv), rng.randrange(group.order))
        for _ in range(ne)
    ]
    return GainGraph.from_triples(group, nv, triples)


def sparse_multigraph(group, rng: random.Random, max_vertices=5, max_edges=9):
    """A random gain graph of at most ``max_edges`` edges, among them a loop
    and a parallel pair, whose ids are sparse and out of order."""
    nv = rng.randint(2, max_vertices)
    triples = [
        (rng.randrange(nv), rng.randrange(nv), rng.randrange(group.order))
        for _ in range(rng.randint(0, max_edges - 3))
    ]
    v, t = rng.randrange(nv), rng.randrange(nv)
    triples.append((v, v, rng.randrange(group.order)))
    triples += [(t, (t + 1) % nv, rng.randrange(group.order)) for _ in range(2)]
    rng.shuffle(triples)
    ids = rng.sample(range(10 * len(triples)), len(triples))
    return GainGraph(group, nv, (Edge(i, a, b, x) for i, (a, b, x) in zip(ids, triples)))


def complete_edge_id(group: FiniteGroup, n: int, i: int, j: int, alpha: int) -> int:
    """Edge id of (i, j, alpha) in complete_gain_graph(group, n); needs i < j."""
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    return complete_pair_offsets(group.order, n)[i][j] + alpha


# The cycles of K_n built one at a time from their vertices and gain words:
# the reference for the sorted cycle stream in ``frobmat.recovery``.


def complete_cycle(
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


def complete_digons(group: FiniteGroup, n: int) -> Iterable[tuple[tuple[int, ...], bool]]:
    """Every digon of K_n with its balance flag; parallel edges carry
    distinct gains, so none is balanced."""
    inverse = group.inverse
    for i, j in itertools.combinations(range(n), 2):
        for a, b in itertools.combinations(range(group.order), 2):
            yield complete_cycle(group, n, (i, j), (a, inverse[b]))


def complete_cycle_groups(group: FiniteGroup, n: int) -> list[list[tuple[tuple[int, ...], bool]]]:
    """Every cycle of K_n with its balance flag, in groups, each sorted by
    edge ids: the digons, then the cycles of each vertex cycle.

    Each vertex cycle is listed once, from its least vertex in the direction
    whose second vertex is below its last, and crossed with every gain word.
    """
    groups = [sorted(complete_digons(group, n))]
    for k in range(3, n + 1):
        for first, *rest in itertools.combinations(range(n), k):
            for tail in itertools.permutations(rest):
                if tail[0] < tail[-1]:
                    verts = (first,) + tail
                    words = itertools.product(range(group.order), repeat=k)
                    groups.append(sorted(complete_cycle(group, n, verts, w) for w in words))
    return groups


def all_complete_cycles(group: FiniteGroup, n: int) -> list[tuple[tuple[int, ...], bool]]:
    """Every cycle of K_n with its balance flag, sorted by edge ids."""
    return sorted(itertools.chain.from_iterable(complete_cycle_groups(group, n)))


def reduced_complete_cycles(group: FiniteGroup, n: int) -> Iterable[tuple[tuple[int, ...], bool]]:
    """Every digon of K_n, then every balanced triangle 0 -> i -> j -> 0 with
    0 < i < j, each once, with gains (a, b, (ab)^-1), and their balance flags."""
    yield from complete_digons(group, n)
    table, inverse = group.table, group.inverse
    for i, j in itertools.combinations(range(1, n), 2):
        for a, b in itertools.product(range(group.order), repeat=2):
            yield complete_cycle(group, n, (0, i, j), (a, b, inverse[table[a][b]]))


def greedy_generators(group: FiniteGroup) -> tuple[int, ...]:
    """S, chosen greedily in id order through ``generated_subgroup``: each
    element outside the subgroup the earlier ones generate joins S. Each
    joining element at least doubles that subgroup, so |S| <= log2 |Γ|."""
    gens: list[int] = []
    span = {0}
    for x in group.elements():
        if x not in span:
            gens.append(x)
            span = generated_subgroup(group, gens).element_set
    assert generated_subgroup(group, gens).order == group.order
    assert 2 ** len(gens) <= group.order
    return tuple(gens)


def kernel_classes(group: FiniteGroup, kernel: Iterable[int]) -> list[tuple[int, ...]]:
    """The classes of the ``kernel``'s elements less the identity under
    inversion and conjugation by every element of Γ, each sorted, in the
    order of their least ids. A class of a normal kernel stays inside it."""
    table, inverse = group.table, group.inverse
    classes: list[tuple[int, ...]] = []
    for k in sorted(set(kernel) - {0}):
        if all(k not in c for c in classes):
            conjugates = {table[table[inverse[g]][k]][g] for g in group.elements()}
            classes.append(tuple(sorted(conjugates | {inverse[x] for x in conjugates})))
    return classes


def candidate_cycles(
    group: FiniteGroup, n: int, cycles: Iterable[tuple[tuple[int, ...], bool]], column: bool = True
) -> list[tuple[tuple[int, ...], bool]]:
    """The listed cycles the cycle check asks with the kernel Γ, in
    their order: the chosen digons, one per class of ``kernel_classes`` of
    Γ, with gains 0 and the class's least id on (0, 1), and the balanced
    triangles T(i, j, a, c), 0 -> i -> j -> 0 with 0 < i < j and gain a on
    (0, i) and c on (0, j), for which a is the identity (the identity rows),
    or i = 1 and a lies in ``greedy_generators`` (the generator rows), or,
    with ``column``, (i, j, c) = (1, 2, 0) (the column). ``cycles`` is
    every cycle of K_n, from ``all_complete_cycles``, or a part of it that
    holds those.

    That is C(n-1,2)·|Γ| + (n-2)·|S|·|Γ| triangles in the rows, and the
    column's |Γ| less the 1 + |S| of it that the rows hold."""
    gens = set(greedy_generators(group))
    least = {c[0] for c in kernel_classes(group, group.elements())}
    g = complete_gain_graph(group, n)
    out = []
    for cycle, balanced in cycles:
        # the edges (0, i) and (0, j) sort first, if the triangle has them
        first, second = g.edge(cycle[0]), g.edge(cycle[1])
        if len(cycle) == 3 and balanced:
            i, a, j, c = first.head, first.gain, second.head, second.gain
            rows = a == 0 or (i == 1 and a in gens)
            if second.tail != 0 or not (rows or (column and (i, j, c) == (1, 2, 0))):
                continue
        elif len(cycle) == 2:
            if (first.tail, first.head, first.gain) != (0, 1, 0) or second.gain not in least:
                continue
        else:
            continue
        out.append((cycle, balanced))
    return out


def asked_cycle_count(group: FiniteGroup, kernel: Iterable[int], n: int) -> int:
    """The cycles recovery's cycle check asks of a lift of K_n over ``group``
    with the kernel Γ₁ of the given elements: the N-circuits, the cycles
    whose gain lies in Γ₁, among the digons and the balanced triangles of
    ``candidate_cycles``.

    The chosen digon of a class lies in one coset of Γ₁ exactly when the
    class lies in Γ₁: one per class of ``kernel_classes`` of Γ₁, at most
    |Γ₁| - 1. Every balanced triangle is an N-circuit; those asked are the
    identity rows, C(n-1,2)·|Γ|; the generator rows, (n-2)·|S|·|Γ| for S the
    ``greedy_generators``; and the column's |Γ| triangles T(1, 2, a, 0) less
    the 1 + |S| with a in {0} ∪ S, which the rows hold.
    """
    order = group.order
    digons = len(kernel_classes(group, kernel))
    gens = len(greedy_generators(group))
    rows = math.comb(n - 1, 2) * order + (n - 2) * gens * order
    return digons + rows + order - 1 - gens


def n_circuit_partners(
    group: FiniteGroup, kernel: Subgroup, n: int, cycles: Iterable[Iterable[int]]
) -> list[tuple[int, ...]]:
    """The listed cycles, then, in sorted order, every other digon and
    triangle of K_n that shares an edge with one of them and is a circuit
    of N, its gain in ``kernel``: a family for ``non_lift_certificate``,
    each listed cycle with the short cycles it may form a theta with."""
    listed = [tuple(sorted(c)) for c in cycles]
    g = complete_gain_graph(group, n)
    frame = FrameOracle(BiasedGraph(quotient_gains(g, quotient(group, kernel))))
    words = list(itertools.product(group.elements(), repeat=2))
    found = set()
    for e in set(itertools.chain.from_iterable(listed)):
        i, j, a = g.edge(e).tail, g.edge(e).head, g.edge(e).gain
        found.update(complete_cycle(group, n, (i, j), (a, b))[0] for b in group.elements())
        for k in set(range(n)) - {i, j}:
            found.update(complete_cycle(group, n, (i, j, k), (a, x, y))[0] for x, y in words)
    partners = [c for c in sorted(found) if len(set(c)) == len(c) and c not in listed]
    return listed + [c for c in partners if frame.rank(c) == len(c) - 1]


def non_lift_certificate(
    m: RankOracle, n_rank: Callable[[frozenset[int]], int], sets: Iterable[Iterable[int]]
) -> Optional[tuple]:
    """A proof, read off the listed ``sets``, that the rank oracle m is no
    elementary lift of the matroid N whose rank function is ``n_rank``, or
    None if the sets hold none. An elementary lift ranks every set at r_N or
    one above it, and its circuits among N's form a linear class
    (Brylawski): with two circuits of a modular pair of N, every circuit of N
    inside their union. So the certificate is, first in the listing:

    - ("rank", X): a set with r_m(X) - r_N(X) outside {0, 1};
    - ("theta", (C, D, E)): two listed circuits of N that meet, C and D,
      with r_N(C ∪ D) = |C ∪ D| - 2, whose symmetric difference E is a
      circuit of N too (the third cycle of a theta, or a bicycle), of which
      m ranks exactly two as circuits, r = |X| - 1.
      Each proper subset of a circuit of N is independent in N, so in a lift
      of N a circuit of N is one of m's exactly when it has that rank; and
      any two of C, D, E are a modular pair whose union holds the third.

    The rank rule is read on every set; then each circuit of N among them is
    paired with each later one.
    """
    listed = [frozenset(x) for x in sets]
    for x in listed:
        if m.rank(x) - n_rank(x) not in (0, 1):
            return "rank", tuple(sorted(x))

    def n_circuit(x: frozenset[int]) -> bool:
        return n_rank(x) == len(x) - 1 and all(n_rank(x - {e}) == len(x) - 1 for e in x)

    def m_circuit(x: frozenset[int]) -> bool:
        return m.rank(x) == len(x) - 1

    circuits = [x for x in listed if n_circuit(x)]
    for i, c in enumerate(circuits):
        for d in circuits[i + 1 :]:
            union, e = c | d, c ^ d
            if c & d and n_rank(union) == len(union) - 2 and n_circuit(e):
                if m_circuit(c) + m_circuit(d) + m_circuit(e) == 2:
                    return "theta", tuple(tuple(sorted(x)) for x in (c, d, e))
    return None


def normalize_forest(g: GainGraph, forest: Iterable[int], root: int) -> list[int]:
    """A switching function with eta(root) = identity that normalizes the forest.

    Every forest edge has identity gain after apply_switching; forests spanning
    several components are rooted at their least vertex (or at ``root``).
    """
    ids = sorted(set(forest))
    grp = g.group
    adj: dict[int, list[int]] = {}
    for eid in ids:
        e = g.edge(eid)
        if e.is_loop:
            raise ValueError(f"edge {eid} is a loop, not a forest edge")
        adj.setdefault(e.tail, []).append(eid)
        adj.setdefault(e.head, []).append(eid)
    eta = [0] * g.vertex_count
    seen: set[int] = set()
    components = 0
    for r in [root] + sorted(adj):
        if r in seen or r not in adj:
            continue
        components += 1
        seen.add(r)
        stack = [r]
        while stack:
            u = stack.pop()
            for eid in adj[u]:
                v = g.other_end(eid, u)
                if v in seen:
                    continue
                # solve eta(u)^-1 ∘ gain ∘ eta(v) = identity
                eta[v] = grp.mul(grp.inv(g.gain_from(eid, u)), eta[u])
                seen.add(v)
                stack.append(v)
    if len(ids) != len(adj) - components:
        raise ValueError("forest contains a cycle")
    return eta


def reference_halves(
    ground: Sequence[int], samples: int, rng: random.Random
) -> Iterator[tuple[int, ...]]:
    """The halves ``subset_sweep`` must draw, written out element by element:
    one ``rng.getrandbits(len(ground))`` per half, and element i of
    ``ground`` kept when bit i of it is set."""
    for _ in range(samples):
        bits = rng.getrandbits(len(ground))
        yield tuple(x for i, x in enumerate(ground) if bits >> i & 1)


class FuncOracle(RankOracle):
    """A rank oracle given by a function of frozensets, asked once per subset."""

    def __init__(self, ground: Iterable[int], fn: Callable[[frozenset[int]], int]):
        self.ground = tuple(sorted(ground))
        self._fn = fn

    def rank(self, subset: Iterable[int]) -> int:
        return self._fn(frozenset(subset))


def component_rank(g: GainGraph, subset: Iterable[int], part_of: Sequence[int]) -> int:
    """|V(G[X])| - b(X) + l(X) by one union-find pass over the edges of X,
    with no cap: the reference for ComponentOracle, whose queries stop once
    they reach the full rank. See ComponentOracle for b, l and ``part_of``."""
    ends, n = _dense_ends(g)
    return _rank_pass((g.group.table, g.group.inverse, ends, n, part_of), subset, -1)


class CountingWalk(RankOracle):
    """``oracle`` as it is, with the steps of its walks counted in ``steps``."""

    def __init__(self, oracle: RankOracle):
        self.oracle = oracle
        self.ground = oracle.ground
        self.incremental = oracle.incremental
        self.steps = 0

    def rank(self, subset: Iterable[int]) -> int:
        return self.oracle.rank(subset)

    def walk(self):
        state, r, step = self.oracle.walk()

        def counted(state, e: int, last: bool):
            self.steps += 1
            return step(state, e, last)

        return state, r, counted


# Group isomorphism by backtracking: an independent check of the group
# constructors and of the embedding that kernel-loop contraction uses.


def element_order(group: FiniteGroup, a: int) -> int:
    x, k = a, 1
    while x != 0:
        x = group.table[x][a]
        k += 1
    return k


def order_profile(group: FiniteGroup) -> tuple[int, ...]:
    """Sorted element orders; a cheap isomorphism fingerprint."""
    return tuple(sorted(element_order(group, a) for a in group.elements()))


def subgroup_as_group(group: FiniteGroup, sub: Subgroup) -> FiniteGroup:
    """The subgroup as a standalone FiniteGroup; element i is sub.elements[i]."""
    index = {e: i for i, e in enumerate(sub.elements)}
    return FiniteGroup(
        sub.order,
        lambda: [[index[group.mul(a, b)] for b in sub.elements] for a in sub.elements],
    )


def find_isomorphism(a: FiniteGroup, b: FiniteGroup) -> Optional[list[int]]:
    """An isomorphism a -> b as an image array, or None.

    Backtracks over images of a small generating sequence, propagating the
    products each choice forces.
    """
    if a.order != b.order:
        return None
    if order_profile(a) != order_profile(b):
        return None
    gens = a.generators
    by_order: dict[int, list[int]] = {}
    for y in b.elements():
        by_order.setdefault(element_order(b, y), []).append(y)

    def close(mapping: dict[int, int]) -> Optional[dict[int, int]]:
        used = set(mapping.values())
        if len(used) != len(mapping):
            return None
        work = list(mapping)
        known = list(mapping)
        while work:
            p = work.pop()
            for q in list(known):
                for (x, y) in ((p, q), (q, p)):
                    r = a.mul(x, y)
                    img = b.mul(mapping[x], mapping[y])
                    if r in mapping:
                        if mapping[r] != img:
                            return None
                    else:
                        if img in used:
                            return None
                        mapping[r] = img
                        used.add(img)
                        work.append(r)
                        known.append(r)
        return mapping

    def extend(mapping: dict[int, int], i: int) -> Optional[dict[int, int]]:
        if i == len(gens):
            return mapping if len(mapping) == a.order else None
        g = gens[i]
        if g in mapping:
            return extend(mapping, i + 1)
        for y in by_order[element_order(a, g)]:
            if y in mapping.values():
                continue
            nxt = close(dict(mapping) | {g: y})
            if nxt is None:
                continue
            res = extend(nxt, i + 1)
            if res is not None:
                return res
        return None

    full = extend({0: 0}, 0)
    if full is None:
        return None
    return [full[x] for x in a.elements()]


def is_isomorphic(a: FiniteGroup, b: FiniteGroup) -> bool:
    return find_isomorphism(a, b) is not None


# The exhaustive partition search over the whole subgroup lattice: every
# normal subgroup as a kernel, every exact cover of the rest by malnormal
# subgroups, kept if conjugation-closed. The reference for
# frobenius_partitions, which finds the same partitions from one centralizer.


def conjugate(group: FiniteGroup, g: int, a: int) -> int:
    """Return g^-1 ∘ a ∘ g."""
    t = group.table
    return t[t[group.inverse[g]][a]][g]


def conjugate_subgroup(group: FiniteGroup, h: Subgroup, g: int) -> Subgroup:
    return Subgroup(tuple(sorted(conjugate(group, g, a) for a in h.elements)))


def _conjugation_closed(group: FiniteGroup, family: Sequence[Subgroup]) -> bool:
    """True iff conjugating a member by any group element gives a member.

    Tested on the generators only: conjugation by g is injective, so if it
    maps the finite family into itself it permutes it, and so does every
    product of generators (see :func:`frobmat.groups.is_normal`).
    """
    members = {a.elements for a in family}
    return all(
        conjugate_subgroup(group, a, g).elements in members
        for a in family
        for g in group.generators
    )


def _exact_covers(
    target: frozenset[int], candidates: list[Subgroup]
) -> Iterable[tuple[Subgroup, ...]]:
    """Yield families of candidates whose non-identity parts partition target."""
    order = {e: i for i, e in enumerate(sorted(target))}
    parts = [(c, c.element_set - {0}) for c in candidates]

    def rec(uncovered: frozenset[int], start_chosen: tuple[Subgroup, ...]):
        if not uncovered:
            yield start_chosen
            return
        pivot = min(uncovered, key=order.__getitem__)
        for cand, body in parts:
            if pivot in body and body <= uncovered:
                yield from rec(uncovered - body, start_chosen + (cand,))

    yield from rec(target, ())


def exhaustive_partitions(group: FiniteGroup) -> list[FrobeniusPartition]:
    """Every partition {kernel} ∪ complements satisfying the invariants, in
    the order of frobenius_partitions: whole group, trivial kernel, then by
    kernel elements."""
    subs = subgroups(group)
    malnormal = [a for a in subs if a.order > 1 and is_malnormal(group, a)]
    out = []
    for n in subs:
        if not is_normal(group, n):
            continue
        if n.order == group.order:
            out.append(FrobeniusPartition(n, ()))
            continue
        rest = frozenset(group.elements()) - n.element_set
        cands = [a for a in malnormal if (a.element_set - {0}) <= rest]
        for family in _exact_covers(rest, cands):
            if _conjugation_closed(group, family):
                out.append(
                    FrobeniusPartition(n, tuple(sorted(family, key=lambda s: s.elements)))
                )

    def key(p: FrobeniusPartition):
        if p.kernel.order == group.order:
            tier = 0
        elif p.kernel.order == 1:
            tier = 1
        else:
            tier = 2
        return (tier, p.kernel.elements)

    return sorted(out, key=key)


def perm_group(gens: Sequence[Sequence[int]], degree: int) -> FiniteGroup:
    """The group generated by permutations of range(degree), as a validated
    Cayley table; p∘q applies p first, and the identity comes first."""
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    for p in elems:
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    return from_table([[index[tuple(q[i] for i in p)] for q in elems] for p in elems])


# A corpus of faults for recovery's final comparison: oracles on K_4 that are
# no elementary lift of N, the quotient frame matroid of the declared kernel,
# each built from the lift of one partition. ``tests/final_sample_probe.py``
# reports which phase and part of recovery refuses each, and
# ``tests/test_recovery.py`` pins that the faults the 1,500-half sample
# refused stay refused.


CORPUS_GROUPS = {
    "Z7": make_cyclic(7),
    "Z11": make_cyclic(11),
    "D6": make_dihedral(6),
    "F20": make_field_affine(5),
}


@dataclasses.dataclass(frozen=True)
class Fault:
    """One corpus fault: recovery is asked for ``kernel`` on K_4 over
    ``group`` with the oracle ``build()`` returns."""

    name: str
    group: FiniteGroup
    kernel: Subgroup
    build: Callable[[], RankOracle]


def shifted(m: RankOracle, shift: int, faulty: Callable[[frozenset[int]], bool]) -> RankOracle:
    """m with ``shift`` added to its rank on each set ``faulty`` names."""
    return FuncOracle(m.ground, lambda s: m.rank(s) + shift * faulty(s))


def dropped_from_class(m: LiftedMatroid, cycle: Iterable[int]) -> RankOracle:
    """The lift of N by m's class less the member ``cycle``: a set gains one
    in rank when it holds the cycle and no circuit of N outside the class."""
    c = frozenset(cycle)
    return FuncOracle(m.ground, lambda s: m.rank(s) + (c <= s and m.rank(s) == m.underlying_rank(s)))


def added_to_class(m: LiftedMatroid, cycle: Iterable[int]) -> RankOracle:
    """The lift of N by m's class plus the circuit of N ``cycle``: a set that
    holds it loses one in rank when it holds no other circuit of N outside
    the class. Circuits are incomparable, so any other one misses an edge of
    the cycle and stays in the set less that edge."""
    d = frozenset(cycle)

    def rank(s: frozenset[int]) -> int:
        r = m.rank(s)
        if not d <= s or r == m.underlying_rank(s):
            return r
        return r - all(m.rank(s - {e}) == m.underlying_rank(s - {e}) for e in d)

    return FuncOracle(m.ground, rank)


@functools.lru_cache(maxsize=None)
def corpus_lift(gname: str, index: int) -> LiftedMatroid:
    group = CORPUS_GROUPS[gname]
    part = frobenius_partitions(group)[index]
    return LiftedMatroid(FrobeniusContext(group, part, validate=False), complete_gain_graph(group, 4))


def _partition_faults(gname: str, index: int) -> Iterator[Fault]:
    """The faults built on one partition's lift; each kind is listed in
    ``final_sample_corpus``."""
    group = CORPUS_GROUPS[gname]
    part = frobenius_partitions(group)[index]
    kernel, table, inverse = part.kernel, group.table, group.inverse
    edges = 6 * group.order
    prefix = f"{gname}/p{index}"

    def fault(name: str, build: Callable[[], RankOracle]) -> Fault:
        return Fault(f"{prefix}/{name}", group, kernel, build)

    lift = functools.partial(corpus_lift, gname, index)
    for shift in (-1, 2):
        for size in (3, edges // 2, edges - 4):
            yield fault(f"above/{size}/{shift:+d}",
                        lambda s=size, d=shift: shifted(lift(), d, lambda x: len(x) >= s))
        for size in (3, edges // 2 - 2, edges // 2, edges - 4, edges):
            yield fault(f"size/{size}/{shift:+d}",
                        lambda s=size, d=shift: shifted(lift(), d, lambda x: len(x) == s))
        for held in ((0,), (edges // 2, edges - 1), (1, edges // 3, 2 * edges // 3)):
            name = '.'.join(map(str, held))
            yield fault(f"superset/{name}/{shift:+d}",
                        lambda h=frozenset(held), d=shift: shifted(lift(), d, h.__le__))
            yield fault(f"avoid/{name}/{shift:+d}",
                        lambda h=frozenset(held), d=shift: shifted(
                            lift(), d, lambda x: len(x) > 4 and h.isdisjoint(x)))
    # balanced 4-cycles 0 1 3 2 with gains (0, g, g^-1, 0), 0 the identity,
    # and one more whose gains are drawn
    rng = random.Random(f"{gname}/{index}")
    a, b, c = (rng.randrange(group.order) for _ in range(3))
    words = [(0, g, inverse[g], 0) for g in (0, 1, 2)]
    words.append((a, b, c, inverse[table[table[a][b]][c]]))
    for word in words:
        cycle, balanced = complete_cycle(group, 4, (0, 1, 3, 2), word)
        assert balanced
        yield fault(f"drop/{'.'.join(map(str, cycle))}",
                    lambda c=cycle: dropped_from_class(lift(), c))
    if kernel.order > 1:
        # cycles whose gain is the least non-identity kernel element: circuits
        # of N, unbalanced over the group
        k = kernel.elements[1]
        for verts, word in (((0, 1), (0, inverse[k])), ((0, 1, 2), (0, 0, k)),
                            ((1, 2, 3), (0, 0, k)), ((0, 1, 3, 2), (0, k, 0, 0))):
            cycle, balanced = complete_cycle(group, 4, verts, word)
            assert not balanced
            yield fault(f"add/{'.'.join(map(str, cycle))}",
                        lambda c=cycle: added_to_class(lift(), c))
        qg = quotient_gains(complete_gain_graph(group, 4), quotient(group, kernel))
        yield fault("frame", lambda: FrameOracle(BiasedGraph(qg)))
    # two edges at each vertex v, to v + 1 and v + 2 mod 4, with gains 0 and 1
    # read from the lower vertex
    pairs = [
        tuple(sorted((complete_edge_id(group, 4, *sorted((v, (v + 1) % 4)), 0),
                      complete_edge_id(group, 4, *sorted((v, (v + 2) % 4)), 1))))
        for v in range(4)
    ]
    pairs += [p for g, order, p in (("D6", 3, (0, 9)), ("F20", 5, (0, 20)))
              if g == gname and order == kernel.order]
    for pair in pairs:
        yield fault(f"pair/{pair[0]}.{pair[1]}",
                    lambda p=frozenset(pair): shifted(lift(), -1, p.__eq__))


def final_sample_corpus() -> list[Fault]:
    """The corpus on K_4 over Z7, Z11, D6 and F20 under every partition.

    Per partition (E edges), each with shifts -1 and +2, the rank shifts of
    ``test_the_final_comparison_refuses_what_the_elementary_check_refused``:
    on every set of at least 3, E/2 or E - 4 edges (``above``); on every set
    of 3, E/2 - 2, E/2, E - 4 or E edges (``size``); and on every superset of
    one, two or three edges (``superset``); and on every set of more than 4
    edges that misses all of those edges (``avoid``), which no cycle of K_4,
    no bundle and no prefix of the final comparison is, so that only a
    random half reaches it. Then:

    - ``drop``: the lift's class less one balanced 4-cycle; on K_4 over Z11
      with the whole group as kernel, the three with gains (0, g, g^-1, 0)
      for g = 0, 1, 2 are (0, 11, 44, 55), (0, 11, 45, 56) and
      (0, 11, 46, 57);
    - ``add``: the class plus one cycle whose gain is a non-identity kernel
      element, a digon, two triangles or a 4-cycle;
    - ``frame``: N itself, declared with its kernel;
    - ``pair``: the lift with one pair of edges at a vertex made dependent,
      at each vertex, and the pairs (0, 9) on D6 with kernel Z3 and (0, 20)
      on F20 with kernel Z5.

    ``add`` and ``frame`` need a nontrivial kernel: over a trivial kernel
    every circuit of N is balanced, and N is the lift of the partition
    whose one complement is the group. Every fault builds under today's
    caps, since none lists a class: ``drop`` and ``add`` are the
    ``ClassLiftOracle`` of the changed class, read off m and N's ranks.
    """
    return [
        fault
        for gname, group in CORPUS_GROUPS.items()
        for index in range(len(frobenius_partitions(group)))
        for fault in _partition_faults(gname, index)
    ]
