import itertools
import random
import types
from typing import Callable, Iterable, Iterator, Optional, Sequence

import pytest

from frobmat import (
    FiniteGroup,
    FrobeniusContext,
    FrobeniusPartition,
    GainGraph,
    Subgroup,
    frobenius_partitions,
    from_table,
    is_malnormal,
    is_normal,
    make_cyclic,
    make_dihedral,
    make_field_affine,
    subgroups,
)
from frobmat.biased import RankOracle
from frobmat.gaingraph import complete_pair_offsets


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


def complete_edge_id(group: FiniteGroup, n: int, i: int, j: int, alpha: int) -> int:
    """Edge id of (i, j, alpha) in complete_gain_graph(group, n); needs i < j."""
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    return complete_pair_offsets(group.order, n)[i][j] + alpha


# The cycles of K_n built one at a time from their vertices and gain words:
# the reference for the sorted streams in ``frobmat.recovery``.


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


def all_complete_cycles(group: FiniteGroup, n: int) -> list[tuple[tuple[int, ...], bool]]:
    """Every cycle of K_n with its balance flag, sorted by edge ids.

    Each vertex cycle is listed once, from its least vertex in the direction
    whose second vertex is below its last, and crossed with every gain word.
    """
    out = list(complete_digons(group, n))
    for k in range(3, n + 1):
        for first, *rest in itertools.combinations(range(n), k):
            for tail in itertools.permutations(rest):
                if tail[0] > tail[-1]:
                    continue
                verts = (first,) + tail
                for word in itertools.product(range(group.order), repeat=k):
                    out.append(complete_cycle(group, n, verts, word))
    out.sort()
    return out


def reduced_complete_cycles(group: FiniteGroup, n: int) -> Iterable[tuple[tuple[int, ...], bool]]:
    """Every digon of K_n, then every balanced triangle 0 -> i -> j -> 0 with
    0 < i < j, each once, with gains (a, b, (ab)^-1), and their balance flags."""
    yield from complete_digons(group, n)
    table, inverse = group.table, group.inverse
    for i, j in itertools.combinations(range(1, n), 2):
        for a, b in itertools.product(range(group.order), repeat=2):
            yield complete_cycle(group, n, (0, i, j), (a, b, inverse[table[a][b]]))


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
