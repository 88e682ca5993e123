"""Biased graphs and their matroids: frame/lift rank oracles, circuit families,
the theta property, linear classes, and the elementary-lift rank construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Optional, Sequence

from .errors import LimitExceeded
from .gaingraph import (
    DEFAULT_CYCLE_COUNT_LIMIT,
    DEFAULT_CYCLE_EDGE_LIMIT,
    EdgeEnds,
    GainGraph,
    enumerate_cycles,
    is_balanced_cycle,
)

# Most elements a sweep over every subset takes
EXHAUSTIVE_LIMIT = 16
# Element classes of a ComponentOracle's part_of; complements are numbered from 0.
IDENTITY_PART = -2
KERNEL_PART = -1


@dataclass(frozen=True)
class ComponentScan:
    """One connected component of a restriction, with a normalized BFS tree.

    ``nontree`` holds (edge id, reduced gain): the gain the edge would carry
    after switching by the tree-normalizing function.
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    nontree: tuple[tuple[int, int], ...]


def scan_components(g: GainGraph, subset: Iterable[int]) -> list[ComponentScan]:
    """Deterministic BFS decomposition of the restriction to ``subset``.

    Trees are rooted at the least vertex of each component and grown in edge id
    order.
    """
    ids = sorted(set(subset))
    edges = [g.edge(i) for i in ids]
    grp = g.group
    adj: dict[int, list] = {}
    for e in edges:
        adj.setdefault(e.tail, [])
        adj.setdefault(e.head, [])
        if not e.is_loop:
            adj[e.tail].append(e)
            adj[e.head].append(e)
    for lst in adj.values():
        lst.sort(key=lambda e: e.id)
    eta: dict[int, int] = {}
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    tree: set[int] = set()
    for v0 in sorted(adj):
        if v0 in eta:
            continue
        comp = len(comps)
        comps.append([v0])
        eta[v0] = 0
        comp_of[v0] = comp
        queue = deque([v0])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                w = e.head if u == e.tail else e.tail
                if w in eta:
                    continue
                gain_uw = e.gain if u == e.tail else grp.inv(e.gain)
                eta[w] = grp.mul(grp.inv(gain_uw), eta[u])
                comp_of[w] = comp
                comps[comp].append(w)
                tree.add(e.id)
                queue.append(w)
    out = []
    edges_by_comp: dict[int, list] = {i: [] for i in range(len(comps))}
    for e in edges:
        edges_by_comp[comp_of[e.tail]].append(e)
    for i, verts in enumerate(comps):
        nontree = []
        for e in edges_by_comp[i]:
            if e.id in tree:
                continue
            reduced = grp.mul(grp.mul(grp.inv(eta[e.tail]), e.gain), eta[e.head])
            nontree.append((e.id, reduced))
        out.append(
            ComponentScan(
                vertices=tuple(verts),
                edge_ids=tuple(e.id for e in edges_by_comp[i]),
                nontree=tuple(nontree),
            )
        )
    return out


class BiasedGraph:
    """A multigraph plus its set of balanced cycles.

    Balance is either derived from the carried gain function, when
    ``balanced`` is None, or given as an explicit cycle set (used to exercise
    classes that no gain function produces).
    """

    def __init__(self, graph: GainGraph, balanced: Optional[Iterable[Iterable[int]]] = None):
        self.graph = graph
        self.balanced: Optional[frozenset[frozenset[int]]] = (
            None
            if balanced is None
            else frozenset(frozenset(c) for c in balanced)
        )

    @property
    def gain_derived(self) -> bool:
        return self.balanced is None

    def cycle_is_balanced(self, cycle: Iterable[int]) -> bool:
        if self.balanced is None:
            return is_balanced_cycle(self.graph, cycle)
        return frozenset(cycle) in self.balanced

    def component_balanced(self, scan: ComponentScan) -> bool:
        """All cycles of the component in the explicit balanced set."""
        if not scan.nontree:
            return True
        sub = self.graph.with_edges(self.graph.edge(i) for i in scan.edge_ids)
        return all(
            frozenset(c) in self.balanced for c in enumerate_cycles(sub)
        )


# step(state, e, last) -> (state', rank'): the state and rank of the set
# plus ground element e; ``state`` is left as it was unless ``last`` is set,
# which says the caller will not use it again
Step = Callable[[object, int, bool], tuple[object, int]]


class RankOracle:
    """A ground set of edge ids plus a rank function on id subsets."""

    ground: tuple[int, ...]
    # True when ``walk`` steps one element at a time rather than asking
    # ``rank`` of each subset. Such a walk never lowers the rank, so once a
    # state reaches full_rank() every set stepped from it has that rank
    incremental = False

    def rank(self, subset: Iterable[int]) -> int:
        raise NotImplementedError

    def full_rank(self) -> int:
        return self.rank(self.ground)

    def walk(self) -> tuple[object, int, Step]:
        """(state, rank, step): the state and rank of the empty set, and a
        step that adds one ground element. This one keeps the set itself and
        asks ``rank`` once per step; oracles with an incremental form walk
        one element per step instead."""

        def step(state: tuple[int, ...], e: int, last: bool):
            state += (e,)
            return state, self.rank(state)

        return (), self.rank(()), step


def _dense_ends(g: GainGraph) -> tuple[EdgeEnds, int]:
    """``g.ends`` with the vertices that the edges meet renumbered 0, 1, ...
    in increasing order, and how many there are: lists over those numbers
    are sized by the edges, not by ``g.vertex_count``."""
    ends = g.ends
    verts = sorted({v for t, h, _ in ends.values() for v in (t, h)})
    number = {v: i for i, v in enumerate(verts)}
    dense = EdgeEnds({eid: (number[t], number[h], x) for eid, (t, h, x) in ends.items()})
    return dense, len(number)


def _rank_pass(engine: tuple, subset: Iterable[int], cap: int, state: Optional[list] = None) -> int:
    """Add the edges of ``subset`` to union-find state over the ``n`` dense
    vertex numbers of ``ends`` (see _dense_ends); returns the count of edges
    that raised |V| - c + w + l by one. Every ComponentOracle rank is this,
    with the oracle's ``engine``, built once: (group table, inverse, ends, n,
    part_of, lift).

    Each vertex holds its root (-1 while unseen) and a potential eta relative
    to it, chosen so that switching by eta makes every forest edge the
    identity; an edge t -> h with gain x inside a component then reduces to
    eta(t)^-1 x eta(h). A vertex seen for the first time joins the component
    of the edge's other end in place, with the eta that makes the edge the
    identity (two unseen ends start a component rooted at t; a loop at an
    unseen vertex makes it a singleton first), so only an edge between two
    seen vertices merges. Each root holds a list of its vertices and, once
    one is seen, a reduced gain in a complement (its witness, in a dict). A
    merge re-roots the smaller component by c, which conjugates its reduced
    gains, so its witness becomes c^-1 w c. An edge counts when an unseen
    end joins, at a merge (unless both sides have a witness and l stays), at
    a component's first witness, and when l turns on; without ``lift``, l
    stays zero.

    A rank query passes no ``state``: the pass starts from the empty set and
    stops counting once the count reaches ``cap``. With ``cap`` the rank of
    every edge this is exact, since rank is monotone and a set holding a
    prefix of that rank has that rank. The ids left unread are then checked
    against ``ends`` by one ``filterfalse`` pass, so an unknown one still
    raises ValueError. A negative cap never stops the pass. A walk passes
    ``state``, the list [root, eta, members, witness, lifted] of its set; the
    pass adds ``subset`` to it in place and writes the lifted flag back.
    """
    table, inverse, ends, n, part_of, lift = engine
    if state is None:
        root = [-1] * n
        eta = [0] * n
        members: list = [None] * n
        witness: dict[int, int] = {}
        lifted = not lift
    else:
        root, eta, members, witness, lifted = state
    r = 0
    rest = iter(subset)
    for eid in rest:
        t, h, x = ends[eid]
        rt = root[t]
        rh = root[h]
        if rt < 0 and t == h:
            root[t] = rt = rh = t
            members[t] = [t]
        # an unseen end takes eta(t) = x eta(h), or eta(h) = x^-1 eta(t)
        if rt < 0:
            if rh < 0:
                root[t] = root[h] = t
                eta[h] = inverse[x]
                members[t] = [t, h]
            else:
                root[t] = rh
                eta[t] = table[x][eta[h]]
                members[rh].append(t)
        elif rh < 0:
            root[h] = rt
            eta[h] = table[inverse[x]][eta[t]]
            members[rt].append(h)
        elif rt == rh:
            red = table[table[inverse[eta[t]]][x]][eta[h]]
            part = part_of[red]
            if part == IDENTITY_PART:
                continue
            if part == KERNEL_PART:
                if lifted:
                    continue
                lifted = True
            elif rt not in witness:
                witness[rt] = red
            elif lifted or part_of[witness[rt]] == part:
                continue
            else:
                lifted = True
        else:
            # move the smaller component: a is its end of the edge, y the
            # gain of the orientation a -> b
            if len(members[rt]) < len(members[rh]):
                a, b, y, keep, move = t, h, x, rh, rt
            else:
                a, b, y, keep, move = h, t, inverse[x], rt, rh
            c = table[table[inverse[eta[a]]][y]][eta[b]]
            moved = members[move]
            for v in moved:
                root[v] = keep
                eta[v] = table[eta[v]][c]
            members[keep] += moved
            if move in witness:
                w = table[table[inverse[c]][witness.pop(move)]][c]
                if keep not in witness:
                    witness[keep] = w
                elif lifted or part_of[witness[keep]] == part_of[w]:
                    continue
                else:
                    lifted = True
        r += 1
        if r == cap:
            for eid in itertools.filterfalse(ends.__contains__, rest):
                ends[eid]
            break
    if state is not None:
        state[4] = lifted
    return r


class ComponentOracle(RankOracle):
    """|V(G[X])| - b(X) + l(X) on every edge of ``graph``.

    ``part_of`` classifies each group element as IDENTITY_PART, KERNEL_PART
    or a complement index; the kernel must be normal and the complements
    closed under conjugation. A component is balanced (counted in b) when its
    gain group lies in the kernel, and lifted when it lies in no single
    complement; l(X) is one iff ``lift`` is set and some component is lifted.
    Neither verdict depends on the forest: both are properties of the gain
    group up to conjugacy.

    The graph's vertices are numbered densely once, into the engine that
    every rank passes to _rank_pass. r(E) is found once, by a direct pass (not
    a rank query), and is then full_rank(); each later query stops once its
    prefix reaches it. A walk's state is the pass's union-find state of the
    set and its rank; a step adds one edge to a copy of the union-find state,
    unless the step is the state's last, and adds the pass's count, 0 or 1,
    to the rank. So the walk is monotone, as ``incremental`` requires.
    """

    incremental = True

    def __init__(self, graph: GainGraph, part_of: Sequence[int], lift: bool):
        self.graph = graph
        self.part_of = part_of
        self.lift = lift
        self.ground = tuple(sorted(graph.edge_ids()))

    @functools.cached_property
    def _engine(self) -> tuple:
        group = self.graph.group
        ends, n = _dense_ends(self.graph)
        return group.table, group.inverse, ends, n, self.part_of, self.lift

    @functools.cached_property
    def _cap(self) -> int:
        return _rank_pass(self._engine, self.ground, -1)

    def rank(self, subset: Iterable[int]) -> int:
        return _rank_pass(self._engine, subset, self._cap)

    def full_rank(self) -> int:
        return self._cap

    def walk(self):
        engine = self._engine
        n = engine[3]

        def step(state: tuple, e: int, last: bool):
            uf, r = state
            if not last:
                root, eta, members, witness, lifted = uf
                uf = [
                    root.copy(), eta.copy(), [m and m.copy() for m in members],
                    witness.copy(), lifted,
                ]
            r += _rank_pass(engine, (e,), -1, uf)
            return (uf, r), r

        return ([[-1] * n, [0] * n, [None] * n, {}, not self.lift], 0), 0, step


@functools.lru_cache(maxsize=64)
def _uniform_parts(order: int, part: int) -> tuple[int, ...]:
    """The classification that puts every non-identity element in ``part``."""
    return (IDENTITY_PART,) + (part,) * (order - 1)


def _scan_rank(b: BiasedGraph, subset: Iterable[int], lift: bool) -> int:
    """Frame (or, with ``lift``, lift) rank from scanned components; the route
    for biased graphs given by an explicit balanced-cycle set."""
    total = 0
    lifted = False
    for sc in scan_components(b.graph, subset):
        if lift:
            total += len(sc.vertices) - 1
            lifted = lifted or not b.component_balanced(sc)
        else:
            total += len(sc.vertices) - b.component_balanced(sc)
    return total + lifted


class _EdgeOracle(ComponentOracle):
    """The ComponentOracle of a biased graph with every non-identity gain in
    the part ``_part``. A graph given by an explicit balanced-cycle set is
    read from scanned components instead, one subset at a time."""

    _part: int
    _lift = False

    def __init__(self, biased: BiasedGraph):
        g = biased.graph
        super().__init__(g, _uniform_parts(g.group.order, self._part), self._lift)
        self.biased = biased
        self.incremental = biased.gain_derived

    def rank(self, subset: Iterable[int]) -> int:
        if not self.incremental:
            return _scan_rank(self.biased, subset, self.lift)
        return super().rank(subset)

    def full_rank(self) -> int:
        return super().full_rank() if self.incremental else RankOracle.full_rank(self)

    def walk(self):
        return super().walk() if self.incremental else RankOracle.walk(self)


class FrameOracle(_EdgeOracle):
    _part = 0
    # bound here as well: bench/tracing.py wraps the method in this class's
    # own __dict__
    rank = _EdgeOracle.rank


class LiftOracle(_EdgeOracle):
    _part, _lift = KERNEL_PART, True


class GraphicOracle(_EdgeOracle):
    _part = IDENTITY_PART

    def __init__(self, graph: GainGraph):
        super().__init__(BiasedGraph(graph))


class _ClassLift(RankOracle):
    """The elementary lift of ``host`` by a linear class of its circuits
    (Brylawski, *Constructions*, 1986): the host rank of X, plus one when a
    host circuit outside the class lies in X.

    The circuits outside are indexed once, at the first query or check. The
    host is asked first, so an unknown id raises the host's ValueError.
    """

    def __init__(
        self,
        host: RankOracle,
        circuits: Iterable[Iterable[int]],
        members: Iterable[Iterable[int]],
    ):
        self.host = host
        self.ground = host.ground
        self.members = frozenset(frozenset(c) for c in members)
        self._circuits = circuits

    def _host_circuits(self) -> Iterable[Iterable[int]]:
        return self._circuits

    @functools.cached_property
    def _outside(self) -> CircuitIndex:
        outside = (c for c in self._host_circuits() if frozenset(c) not in self.members)
        return CircuitIndex(EdgeIndex(self.ground), outside)

    def rank(self, subset: Iterable[int]) -> int:
        subset = tuple(subset)
        r = self.host.rank(subset)
        outside = self._outside
        x = set(subset)
        return r + any(outside.inside(x, outside.index.mask(x)))

    def modular_pair_check(self):
        """(True, None) when the members are closed under modular pairs, else
        (False, (C1, C2, C)): a modular pair of members and the first host
        circuit, in sorted order, in its union and outside the class.
        Raises ValueError for a member that is no host circuit.

        The host must be a matroid. A class of every host circuit is linear
        and asks nothing. Otherwise r(E) is read once when two members exist;
        a distinct union of more than r(E) + 2 edges has nullity above 2, so
        it is skipped, and each other one that holds a circuit outside the
        class is asked once. No other union can fail.
        """
        circuits = {frozenset(c) for c in self._host_circuits()}
        for c in self.members:
            if c not in circuits:
                raise ValueError(f"candidate {sorted(c)} is not a circuit of the host")
        if len(self.members) == len(circuits):
            return True, None
        outside = self._outside
        index = outside.index
        members = sorted(self.members, key=sorted)
        most = len(members) > 1 and self.host.full_rank() + 2
        for i, j, u in distinct_unions([index.mask(c) for c in members]):
            if u.bit_count() > most:
                continue
            union = members[i] | members[j]
            if any(outside.inside(union, u)) and len(union) - self.host.rank(union) == 2:
                c = min(map(index.ids, outside.inside(union, u)))
                return False, (tuple(sorted(members[i])), tuple(sorted(members[j])), c)
        return True, None


class ClassLiftOracle(_ClassLift):
    """The lift of the frame matroid of ``biased`` by an explicit linear class.

    The host's frame circuits are listed once, at the first query, with no
    cap on the edge count; the cycle-count and pair caps still bound them.
    """

    def __init__(self, biased: BiasedGraph, members: Iterable[Iterable[int]]):
        super().__init__(FrameOracle(biased), (), members)
        self.biased = biased

    def _host_circuits(self) -> list[tuple[int, ...]]:
        return frame_circuits(self.biased, max_edges=len(self.ground))


class EdgeIndex:
    """Sets of edge ids as int masks: the sorted ``ids`` are bits 0, 1, ...

    Given a graph, the vertices at the ends of those edges are numbered
    densely too, so a vertex mask's size follows the edge count, not the
    vertex numbers. An id outside the index raises KeyError.
    """

    def __init__(self, ids: Iterable[int], graph: Optional[GainGraph] = None):
        self.bit = {eid: 1 << i for i, eid in enumerate(sorted(set(ids)))}
        if graph is not None:
            ends = graph.ends
            verts = sorted({v for eid in self.bit for v in ends[eid][:2]})
            vbit = {v: 1 << i for i, v in enumerate(verts)}
            self._ends = {eid: vbit[ends[eid][0]] | vbit[ends[eid][1]] for eid in self.bit}

    def mask(self, ids: Iterable[int]) -> int:
        """The mask of ``ids``, which must be distinct."""
        return sum(map(self.bit.__getitem__, ids))

    def ids(self, mask: int) -> tuple[int, ...]:
        """The ids of ``mask``, sorted."""
        return tuple(eid for eid, b in self.bit.items() if mask & b)

    def shape(self, ids: Iterable[int]) -> tuple[int, int]:
        """(edge mask, vertex mask) of ``ids``; needs the graph."""
        bit, ends = self.bit, self._ends
        edges = verts = 0
        for eid in ids:
            edges |= bit[eid]
            verts |= ends[eid]
        return edges, verts


class CircuitIndex:
    """Circuits as masks of one EdgeIndex, in buckets by their least edge id.

    A circuit lies in X only if its least edge does, so a query reads only
    the buckets of the edges in X. Each bucket is sorted by edge count, and
    a query stops reading it at the first circuit larger than X.
    """

    def __init__(self, index: EdgeIndex, circuits: Iterable[Iterable[int]]):
        self.index = index
        self._by_least: dict[int, list[tuple[int, int]]] = {}
        for c in circuits:
            m = index.mask(c)
            self._by_least.setdefault(min(c), []).append((m.bit_count(), m))
        for bucket in self._by_least.values():
            bucket.sort()

    def inside(self, ids: Collection[int], mask: int) -> Iterator[int]:
        """The masks of the indexed circuits that lie in X, given as its
        distinct edge ``ids`` and its ``mask``."""
        by_least, size = self._by_least, len(ids)
        for eid in ids:
            for count, m in by_least.get(eid, ()):
                if count > size:
                    break
                if m & mask == m:
                    yield m


def distinct_unions(masks: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(i, j, masks[i] | masks[j]) for each distinct union of two masks, at
    the first pair i < j in ``itertools.combinations`` order that forms it.
    A filter that depends only on the union may run after this one."""
    seen: set[int] = set()
    for (i, a), (j, b) in itertools.combinations(enumerate(masks), 2):
        u = a | b
        if u not in seen:
            seen.add(u)
            yield i, j, u


def _vertices_of(g: GainGraph, ids: Iterable[int]) -> frozenset[int]:
    verts = set()
    for i in ids:
        e = g.edge(i)
        verts.add(e.tail)
        verts.add(e.head)
    return frozenset(verts)


def frame_circuits(
    b: BiasedGraph, max_edges: int = DEFAULT_CYCLE_EDGE_LIMIT
) -> list[tuple[int, ...]]:
    """Balanced cycles, unbalanced tight/loose handcuffs, unbalanced thetas,
    built as masks of one EdgeIndex.

    Two unbalanced cycles sharing an edge give an unbalanced theta when their
    union has one edge more than its vertices and the third cycle is
    unbalanced. Raises LimitExceeded, before the first cycle is masked, when
    there are more than DEFAULT_CYCLE_COUNT_LIMIT pairs of unbalanced cycles.
    """
    g = b.graph
    cycles = enumerate_cycles(g, max_edges=max_edges)
    flags = [b.cycle_is_balanced(c) for c in cycles]
    if math.comb(flags.count(False), 2) > DEFAULT_CYCLE_COUNT_LIMIT:
        raise LimitExceeded(
            f"more than {DEFAULT_CYCLE_COUNT_LIMIT} pairs of unbalanced cycles"
        )
    index = EdgeIndex(g.edge_ids(), g)
    shapes = [index.shape(c) for c in cycles]
    balanced = {e for (e, _), bal in zip(shapes, flags) if bal}
    circuits = set(balanced)
    # non-loop edges at each vertex bit, as (edge bit, other end's bit)
    adj: dict[int, list[tuple[int, int]]] = {}
    for eid in index.bit:
        e, v = index.shape((eid,))
        low = v & -v
        if v != low:
            adj.setdefault(low, []).append((e, v ^ low))
            adj.setdefault(v ^ low, []).append((e, low))

    def connect(at: int, seen: int, edges: int, goal: int) -> None:
        """Add ``edges`` plus each path from ``at`` that avoids ``seen`` and
        meets ``goal`` only at its end."""
        for e, w in adj.get(at, ()):
            if w & seen:
                continue
            if w & goal:
                circuits.add(edges | e)
            else:
                connect(w, seen | w, edges | e, goal)

    unbalanced = [s for s, bal in zip(shapes, flags) if not bal]
    for (e1, v1), (e2, v2) in itertools.combinations(unbalanced, 2):
        union, common = e1 | e2, v1 & v2
        if e1 & e2:
            if union.bit_count() == (v1 | v2).bit_count() + 1 and e1 ^ e2 not in balanced:
                circuits.add(union)
        elif common.bit_count() == 1:
            circuits.add(union)
        elif not common:
            for start in adj:
                if start & v1:
                    connect(start, v1, union, v2)
    return sorted(index.ids(c) for c in circuits)


def is_linear_class(
    host: RankOracle,
    host_circuits: Iterable[Iterable[int]],
    cand: Iterable[Iterable[int]],
):
    """Check the modular-pair closure of ``cand`` in the matroid ``host``;
    returns (ok, witness) as _ClassLift.modular_pair_check does. A class
    that holds every host circuit asks the host nothing; otherwise r(E) is
    read once when two members exist, and the host rank once per distinct
    union of two members of at most r(E) + 2 edges that holds a circuit
    outside the class, up to the verdict."""
    return _ClassLift(host, list(host_circuits), cand).modular_pair_check()


def brylawski_lift(
    host: RankOracle,
    host_circuits: Iterable[Iterable[int]],
    linear_class: Iterable[Iterable[int]],
) -> RankOracle:
    """Rank oracle of the elementary lift defined by a linear class.

    rank(X) = host rank, plus one unless every host circuit inside X belongs
    to the class. Rejects classes that fail the modular-pair condition.
    """
    lift = _ClassLift(host, list(host_circuits), linear_class)
    ok, witness = lift.modular_pair_check()
    if not ok:
        raise ValueError(f"not a linear class; modular-pair witness {witness}")
    return lift


def minimal_dependent_sets(oracle: RankOracle) -> list[tuple[int, ...]]:
    """All inclusion-minimal X with rank(X) < |X|, by exhaustive search."""
    ground = oracle.ground
    if len(ground) > EXHAUSTIVE_LIMIT:
        raise LimitExceeded(f"ground set larger than {EXHAUSTIVE_LIMIT}")
    index = EdgeIndex(ground)
    found: list[int] = []
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            s = index.mask(combo)
            if any(c & s == c for c in found):
                continue
            if oracle.rank(combo) < size:
                found.append(s)
    return sorted(index.ids(c) for c in found)


# binary digit -> 0 or 1, as a byte compress can select by
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def subset_sweep(
    ground: Sequence[int], samples: int, rng: random.Random
) -> Iterator[tuple[int, ...]]:
    """``samples`` random halves of ``ground``, each listed in ``ground``'s
    order.

    A half keeps element i exactly when bit i of one
    ``rng.getrandbits(len(ground))`` is set: one fair coin per element, one
    draw per half, and none over an empty ground. ``bin`` lists the bits
    from the top, and read backwards its digits end at the highest set bit,
    where ``compress`` stops too.
    """
    k = len(ground)
    for _ in range(samples):
        digits = bin(rng.getrandbits(k))[:1:-1].encode().translate(_DIGIT_BITS)
        yield tuple(itertools.compress(ground, digits))


def rank_table(oracle: RankOracle) -> list[int]:
    """Rank of every subset, indexed by bitmask over the sorted ground set.

    The oracle is walked depth first, one element per step: each subset's
    state is its parent's (the subset without its last element) plus that
    element. An incremental walk is monotone, so a node at full_rank() is
    not stepped below: the sets under it, its mask plus s·2^(j+1) for the
    node's last element j, take its rank in one slice. An oracle asked per
    subset is asked of every subset.
    """
    ground = oracle.ground
    m = len(ground)
    if m > EXHAUSTIVE_LIMIT:
        raise LimitExceeded(f"ground set larger than {EXHAUSTIVE_LIMIT}")
    full = oracle.full_rank() if oracle.incremental else None
    state, r, step = oracle.walk()
    table = [r] * (1 << m)

    def visit(mask: int, start: int, state: object) -> None:
        for j in range(start, m):
            # the last child is a leaf, so it may take the parent's state
            last = j == m - 1
            child = mask | 1 << j
            state_j, x = step(state, ground[j], last)
            table[child] = x
            if last:
                continue
            if x == full:
                stride = 1 << j + 1
                table[child + stride :: stride] = [x] * ((1 << m - j - 1) - 1)
            else:
                visit(child, j + 1, state_j)

    if r != full:
        visit(0, 0, state)
    return table


def first_disagreement(
    a: RankOracle, b: RankOracle, sample: Optional[Iterable[Sequence[int]]] = None
) -> Optional[tuple[int, ...]]:
    """The first subset on which a and b differ in rank; None when they agree
    on every subset compared.

    With ``sample`` None every subset of the common ground set is compared,
    by size and then in ``itertools.combinations`` order; above
    EXHAUSTIVE_LIMIT elements this raises LimitExceeded before either oracle
    is asked. Otherwise the subsets of ``sample`` are compared in its order.

    An exhaustive comparison of two incremental oracles walks them together
    (see _walk_disagreement). Otherwise each subset is asked of both by size,
    so the scan stops at the witness: depth first, a walk could ask nearly
    all 2^m subsets before a small witness whose first element comes late.
    """
    ground = a.ground
    if tuple(b.ground) != tuple(ground):
        raise ValueError("ground sets differ")
    if sample is None:
        if len(ground) > EXHAUSTIVE_LIMIT:
            raise LimitExceeded(f"ground set larger than {EXHAUSTIVE_LIMIT}")
        if a.incremental and b.incremental:
            return _walk_disagreement(a, b)
        sample = (
            s for size in range(len(ground) + 1) for s in itertools.combinations(ground, size)
        )
    return next((s for s in sample if a.rank(s) != b.rank(s)), None)


def _walk_disagreement(a: RankOracle, b: RankOracle) -> Optional[tuple[int, ...]]:
    """first_disagreement by walking both oracles depth first, one element
    per step. That order visits the subsets of each size in combinations
    order, so after a disagreement of size s only a smaller subset can come
    first, and the walk goes no deeper than s - 1 from there on. Each node
    costs one step of each walk. Below a node where both incremental walks
    are at full_rank() every set has that rank in each (the ranks agreed at
    the node), so the walk does not step there; an oracle asked per subset
    is never taken to be full. No run visits more than 2^m nodes.
    """
    ground = a.ground
    m = len(ground)
    full_a = a.full_rank() if a.incremental else None
    full_b = b.full_rank() if b.incremental else None
    state_a, ra, step_a = a.walk()
    state_b, rb, step_b = b.walk()
    if ra != rb:
        return ()
    found: Optional[tuple[int, ...]] = None
    depth = m  # the largest size still worth visiting

    def visit(path: tuple[int, ...], start: int, sa: object, sb: object) -> None:
        # called only while sets one larger than ``path`` are worth visiting
        nonlocal found, depth
        size = len(path) + 1
        for j in range(start, m):
            e = ground[j]
            last = j == m - 1
            ca, xa = step_a(sa, e, last)
            cb, xb = step_b(sb, e, last)
            if xa != xb:
                found, depth = path + (e,), size - 1
                return
            if not last and size < depth and (xa != full_a or xb != full_b):
                visit(path + (e,), j + 1, ca, cb)

    if ra != full_a or rb != full_b:
        visit((), 0, state_a, state_b)
    return found


# Halves a sampled comparison draws above EXHAUSTIVE_LIMIT elements, one
# random bit per element (see subset_sweep), after the prefixes, which hold a
# set of every size. Every prefix holds the listing's first element, so a
# half is for a set that misses given elements: it misses k of them with
# probability 2^-k, and an oracle wrong on every set of more than a few
# elements that misses at most 4 given elements passes all the halves with
# probability (15/16)^SAMPLES < 10^-6, whatever the seed.
SAMPLES = 215
Node = tuple[int, Sequence[int]]  # (parent, block), see _listing_disagreement


def comparison_parts(
    listing: Sequence[int], seed: int, *leading: tuple[str, Sequence[Node]]
) -> list[tuple[str, Callable[[RankOracle, RankOracle], Optional[tuple[int, ...]]]]]:
    """The named parts, in order, of a comparison of two oracles on the
    ground listed as ``listing``, each a function of the two that returns
    the first of its sets on which they differ in rank, or None: "subsets",
    every subset, up to EXHAUSTIVE_LIMIT elements; above, "empty", each
    (name, nodes) of ``leading`` and "prefixes", one of each size, walked by
    _listing_disagreement, and "halves", SAMPLES halves of the listing,
    drawn from ``random.Random(seed)`` as the part runs."""
    if len(listing) <= EXHAUSTIVE_LIMIT:
        return [("subsets", first_disagreement)]
    prefixes = [(k - 1, (e,)) for k, e in enumerate(listing)]
    return [
        ("empty", lambda a, b: first_disagreement(a, b, [()])),
        *((name, functools.partial(_listing_disagreement, nodes=nodes)) for name, nodes in leading),
        ("prefixes", functools.partial(_listing_disagreement, nodes=prefixes)),
        ("halves", lambda a, b: first_disagreement(
            a, b, subset_sweep(listing, SAMPLES, random.Random(seed)))),
    ]


def _node_set(nodes: Sequence[Node], i: int) -> tuple[int, ...]:
    """The set of node ``i``: the blocks of its parent chain, root first."""
    chain: list[int] = []
    while i >= 0:
        i, block = nodes[i]
        chain[:0] = block
    return tuple(chain)


def _listing_disagreement(a: RankOracle, b: RankOracle, nodes: Sequence[Node]) -> tuple | None:
    """The set of the first of ``nodes`` on which a and b differ in rank, or
    None. A node (parent, block) is an earlier node's set, or the empty set's
    for -1, plus a non-empty block. Incremental oracles are walked: each node
    from its parent's state through its block, copying that state first
    unless the node is its last child, the ranks compared at the block's end.
    A block stops once both are at full_rank(), which no superset changes;
    such a node keeps no state, so nothing under it is stepped, and the walk
    ends when no state is left. Other oracles are asked each node's set."""
    if not (a.incremental and b.incremental):
        return first_disagreement(a, b, (_node_set(nodes, i) for i in range(len(nodes))))
    full_a, full_b = a.full_rank(), b.full_rank()
    (state_a, _, step_a), (state_b, _, step_b) = a.walk(), b.walk()
    last_child = {parent: i for i, (parent, _) in enumerate(nodes)}
    states = {-1: (state_a, state_b)}
    for i, (parent, block) in enumerate(nodes):
        if parent not in states:
            continue
        last = last_child[parent] == i
        sa, sb = states.pop(parent) if last else states[parent]
        for e in block:
            sa, ra = step_a(sa, e, last)
            sb, rb = step_b(sb, e, last)
            last = True
            if ra == full_a and rb == full_b:
                break
        else:  # below full rank in one of them: kept for the node's children
            if i in last_child:
                states[i] = sa, sb
        if ra != rb:
            return _node_set(nodes, i)
        if not states:
            break
    return None


def matroid_axiom_check(oracle: RankOracle):
    """Verify r(∅)=0, unit increase, and local submodularity on all subsets.

    Returns (True, None) or (False, witness) where the witness names the first
    violated axiom and the subset involved: the least subset X by its mask
    over the sorted ground set, then the least element i, or pair a < b.

    The table is packed into one int with one byte per subset, so each test
    runs on all 2^m subsets at once. With HIGH 0x80 in every byte, byte X of
    ((ranks >> (8 << i)) | HIGH) - ranks is 128 + r(X+i) - r(X); over the X
    without i it gives the unit-increase failures and the mask E[i] of the X
    with r(X+i) = r(X). Given unit increase, (X, a, b) breaks local
    submodularity exactly where E[a] & E[b] & ~(E[b] >> (8 << a)) is set.

    Only a failing oracle has ranks outside [0, m]; they are clamped to
    [-1, m + 1] so that every rank fits a byte. That keeps the first unit
    failure: every subset below it has a rank in [0, |X|], and a clamped
    rank still steps from r(X) <= m - 1 by less than 0 or more than 1.
    """
    ground = oracle.ground
    m = len(ground)
    table = rank_table(oracle)
    if table[0] != 0:
        return False, ("empty", (), table[0])
    if min(table) < 0 or max(table) > m:
        # shifted up by one, which no difference sees
        table = [min(max(r, -1), m + 1) + 1 for r in table]
    n = 1 << m
    ranks = int.from_bytes(bytes(table), "little")
    ones = int.from_bytes(b"\x01" * n, "little")
    high, low7 = ones << 7, ones * 0x7F

    def first(bits: int) -> int:
        """The subset whose byte holds the lowest set bit of ``bits``."""
        return (bits & -bits).bit_length() - 1 >> 3

    def subset(mask: int) -> tuple[int, ...]:
        return tuple(ground[k] for k in range(m) if mask >> k & 1)

    unit, equal = [], []
    for i in range(m):
        # bit 7 of byte X set iff X lacks i
        free = int.from_bytes((b"\x80" * (1 << i) + bytes(1 << i)) * (n >> i + 1), "little")
        d = ((ranks >> (8 << i)) | high) - ranks
        # r(X+i) - r(X) in the bytes where it is at least 0
        up = d & low7
        # bit 7 where the step is below 0 (bit 7 of d clear) or above 1
        bad = (~d | up + (low7 - ones)) & free
        if bad:
            unit.append((first(bad), i))
        # E[i]: bit 7 where the step is 0
        equal.append(d & ~(up + low7) & free)
    if unit:
        mask, i = min(unit)
        return False, ("unit", subset(mask), ground[i])
    pairs = [
        (first(broken), a, b)
        for a, b in itertools.combinations(range(m), 2)
        if (broken := equal[a] & equal[b] & ~(equal[b] >> (8 << a)))
    ]
    if pairs:
        mask, a, b = min(pairs)
        return False, ("submodular", subset(mask), (ground[a], ground[b]))
    return True, None
