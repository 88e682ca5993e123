"""The central construction: a linear class of frame-matroid circuits from a
Frobenius partition, the elementary lift it defines, minors, and spikes.

Throughout, a gain graph over a group with partition {kernel} ∪ complements
induces the frame matroid N of its quotient gains, and the matroid here is the
elementary lift of N picked out by the class of circuits whose gains sit, up to
switching, inside a single part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .biased import (
    IDENTITY_PART,
    KERNEL_PART,
    BiasedGraph,
    CircuitIndex,
    ComponentOracle,
    EdgeIndex,
    RankOracle,
    _ClassLift,
    _vertices_of,
    distinct_unions,
    first_disagreement,
    frame_circuits,
    minimal_dependent_sets,
    scan_components,
)
from .errors import LimitExceeded
from .gaingraph import (
    DEFAULT_CYCLE_COUNT_LIMIT,
    Edge,
    GainGraph,
    Walk,
    apply_switching,
    cycle_walk,
    enumerate_cycles,
    gain_of_walk,
    is_balanced_cycle,
    quotient_gains,
    walk_edges,
)
from .groups import (
    FiniteGroup,
    FrobeniusPartition,
    QuotientMap,
    quotient,
    validate_partition,
)


class FrobeniusContext:
    """A group with a fixed Frobenius partition and fast part lookup.

    ``part_of[x]`` is IDENTITY_PART for the identity, KERNEL_PART for other
    kernel elements, and the complement index otherwise.
    """

    def __init__(self, group: FiniteGroup, partition: FrobeniusPartition, validate: bool = True):
        if validate:
            validate_partition(group, partition)
        self.group = group
        self.partition = partition
        part = [KERNEL_PART if x in partition.kernel else -3 for x in group.elements()]
        part[0] = IDENTITY_PART
        for i, comp in enumerate(partition.complements):
            for x in comp.elements:
                if x != 0:
                    part[x] = i
        if any(p == -3 for p in part):
            raise ValueError("partition does not cover the group")
        self.part_of = tuple(part)

    def in_kernel(self, x: int) -> bool:
        return self.part_of[x] < 0

    @cached_property
    def quotient(self) -> QuotientMap:
        return quotient(self.group, self.partition.kernel)

    def __repr__(self) -> str:
        return (
            f"FrobeniusContext(order={self.group.order}, "
            f"kernel={self.partition.kernel.order}, "
            f"complements={len(self.partition.complements)})"
        )


class LiftedMatroid(ComponentOracle):
    """Rank oracle of the constructed elementary lift.

    rank(X) = |V(G[X])| - b(X) + l(X) with b counting quotient-balanced
    components and l the lift bit; the same pass without l is the frame rank
    of the quotient, ``underlying_rank``.
    """

    def __init__(self, ctx: FrobeniusContext, graph: GainGraph):
        if graph.group is not ctx.group:
            raise ValueError("graph group differs from the context group")
        super().__init__(graph, ctx.part_of, True)
        self.ctx = ctx
        self._frame = ComponentOracle(graph, ctx.part_of, False)

    # bound here as well: bench/tracing.py wraps the method in this class's
    # own __dict__
    rank = ComponentOracle.rank

    def underlying_rank(self, subset: Iterable[int]) -> int:
        """Rank in the frame matroid of the quotient gain graph."""
        return self._frame.rank(subset)

    @cached_property
    def quotient_biased(self) -> BiasedGraph:
        return BiasedGraph(quotient_gains(self.graph, self.ctx.quotient))

    @cached_property
    def frame_circuits(self) -> tuple[tuple[int, ...], ...]:
        """The circuits of the underlying frame matroid, computed once."""
        return tuple(frame_circuits(self.quotient_biased))

    @cached_property
    def linear_class(self) -> tuple[tuple[int, ...], ...]:
        return tuple(linear_class(self.ctx, self.graph, frame=self.frame_circuits))


# ---------------------------------------------------------------------------
# circuit classification and class membership


@dataclass(frozen=True)
class _CircuitShape:
    kind: str  # "cycle" | "theta" | "tight" | "loose"
    cycles: tuple[frozenset[int], ...]
    path: frozenset[int]  # connecting path of a loose handcuff, else empty


def _classify_circuit(ctx: FrobeniusContext, g: GainGraph, circuit: Iterable[int]) -> _CircuitShape:
    ids = sorted(set(circuit))
    scans = scan_components(g, ids)
    if len(scans) != 1:
        raise ValueError("not a frame circuit: restriction is disconnected")
    sub = g.with_edges(g.edge(i) for i in ids)
    cycles = enumerate_cycles(sub)
    deg: dict[int, int] = {}
    for i in ids:
        e = g.edge(i)
        deg[e.tail] = deg.get(e.tail, 0) + 1
        deg[e.head] = deg.get(e.head, 0) + 1
    if any(d < 2 for d in deg.values()):
        raise ValueError("not a frame circuit: a vertex has degree one")
    # connected with every degree at least 2: nullity 1 is one cycle, and
    # nullity 2 (degree sum 2|V| + 2) a theta or a tight or loose handcuff
    nullity = len(ids) - len(scans[0].vertices) + 1
    qbal = []
    for c in cycles:
        walk = cycle_walk(g, c)
        qbal.append(ctx.in_kernel(gain_of_walk(g, walk)))
    if nullity == 1:
        if not qbal[0]:
            raise ValueError("not a frame circuit: unbalanced cycle")
        return _CircuitShape("cycle", (frozenset(ids),), frozenset())
    if nullity != 2:
        raise ValueError("not a frame circuit: nullity is not 1 or 2")
    if any(qbal):
        raise ValueError("not a frame circuit: contains a balanced cycle")
    csets = [frozenset(c) for c in cycles]
    if len(csets) == 3:
        return _CircuitShape("theta", tuple(csets), frozenset())
    c1, c2 = csets
    rest = frozenset(ids) - c1 - c2
    return _CircuitShape("loose" if rest else "tight", (c1, c2), rest)


def class_member(ctx: FrobeniusContext, g: GainGraph, circuit: Iterable[int]) -> bool:
    """Whether a circuit of the underlying frame matroid is in the linear class,
    decided from its gains.

    Cycles must be balanced outright; thetas and handcuffs are accepted when,
    after normalizing a spanning tree of the circuit, both leftover gains land
    in the same complement part. Neither lies in the kernel: each closes a
    cycle of the circuit, and ``_classify_circuit`` refuses a theta or
    handcuff with a quotient-balanced cycle. ``linear_class`` decides by rank
    instead, so this and ``class_member_walks`` are the gain-side routes to
    compare it with.
    """
    ids = sorted(set(circuit))
    if _classify_circuit(ctx, g, ids).kind == "cycle":
        return is_balanced_cycle(g, ids)
    (_, a), (_, b) = scan_components(g, ids)[0].nontree
    return ctx.part_of[a] == ctx.part_of[b]


def _reverse_walk(g: GainGraph, w: Walk) -> Walk:
    at = w.start
    for eid, _ in w.steps:
        at = g.other_end(eid, at)
    return Walk(at, tuple((eid, not fwd) for eid, fwd in reversed(w.steps)))


def _concat(w1: Walk, w2: Walk) -> Walk:
    return Walk(w1.start, w1.steps + w2.steps)


def _theta_paths(cycles: tuple[frozenset[int], ...]) -> tuple[frozenset[int], ...]:
    c1, c2, c3 = cycles
    return (c1 & c2, c1 & c3, c2 & c3)


def class_member_walks(
    ctx: FrobeniusContext, g: GainGraph, circuit: Iterable[int]
) -> bool:
    """Class membership decided through one cyclic covering pair of walks;
    each walk's gain is a cycle's up to conjugacy, so, as in ``class_member``,
    outside the kernel."""
    w1, w2 = cyclic_covering_pair(ctx, g, circuit)
    return ctx.part_of[gain_of_walk(g, w1)] == ctx.part_of[gain_of_walk(g, w2)]


def cyclic_covering_pair(
    ctx: FrobeniusContext, g: GainGraph, circuit: Iterable[int]
) -> tuple[Walk, Walk]:
    """Two closed walks from a shared vertex, one around each chosen cycle,
    jointly traversing every edge of the circuit once or twice."""
    shape = _classify_circuit(ctx, g, circuit)
    if shape.kind == "cycle":
        raise ValueError("cyclic covering pairs exist only for thetas and handcuffs")
    if shape.kind == "tight":
        c1, c2 = shape.cycles
        shared = _vertices_of(g, c1) & _vertices_of(g, c2)
        v = min(shared)
        return walk_edges(g, c1, v), walk_edges(g, c2, v)
    if shape.kind == "loose":
        c1, c2 = shape.cycles
        pverts = _vertices_of(g, shape.path)
        u = min(pverts & _vertices_of(g, c1))
        w = min(pverts & _vertices_of(g, c2))
        forth = walk_edges(g, shape.path, u)
        return (
            walk_edges(g, c1, u),
            _concat(_concat(forth, walk_edges(g, c2, w)), _reverse_walk(g, forth)),
        )
    p12, p13, p23 = _theta_paths(shape.cycles)
    branch = _vertices_of(g, p12) & _vertices_of(g, p13) & _vertices_of(g, p23)
    u = min(branch)
    walk12 = walk_edges(g, p12, u)
    walk13 = walk_edges(g, p13, u)
    walk23 = walk_edges(g, p23, u)
    w1 = _concat(walk12, _reverse_walk(g, walk13))
    w2 = _concat(walk13, _reverse_walk(g, walk23))
    return w1, w2


def linear_class(
    ctx: FrobeniusContext,
    g: GainGraph,
    frame: Optional[Iterable[tuple[int, ...]]] = None,
) -> list[tuple[int, ...]]:
    """All frame-matroid circuits of the quotient graph admitted by the class.

    The lift is the elementary lift of the frame matroid N that the class
    selects, so a circuit C of N is a member iff it stays a circuit of the
    lift: rank(C) = |C| - 1, the lift bit of C is zero (Brylawski,
    *Constructions*, 1986). ``frame`` is the quotient's frame circuits, for a
    caller that holds them already; they are enumerated here otherwise.
    """
    oracle = LiftedMatroid(ctx, g)
    if frame is None:
        frame = oracle.frame_circuits
    return [c for c in frame if oracle.rank(c) == len(c) - 1]


# ---------------------------------------------------------------------------
# bases and circuits


def bases(ctx: FrobeniusContext, g: GainGraph) -> list[tuple[int, ...]]:
    """The independent sets of size r(E) of the lift, in
    ``itertools.combinations`` order.

    The lift is walked depth first, one element per step, and a prefix is
    cut once it is dependent, since every set holding it is too. Raises
    LimitExceeded, before the walk, when there are more than
    DEFAULT_CYCLE_COUNT_LIMIT candidates.
    """
    oracle = LiftedMatroid(ctx, g)
    ground = oracle.ground
    size = oracle.full_rank()
    if math.comb(len(ground), size) > DEFAULT_CYCLE_COUNT_LIMIT:
        raise LimitExceeded(
            f"more than {DEFAULT_CYCLE_COUNT_LIMIT} basis candidates of size {size}"
        )
    state, _, step = oracle.walk()
    out = []

    def visit(path: tuple[int, ...], start: int, state: object) -> None:
        if len(path) == size:
            out.append(path)
            return
        # the last index that leaves room for the rest of the candidate
        stop = len(ground) - size + len(path)
        for j in range(start, stop + 1):
            # the last child may take the parent's state
            child, r = step(state, ground[j], j == stop)
            if r > len(path):
                visit(path + (ground[j],), j + 1, child)

    visit((), 0, state)
    return out


def circuits(ctx: FrobeniusContext, g: GainGraph) -> list[tuple[int, ...]]:
    """Circuits: the linear class, plus the nullity-two unions of two frame
    circuits that contain no member of it.

    Such a union X is already minimal: every proper subset misses an element
    of C1 or C2, which is no coloop of X, so its nullity is at most one. Only
    pairs of non-members are formed: X holds no member, so neither circuit
    of a pair giving X is one, and a union taken with a member contains that
    member and is rejected anyway. Each union is taken once (see
    distinct_unions); one with more than two edges beyond its vertices
    cannot have nullity two (frame rank is at most the vertex count), so it
    is skipped before the rank query, as is one that holds a member. So N is
    asked once per union that can be a circuit.
    """
    oracle = LiftedMatroid(ctx, g)
    index = EdgeIndex(oracle.ground, g)
    members = CircuitIndex(index, oracle.linear_class)
    out = set(oracle.linear_class)
    others = [c for c in oracle.frame_circuits if c not in out]
    shapes = [index.shape(c) for c in others]
    for i, j, u in distinct_unions([e for e, _ in shapes]):
        if u.bit_count() - (shapes[i][1] | shapes[j][1]).bit_count() > 2:
            continue
        ids = tuple(sorted({*others[i], *others[j]}))
        if not any(members.inside(ids, u)) and len(ids) - oracle.underlying_rank(ids) == 2:
            out.add(ids)
    return sorted(out)


# ---------------------------------------------------------------------------
# minors


def delete(ctx: FrobeniusContext, g: GainGraph, eid: int) -> LiftedMatroid:
    """Deletion: drop the edge, ids and vertices untouched."""
    if eid not in {e.id for e in g.edges}:
        raise ValueError(f"no edge {eid}")
    return LiftedMatroid(ctx, g.with_edges(e for e in g.edges if e.id != eid))


def contract(ctx: FrobeniusContext, g: GainGraph, eid: int) -> LiftedMatroid:
    """Contraction of any edge, by the rule for its kind: non-loop, non-identity
    kernel loop, or any other loop."""
    e = g.edge(eid)
    if not e.is_loop:
        return contract_nonloop(ctx, g, eid)
    if e.gain != 0 and ctx.in_kernel(e.gain):
        return contract_kernel_loop(ctx, g, eid)
    return contract_unbalanced_loop(ctx, g, eid)


def contract_nonloop(ctx: FrobeniusContext, g: GainGraph, eid: int) -> LiftedMatroid:
    """Contraction of a non-loop: switch it to the identity, then merge ends."""
    e = g.edge(eid)
    if e.is_loop:
        raise ValueError(f"edge {eid} is a loop")
    # eta(tail)^-1 ∘ gain ∘ eta(head) is then the identity
    eta = [0] * g.vertex_count
    eta[e.head] = g.group.inv(e.gain)
    g2 = apply_switching(g, eta)
    keep, drop = min(e.tail, e.head), max(e.tail, e.head)

    def remap(v: int) -> int:
        if v == drop:
            return keep
        return v - 1 if v > drop else v

    edges = [
        Edge(f.id, remap(f.tail), remap(f.head), f.gain)
        for f in g2.edges
        if f.id != eid
    ]
    return LiftedMatroid(ctx, GainGraph(g.group, g.vertex_count - 1, edges))


def contract_unbalanced_loop(
    ctx: FrobeniusContext, g: GainGraph, eid: int
) -> LiftedMatroid:
    """Contraction of a loop whose gain sits in a complement part.

    Neighbours of the loop's vertex turn into conjugated loops at their other
    end; same-part loops become identity loops; other loops at the vertex get
    the least non-identity kernel element. An identity loop is a matroid loop,
    so it falls back to deletion.
    """
    e = g.edge(eid)
    if not e.is_loop:
        raise ValueError(f"edge {eid} is not a loop")
    if e.gain == 0:
        return delete(ctx, g, eid)
    if ctx.in_kernel(e.gain):
        raise ValueError("loop gain lies in the kernel; use contract_kernel_loop")
    grp = g.group
    v = e.tail
    part_set = ctx.partition.complements[ctx.part_of[e.gain]].element_set
    kernel_rest = [x for x in ctx.partition.kernel.elements if x != 0]
    new_edges = []
    for f in g.edges:
        if f.id == eid:
            continue
        if v not in (f.tail, f.head):
            new_edges.append(f)
        elif not f.is_loop:
            w = f.head if f.tail == v else f.tail
            d = g.gain_from(f.id, v)  # gain of the orientation v -> w
            new_edges.append(Edge(f.id, w, w, grp.mul(grp.mul(grp.inv(d), e.gain), d)))
        elif f.gain in part_set:
            new_edges.append(Edge(f.id, v, v, 0))
        else:
            # the kernel is nontrivial: a trivial one leaves one complement,
            # the whole group, which holds every gain
            new_edges.append(Edge(f.id, v, v, kernel_rest[0]))
    return LiftedMatroid(ctx, g.with_edges(new_edges))


def contract_kernel_loop(ctx: FrobeniusContext, g: GainGraph, eid: int) -> LiftedMatroid:
    """Contraction of a non-identity kernel loop.

    Drops the loop and replaces every gain by its quotient image, re-embedded
    into the first complement (the identity when the quotient is trivial and
    there is no complement). A Frobenius complement is a transversal of the
    kernel, so the projection maps it isomorphically onto the quotient.
    """
    e = g.edge(eid)
    if not e.is_loop:
        raise ValueError(f"edge {eid} is not a loop")
    if e.gain == 0 or not ctx.in_kernel(e.gain):
        raise ValueError("loop gain must be a non-identity kernel element")
    qm = ctx.quotient
    embed = [0] * qm.quotient.order
    for comp in ctx.partition.complements[:1]:
        for h in comp.elements:
            embed[qm.projection[h]] = h
    new_edges = [
        Edge(f.id, f.tail, f.head, embed[qm.projection[f.gain]])
        for f in g.edges
        if f.id != eid
    ]
    return LiftedMatroid(ctx, g.with_edges(new_edges))


# ---------------------------------------------------------------------------
# spikes, elementary-lift recognition, switching invariance


def build_spike_graph(ctx: FrobeniusContext, r: int) -> tuple[GainGraph, LiftedMatroid]:
    """A doubled r-cycle plus one loop whose lift is an r-spike.

    Each parallel pair holds gains identity and the least non-identity kernel
    element, so every 2-cycle and the loop are unbalanced.
    """
    if r < 3:
        raise ValueError("spikes need r >= 3")
    kernel_rest = [x for x in ctx.partition.kernel.elements if x != 0]
    if not kernel_rest:
        raise ValueError("spike construction needs a nontrivial kernel")
    alpha = kernel_rest[0]
    triples = []
    for i in range(r):
        j = (i + 1) % r
        triples.append((i, j, 0))
        triples.append((i, j, alpha))
    triples.append((0, 0, alpha))
    graph = GainGraph.from_triples(ctx.group, r, triples)
    return graph, LiftedMatroid(ctx, graph)


def verify_spike(oracle: RankOracle, r: int) -> tuple[bool, tuple[int, ...]]:
    """Check: rank r, 2r+1 elements, simple, and a tip on r three-point lines.

    Returns every element that works as a tip, i.e. pairs the remaining 2r
    elements into r rank-two triples.
    """
    ground = oracle.ground
    if len(ground) != 2 * r + 1 or oracle.full_rank() != r:
        return False, ()
    for x in ground:
        if oracle.rank([x]) != 1:
            return False, ()
    for x, y in itertools.combinations(ground, 2):
        if oracle.rank([x, y]) != 2:
            return False, ()
    tips = []
    for tip in ground:
        rest = [x for x in ground if x != tip]
        partner: dict[int, set[int]] = {x: set() for x in rest}
        for x, y in itertools.combinations(rest, 2):
            if oracle.rank([tip, x, y]) == 2:
                partner[x].add(y)
                partner[y].add(x)
        if all(len(p) == 1 for p in partner.values()):
            tips.append(tip)
    return bool(tips), tuple(tips)


def is_elementary_lift(m: RankOracle, host: RankOracle) -> tuple[bool, object]:
    """Decide whether m is an elementary lift of host; recover its class.

    On success returns (True, class); on failure (False, witness) where the
    witness is either a linear-class violation or the first subset, by size,
    whose rank the two-case formula cannot reproduce. Raises LimitExceeded
    above biased.EXHAUSTIVE_LIMIT elements.
    """
    if tuple(m.ground) != tuple(host.ground):
        raise ValueError("ground sets differ")
    host_circuits = minimal_dependent_sets(host)
    recovered = [c for c in host_circuits if m.rank(c) == len(c) - 1]
    lift = _ClassLift(host, host_circuits, recovered)
    ok, witness = lift.modular_pair_check()
    if not ok:
        return False, witness
    bad = first_disagreement(m, lift)
    if bad is not None:
        return False, tuple(sorted(bad))
    return True, recovered
