"""Multigraphs with group-valued gains: switching, walks, cycles, quotients.

Each edge stores one reference orientation (tail -> head) and a gain; the
reverse orientation carries the inverse gain and is never stored. Loops have
tail == head. Edge ids are stable: minors drop ids but never renumber them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import LimitExceeded
from .groups import FiniteGroup, QuotientMap

DEFAULT_CYCLE_EDGE_LIMIT = 40
DEFAULT_CYCLE_COUNT_LIMIT = 10**6
# Most edges complete_gain_graph builds; checked before the first edge exists.
MAX_COMPLETE_EDGES = 100_000


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    gain: int

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


@dataclass(frozen=True)
class Walk:
    """A start vertex plus (edge id, forward?) steps; forward means tail->head."""

    start: int
    steps: tuple[tuple[int, bool], ...]


class EdgeEnds(dict):
    """Edge id -> (tail, head, gain); an unknown id raises ValueError."""

    def __missing__(self, eid: int) -> tuple[int, int, int]:
        raise ValueError(f"no edge {eid}")


class GainGraph:
    """Immutable gain graph over a FiniteGroup."""

    def __init__(self, group: FiniteGroup, vertex_count: int, edges: Iterable[Edge]):
        if vertex_count < 0:
            raise ValueError(f"vertex count must be non-negative, got {vertex_count}")
        self.group = group
        self.vertex_count = vertex_count
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._by_id = {e.id: e for e in self.edges}
        if len(self._by_id) != len(self.edges):
            raise ValueError("duplicate edge ids")
        for e in self.edges:
            if not (0 <= e.tail < vertex_count and 0 <= e.head < vertex_count):
                raise ValueError(f"edge {e.id} has an endpoint out of range")
            if not 0 <= e.gain < group.order:
                raise ValueError(f"edge {e.id} has gain out of range")

    @classmethod
    def from_triples(
        cls,
        group: FiniteGroup,
        vertex_count: int,
        triples: Sequence[tuple[int, int, int]],
    ) -> "GainGraph":
        """Edges as (tail, head, gain); edge id = position."""
        return cls(
            group,
            vertex_count,
            (Edge(i, t, h, g) for i, (t, h, g) in enumerate(triples)),
        )

    def edge(self, eid: int) -> Edge:
        try:
            return self._by_id[eid]
        except KeyError:
            raise ValueError(f"no edge {eid}") from None

    @cached_property
    def ends(self) -> EdgeEnds:
        """Edge id -> (tail, head, gain)."""
        return EdgeEnds({e.id: (e.tail, e.head, e.gain) for e in self.edges})

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.edges)

    def gain_from(self, eid: int, u: int) -> int:
        """Gain of the orientation leaving u; loops return the stored gain."""
        e = self.edge(eid)
        if u == e.tail:
            return e.gain
        if u == e.head:
            return self.group.inv(e.gain)
        raise ValueError(f"vertex {u} is not an end of edge {eid}")

    def other_end(self, eid: int, u: int) -> int:
        e = self.edge(eid)
        if u == e.tail:
            return e.head
        if u == e.head:
            return e.tail
        raise ValueError(f"vertex {u} is not an end of edge {eid}")

    def with_edges(self, edges: Iterable[Edge]) -> "GainGraph":
        return GainGraph(self.group, self.vertex_count, edges)

    def __repr__(self) -> str:
        return f"GainGraph(|V|={self.vertex_count}, |E|={len(self.edges)})"


def gain_of_walk(g: GainGraph, walk: Walk) -> int:
    """Ordered product of oriented gains along the walk."""
    table = g.group.table
    inverse = g.group.inverse
    ends = g.ends
    value = 0
    at = walk.start
    for eid, forward in walk.steps:
        t, h, x = ends[eid]
        u, v = (t, h) if forward else (h, t)
        if u != at:
            raise ValueError(f"walk step {eid} does not start at vertex {at}")
        value = table[value][x if forward else inverse[x]]
        at = v
    return value


def apply_switching(g: GainGraph, eta: Sequence[int]) -> GainGraph:
    """New gains eta(u)^-1 ∘ gain ∘ eta(v) on every stored orientation."""
    if len(eta) != g.vertex_count:
        raise ValueError("switching function length must equal the vertex count")
    grp = g.group
    return g.with_edges(
        Edge(e.id, e.tail, e.head, grp.mul(grp.mul(grp.inv(eta[e.tail]), e.gain), eta[e.head]))
        for e in g.edges
    )


def _check_cycle(g: GainGraph, cycle: Iterable[int]) -> tuple[list[int], int]:
    """The sorted ids of an edge set whose every vertex has degree two, and
    its least vertex.

    Such a set is a disjoint union of cycles; ``walk_edges`` from the least
    vertex refuses one of more than one cycle, since it comes back to its
    start with edges unused.
    """
    ends = g.ends
    ids = sorted(set(cycle))
    if not ids:
        raise ValueError("empty edge set is not a cycle")
    degree: dict[int, int] = {}
    for eid in ids:
        t, h, _ = ends[eid]
        degree[t] = degree.get(t, 0) + 1
        degree[h] = degree.get(h, 0) + 1
    if any(d != 2 for d in degree.values()):
        raise ValueError("edge set is not a vertex-simple cycle")
    return ids, min(degree)


def walk_edges(g: GainGraph, edges: Iterable[int], start: int) -> Walk:
    """Walk every edge of the set once from ``start``, each step taking the
    least unused edge at the current vertex.

    Traverses a cycle through ``start`` or a path from one of its ends. Each
    vertex's incident edges are listed once, by id, before the walk starts.
    """
    ends = g.ends
    unused = set(edges)
    incident: dict[int, list[int]] = {}
    for eid in sorted(unused):
        t, h, _ = ends[eid]
        incident.setdefault(t, []).append(eid)
        if t != h:
            incident.setdefault(h, []).append(eid)
    at = start
    steps: list[tuple[int, bool]] = []
    while unused:
        for eid in incident.get(at, ()):
            if eid in unused:
                break
        else:
            raise ValueError(f"no unused edge of the set meets vertex {at}")
        t, h, _ = ends[eid]
        steps.append((eid, at == t))
        at = h if at == t else t
        unused.remove(eid)
    return Walk(start, tuple(steps))


def cycle_walk(g: GainGraph, cycle: Iterable[int]) -> Walk:
    """A simple closed walk traversing the cycle once, from its least vertex."""
    ids, start = _check_cycle(g, cycle)
    return walk_edges(g, ids, start)


def is_balanced_cycle(g: GainGraph, cycle: Iterable[int]) -> bool:
    """True iff a simple closed walk on the cycle has identity gain."""
    return gain_of_walk(g, cycle_walk(g, cycle)) == 0


def enumerate_cycles(
    g: GainGraph, max_edges: int = DEFAULT_CYCLE_EDGE_LIMIT
) -> list[tuple[int, ...]]:
    """All vertex-simple cycles (loops and digons included) as sorted id tuples.

    Each cycle is found once: its minimal vertex starts the search and the
    first edge id is smaller than the closing edge id.
    """
    if len(g.edges) > max_edges:
        raise LimitExceeded(f"cycle enumeration capped at {max_edges} edges")
    out: list[tuple[int, ...]] = []
    adj: dict[int, list[Edge]] = {}
    for e in g.edges:
        if e.is_loop:
            out.append((e.id,))
            continue
        adj.setdefault(e.tail, []).append(e)
        adj.setdefault(e.head, []).append(e)
    for lst in adj.values():
        lst.sort(key=lambda e: e.id)

    def grow(start: int, at: int, used_vertices: set[int], path: list[int]):
        for e in adj.get(at, ()):
            other = e.head if at == e.tail else e.tail
            if other == start:
                if len(path) >= 1 and e.id > path[0]:
                    out.append(tuple(sorted(path + [e.id])))
                    if len(out) > DEFAULT_CYCLE_COUNT_LIMIT:
                        raise LimitExceeded(f"more than {DEFAULT_CYCLE_COUNT_LIMIT} cycles")
                continue
            if other < start or other in used_vertices:
                continue
            used_vertices.add(other)
            path.append(e.id)
            grow(start, other, used_vertices, path)
            path.pop()
            used_vertices.remove(other)

    for s in sorted(adj):
        grow(s, s, {s}, [])
    return sorted(out)


def quotient_gains(g: GainGraph, qm: QuotientMap) -> GainGraph:
    """Same structure over the quotient group, gains projected."""
    if qm.source is not g.group:
        raise ValueError("quotient map source differs from the graph's group")
    return GainGraph(
        qm.quotient,
        g.vertex_count,
        (Edge(e.id, e.tail, e.head, qm.projection[e.gain]) for e in g.edges),
    )


def complete_gain_graph(group: FiniteGroup, n: int) -> GainGraph:
    """K_n over the group: one edge per vertex pair per element.

    For i < j the edge (i, j, alpha) is oriented i -> j with gain alpha; ids
    are lexicographic in (i, j, alpha).
    """
    if n < 2:
        raise ValueError("complete gain graph needs at least 2 vertices")
    count = n * (n - 1) // 2 * group.order
    if count > MAX_COMPLETE_EDGES:
        raise ValueError(
            f"K_{n} over a group of order {group.order} has {count} edges, "
            f"above the cap {MAX_COMPLETE_EDGES}"
        )
    edges = []
    eid = 0
    for i in range(n):
        for j in range(i + 1, n):
            for alpha in group.elements():
                edges.append(Edge(eid, i, j, alpha))
                eid += 1
    return GainGraph(group, n, edges)


@lru_cache(maxsize=64)
def complete_pair_offsets(order: int, n: int) -> tuple[tuple[int, ...], ...]:
    """offset[i][j] = offset[j][i] = the id of the identity edge of the pair
    {i, j} in complete_gain_graph(group, n) for a group of the given order:
    for i < j, the edge (i, j, alpha) has id offset[i][j] + alpha."""
    offset = [[0] * n for _ in range(n)]
    pair = 0
    for i in range(n):
        for j in range(i + 1, n):
            offset[i][j] = offset[j][i] = pair * order
            pair += 1
    return tuple(map(tuple, offset))
