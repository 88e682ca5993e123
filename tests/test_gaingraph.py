import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmat import (
    Edge,
    GainGraph,
    Subgroup,
    Walk,
    apply_switching,
    complete_gain_graph,
    enumerate_cycles,
    gain_of_walk,
    is_balanced_cycle,
    make_cyclic,
    make_dihedral,
    make_field_affine,
    quotient,
    quotient_gains,
)
from frobmat import gaingraph as gaingraph_module
from frobmat.errors import LimitExceeded
from frobmat.gaingraph import cycle_gains, cycle_walk, walk_edges

from conftest import complete_edge_id, normalize_forest, random_gain_graph, sparse_multigraph
from test_acceptance import order_20_catalog


def graph(group, n, triples):
    return GainGraph.from_triples(group, n, triples)


# --- walks ------------------------------------------------------------------


def test_gain_of_empty_walk(d6):
    g = graph(d6, 2, [(0, 1, 3)])
    assert gain_of_walk(g, Walk(0, ())) == 0


def test_gain_of_single_edge(d6):
    g = graph(d6, 2, [(0, 1, 4)])
    assert gain_of_walk(g, Walk(0, ((0, True),))) == 4
    assert gain_of_walk(g, Walk(1, ((0, False),))) == d6.inv(4)


def test_back_and_forth_cancels(d6):
    k3 = complete_gain_graph(d6, 3)
    eid = complete_edge_id(d6, 3, 0, 1, 5)
    walk = Walk(0, ((eid, True), (eid, False)))
    assert gain_of_walk(k3, walk) == 0


@pytest.mark.parametrize("method", ["gain_from", "other_end"])
def test_unknown_edge_id_is_a_value_error(d6, method):
    g = graph(d6, 2, [(0, 1, 3)])
    with pytest.raises(ValueError, match="no edge 7"):
        getattr(g, method)(7, 0)


def test_negative_vertex_count_is_a_value_error(d6):
    with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -3$"):
        GainGraph.from_triples(d6, -3, [])
    with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -1$"):
        GainGraph(d6, -1, [])
    assert GainGraph(d6, 0, []).vertex_count == 0


def test_gain_graph_repr_counts_vertices_and_edges(d6):
    assert repr(graph(d6, 3, [(0, 1, 1), (1, 2, 2), (2, 2, 3)])) == "GainGraph(|V|=3, |E|=3)"
    assert repr(GainGraph(d6, 0, [])) == "GainGraph(|V|=0, |E|=0)"


def test_walk_rejects_broken_incidence(d6):
    g = graph(d6, 3, [(0, 1, 1), (1, 2, 2)])
    with pytest.raises(ValueError):
        gain_of_walk(g, Walk(0, ((1, True),)))


def _rescanning_walk(g, edges, start):
    """walk_edges as first written: every step rescans the unused set."""
    unused = set(edges)
    at = start
    steps = []
    while unused:
        eid = min(i for i in unused if at in (g.edge(i).tail, g.edge(i).head))
        steps.append((eid, at == g.edge(eid).tail))
        at = g.other_end(eid, at)
        unused.discard(eid)
    return Walk(start, tuple(steps))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_walk_edges_matches_rescanning_walk(seed):
    """Same steps, start and direction on cycles from every vertex and on
    paths from both ends, with shuffled edge ids, parallel edges and loops."""
    rng = random.Random(seed)
    group = make_dihedral(6)
    nv = rng.randint(2, 6)
    path = rng.sample(range(nv), rng.randint(2, nv))
    triples = [(u, w, rng.randrange(6)) for u, w in zip(path, path[1:])]
    triples += [
        (rng.randrange(nv), rng.randrange(nv), rng.randrange(6))
        for _ in range(rng.randint(0, 8))
    ]
    ids = rng.sample(range(100), len(triples))
    g = GainGraph(group, nv, (Edge(i, t, h, x) for i, (t, h, x) in zip(ids, triples)))
    path_ids = ids[: len(path) - 1]
    for start in (path[0], path[-1]):
        assert walk_edges(g, path_ids, start) == _rescanning_walk(g, path_ids, start)
    for cycle in enumerate_cycles(g):
        for e in cycle:
            for start in (g.edge(e).tail, g.edge(e).head):
                assert walk_edges(g, cycle, start) == _rescanning_walk(g, cycle, start)


# --- switching --------------------------------------------------------------


def test_switching_identity_noop(d6):
    g = graph(d6, 3, [(0, 1, 3), (1, 2, 2), (2, 2, 5)])
    assert apply_switching(g, [0, 0, 0]).edges == g.edges


def test_switching_involution(d6):
    g = graph(d6, 3, [(0, 1, 3), (1, 2, 2), (0, 0, 4)])
    eta = [1, 5, 2]
    inv_eta = [d6.inv(x) for x in eta]
    assert apply_switching(apply_switching(g, eta), inv_eta).edges == g.edges


def test_switching_single_vertex_appends_value(d6):
    g = graph(d6, 2, [(0, 1, 2)])
    switched = apply_switching(g, [0, 4])
    assert switched.edge(0).gain == d6.mul(2, 4)


def test_loop_switching_conjugates(d6):
    g = graph(d6, 1, [(0, 0, 3)])
    switched = apply_switching(g, [1])
    assert switched.edge(0).gain == d6.mul(d6.mul(d6.inv(1), 3), 1)


# --- forest normalization ---------------------------------------------------


def test_normalize_empty_forest(d6):
    g = graph(d6, 3, [(0, 1, 3)])
    assert normalize_forest(g, [], 0) == [0, 0, 0]


def test_normalize_single_edge(d6):
    g = graph(d6, 2, [(0, 1, 4)])
    eta = normalize_forest(g, [0], 0)
    # the defining equation eta(u)^-1 gain eta(v) = identity forces the inverse
    assert eta[0] == 0 and eta[1] == d6.inv(4)
    assert apply_switching(g, eta).edge(0).gain == 0


def test_normalize_spanning_tree_of_k4():
    z2 = make_cyclic(2)
    k4 = complete_gain_graph(z2, 4)
    tree = [
        complete_edge_id(z2, 4, 0, 1, 1),
        complete_edge_id(z2, 4, 1, 2, 0),
        complete_edge_id(z2, 4, 2, 3, 1),
    ]
    eta = normalize_forest(k4, tree, 0)
    assert eta[0] == 0
    switched = apply_switching(k4, eta)
    assert all(switched.edge(t).gain == 0 for t in tree)


def test_normalize_rejects_cycle(d6):
    g = graph(d6, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    with pytest.raises(ValueError, match="cycle"):
        normalize_forest(g, [0, 1, 2], 0)


def test_normalize_rejects_loop(d6):
    g = graph(d6, 1, [(0, 0, 1)])
    with pytest.raises(ValueError, match="loop"):
        normalize_forest(g, [0], 0)


# --- balanced cycles --------------------------------------------------------


def test_loop_balance(d6):
    assert is_balanced_cycle(graph(d6, 1, [(0, 0, 0)]), [0])
    assert not is_balanced_cycle(graph(d6, 1, [(0, 0, 2)]), [0])


def test_parallel_pair_balance(d6):
    same = graph(d6, 2, [(0, 1, 4), (0, 1, 4)])
    assert is_balanced_cycle(same, [0, 1])
    different = graph(d6, 2, [(0, 1, 4), (0, 1, 1)])
    assert not is_balanced_cycle(different, [0, 1])


def test_balance_rejects_non_cycle(d6):
    g = graph(d6, 3, [(0, 1, 0), (1, 2, 0)])
    with pytest.raises(ValueError):
        is_balanced_cycle(g, [0, 1])


# --- cycle enumeration ------------------------------------------------------


def test_enumerate_cycles_forest(d6):
    g = graph(d6, 4, [(0, 1, 1), (1, 2, 2), (1, 3, 3)])
    assert enumerate_cycles(g) == []


def test_enumerate_cycles_triangle_with_parallel(d6):
    g = graph(d6, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 1, 3)])
    cycles = enumerate_cycles(g)
    assert len(cycles) == 3
    assert (0, 3) in cycles  # the digon


def _simple_k4():
    z1 = make_cyclic(1)
    return graph(z1, 4, [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0)])


def test_enumerate_cycles_k4_simple():
    assert len(enumerate_cycles(_simple_k4())) == 7


def test_enumerate_cycles_respects_edge_cap(d6):
    g = complete_gain_graph(d6, 4)
    with pytest.raises(LimitExceeded):
        enumerate_cycles(g, max_edges=10)


def test_enumerate_cycles_respects_count_cap(monkeypatch):
    """The count cap is read at each call: simple K_4 has 7 cycles, so a
    cap of 7 lists them all and a cap of 5 refuses at the sixth."""
    monkeypatch.setattr(gaingraph_module, "DEFAULT_CYCLE_COUNT_LIMIT", 7)
    assert len(enumerate_cycles(_simple_k4())) == 7
    monkeypatch.setattr(gaingraph_module, "DEFAULT_CYCLE_COUNT_LIMIT", 5)
    with pytest.raises(LimitExceeded, match="^more than 5 cycles$"):
        enumerate_cycles(_simple_k4())


CYCLE_GAIN_GROUPS = (make_dihedral(6), make_field_affine(5), order_20_catalog()["Q8"])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_cycle_gains_match_the_walk_of_each_cycle(seed):
    """Each cycle's gain, carried down the search that lists it, against the
    gain of ``cycle_walk`` on the cycle, on a graph with a loop and a
    parallel pair over D6, AGL(1,5) or Q8 (all non-abelian)."""
    rng = random.Random(seed)
    g = sparse_multigraph(CYCLE_GAIN_GROUPS[seed % 3], rng, max_edges=11)
    assert cycle_gains(g) == [
        (c, gain_of_walk(g, cycle_walk(g, c))) for c in enumerate_cycles(g)
    ]


# --- quotient gains ---------------------------------------------------------


def test_quotient_by_trivial_subgroup_keeps_gains(d6):
    g = graph(d6, 3, [(0, 1, 3), (1, 2, 5)])
    qm = quotient(d6, Subgroup((0,)))
    assert [e.gain for e in quotient_gains(g, qm).edges] == [3, 5]


def test_quotient_by_whole_group_balances_everything(d6):
    g = graph(d6, 3, [(0, 1, 3), (1, 2, 5), (0, 2, 1)])
    qm = quotient(d6, Subgroup(tuple(range(6))))
    q = quotient_gains(g, qm)
    assert all(e.gain == 0 for e in q.edges)
    assert all(is_balanced_cycle(q, c) for c in enumerate_cycles(q))


def test_quotient_gain_surrogate_balance_counts():
    """Five-edge graph over Z/16 whose even-subgroup quotient triples the
    balanced cycle count (1 -> 3)."""
    z16 = make_cyclic(16)
    g = graph(z16, 3, [(1, 0, 8), (2, 0, 5), (0, 1, 1), (0, 2, 3), (1, 2, 2)])
    cycles = enumerate_cycles(g)
    assert sum(is_balanced_cycle(g, c) for c in cycles) == 1
    evens = Subgroup(tuple(range(0, 16, 2)))
    q = quotient_gains(g, quotient(z16, evens))
    assert [e.gain for e in q.edges] == [0, 1, 1, 1, 0]
    assert sum(is_balanced_cycle(q, c) for c in cycles) == 3


# --- complete gain graphs and signed gains ----------------------------------


def test_complete_graph_sizes(d6):
    assert len(complete_gain_graph(make_cyclic(2), 2).edges) == 2
    assert len(complete_gain_graph(d6, 4).edges) == 36
    assert len(complete_gain_graph(make_cyclic(3), 3).edges) == 9


def test_complete_graph_orientation(d6):
    g = complete_gain_graph(d6, 3)
    eid = complete_edge_id(d6, 3, 1, 2, 4)
    e = g.edge(eid)
    assert (e.tail, e.head, e.gain) == (1, 2, 4)


def test_gain_set(d6):
    g = graph(d6, 2, [(0, 1, 0), (0, 1, 3), (0, 1, 1)])
    gains = [(g.edge(i).gain, d6.inv(g.edge(i).gain)) for i in range(3)]
    # an edge's gain and its inverse: reflections are involutions
    assert gains == [(0, 0), (3, 3), (1, 2)]


# --- invariants -------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_switching_preserves_balanced_cycles(seed):
    rng = random.Random(seed)
    group = make_dihedral(6) if seed % 2 else make_cyclic(5)
    g = random_gain_graph(group, rng)
    eta = [rng.randrange(group.order) for _ in range(g.vertex_count)]
    switched = apply_switching(g, eta)
    for cycle in enumerate_cycles(g):
        assert is_balanced_cycle(g, cycle) == is_balanced_cycle(switched, cycle)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_closed_walk_invariant_when_base_fixed(seed):
    rng = random.Random(seed)
    group = make_dihedral(10)
    g = random_gain_graph(group, rng)
    cycles = enumerate_cycles(g)
    if not cycles:
        return
    from frobmat.gaingraph import cycle_walk

    walk = cycle_walk(g, cycles[rng.randrange(len(cycles))])
    eta = [rng.randrange(group.order) for _ in range(g.vertex_count)]
    eta[walk.start] = 0
    assert gain_of_walk(g, walk) == gain_of_walk(apply_switching(g, eta), walk)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_normalize_forest_postcondition(seed):
    rng = random.Random(seed)
    group = make_cyclic(7)
    g = random_gain_graph(group, rng, max_vertices=5)
    non_loops = [e.id for e in g.edges if not e.is_loop]
    # greedy forest
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    forest = []
    for eid in non_loops:
        e = g.edge(eid)
        a, b = find(e.tail), find(e.head)
        if a != b:
            parent[a] = b
            forest.append(eid)
    root = rng.randrange(g.vertex_count)
    eta = normalize_forest(g, forest, root)
    assert eta[root] == 0
    switched = apply_switching(g, eta)
    assert all(switched.edge(t).gain == 0 for t in forest)


def test_kernel_gain_cycles_become_normalized(d6):
    """Cycles with all gains in the kernel are normalized in the quotient."""
    g = graph(d6, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 0), (0, 1, 4)])
    qm = quotient(d6, Subgroup((0, 1, 2)))
    q = quotient_gains(g, qm)
    assert [e.gain for e in q.edges[:3]] == [0, 0, 0]
    assert q.edge(3).gain != 0


def test_balance_independent_of_walk_start_and_direction(d6):
    rng = random.Random(5)
    for _ in range(25):
        g = random_gain_graph(d6, rng, max_vertices=4, max_edges=8)
        for cycle in enumerate_cycles(g):
            flags = set()
            edges = [g.edge(i) for i in cycle]
            if len(cycle) == 1:
                walks = [Walk(edges[0].tail, ((edges[0].id, True),)),
                         Walk(edges[0].tail, ((edges[0].id, False),))]
            else:
                walks = []
                verts = {v for e in edges for v in (e.tail, e.head)}
                for start in verts:
                    for first in cycle:
                        if start not in (g.edge(first).tail, g.edge(first).head):
                            continue
                        # trace the cycle starting with this edge
                        steps, at, used = [], start, set()
                        nxt = first
                        while True:
                            e = g.edge(nxt)
                            steps.append((nxt, at == e.tail))
                            used.add(nxt)
                            at = g.other_end(nxt, at)
                            rest = [i for i in cycle if i not in used and at in (g.edge(i).tail, g.edge(i).head)]
                            if not rest:
                                break
                            nxt = rest[0]
                        if len(used) == len(cycle) and at == start:
                            walks.append(Walk(start, tuple(steps)))
            for w in walks:
                flags.add(gain_of_walk(g, w) == 0)
            assert len(flags) == 1
            assert flags.pop() == is_balanced_cycle(g, cycle)


# --- refusals ---------------------------------------------------------------


def _two_digons(d6):
    return graph(d6, 4, [(0, 1, 0), (1, 0, 3), (2, 3, 0), (3, 2, 3)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d6: GainGraph(d6, 2, [Edge(0, 0, 1, 0), Edge(0, 1, 0, 0)]), "duplicate edge ids"),
        (lambda d6: graph(d6, 2, [(0, 1, 0), (0, 2, 0)]), "edge 1 has an endpoint out of range"),
        (lambda d6: graph(d6, 2, [(-1, 1, 0)]), "edge 0 has an endpoint out of range"),
        (lambda d6: graph(d6, 2, [(0, 1, 6)]), "edge 0 has gain out of range"),
        (lambda d6: graph(d6, 2, [(0, 1, -1)]), "edge 0 has gain out of range"),
        (lambda d6: graph(d6, 3, [(0, 1, 4)]).gain_from(0, 2), "vertex 2 is not an end of edge 0"),
        (lambda d6: graph(d6, 3, [(0, 1, 4)]).other_end(0, 2), "vertex 2 is not an end of edge 0"),
        (
            lambda d6: apply_switching(graph(d6, 3, []), [0, 1]),
            "switching function length must equal the vertex count",
        ),
        (lambda d6: is_balanced_cycle(graph(d6, 1, [(0, 0, 1)]), []), "empty edge set is not a cycle"),
        # every degree is two, and the walk from vertex 0 closes one digon
        (lambda d6: is_balanced_cycle(_two_digons(d6), [0, 1, 2, 3]),
         "no unused edge of the set meets vertex 0"),
        (
            lambda d6: quotient_gains(graph(d6, 1, []), quotient(make_dihedral(6), Subgroup((0, 1, 2)))),
            "quotient map source differs from the graph's group",
        ),
        (lambda d6: complete_gain_graph(d6, 1), "complete gain graph needs at least 2 vertices"),
    ],
    ids=[
        "duplicate-id", "endpoint-high", "endpoint-negative", "gain-high", "gain-negative",
        "gain_from-off-edge", "other_end-off-edge", "switching-length", "empty-cycle",
        "two-disjoint-cycles", "other-group-quotient", "complete-n1",
    ],
)
def test_a_malformed_argument_is_refused(d6, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(d6)
