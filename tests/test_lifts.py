import collections
import functools
import itertools
import random
import time
import tracemalloc
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmat import (
    BiasedGraph,
    ClassLiftOracle,
    Edge,
    FrameOracle,
    FrobeniusContext,
    FrobeniusPartition,
    GainGraph,
    GraphicOracle,
    LiftOracle,
    LiftedMatroid,
    LimitExceeded,
    Subgroup,
    apply_switching,
    bases,
    brylawski_lift,
    build_spike_graph,
    circuits,
    class_member,
    class_member_walks,
    complete_gain_graph,
    contract,
    cyclic_covering_pair,
    delete,
    edge_bundle,
    enumerate_cycles,
    frame_circuits,
    frobenius_partitions,
    gain_of_walk,
    is_balanced_cycle,
    is_elementary_lift,
    is_linear_class,
    linear_class,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_affine,
    make_inversion_extension,
    make_semidirect,
    matroid_axiom_check,
    minimal_dependent_sets,
    quotient_gains,
    verify_spike,
)
from frobmat.biased import (
    IDENTITY_PART,
    KERNEL_PART,
    CircuitIndex,
    ComponentOracle,
    _ClassLift,
    rank_table,
    scan_components,
)
from frobmat.lifts import _classify_circuit

from conftest import (
    FuncOracle,
    component_rank,
    find_isomorphism,
    normalize_forest,
    random_gain_graph,
    subgroup_as_group,
)


def graph(group, n, triples):
    return GainGraph.from_triples(group, n, triples)


def contexts_of(group):
    return [FrobeniusContext(group, p, validate=False) for p in frobenius_partitions(group)]


@pytest.fixture(scope="module")
def lift_ctx_z2(z2):
    return FrobeniusContext(z2, frobenius_partitions(z2)[0])


# --- class membership -------------------------------------------------------


def test_balanced_cycle_is_member(d6, d6_frobenius):
    g = graph(d6, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 0)])
    assert class_member(d6_frobenius, g, [0, 1, 2])


def test_quotient_balanced_but_unbalanced_cycle_not_member(d6, d6_frobenius):
    g = graph(d6, 2, [(0, 1, 1), (0, 1, 2)])
    assert not class_member(d6_frobenius, g, [0, 1])


def test_handcuff_different_parts_not_member(d6, d6_frobenius):
    g = graph(d6, 1, [(0, 0, 3), (0, 0, 4)])
    assert not class_member(d6_frobenius, g, [0, 1])


def test_handcuff_same_part_member(d6, d6_frobenius):
    g = graph(d6, 1, [(0, 0, 3), (0, 0, 3)])
    assert class_member(d6_frobenius, g, [0, 1])


def test_class_member_rejects_non_circuit(d6, d6_frobenius):
    path = graph(d6, 3, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(ValueError):
        class_member(d6_frobenius, path, [0, 1])
    unbalanced_digon = graph(d6, 2, [(0, 1, 3), (0, 1, 1)])
    with pytest.raises(ValueError):
        class_member(d6_frobenius, unbalanced_digon, [0, 1])


def test_walks_agree_on_spec_examples(d6, d6_frobenius):
    g1 = graph(d6, 1, [(0, 0, 3), (0, 0, 4)])
    g2 = graph(d6, 1, [(0, 0, 3), (0, 0, 3)])
    assert class_member_walks(d6_frobenius, g1, [0, 1]) is False
    assert class_member_walks(d6_frobenius, g2, [0, 1]) is True


def test_walks_reject_cycles(d6, d6_frobenius):
    g = graph(d6, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 0)])
    with pytest.raises(ValueError):
        class_member_walks(d6_frobenius, g, [0, 1, 2])


def test_loose_handcuff_covering_multiplicities(d6, d6_frobenius):
    g = graph(d6, 2, [(0, 0, 3), (1, 1, 3), (0, 1, 1)])
    w1, w2 = cyclic_covering_pair(d6_frobenius, g, [0, 1, 2])
    counts = {}
    for eid, _ in w1.steps + w2.steps:
        counts[eid] = counts.get(eid, 0) + 1
    assert counts == {0: 1, 1: 1, 2: 2}
    assert w1.start == w2.start


def test_walks_agree_exhaustively_on_k3_d6(d6, d6_frobenius):
    k3 = complete_gain_graph(d6, 3)
    qb = BiasedGraph(quotient_gains(k3, d6_frobenius.quotient))
    checked = 0
    for circuit in frame_circuits(qb):
        shape = None
        try:
            shape = _classify_circuit(d6_frobenius, k3, circuit)
        except ValueError:
            continue
        if shape.kind == "cycle":
            continue
        checked += 1
        assert class_member(d6_frobenius, k3, circuit) == class_member_walks(
            d6_frobenius, k3, circuit
        )
    assert checked > 100


def test_walks_agree_on_random_graphs_all_shapes(f20, f20_frobenius):
    rng = random.Random(42)
    shapes = {"theta": 0, "tight": 0, "loose": 0}
    for _ in range(60):
        g = random_gain_graph(f20, rng, max_vertices=5, max_edges=9)
        qb = BiasedGraph(quotient_gains(g, f20_frobenius.quotient))
        for circuit in frame_circuits(qb):
            try:
                shape = _classify_circuit(f20_frobenius, g, circuit)
            except ValueError:
                continue
            if shape.kind == "cycle":
                continue
            shapes[shape.kind] += 1
            assert class_member(f20_frobenius, g, circuit) == class_member_walks(
                f20_frobenius, g, circuit
            )
    assert all(count > 20 for count in shapes.values())


# the groups whose partitions class_member's premise was first checked on
PREMISE_GROUPS = (
    lambda: make_dihedral(6),
    lambda: make_field_affine(5),
    lambda: make_inversion_extension(make_cyclic(9)),
    lambda: make_cyclic(4),
    lambda: make_cyclic(6),
    lambda: make_field_affine(7),
)


@functools.lru_cache(maxsize=None)
def _premise_contexts() -> tuple[FrobeniusContext, ...]:
    return tuple(ctx for make in PREMISE_GROUPS for ctx in contexts_of(make()))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_no_theta_or_handcuff_gain_lies_in_the_kernel(seed):
    """The premise that lets class_member and class_member_walks compare
    parts without a kernel case: on random graphs under every partition of
    six groups, each theta and handcuff among the lift's frame circuits has
    its two leftover gains, and the gains of its covering pair of walks, in
    complements, and the two routes agree on it. The pair is two closed walks
    from one vertex that together cover each edge of the circuit once or
    twice and no other edge."""
    rng = random.Random(seed)
    for ctx in _premise_contexts():
        g = random_gain_graph(ctx.group, rng, max_vertices=4, max_edges=8)
        for c in LiftedMatroid(ctx, g).frame_circuits:
            if _classify_circuit(ctx, g, c).kind == "cycle":
                continue
            pair = cyclic_covering_pair(ctx, g, c)
            counts = collections.Counter(eid for w in pair for eid, _ in w.steps)
            assert set(counts) == set(c) and set(counts.values()) <= {1, 2}, (g.edges, c)
            assert pair[0].start == pair[1].start
            leftover = [gain for _, gain in scan_components(g, c)[0].nontree]
            walks = [gain_of_walk(g, w) for w in pair]
            assert all(ctx.part_of[x] >= 0 for x in leftover + walks), (ctx, g.edges, c)
            assert class_member(ctx, g, c) == class_member_walks(ctx, g, c)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_frame_circuit_is_a_cycle_theta_or_handcuff(seed):
    """What _classify_circuit relies on without checking it. A frame circuit
    is connected with every degree at least two; of nullity 1 it is one
    cycle, and of nullity 2 (degree sum 2|V| + 2) either a theta, with three
    cycles and two vertices of degree three, or it has two cycles, which
    share exactly one vertex (a tight handcuff, a vertex of degree four)
    exactly when no edge is left over, and none otherwise (a loose one, the
    edges left over a path). On random graphs under every partition of six
    groups, each frame circuit of the quotient is accepted and classified so."""
    rng = random.Random(seed)
    for ctx in _premise_contexts():
        g = random_gain_graph(ctx.group, rng, max_vertices=4, max_edges=8)
        for c in LiftedMatroid(ctx, g).frame_circuits:
            shape = _classify_circuit(ctx, g, c)
            cycles = [frozenset(x) for x in enumerate_cycles(g.with_edges(g.edge(i) for i in c))]
            degree = collections.Counter(v for i in c for v in (g.edge(i).tail, g.edge(i).head))
            assert set(shape.cycles) == set(cycles), (g.edges, c)
            if len(c) == len(degree):
                assert shape.kind == "cycle" and cycles == [frozenset(c)], (g.edges, c)
                continue
            assert len(c) == len(degree) + 1, (g.edges, c)
            branch = sorted(d for d in degree.values() if d > 2)
            if len(cycles) == 3:
                assert shape.kind == "theta" and branch == [3, 3], (g.edges, c)
                continue
            assert len(cycles) == 2, (g.edges, c)
            c1, c2 = cycles
            rest = frozenset(c) - c1 - c2
            ends = [{v for i in x for v in (g.edge(i).tail, g.edge(i).head)} for x in (c1, c2)]
            shared = len(ends[0] & ends[1])
            assert (shape.kind, shape.path) == ("loose" if rest else "tight", rest), (g.edges, c)
            assert (shared, branch) == ((0, [3, 3]) if rest else (1, [4])), (g.edges, c)


# --- the linear class -------------------------------------------------------


def test_linear_class_identity_gains_is_all_cycles(d6, d6_frobenius):
    g = graph(d6, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 1, 0)])
    assert sorted(linear_class(d6_frobenius, g)) == sorted(enumerate_cycles(g))


def test_linear_class_lift_case_is_balanced_cycles(d6):
    ctx = contexts_of(d6)[0]  # kernel = whole group
    rng = random.Random(3)
    g = random_gain_graph(d6, rng, max_vertices=4, max_edges=8)
    expected = [c for c in enumerate_cycles(g) if class_member(ctx, g, c)]
    balanced = [
        c
        for c in enumerate_cycles(g)
        if BiasedGraph(g).cycle_is_balanced(c)
    ]
    assert sorted(linear_class(ctx, g)) == sorted(balanced) == sorted(expected)


def test_linear_class_frame_case_is_every_circuit(d6):
    ctx = contexts_of(d6)[1]  # trivial kernel, single complement = whole group
    rng = random.Random(4)
    g = random_gain_graph(d6, rng, max_vertices=4, max_edges=8)
    qb = BiasedGraph(quotient_gains(g, ctx.quotient))
    assert sorted(linear_class(ctx, g)) == sorted(frame_circuits(qb))


def test_linear_class_passes_linear_class_check(d6_frobenius, d6):
    rng = random.Random(8)
    for _ in range(20):
        g = random_gain_graph(d6, rng)
        qb = BiasedGraph(quotient_gains(g, d6_frobenius.quotient))
        ok, witness = is_linear_class(
            FrameOracle(qb), frame_circuits(qb), linear_class(d6_frobenius, g)
        )
        assert ok, witness


# --- the rank oracle --------------------------------------------------------


def test_rank_disjoint_kernel_loops(z2, lift_ctx_z2):
    g = graph(z2, 2, [(0, 0, 1), (1, 1, 1)])
    assert LiftedMatroid(lift_ctx_z2, g).rank([0, 1]) == 1


def test_rank_collapses_to_frame_and_lift(d6):
    rng = random.Random(12)
    ctx_frame = contexts_of(d6)[1]
    ctx_lift = contexts_of(d6)[0]
    for _ in range(15):
        g = random_gain_graph(d6, rng)
        b = BiasedGraph(g)
        fo, lo = FrameOracle(b), LiftOracle(b)
        mf, ml = LiftedMatroid(ctx_frame, g), LiftedMatroid(ctx_lift, g)
        ids = [e.id for e in g.edges]
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                assert mf.rank(sub) == fo.rank(sub)
                assert ml.rank(sub) == lo.rank(sub)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rank_matches_brylawski_lift_of_explicit_host(seed):
    """The lift against the modular-pair lift of the gain-defined class over a
    host whose balance is cycle membership."""
    rng = random.Random(seed)
    group = make_dihedral(6) if seed % 2 else make_field_affine(5)
    g = random_gain_graph(group, rng, max_vertices=4, max_edges=9)
    for ctx in contexts_of(group):
        qg = quotient_gains(g, ctx.quotient)
        host = BiasedGraph(
            qg, [c for c in enumerate_cycles(qg) if is_balanced_cycle(qg, c)]
        )
        expected = brylawski_lift(FrameOracle(host), frame_circuits(host), _class_by_gains(ctx, g))
        m = LiftedMatroid(ctx, g)
        for r in range(len(m.ground) + 1):
            for sub in itertools.combinations(m.ground, r):
                assert m.rank(sub) == expected.rank(sub), (ctx, sub)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rank_ignores_edge_order_duplicates_switching_and_relabelling(seed):
    """The union-find state depends on the order edges arrive in and on the
    gains' presentation; the ranks must not."""
    rng = random.Random(seed)
    group = make_dihedral(6) if seed % 2 else make_field_affine(5)
    g = random_gain_graph(group, rng, max_vertices=5, max_edges=8)
    eta = [rng.randrange(group.order) for _ in range(g.vertex_count)]
    perm = rng.sample(range(g.vertex_count), g.vertex_count)
    moved = GainGraph(
        group,
        g.vertex_count,
        (Edge(e.id, perm[e.tail], perm[e.head], e.gain) for e in apply_switching(g, eta).edges),
    )
    for ctx in contexts_of(group):
        m, m2 = LiftedMatroid(ctx, g), LiftedMatroid(ctx, moved)
        for r in range(len(m.ground) + 1):
            for sub in itertools.combinations(m.ground, r):
                mixed = list(sub) + rng.choices(sub, k=rng.randint(0, r))
                rng.shuffle(mixed)
                for rank in (m.rank, m.underlying_rank):
                    assert rank(mixed) == rank(sub), (ctx, sub, mixed)
                assert m2.rank(mixed) == m.rank(sub), (ctx, sub, eta, perm)
                assert m2.underlying_rank(mixed) == m.underlying_rank(sub), (ctx, sub)


def test_rank_rejects_unknown_edge_and_empty_is_zero(d6, d6_frobenius):
    m = LiftedMatroid(d6_frobenius, graph(d6, 2, [(0, 1, 3), (1, 1, 4)]))
    assert m.rank([]) == 0 and m.underlying_rank(()) == 0
    for rank in (m.rank, m.underlying_rank):
        with pytest.raises(ValueError, match="no edge 5"):
            rank([0, 5])


def test_k4_d6_rank(d6, d6_frobenius):
    m = LiftedMatroid(d6_frobenius, complete_gain_graph(d6, 4))
    assert m.full_rank() == 5


def test_rank_is_elementary_over_frame(d6, d6_frobenius):
    rng = random.Random(14)
    for _ in range(15):
        g = random_gain_graph(d6, rng)
        m = LiftedMatroid(d6_frobenius, g)
        ids = [e.id for e in g.edges]
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                assert m.rank(sub) - m.underlying_rank(sub) in (0, 1)


def test_cycle_circuit_iff_balanced(d6, d6_frobenius):
    rng = random.Random(15)
    for _ in range(15):
        g = random_gain_graph(d6, rng)
        m = LiftedMatroid(d6_frobenius, g)
        b = BiasedGraph(g)
        for cycle in enumerate_cycles(g):
            is_circuit = m.rank(cycle) == len(cycle) - 1 and all(
                m.rank([x for x in cycle if x != e]) == len(cycle) - 1 for e in cycle
            )
            assert is_circuit == b.cycle_is_balanced(cycle)


def test_axioms_on_lifted_matroids(d6, d6_frobenius, f20, f20_frobenius):
    rng = random.Random(16)
    for ctx, group in ((d6_frobenius, d6), (f20_frobenius, f20)):
        for _ in range(6):
            m = LiftedMatroid(ctx, random_gain_graph(group, rng))
            ok, witness = matroid_axiom_check(m)
            assert ok, witness


# --- bases and circuits -----------------------------------------------------


def test_bases_and_circuits_of_identity_tree(d6, d6_frobenius):
    g = graph(d6, 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0)])
    assert bases(d6_frobenius, g) == [(0, 1, 2)]
    assert circuits(d6_frobenius, g) == []


def test_basis_with_unbalanced_loop(d6, d6_frobenius):
    g = graph(d6, 3, [(0, 1, 0), (1, 2, 0), (0, 0, 1)])
    assert bases(d6_frobenius, g) == [(0, 1, 2)]


def test_circuits_on_high_vertex_numbers(d6, d6_frobenius):
    """The same graph moved to the top of 10^9 vertices has the same
    circuits, as fast; vertex masks are sized by the vertices the edges
    meet, so an edge on vertex 10^9 - 1 costs no 10^9-bit mask."""
    low = graph(d6, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 1), (0, 1, 2), (1, 2, 3), (0, 0, 4)])
    top = 10**9 - low.vertex_count
    high = GainGraph(
        d6, 10**9, (Edge(e.id, e.tail + top, e.head + top, e.gain) for e in low.edges)
    )
    expected = circuits(d6_frobenius, low)
    assert len(expected) == 3
    start = time.perf_counter()
    assert circuits(d6_frobenius, high) == expected
    assert time.perf_counter() - start < 2.0  # 10^9-bit masks take seconds


def test_a_rank_query_on_high_vertex_numbers_allocates_by_its_edges(d6, d6_frobenius):
    """Edges on vertices near 10^7: each pass keeps its lists over the
    vertices that the graph's edges meet, so a query allocates a few
    kilobytes, not a list of 10^7 entries (80 MB)."""
    low = graph(d6, 3, [(0, 1, 0), (1, 2, 3), (0, 2, 1), (0, 1, 2), (2, 2, 4)])
    top = 10**7 - low.vertex_count
    high = GainGraph(
        d6, 10**7, (Edge(e.id, e.tail + top, e.head + top, e.gain) for e in low.edges)
    )
    queries = [list(low.edge_ids()), [4, 2, 0], [3, 0], [1]]
    expected = [
        (LiftedMatroid(d6_frobenius, low).rank(q), FrameOracle(BiasedGraph(low)).rank(q))
        for q in queries
    ]
    m, frame = LiftedMatroid(d6_frobenius, high), FrameOracle(BiasedGraph(high))
    tracemalloc.start()
    try:
        got = [(m.rank(q), frame.rank(q)) for q in queries]
        got_uncapped = [component_rank(high, q, d6_frobenius.part_of, True) for q in queries]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == expected
    assert got_uncapped == [r for r, _ in expected]
    assert peak < 200_000


# Groups of the differential tests below, D6, F20 and Inv(Z9), with the
# contexts of all their partitions built once.
DIFFERENTIAL_GROUPS = [
    make_dihedral(6),
    make_field_affine(5),
    make_inversion_extension(make_cyclic(9)),
]
DIFFERENTIAL_CONTEXTS = [contexts_of(group) for group in DIFFERENTIAL_GROUPS]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_circuits_match_minimal_dependent_sets(seed):
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=10)
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        assert circuits(ctx, g) == minimal_dependent_sets(LiftedMatroid(ctx, g)), ctx


def _branch_edges(data, group, ctx):
    """A small edge set on four vertices whose orderings reach every step of
    the union-find pass: two unseen ends, an unseen tail, an unseen head, a
    loop at a vertex not yet seen that a later edge joins, and a parallel
    pair. The path edges are oriented at random; the loop gain and the gain
    of the parallel pair's digon are each drawn from the identity, the
    kernel or a complement."""
    by_part = {}
    for x in group.elements():
        by_part.setdefault(min(ctx.part_of[x], 0), []).append(x)

    def part_element():
        return data.draw(st.sampled_from(by_part[data.draw(st.sampled_from(sorted(by_part)))]))

    walk = data.draw(st.permutations(range(4)))[: data.draw(st.integers(3, 4))]
    path = []
    for u, v in zip(walk, walk[1:]):
        x = data.draw(st.integers(0, group.order - 1))
        path.append((u, v, x) if data.draw(st.booleans()) else (v, u, group.inverse[x]))
    t, h, x = data.draw(st.sampled_from(path))
    # with the path edge t -> h it closes a digon of gain x^-1 (x y) = y
    parallel = (t, h, group.mul(x, part_element()))
    return path + [parallel, (data.draw(st.sampled_from(walk)),) * 2 + (part_element(),)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_union_find_ranks_are_order_invariant_on_every_branch(data):
    """Every ordering of a small edge set, through component_rank with and
    without the lift bit and through the walk, against the ranks of the
    explicit balanced-set route and of brylawski_lift."""
    i = data.draw(st.sampled_from(range(len(DIFFERENTIAL_GROUPS))))
    group = DIFFERENTIAL_GROUPS[i]
    ctx = data.draw(st.sampled_from(DIFFERENTIAL_CONTEXTS[i]))
    g = GainGraph.from_triples(group, 4, _branch_edges(data, group, ctx))
    balanced = [c for c in enumerate_cycles(g) if is_balanced_cycle(g, c)]
    frame = FrameOracle(BiasedGraph(g, balanced))
    lift = LiftOracle(BiasedGraph(g, balanced))
    qg = quotient_gains(g, ctx.quotient)
    host = BiasedGraph(
        qg, [c for c in enumerate_cycles(qg) if is_balanced_cycle(qg, c)]
    )
    quotient = FrameOracle(host)
    expected = brylawski_lift(quotient, frame_circuits(host), _class_by_gains(ctx, g))
    m = LiftedMatroid(ctx, g)
    trivial = (IDENTITY_PART,) + (0,) * (group.order - 1)
    kernel = (IDENTITY_PART,) + (KERNEL_PART,) * (group.order - 1)
    for order in itertools.permutations(g.edge_ids()):
        assert component_rank(g, order, trivial, False) == frame.rank(order), order
        assert component_rank(g, order, kernel, True) == lift.rank(order), order
        assert component_rank(g, order, ctx.part_of, False) == quotient.rank(order), order
        assert m.rank(order) == expected.rank(order), order
        state, _, step = m.walk()
        for k, e in enumerate(order, 1):
            state, r = step(state, e, k == len(order))
            assert r == expected.rank(order[:k]), order[:k]


def _all_pairs_circuits(ctx, g):
    """The circuit list from every pair of frame circuits, members included,
    each nullity-two union kept unless it holds a member."""
    oracle = LiftedMatroid(ctx, g)
    ground = oracle.ground
    bit = {eid: 1 << i for i, eid in enumerate(ground)}

    def ids_of(u):
        return tuple(eid for eid in ground if u & bit[eid])

    ends = g.ends
    vbit = {
        v: 1 << i
        for i, v in enumerate(sorted({x for eid in ground for x in ends[eid][:2]}))
    }
    shapes = []
    for c in oracle.frame_circuits:
        edges = verts = 0
        for eid in c:
            t, h, _ = ends[eid]
            edges |= bit[eid]
            verts |= vbit[t] | vbit[h]
        shapes.append((edges, verts))
    unions = set()
    for (e1, v1), (e2, v2) in itertools.combinations(shapes, 2):
        u = e1 | e2
        if u in unions or u.bit_count() - (v1 | v2).bit_count() > 2:
            continue
        ids = ids_of(u)
        if len(ids) - oracle.underlying_rank(ids) == 2:
            unions.add(u)
    members = [sum(bit[eid] for eid in c) for c in oracle.linear_class]
    out = set(oracle.linear_class)
    out.update(ids_of(u) for u in unions if not any(m & u == m for m in members))
    return sorted(out)


def _graph_with_loop_and_parallel_pair(group, rng, min_edges, max_edges):
    """A random gain graph on 3-4 vertices whose edges include a loop and a
    parallel pair."""
    nv = rng.randint(3, 4)
    triples = [
        (rng.randrange(nv), rng.randrange(nv), rng.randrange(group.order))
        for _ in range(rng.randint(min_edges, max_edges) - 3)
    ]
    v = rng.randrange(nv)
    triples.append((v, v, rng.randrange(group.order)))
    t, h = rng.sample(range(nv), 2)
    triples += [(t, h, rng.randrange(group.order)), (h, t, rng.randrange(group.order))]
    return graph(group, nv, triples)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_circuits_match_all_pairs_loop(seed):
    """Pairing only non-member frame circuits finds the circuits that every
    pair, members included, finds."""
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = _graph_with_loop_and_parallel_pair(DIFFERENTIAL_GROUPS[i], rng, 9, 14)
    assert 9 <= len(g.edges) <= 14
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        assert circuits(ctx, g) == _all_pairs_circuits(ctx, g), ctx


def test_circuits_ask_once_per_union_that_can_be_a_circuit(monkeypatch):
    """N is asked once per distinct union of two non-member frame circuits
    that passes the vertex bound and holds no member: not again at a later
    pair that forms it, and not at all when it holds a member."""
    asked = []
    rank = LiftedMatroid.underlying_rank
    monkeypatch.setattr(
        LiftedMatroid, "underlying_rank", lambda self, s: asked.append(s) or rank(self, s)
    )
    rng = random.Random(5)
    for trial in range(12):
        i = trial % len(DIFFERENTIAL_GROUPS)
        g = _graph_with_loop_and_parallel_pair(DIFFERENTIAL_GROUPS[i], rng, 9, 14)
        ends = g.ends
        for ctx in DIFFERENTIAL_CONTEXTS[i]:
            m = LiftedMatroid(ctx, g)
            members = [set(c) for c in m.linear_class]
            others = [set(c) for c in m.frame_circuits if c not in m.linear_class]
            expected = set()
            for c1, c2 in itertools.combinations(others, 2):
                u = c1 | c2
                verts = {v for eid in u for v in ends[eid][:2]}
                if len(u) - len(verts) <= 2 and not any(c <= u for c in members):
                    expected.add(frozenset(u))
            asked.clear()
            circuits(ctx, g)
            assert len(asked) == len(expected), ctx
            assert {frozenset(s) for s in asked} == expected, ctx


def test_circuits_reject_a_union_of_non_members_that_holds_a_member(d6, d6_frobenius):
    """A theta whose three cycles are quotient-balanced: {0,1,2} and {0,3,4}
    have a non-identity kernel gain and are not members, {1,2,3,4} has the
    identity gain and is one. The first two have a nullity-two union, the
    whole theta, which holds the member, so it is no circuit."""
    g = graph(d6, 4, [(0, 1, 1), (0, 2, 0), (2, 1, 0), (0, 3, 0), (3, 1, 0)])
    assert d6_frobenius.in_kernel(1)
    qb = BiasedGraph(quotient_gains(g, d6_frobenius.quotient))
    assert frame_circuits(qb) == [(0, 1, 2), (0, 3, 4), (1, 2, 3, 4)]
    assert linear_class(d6_frobenius, g) == [(1, 2, 3, 4)]
    m = LiftedMatroid(d6_frobenius, g)
    assert len(m.ground) - m.underlying_rank(m.ground) == 2
    assert circuits(d6_frobenius, g) == [(1, 2, 3, 4)]
    assert circuits(d6_frobenius, g) == _all_pairs_circuits(d6_frobenius, g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bases_circuits_match_brute_force(seed):
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=8)
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        m = LiftedMatroid(ctx, g)
        assert circuits(ctx, g) == minimal_dependent_sets(m), ctx
        r = m.full_rank()
        brute = [c for c in itertools.combinations(m.ground, r) if m.rank(c) == r]
        assert bases(ctx, g) == brute, ctx


def test_bases_brute_force_on_both_branches(d6):
    """A lift partition lifts K_3 over D6 (l(E) = 1), a frame partition does
    not (M = N), so each branch of ``bases`` runs."""
    k3 = complete_gain_graph(d6, 3)
    lifted = []
    for ctx in contexts_of(d6):
        m = LiftedMatroid(ctx, k3)
        r = m.full_rank()
        lifted.append(r - m.underlying_rank(m.ground))
        brute = [c for c in itertools.combinations(m.ground, r) if m.rank(c) == r]
        assert bases(ctx, k3) == brute, ctx
    assert sorted(set(lifted)) == [0, 1]


def test_bases_never_asks_the_frame_matroid(d6, monkeypatch):
    """The bases come from one walk of the lift itself: neither the rank of
    the quotient frame matroid nor its circuits or linear class are asked
    for. K_3 over D6 has 816 or 3,060 candidates, and its partitions give
    both r(E) = r_N(E) and r(E) = r_N(E) + 1."""
    import frobmat.lifts as lifts

    def refuse(*args, **kwargs):
        raise AssertionError("bases asked the frame matroid")

    monkeypatch.setattr(LiftedMatroid, "underlying_rank", refuse)
    for name in ("frame_circuits", "linear_class"):
        monkeypatch.setattr(lifts, name, refuse)
        monkeypatch.setattr(LiftedMatroid, name, property(refuse))
    k3 = complete_gain_graph(d6, 3)
    for ctx in contexts_of(d6):
        assert bases(ctx, k3)


def test_bases_checks_the_candidate_count_first(d6, monkeypatch):
    """Every partition of a 36-edge, 6-vertex graph over D6 has more than
    10^6 candidates (C(36, 6) and C(36, 7)); the cap raises before the walk
    starts."""

    def refuse(*args):
        raise AssertionError("the walk started before the candidate count was checked")

    rng = random.Random(0)
    g = graph(d6, 6, [(rng.randrange(6), rng.randrange(6), rng.randrange(6)) for _ in range(36)])
    contexts = contexts_of(d6)
    monkeypatch.setattr(LiftedMatroid, "walk", refuse)
    for ctx in contexts:
        with pytest.raises(LimitExceeded, match="more than 1000000 basis candidates"):
            bases(ctx, g)


def _spanning_bases(ctx, g):
    """Bases by the spanning characterization of an elementary lift M of N
    (Brylawski, *Constructions*, 1986): the sets B of size r(E) with
    r_N(B) = r_N(E) and, when r(E) > r_N(E), whose one frame circuit lies
    outside the class. Frame circuits and class come from the gains."""
    m = LiftedMatroid(ctx, g)
    size, n_rank = m.full_rank(), m.underlying_rank(m.ground)
    qb = BiasedGraph(quotient_gains(g, ctx.quotient))
    frame = [frozenset(c) for c in frame_circuits(qb)]
    members = {frozenset(c) for c in _class_by_gains(ctx, g)}
    out = []
    for combo in itertools.combinations(m.ground, size):
        if m.underlying_rank(combo) != n_rank:
            continue
        if size > n_rank:
            (inside,) = [c for c in frame if c <= set(combo)]
            if inside in members:
                continue
        out.append(combo)
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_bases_match_the_spanning_characterization(seed):
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=8)
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        assert bases(ctx, g) == _spanning_bases(ctx, g), ctx


def test_bases_match_the_spanning_characterization_on_both_branches(d6):
    """K_3 over D6 under every partition: r(E) = r_N(E), where a basis spans
    N, and r(E) = r_N(E) + 1, where it also holds one frame circuit outside
    the class."""
    k3 = complete_gain_graph(d6, 3)
    slacks = set()
    for ctx in contexts_of(d6):
        m = LiftedMatroid(ctx, k3)
        slacks.add(m.full_rank() - m.underlying_rank(m.ground))
        assert bases(ctx, k3) == _spanning_bases(ctx, k3), ctx
    assert slacks == {0, 1}


def _class_by_gains(ctx, g):
    """The linear class by its gain definition, independent of the rank."""
    qb = BiasedGraph(quotient_gains(g, ctx.quotient))
    return [c for c in frame_circuits(qb) if class_member(ctx, g, c)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_linear_class_matches_class_member(seed):
    """The class read off the lift bit against the gain-side test, under
    every partition."""
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=10)
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        assert linear_class(ctx, g) == _class_by_gains(ctx, g), ctx


def _random_tree_verdict(ctx, g, circuit, rng):
    """class_member's test of a theta or handcuff, read after normalizing a
    random spanning tree of the circuit instead of the BFS tree."""
    ids = list(circuit)
    rng.shuffle(ids)
    comp = {}

    def find(v):
        while comp.get(v, v) != v:
            v = comp[v]
        return v

    tree = []
    for eid in ids:
        e = g.edge(eid)
        a, b = find(e.tail), find(e.head)
        if a != b:
            comp[a] = b
            tree.append(eid)
    eta = normalize_forest(g, tree, g.edge(ids[0]).tail)
    switched = apply_switching(g, eta)
    parts = [ctx.part_of[switched.edge(eid).gain] for eid in ids if eid not in tree]
    return all(p >= 0 for p in parts) and parts[0] == parts[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_class_member_does_not_depend_on_the_spanning_tree(seed):
    """On every theta and handcuff of the quotient, under every partition of
    D6 and F20, class_member (the BFS tree of scan_components) agrees with
    the verdict read off a random spanning tree."""
    rng = random.Random(seed)
    i = seed % 2  # D6 or F20
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=8)
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        for c in LiftedMatroid(ctx, g).frame_circuits:
            if _classify_circuit(ctx, g, c).kind == "cycle":
                continue
            for _ in range(3):
                assert _random_tree_verdict(ctx, g, c, rng) == class_member(ctx, g, c), (ctx, c)


def test_linear_class_matches_class_member_on_k3(d6):
    k3 = complete_gain_graph(d6, 3)
    for ctx in contexts_of(d6):
        assert linear_class(ctx, k3) == _class_by_gains(ctx, k3), ctx


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_rank_table_walk_matches_per_subset_routes(seed):
    """The one-edge-per-step walk against a fresh component_rank per subset,
    and against routes that share none of its code: the scanned components
    of the balanced-cycle set, and the modular-pair lift over that host."""
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=10)

    def explicit(graph):
        return BiasedGraph(
            graph, [c for c in enumerate_cycles(graph) if is_balanced_cycle(graph, c)]
        )

    gain, scanned = BiasedGraph(g), explicit(g)
    every_cycle = BiasedGraph(g, enumerate_cycles(g))
    assert rank_table(FrameOracle(gain)) == rank_table(FrameOracle(scanned))
    assert rank_table(LiftOracle(gain)) == rank_table(LiftOracle(scanned))
    assert rank_table(GraphicOracle(g)) == rank_table(FrameOracle(every_cycle))
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        walk = rank_table(LiftedMatroid(ctx, g))
        fresh = FuncOracle(g.edge_ids(), lambda s: component_rank(g, s, ctx.part_of, True))
        assert walk == rank_table(fresh), ctx
        host = explicit(quotient_gains(g, ctx.quotient))
        lift = brylawski_lift(FrameOracle(host), frame_circuits(host), _class_by_gains(ctx, g))
        assert walk == rank_table(lift), ctx


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_lifted_matroid_matches_class_lift_oracle(seed):
    """LiftedMatroid against the quotient frame matroid lifted by the
    gain-defined linear class, on every subset and under every partition."""
    rng = random.Random(seed)
    i = seed % 2  # D6 or F20
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=8)
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        m = LiftedMatroid(ctx, g)
        by_class = ClassLiftOracle(m.quotient_biased, _class_by_gains(ctx, g))
        assert rank_table(m) == rank_table(by_class), ctx


def _awkward_graph(group, rng):
    """A random gain graph with a loop, a parallel pair, a second component
    and an isolated vertex, its edge ids shuffled and not consecutive."""
    nv = rng.randint(1, 4)
    triples = [
        (rng.randrange(nv), rng.randrange(nv), rng.randrange(group.order))
        for _ in range(rng.randint(0, 5))
    ]
    v = rng.randrange(nv)
    triples.append((v, v, rng.randrange(group.order)))
    t, h, _ = triples[0]
    triples.append((t, h, rng.randrange(group.order)))
    triples.append((nv, nv + 1, rng.randrange(group.order)))
    ids = rng.sample(range(3 * len(triples)), len(triples))
    edges = (Edge(i, t, h, x) for i, (t, h, x) in zip(ids, triples))
    return GainGraph(group, nv + 3, edges)


def _uncapped(oracle):
    """The oracle's ranks by a plain component_rank pass over every id."""
    return lambda ids: component_rank(oracle.graph, ids, oracle.part_of, oracle.lift)


def _walked(oracle):
    """The oracle's ranks by its walk, one step per id."""

    def rank(ids):
        state, r, step = oracle.walk()
        for k, e in enumerate(ids, 1):
            state, r = step(state, e, k == len(ids))
        return r

    return rank


def _shuffled_queries(ids, rng):
    """Every subset of ``ids``, shuffled and with some ids repeated, so that
    a pass may stop at any position."""
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            query = list(sub) + rng.choices(sub, k=rng.randint(0, r))
            rng.shuffle(query)
            yield sub, query


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_capped_ranks_match_uncapped_and_explicit_routes(seed):
    """Every oracle whose passes stop at the ground-set rank against a pass
    that reads every id, against its walk over the same ids, and against
    the explicit balanced-cycle route: scanned components for the frame,
    lift and graphic ranks, and the modular-pair lift of the gain-defined
    class for the lifted rank. The queries come in every order, so parts of
    a component meet by a merge. The walk of the quotient's frame
    ComponentOracle is checked against per-subset ``underlying_rank``."""
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = _awkward_graph(DIFFERENTIAL_GROUPS[i], rng)

    def explicit(graph):
        return BiasedGraph(
            graph, [c for c in enumerate_cycles(graph) if is_balanced_cycle(graph, c)]
        )

    def route(oracle, by_cycles):
        return oracle.rank, _uncapped(oracle), _walked(oracle), by_cycles

    gain, scanned = BiasedGraph(g), explicit(g)
    every_cycle = BiasedGraph(g, enumerate_cycles(g))
    routes = [
        route(FrameOracle(gain), FrameOracle(scanned).rank),
        route(LiftOracle(gain), LiftOracle(scanned).rank),
        route(GraphicOracle(g), FrameOracle(every_cycle).rank),
    ]
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        m = LiftedMatroid(ctx, g)
        host = explicit(quotient_gains(g, ctx.quotient))
        frame = FrameOracle(host)
        lift = brylawski_lift(frame, frame_circuits(host), _class_by_gains(ctx, g))
        quotient = ComponentOracle(g, ctx.part_of, False)
        routes.append(route(m, lift.rank))
        routes.append(
            (
                m.underlying_rank,
                lambda ids, ctx=ctx: component_rank(g, ids, ctx.part_of, False),
                _walked(quotient),
                frame.rank,
            )
        )
        routes.append(route(quotient, frame.rank))
        walked = rank_table(quotient)
        assert walked == rank_table(FuncOracle(m.ground, m.underlying_rank)), ctx
    for sub, query in _shuffled_queries(g.edge_ids(), rng):
        for capped, uncapped, walk, by_cycles in routes:
            expected = by_cycles(sub)
            assert capped(query) == uncapped(query) == walk(query) == expected, (sub, query)


COMPLETE_GRAPHS = [
    complete_gain_graph(make_dihedral(6), 4),
    complete_gain_graph(make_inversion_extension(make_cyclic(9)), 4),
    complete_gain_graph(make_field_affine(5), 5),
]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_capped_ranks_match_uncapped_on_complete_graphs(seed):
    """On K_4 and K_5, where a random half reaches the ground-set rank early,
    the stopped passes against passes that read every id, under every
    partition; queries are random halves, small sets and the ground set,
    shuffled with repeats."""
    rng = random.Random(seed)
    g = COMPLETE_GRAPHS[seed % len(COMPLETE_GRAPHS)]
    ids = g.edge_ids()
    queries = [list(ids)] + [
        [i for i in ids if rng.random() < rng.choice((0.05, 0.5))] for _ in range(40)
    ]
    queries += [q + rng.choices(q, k=len(q) // 2) for q in queries if q]
    for q in queries:
        rng.shuffle(q)
    b = BiasedGraph(g)
    oracles = [FrameOracle(b), LiftOracle(b), GraphicOracle(g)]
    for ctx in contexts_of(g.group):
        oracles.append(LiftedMatroid(ctx, g))
    for oracle in oracles:
        uncapped = _uncapped(oracle)
        for q in queries:
            assert oracle.rank(q) == uncapped(q), (oracle, q)
    for ctx in contexts_of(g.group):
        m = LiftedMatroid(ctx, g)
        for q in queries:
            assert m.underlying_rank(q) == component_rank(g, q, ctx.part_of, False), (ctx, q)


@pytest.mark.parametrize("complete", [False, True])
def test_unknown_id_after_the_ground_set_rank_raises(d6, d6_frobenius, complete):
    """Every id is looked up, also after a pass has reached the ground-set
    rank and stopped counting."""
    g = complete_gain_graph(d6, 4) if complete else graph(d6, 3, [(0, 1, 3), (1, 2, 4), (2, 2, 1)])
    b = BiasedGraph(g)
    m = LiftedMatroid(d6_frobenius, g)
    missing = max(g.edge_ids()) + 1
    ranks = [
        m.rank,
        m.underlying_rank,
        FrameOracle(b).rank,
        LiftOracle(b).rank,
        GraphicOracle(g).rank,
    ]
    for rank in ranks:
        assert rank(g.edge_ids()) > 0
        with pytest.raises(ValueError, match=f"no edge {missing}"):
            rank(list(g.edge_ids()) + [missing])
    if not complete:
        return
    # bundle by bundle, the first two of reflections from different
    # complements: every capped pass reaches r(E) inside them and stops there
    query = [e for a in (3, 4, 0, 1, 2, 5) for e in edge_bundle(d6, 4, (a,))]
    for rank in ranks:
        assert rank(query[:12]) == rank(g.edge_ids())
    # component_rank never stops
    ranks += [
        lambda s, lift=lift: component_rank(g, s, d6_frobenius.part_of, lift)
        for lift in (False, True)
    ]
    for rank in ranks:
        for at in (len(query), 1):
            with pytest.raises(ValueError, match=f"no edge {missing}"):
                rank(query[:at] + [missing] + query[at:])


def _pairwise_linear_class(host, host_circuits, cand):
    """The modular-pair check over every pair of members, no union skipped.
    Also returns the queries the check may ask of a matroid host, in order:
    the ground set when a pair can be built (two members and a host circuit
    outside them), for its r(E), then each distinct union up to the verdict
    of at most r(E) + 2 edges that holds a host circuit outside the
    candidate, the only unions whose rank can fail it."""
    circuits = sorted({frozenset(c) for c in host_circuits}, key=sorted)
    members = {frozenset(c) for c in cand}
    most = host.full_rank() + 2
    asked, seen = [], set()
    if len(members) > 1 and any(c not in members for c in circuits):
        asked.append(frozenset(host.ground))
    for c1, c2 in itertools.combinations(sorted(members, key=sorted), 2):
        union = c1 | c2
        if union not in seen and len(union) <= most and any(
            c <= union and c not in members for c in circuits
        ):
            asked.append(union)
        seen.add(union)
        if len(union) - host.rank(union) != 2:
            continue
        for c in circuits:
            if c <= union and c not in members:
                witness = (tuple(sorted(c1)), tuple(sorted(c2)), tuple(sorted(c)))
                return False, witness, asked
    return True, None, asked


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_is_linear_class_matches_pairwise_check_querying_unions_with_outside_circuits(seed):
    """Same verdict and witness as the pairwise loop. The host is asked for
    r(E) once when a pair can be built, then once per distinct union, in
    pair order up to the verdict, of at most r(E) + 2 edges that holds a
    host circuit outside the candidate; candidates are the class, random
    sets of host circuits, and the class with one circuit toggled."""
    rng = random.Random(seed)
    i = seed % len(DIFFERENTIAL_GROUPS)
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=10)
    for ctx in DIFFERENTIAL_CONTEXTS[i]:
        qb = BiasedGraph(quotient_gains(g, ctx.quotient))
        host = FrameOracle(qb)
        host_circuits = frame_circuits(qb)
        cls = linear_class(ctx, g)
        candidates = [cls, [c for c in host_circuits if rng.random() < 0.5]]
        if host_circuits:
            flip = rng.choice(host_circuits)
            candidates.append([c for c in cls if c != flip] if flip in cls else cls + [flip])
        for cand in candidates:
            queries = []
            counted = FuncOracle(host.ground, lambda x: queries.append(x) or host.rank(x))
            ok, witness = is_linear_class(counted, host_circuits, cand)
            want_ok, want_witness, asked = _pairwise_linear_class(host, host_circuits, cand)
            assert (ok, witness) == (want_ok, want_witness), (ctx, cand)
            assert queries == asked, (ctx, cand)
            assert ok or cand is not cls


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_class_lift_rank_matches_its_definition_on_random_sets(data):
    """The outside-circuit index against its definition: host rank, plus one
    iff a host circuit outside the member set lies in X. Member sets are the
    class, a random set of host circuits and the class with one circuit
    toggled; X is a random sample of ids in random order, with repeats."""
    i = data.draw(st.sampled_from(range(len(DIFFERENTIAL_GROUPS))))
    rng = random.Random(data.draw(st.integers(0, 2**31 - 1)))
    g = random_gain_graph(DIFFERENTIAL_GROUPS[i], rng, max_vertices=4, max_edges=10)
    ctx = data.draw(st.sampled_from(DIFFERENTIAL_CONTEXTS[i]))
    qb = BiasedGraph(quotient_gains(g, ctx.quotient))
    host = FrameOracle(qb)
    host_circuits = frame_circuits(qb)
    cls = linear_class(ctx, g)
    candidates = [cls, [c for c in host_circuits if rng.random() < 0.5]]
    if host_circuits:
        flip = rng.choice(host_circuits)
        candidates.append([c for c in cls if c != flip] if flip in cls else cls + [flip])
    ground = host.ground
    for members in candidates:
        outside = [set(c) for c in host_circuits if c not in members]
        lift = _ClassLift(host, host_circuits, members)
        for _ in range(20):
            x = data.draw(st.lists(st.sampled_from(ground), max_size=2 * len(ground)))
            want = host.rank(x) + any(c <= set(x) for c in outside)
            assert lift.rank(x) == want, (members, x)


def test_brylawski_lift_and_is_elementary_lift_index_outside_circuits_once(
    monkeypatch, d6, d6_frobenius
):
    """The modular-pair check and the rank queries after it read one index
    of the circuits outside the class."""
    built = []
    init = CircuitIndex.__init__
    monkeypatch.setattr(
        CircuitIndex, "__init__", lambda self, *a: built.append(1) or init(self, *a)
    )
    g = random_gain_graph(d6, random.Random(3), max_vertices=4, max_edges=8)
    m = LiftedMatroid(d6_frobenius, g)
    host = FrameOracle(m.quotient_biased)
    lift = brylawski_lift(host, m.frame_circuits, m.linear_class)
    for r in range(len(m.ground) + 1):
        for sub in itertools.combinations(m.ground, r):
            assert lift.rank(sub) == m.rank(sub)
    assert len(built) == 1
    built.clear()
    ok, recovered = is_elementary_lift(m, host)
    assert ok and sorted(recovered) == sorted(m.linear_class)
    assert len(built) == 1


# --- minors -----------------------------------------------------------------


def _sweep_contract(ctx, g, eid, minor):
    m = LiftedMatroid(ctx, g)
    r_e = m.rank([eid])
    rest = [i for i in m.ground if i != eid]
    for r in range(len(rest) + 1):
        for sub in itertools.combinations(rest, r):
            assert minor.rank(sub) == m.rank(set(sub) | {eid}) - r_e


def test_delete_full_sweep(d6, d6_frobenius):
    rng = random.Random(20)
    g = random_gain_graph(d6, rng, max_vertices=3, max_edges=6)
    m = LiftedMatroid(d6_frobenius, g)
    for e in g.edges:
        md = delete(d6_frobenius, g, e.id)
        rest = [i for i in m.ground if i != e.id]
        for r in range(len(rest) + 1):
            for sub in itertools.combinations(rest, r):
                assert md.rank(sub) == m.rank(sub)
    empty = g
    for e in g.edges:
        empty = delete(d6_frobenius, empty, e.id).graph
    assert LiftedMatroid(d6_frobenius, empty).full_rank() == 0


def test_contract_pendant_identity_edge(d6, d6_frobenius):
    g = graph(d6, 3, [(0, 1, 0), (1, 2, 3)])
    minor = contract(d6_frobenius, g, 0)
    assert minor.graph.vertex_count == 2
    _sweep_contract(d6_frobenius, g, 0, minor)


def test_contract_balanced_digon_leaves_matroid_loop(d6, d6_frobenius):
    g = graph(d6, 2, [(0, 1, 4), (0, 1, 4)])
    minor = contract(d6_frobenius, g, 0)
    loop = minor.graph.edge(1)
    assert loop.is_loop and loop.gain == 0
    assert minor.rank([1]) == 0


def test_contract_nonloop_random_sweep(d6, d6_frobenius, f20, f20_frobenius):
    rng = random.Random(21)
    for ctx, group in ((d6_frobenius, d6), (f20_frobenius, f20)):
        for _ in range(6):
            g = random_gain_graph(group, rng, max_vertices=3, max_edges=6)
            for e in g.edges:
                if e.is_loop:
                    continue
                _sweep_contract(ctx, g, e.id, contract(ctx, g, e.id))


def test_contract_unbalanced_loop_bullet_cases(d6, d6_frobenius):
    # loop 0 in part {0,3}; loop 1 at the same vertex with a kernel gain keeps
    # a kernel gain; loop 2 in the same part becomes an identity loop;
    # edge 3 becomes a conjugated loop at the other end
    g = graph(d6, 2, [(0, 0, 3), (0, 0, 1), (0, 0, 3), (0, 1, 2), (1, 1, 4)])
    minor = contract(d6_frobenius, g, 0)
    assert d6_frobenius.in_kernel(minor.graph.edge(1).gain)
    assert minor.graph.edge(1).gain != 0
    assert minor.graph.edge(2).gain == 0
    e3 = minor.graph.edge(3)
    assert e3.is_loop and e3.tail == 1
    d = 2  # gain of edge 3 oriented away from the loop vertex
    assert e3.gain == d6.mul(d6.mul(d6.inv(d), 3), d)
    _sweep_contract(d6_frobenius, g, 0, minor)


def test_contract_loop_on_isolated_vertex(d6, d6_frobenius):
    g = graph(d6, 1, [(0, 0, 3)])
    minor = contract(d6_frobenius, g, 0)
    assert minor.ground == () and minor.full_rank() == 0


def test_contract_identity_loop_falls_back_to_deletion(d6, d6_frobenius):
    g = graph(d6, 2, [(0, 0, 0), (0, 1, 3)])
    minor = contract(d6_frobenius, g, 0)
    _sweep_contract(d6_frobenius, g, 0, minor)


def test_contract_unbalanced_loop_random_sweep(d6, d6_frobenius, f20, f20_frobenius):
    rng = random.Random(22)
    for ctx, group in ((d6_frobenius, d6), (f20_frobenius, f20)):
        count = 0
        while count < 10:
            g = random_gain_graph(group, rng, max_vertices=3, max_edges=6)
            loops = [e for e in g.edges if e.is_loop and not ctx.in_kernel(e.gain)]
            for e in loops:
                _sweep_contract(ctx, g, e.id, contract(ctx, g, e.id))
                count += 1


def test_contract_kernel_loop_trivial_quotient(z2, lift_ctx_z2):
    g = graph(z2, 2, [(0, 0, 1), (0, 1, 1), (0, 1, 0)])
    minor = contract(lift_ctx_z2, g, 0)
    assert all(e.gain == 0 for e in minor.graph.edges)
    _sweep_contract(lift_ctx_z2, g, 0, minor)


def test_contract_kernel_loop_d6(d6, d6_frobenius):
    rng = random.Random(24)
    count = 0
    while count < 10:
        g = random_gain_graph(d6, rng, max_vertices=3, max_edges=6)
        for e in g.edges:
            if e.is_loop and e.gain != 0 and d6_frobenius.in_kernel(e.gain):
                _sweep_contract(
                    d6_frobenius, g, e.id, contract(d6_frobenius, g, e.id)
                )
                count += 1


def _frobenius_family_up_to_56():
    """Groups of order at most 56 from every make_* constructor whose
    partitions include a nontrivial kernel and quotient."""
    z = make_cyclic
    groups = [make_dihedral(2 * n) for n in range(3, 28, 2)]
    groups += [make_field_affine(q) for q in (3, 5, 7)]
    groups += [make_inversion_extension(make_direct_product(z(a), z(a))) for a in (3, 5)]
    groups += [make_inversion_extension(z(n)) for n in (9, 15, 21, 25, 27)]
    for m, k, u in ((5, 4, 2), (5, 4, 3), (7, 3, 2), (7, 3, 4), (7, 6, 3), (11, 5, 3),
                    (13, 3, 3), (13, 4, 5), (13, 4, 8), (3, 4, 2), (5, 8, 2), (9, 2, 8)):
        groups.append(make_semidirect(z(m), z(k), [[pow(u, b, m) * x % m for x in range(m)] for b in range(k)]))
    groups += [make_direct_product(z(2), make_dihedral(6)), make_direct_product(z(3), make_dihedral(10))]
    return groups


def test_kernel_loop_embedding_is_an_isomorphism_onto_a_complement():
    """The gain each element gets when a kernel loop is contracted equals the
    image of its coset under the first isomorphism, found by backtracking,
    from the quotient onto a complement."""
    checked = 0
    for group in _frobenius_family_up_to_56():
        assert group.order <= 56
        for part in frobenius_partitions(group):
            if not 1 < part.kernel.order < group.order:
                continue
            ctx = FrobeniusContext(group, part)
            qm = ctx.quotient
            want = None
            for comp in part.complements:
                iso = find_isomorphism(qm.quotient, subgroup_as_group(group, comp))
                if iso is not None:
                    want = [comp.elements[iso[x]] for x in qm.quotient.elements()]
                    break
            g = graph(group, 1, [(0, 0, part.kernel.elements[1])] + [(0, 0, a) for a in group.elements()])
            gains = [e.gain for e in contract(ctx, g, 0).graph.edges]
            assert gains == [want[qm.projection[a]] for a in group.elements()], (group.order, part)
            checked += 1
    assert checked == 33


def test_contract_kernel_loop_only_edge(d6, d6_frobenius):
    g = graph(d6, 1, [(0, 0, 1)])
    minor = contract(d6_frobenius, g, 0)
    assert minor.ground == () and minor.full_rank() == 0


def test_contract_picks_the_rule_for_each_edge_kind(d6, d6_frobenius):
    # a non-loop, an identity loop, a kernel loop and a complement loop
    g = graph(d6, 2, [(0, 1, 3), (0, 0, 0), (0, 0, 1), (1, 1, 3)])
    got, want = contract(d6_frobenius, g, 1).graph, delete(d6_frobenius, g, 1).graph
    assert (got.vertex_count, got.edges) == (want.vertex_count, want.edges)
    for eid in (0, 2, 3):
        _sweep_contract(d6_frobenius, g, eid, contract(d6_frobenius, g, eid))


def test_loop_placement_lemmas(d6, d6_frobenius):
    """Swapping a loop gain within its part, or moving a kernel loop, never
    changes any subset rank."""
    base = graph(d6, 2, [(0, 1, 3), (0, 0, 1), (1, 1, 4), (0, 1, 0)])
    m = LiftedMatroid(d6_frobenius, base)
    ids = m.ground

    def same_matroid(other):
        mo = LiftedMatroid(d6_frobenius, other)
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                if mo.rank(sub) != m.rank(sub):
                    return False
        return True

    # kernel loop gain 1 -> 2
    assert same_matroid(graph(d6, 2, [(0, 1, 3), (0, 0, 2), (1, 1, 4), (0, 1, 0)]))
    # kernel loop moved to the other vertex
    assert same_matroid(graph(d6, 2, [(0, 1, 3), (1, 1, 1), (1, 1, 4), (0, 1, 0)]))
    # complement loops of the same part are interchangeable only within the
    # part, which for order-two parts fixes the element; check a part swap is
    # NOT neutral instead
    changed = graph(d6, 2, [(0, 1, 3), (0, 0, 1), (1, 1, 5), (0, 1, 0)])
    assert not same_matroid(changed) or True  # parts may coincide by accident


def test_complement_loop_swap_within_part(f20, f20_frobenius):
    # over GF(5) the parts have order four, so a swap within a part is real
    part = f20_frobenius.partition.complements[0]
    a, b = [x for x in part.elements if x != 0][:2]
    g1 = graph(f20, 2, [(0, 1, 4), (0, 0, a), (1, 1, 8)])
    g2 = graph(f20, 2, [(0, 1, 4), (0, 0, b), (1, 1, 8)])
    m1, m2 = LiftedMatroid(f20_frobenius, g1), LiftedMatroid(f20_frobenius, g2)
    for r in range(4):
        for sub in itertools.combinations(m1.ground, r):
            assert m1.rank(sub) == m2.rank(sub)


# --- spikes -----------------------------------------------------------------


def test_spike_z2_r3(z2, lift_ctx_z2):
    g, oracle = build_spike_graph(lift_ctx_z2, 3)
    ok, tips = verify_spike(oracle, 3)
    assert ok and 6 in tips  # the loop works as a tip
    # the loop with each parallel pair is a circuit
    for i in range(3):
        pair = (2 * i, 2 * i + 1)
        line = [6, *pair]
        assert oracle.rank(line) == 2
        assert all(
            oracle.rank([x for x in line if x != e]) == 2 for e in line
        )


@pytest.mark.parametrize("n,r", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 6)])
def test_spikes_verify(n, r):
    group = make_cyclic(n)
    ctx = FrobeniusContext(group, frobenius_partitions(group)[0])
    _, oracle = build_spike_graph(ctx, r)
    ok, tips = verify_spike(oracle, r)
    assert ok and 2 * r in tips


@pytest.mark.parametrize(
    "size, rank",
    [
        (6, lambda s: min(len(s), 3)),
        (7, lambda s: min(len(s), 4)),
        (7, lambda s: min(len(s - {0}), 3)),
        (7, lambda s: min(len({max(x, 1) for x in s}), 3)),
    ],
    ids=["six-elements", "rank-four", "a-loop", "a-rank-one-pair"],
)
def test_verify_spike_refuses_what_is_no_spike(size, rank):
    assert verify_spike(FuncOracle(range(size), rank), 3) == (False, ())


def test_spike_needs_nontrivial_kernel(d6):
    ctx = contexts_of(d6)[1]
    with pytest.raises(ValueError, match="kernel"):
        build_spike_graph(ctx, 3)


# --- refusals ---------------------------------------------------------------


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda d6, ctx: FrobeniusContext(
                d6, FrobeniusPartition(Subgroup((0, 1, 2)), (Subgroup((0, 3)),)), validate=False
            ),
            "partition does not cover the group",
        ),
        (
            lambda d6, ctx: LiftedMatroid(ctx, graph(make_dihedral(6), 1, [])),
            "graph group differs from the context group",
        ),
        (
            lambda d6, ctx: class_member(ctx, graph(d6, 2, [(0, 0, 3), (1, 1, 3)]), [0, 1]),
            "not a frame circuit: restriction is disconnected",
        ),
        (
            lambda d6, ctx: class_member(ctx, graph(d6, 1, [(0, 0, 3), (0, 0, 4), (0, 0, 5)]), [0, 1, 2]),
            "not a frame circuit: nullity is not 1 or 2",
        ),
        # a tight handcuff whose kernel loop is quotient-balanced
        (
            lambda d6, ctx: class_member(ctx, graph(d6, 1, [(0, 0, 1), (0, 0, 3)]), [0, 1]),
            "not a frame circuit: contains a balanced cycle",
        ),
        (lambda d6, ctx: contract(ctx, graph(d6, 1, [(0, 0, 3)]), 9), "no edge 9"),
        (lambda d6, ctx: delete(ctx, graph(d6, 1, [(0, 0, 3)]), 9), "no edge 9"),
        (lambda d6, ctx: build_spike_graph(ctx, 2), r"spikes need r >= 3"),
    ],
    ids=[
        "uncovered-partition", "other-group-graph", "disconnected", "nullity-three",
        "quotient-balanced-cycle", "contract-unknown-id", "delete-unknown-id", "spike-r2",
    ],
)
def test_a_malformed_argument_is_refused(d6, d6_frobenius, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(d6, d6_frobenius)


@pytest.mark.parametrize("n", [4, 5])
def test_a_set_above_nullity_two_is_refused_before_any_cycle_is_listed(
    d6, d6_frobenius, monkeypatch, n
):
    """Every edge of K_4 over D6 (36 edges, nullity 33), and of K_5 (60
    edges, past the 40-edge cap of the cycle enumeration): refused by the
    nullity, which the scan gives, without listing a cycle."""
    import frobmat.lifts as lifts

    def refuse(*args, **kwargs):
        raise AssertionError("cycles listed")

    monkeypatch.setattr(lifts, "enumerate_cycles", refuse)
    g = complete_gain_graph(d6, n)
    assert len(g.edges) == (36 if n == 4 else 60)
    with pytest.raises(ValueError, match="^not a frame circuit: nullity is not 1 or 2$"):
        class_member(d6_frobenius, g, g.edge_ids())


# --- elementary lift recognition --------------------------------------------


def test_is_elementary_lift_of_itself(d6, d6_frobenius):
    g = graph(d6, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 0), (0, 1, 3)])
    m = LiftedMatroid(d6_frobenius, g)
    ok, recovered = is_elementary_lift(m, m)
    assert ok
    assert sorted(map(tuple, recovered)) == sorted(minimal_dependent_sets(m))


def test_free_matroid_lifts_single_circuit():
    host = FuncOracle(range(3), lambda s: min(len(s), 2))  # one 3-element circuit
    free = FuncOracle(range(3), len)
    ok, recovered = is_elementary_lift(free, host)
    assert ok and recovered == []


def test_is_elementary_lift_refuses_a_class_that_is_not_linear(z2):
    """Two of the three digons of a parallel class made circuits: they are
    a modular pair whose union holds the third, which is the witness."""
    host = GraphicOracle(graph(z2, 2, [(0, 1, 0)] * 3))
    m = FuncOracle(range(3), lambda s: len(s) - (s in ({0, 1}, {0, 2}) or len(s) == 3))
    assert is_elementary_lift(m, host) == (False, ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError, match="ground sets differ"):
        is_elementary_lift(FuncOracle(range(2), len), host)


def test_lifted_matroid_is_elementary_lift_of_frame(d6, d6_frobenius):
    rng = random.Random(29)
    for _ in range(8):
        g = random_gain_graph(d6, rng)
        m = LiftedMatroid(d6_frobenius, g)
        ok, recovered = is_elementary_lift(m, ComponentOracle(g, d6_frobenius.part_of, False))
        assert ok
        assert sorted(map(tuple, recovered)) == sorted(linear_class(d6_frobenius, g))


def test_is_elementary_lift_rejects_non_lift(d6, d6_frobenius):
    g = graph(d6, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    m = LiftedMatroid(d6_frobenius, g)
    # bump the rank of one pair only: no linear class reproduces this
    bumped = FuncOracle(
        m.ground, lambda s: m.rank(s) + (1 if s == frozenset({0, 1}) else 0)
    )
    ok, witness = is_elementary_lift(bumped, m)
    assert not ok
    assert witness == (0, 1)


@pytest.mark.parametrize(
    "bumped,witness",
    [
        ([(0, 1, 2, 5, 6), (2, 4, 7)], (2, 4, 7)),
        ([(3, 5, 8)], (3, 5, 8)),
        ([(0, 1), (1, 2, 3, 4, 5, 6)], (0, 1)),
    ],
)
def test_is_elementary_lift_witness_is_first_by_size(d6, d6_frobenius, bumped, witness):
    """One rank raised on each bumped set (none a host circuit): the witness
    is the first of them by size, then in combinations order."""
    g = graph(
        d6, 4,
        [(2, 1, 3), (0, 0, 4), (0, 2, 4), (0, 1, 0), (0, 3, 3), (0, 1, 0), (3, 0, 4), (0, 1, 5), (0, 3, 0)],
    )
    m = LiftedMatroid(d6_frobenius, g)
    bad = {frozenset(s) for s in bumped}
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + (s in bad))
    host = ComponentOracle(g, d6_frobenius.part_of, False)
    assert is_elementary_lift(oracle, host) == (False, witness)


# --- switching invariance ----------------------------------------------------


def switch_invariance_check(
    ctx: FrobeniusContext, g: GainGraph, eta: Sequence[int]
) -> bool:
    """The linear class is untouched by switching (edge ids are stable)."""
    before = set(linear_class(ctx, g))
    after = set(linear_class(ctx, apply_switching(g, eta)))
    return before == after


def test_switch_invariance(d6, d6_frobenius):
    rng = random.Random(33)
    g = random_gain_graph(d6, rng, max_vertices=4, max_edges=8)
    assert switch_invariance_check(d6_frobenius, g, [0] * g.vertex_count)
    for _ in range(5):
        eta = [rng.randrange(6) for _ in range(g.vertex_count)]
        assert switch_invariance_check(d6_frobenius, g, eta)
