import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frobmat.biased as biased_module
from frobmat import (
    BiasedGraph,
    ClassLiftOracle,
    FrameOracle,
    FrobeniusContext,
    GainGraph,
    GraphicOracle,
    LiftOracle,
    LiftedMatroid,
    VectorOracle,
    brylawski_lift,
    complete_gain_graph,
    enumerate_cycles,
    frame_circuits,
    frobenius_partitions,
    incidence_matrix,
    is_balanced_cycle,
    is_linear_class,
    make_cyclic,
    make_dihedral,
    make_field_affine,
    matroid_axiom_check,
    minimal_dependent_sets,
)
from frobmat.biased import (
    EXHAUSTIVE_LIMIT,
    SAMPLES,
    _walk_disagreement,
    comparison_parts,
    first_disagreement,
    rank_table,
    subset_sweep,
)
from frobmat.errors import LimitExceeded

from conftest import CountingWalk, FuncOracle, random_gain_graph, reference_halves


def graph(group, n, triples):
    return GainGraph.from_triples(group, n, triples)


def biased(group, n, triples):
    return BiasedGraph(graph(group, n, triples))


# --- frame rank -------------------------------------------------------------


def test_frame_rank_empty(d6):
    assert FrameOracle(biased(d6, 3, [(0, 1, 1)])).rank([]) == 0


def test_frame_rank_unbalanced_loop(d6):
    assert FrameOracle(biased(d6, 1, [(0, 0, 3)])).rank([0]) == 1


def test_frame_rank_balanced_triangle(d6):
    b = biased(d6, 3, [(0, 1, 1), (1, 2, 2), (0, 2, 0)])
    assert FrameOracle(b).rank([0, 1, 2]) == 2


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_gain_ranks_match_explicit_balanced_set(seed):
    """The union-find ranks of a gain graph against the same graph given by
    its balanced cycles, whose ranks come from scanned components."""
    rng = random.Random(seed)
    group = make_dihedral(6) if seed % 2 else make_field_affine(5)
    g = random_gain_graph(group, rng, max_vertices=5, max_edges=9)
    gain = BiasedGraph(g)
    explicit = BiasedGraph(
        g, [c for c in enumerate_cycles(g) if is_balanced_cycle(g, c)]
    )
    every_cycle = BiasedGraph(g, enumerate_cycles(g))
    pairs = [
        (FrameOracle(gain), FrameOracle(explicit)),
        (LiftOracle(gain), LiftOracle(explicit)),
        (GraphicOracle(g), FrameOracle(every_cycle)),
    ]
    ids = g.edge_ids()
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            for a, b in pairs:
                assert a.rank(sub) == b.rank(sub), sub


@pytest.mark.parametrize("oracle", [FrameOracle, LiftOracle, GraphicOracle, ClassLiftOracle])
def test_unknown_edge_and_empty_subset(d6, oracle):
    b = biased(d6, 3, [(0, 1, 1), (1, 2, 4), (2, 2, 3)])
    if oracle is GraphicOracle:
        o = oracle(b.graph)
    elif oracle is ClassLiftOracle:
        o = oracle(b, [])
    else:
        o = oracle(b)
    assert o.rank([]) == 0
    with pytest.raises(ValueError, match="no edge 7"):
        o.rank([0, 7])


class _ExplicitGraphic(GraphicOracle):
    """GraphicOracle on the explicit route: every cycle listed as balanced."""

    def __init__(self, g: GainGraph):
        super(GraphicOracle, self).__init__(BiasedGraph(g, enumerate_cycles(g)))


def _k3_oracles():
    """Every oracle class, by name, on K_3 over D6 under its Z3-kernel
    partition, or for VectorOracle the incidence matrix of K_3 over F20."""
    d6 = make_dihedral(6)
    part = next(p for p in frobenius_partitions(d6) if p.kernel.order == 3)
    m = LiftedMatroid(FrobeniusContext(d6, part), complete_gain_graph(d6, 3))
    gain = m.quotient_biased
    explicit = BiasedGraph(
        gain.graph, [c for c in enumerate_cycles(gain.graph) if gain.cycle_is_balanced(c)]
    )
    return {
        "LiftedMatroid": m,
        "FrameOracle": FrameOracle(gain),
        "FrameOracle-explicit": FrameOracle(explicit),
        "LiftOracle": LiftOracle(gain),
        "LiftOracle-explicit": LiftOracle(explicit),
        "GraphicOracle": GraphicOracle(m.graph),
        "GraphicOracle-explicit": _ExplicitGraphic(m.graph),
        "ClassLiftOracle": ClassLiftOracle(gain, m.linear_class),
        "brylawski_lift": brylawski_lift(FrameOracle(gain), m.frame_circuits, m.linear_class),
        "VectorOracle": VectorOracle(incidence_matrix(complete_gain_graph(make_field_affine(5), 3))),
    }


@pytest.mark.parametrize("name", list(_k3_oracles()))
def test_a_one_shot_iterator_has_the_rank_of_its_tuple(name):
    oracle = _k3_oracles()[name]
    rng = random.Random(name)
    subsets = [(), (0, 1), oracle.ground] + [
        tuple(rng.sample(oracle.ground, rng.randint(1, 8))) for _ in range(30)
    ]
    for s in subsets:
        assert oracle.rank(iter(s)) == oracle.rank(s), s
    if "Class" in name or "brylawski" in name:
        # the Z3-kernel digon (0, 1) is a host circuit outside the class
        assert oracle.rank(iter((0, 1))) == 2


# --- circuit families -------------------------------------------------------


def test_frame_circuits_all_balanced_is_graphic():
    z1 = make_cyclic(1)
    b = biased(z1, 4, [(0, 1, 0), (1, 2, 0), (2, 3, 0), (0, 3, 0), (0, 2, 0)])
    assert sorted(frame_circuits(b)) == sorted(enumerate_cycles(b.graph))


def test_frame_circuits_two_loops_tight_handcuff(d6):
    b = biased(d6, 1, [(0, 0, 3), (0, 0, 1)])
    assert frame_circuits(b) == [(0, 1)]


def test_frame_circuits_k4_with_loop_matches_brute_force():
    z2 = make_cyclic(2)
    triples = [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0), (0, 0, 1)]
    b = biased(z2, 4, triples)
    assert sorted(frame_circuits(b)) == sorted(minimal_dependent_sets(FrameOracle(b)))


def test_circuit_families_refuse_too_many_unbalanced_pairs_before_the_first(d6, monkeypatch):
    """36 random edges on 6 vertices over D6: thousands of unbalanced cycles,
    so more than 10^6 pairs; the cap raises before any cycle is masked for
    the pair loop."""
    rng = random.Random(0)
    b = biased(d6, 6, [(rng.randrange(6), rng.randrange(6), rng.randrange(6)) for _ in range(36)])

    def no_pairs(*args):
        raise AssertionError("a cycle was masked for the pair loop")

    monkeypatch.setattr(biased_module.EdgeIndex, "shape", no_pairs)
    with pytest.raises(LimitExceeded, match="more than 1000000 pairs of unbalanced cycles"):
        frame_circuits(b)


def test_circuit_family_pair_cap_is_inclusive(d6, monkeypatch):
    """Two unbalanced loops make one pair: a cap of 1 admits it, 0 refuses."""
    b = biased(d6, 1, [(0, 0, 3), (0, 0, 1)])
    monkeypatch.setattr(biased_module, "DEFAULT_CYCLE_COUNT_LIMIT", 1)
    assert frame_circuits(b) == [(0, 1)]
    monkeypatch.setattr(biased_module, "DEFAULT_CYCLE_COUNT_LIMIT", 0)
    with pytest.raises(LimitExceeded, match="more than 0 pairs"):
        frame_circuits(b)


def test_lift_rank_balanced_equals_graphic(d6):
    b = biased(d6, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    for r in range(4):
        for sub in itertools.combinations([0, 1, 2], r):
            assert LiftOracle(b).rank(sub) == GraphicOracle(b.graph).rank(sub)


def test_lift_rank_disjoint_unbalanced_loops(d6):
    b = biased(d6, 2, [(0, 0, 3), (1, 1, 1)])
    assert LiftOracle(b).rank([0, 1]) == 1


def test_frame_equals_lift_without_disjoint_unbalanced_cycles():
    rng = random.Random(9)
    d6 = make_dihedral(6)
    checked = 0
    while checked < 25:
        g = random_gain_graph(d6, rng, max_vertices=4, max_edges=7)
        b = BiasedGraph(g)
        cycles = enumerate_cycles(g)
        unb = [c for c in cycles if not b.cycle_is_balanced(c)]
        from frobmat.biased import _vertices_of

        has_disjoint = any(
            not (_vertices_of(g, c1) & _vertices_of(g, c2))
            for c1, c2 in itertools.combinations(unb, 2)
        )
        if has_disjoint:
            continue
        checked += 1
        frame, lift = FrameOracle(b), LiftOracle(b)
        ids = [e.id for e in g.edges]
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                assert frame.rank(sub) == lift.rank(sub)


def _thetas_by_pairs(b):
    """(True, None), or (False, witness) with a theta holding exactly two
    balanced cycles: every theta as (union, three cycles), then the first
    with two balanced."""
    from frobmat.biased import _vertices_of

    sets = [frozenset(c) for c in enumerate_cycles(b.graph)]
    seen, thetas = set(), []
    for c1, c2 in itertools.combinations(sets, 2):
        union = c1 | c2
        if not c1 & c2 or union in seen:
            continue
        if len(union) != len(_vertices_of(b.graph, union)) + 1 or c1 ^ c2 not in sets:
            continue
        seen.add(union)
        thetas.append((c1, c2, c1 ^ c2))
    for triple in thetas:
        if sum(b.cycle_is_balanced(c) for c in triple) == 2:
            return False, tuple(sorted(tuple(sorted(c)) for c in triple))
    return True, None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_circuit_families_and_thetas_match_brute_force(seed):
    """Frame circuits against minimal dependent sets, on a gain graph over
    D6, Z3 or F20 (at most 10 edges, with a loop and a parallel pair) and on
    the same graph given by its balanced cycles; both hold the theta
    property."""
    rng = random.Random(seed)
    group = (make_dihedral(6), make_cyclic(3), make_field_affine(5))[seed % 3]
    nv = rng.randint(2, 4)
    triples = [
        (rng.randrange(nv), rng.randrange(nv), rng.randrange(group.order))
        for _ in range(rng.randint(0, 7))
    ]
    v, t = rng.randrange(nv), rng.randrange(nv)
    triples += [(v, v, rng.randrange(group.order))]
    triples += [(t, (t + 1) % nv, rng.randrange(group.order)) for _ in range(2)]
    g = graph(group, nv, triples)
    cycles = enumerate_cycles(g)
    gain = BiasedGraph(g)
    explicit = BiasedGraph(g, [c for c in cycles if is_balanced_cycle(g, c)])
    for b in (gain, explicit):
        assert frame_circuits(b) == minimal_dependent_sets(FrameOracle(b))
        assert _thetas_by_pairs(b) == (True, None)


def test_class_lift_oracle_answers_past_the_cycle_edge_cap(d6):
    """A 41-edge path with an unbalanced digon at one end, an unbalanced loop
    at the other and a balanced triangle: the host's circuits are listed over
    all 41 edges, past the 40-edge cap of a default cycle enumeration. The
    loose handcuff of the digon and the loop is the one circuit outside the
    class, and only the whole ground set holds it."""
    triples = [(i, i + 1, 0) for i in range(38)]
    triples += [(0, 1, 3), (0, 2, 0), (38, 38, 1)]
    b = biased(d6, 39, triples)
    assert len(b.graph.edges) == 41
    with pytest.raises(LimitExceeded, match="capped at 40 edges"):
        frame_circuits(b)
    members = [(0, 1, 39)]
    oracle = ClassLiftOracle(b, members)
    frame = FrameOracle(b)
    assert oracle.rank(oracle.ground) == frame.rank(frame.ground) + 1 == 40
    assert oracle.rank([0, 1, 39]) == 2
    assert oracle.rank(oracle.ground[:-1]) == frame.rank(oracle.ground[:-1]) == 39


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_class_lift_oracle_matches_its_definition(seed):
    """The class-lift rank against its definition on every subset, asked in
    shuffled order with repeats: the frame rank, plus one iff some frame
    circuit outside the class lies in X. The class is any set of frame
    circuits, so circuits outside it start at every edge. An unknown id
    raises the host's ValueError."""
    rng = random.Random(seed)
    group = make_dihedral(6) if seed % 2 else make_field_affine(5)
    b = BiasedGraph(random_gain_graph(group, rng, max_edges=9))
    circuits = frame_circuits(b)
    members = [c for c in circuits if rng.random() < 0.5]
    outside = [set(c) for c in circuits if c not in members]
    oracle, frame = ClassLiftOracle(b, members), FrameOracle(b)
    ids = oracle.ground
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            want = frame.rank(sub) + any(c <= set(sub) for c in outside)
            query = list(sub) + rng.choices(sub, k=rng.randint(0, r))
            rng.shuffle(query)
            assert oracle.rank(query) == want, (sub, query)
    with pytest.raises(ValueError, match=f"no edge {max(ids) + 1}"):
        oracle.rank([max(ids) + 1] + list(ids))


# --- theta property ---------------------------------------------------------


def test_theta_property_gain_derived_always_holds():
    rng = random.Random(31)
    for group in (make_dihedral(6), make_cyclic(4), make_dihedral(10)):
        for _ in range(70):
            ok, witness = _thetas_by_pairs(
                BiasedGraph(random_gain_graph(group, rng))
            )
            assert ok and witness is None


def theta_graph():
    z1 = make_cyclic(1)
    # two vertices joined by paths of lengths 1, 1, 2
    return graph(z1, 3, [(0, 1, 0), (0, 1, 0), (0, 2, 0), (2, 1, 0)])


def test_theta_property_violation_witness():
    g = theta_graph()
    cycles = enumerate_cycles(g)
    assert len(cycles) == 3
    bad = BiasedGraph(g, cycles[:2])
    ok, witness = _thetas_by_pairs(bad)
    assert not ok
    assert sorted(witness) == sorted(tuple(c) for c in cycles)


def test_theta_property_empty_balanced_set():
    ok, witness = _thetas_by_pairs(BiasedGraph(theta_graph(), []))
    assert ok and witness is None


# --- linear classes and the elementary lift ---------------------------------


def test_is_linear_class_trivial_cases(d6):
    b = biased(d6, 3, [(0, 1, 3), (1, 2, 1), (0, 2, 0), (0, 0, 4)])
    host = FrameOracle(b)
    circuits = frame_circuits(b)
    assert is_linear_class(host, circuits, []) == (True, None)
    assert is_linear_class(host, circuits, circuits) == (True, None)
    # neither class can build a pair with a circuit outside it
    queries = []
    counted = FuncOracle(host.ground, lambda x: queries.append(x) or host.rank(x))
    assert is_linear_class(counted, circuits, []) == (True, None)
    assert is_linear_class(counted, circuits, circuits) == (True, None)
    assert queries == []


def test_is_linear_class_theta_violation():
    g = theta_graph()
    cycles = enumerate_cycles(g)
    host = GraphicOracle(g)
    ok, witness = is_linear_class(host, cycles, cycles[:2])
    assert not ok
    c1, c2, c = witness
    assert sorted(c) == sorted(cycles[2])


def test_is_linear_class_rejects_non_circuit(d6):
    b = biased(d6, 2, [(0, 1, 0), (0, 1, 0)])
    host = FrameOracle(b)
    with pytest.raises(ValueError, match="not a circuit"):
        is_linear_class(host, frame_circuits(b), [(0,)])


def test_brylawski_all_circuits_reproduces_host():
    z1 = make_cyclic(1)
    g = graph(z1, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0), (0, 1, 0)])
    host = GraphicOracle(g)
    cycles = enumerate_cycles(g)
    lifted = brylawski_lift(host, cycles, cycles)
    for r in range(5):
        for sub in itertools.combinations(host.ground, r):
            assert lifted.rank(sub) == host.rank(sub)


def test_brylawski_empty_class_raises_rank():
    z1 = make_cyclic(1)
    g = graph(z1, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    host = GraphicOracle(g)
    lifted = brylawski_lift(host, enumerate_cycles(g), [])
    assert lifted.rank(host.ground) == host.rank(host.ground) + 1


def test_brylawski_with_balanced_class_is_lift_matroid(d6):
    rng = random.Random(17)
    for _ in range(10):
        g = random_gain_graph(d6, rng, max_vertices=4, max_edges=7)
        b = BiasedGraph(g)
        cycles = enumerate_cycles(g)
        balanced = [c for c in cycles if b.cycle_is_balanced(c)]
        lifted = brylawski_lift(GraphicOracle(g), cycles, balanced)
        lift = LiftOracle(b)
        ids = [e.id for e in g.edges]
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                assert lifted.rank(sub) == lift.rank(sub)


def test_brylawski_rejects_non_linear_class():
    g = theta_graph()
    cycles = enumerate_cycles(g)
    with pytest.raises(ValueError, match="linear class"):
        brylawski_lift(GraphicOracle(g), cycles, cycles[:2])


# --- brute-force oracles ----------------------------------------------------


def test_minimal_dependent_sets_free_matroid():
    oracle = FuncOracle(range(4), len)
    assert minimal_dependent_sets(oracle) == []


def test_minimal_dependent_sets_u12():
    oracle = FuncOracle([0, 1], lambda s: min(len(s), 1))
    assert minimal_dependent_sets(oracle) == [(0, 1)]


def test_minimal_dependent_sets_limit():
    with pytest.raises(LimitExceeded):
        minimal_dependent_sets(FuncOracle(range(25), len))


def test_subset_sweep_draws_seeded_halves():
    ground = (2, 5, 7)
    want = list(reference_halves(ground, 5, random.Random(4)))
    assert list(subset_sweep(ground, 5, random.Random(4))) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(17, 260), st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
def test_sampled_halves_match_one_random_bit_per_element(size, shuffle_seed, seed):
    """Each sampled half keeps, in ground order, the elements whose bit of
    one ``getrandbits(len(ground))`` draw is set, and leaves the generator
    where that draw leaves it."""
    ground = random.Random(shuffle_seed).sample(range(2 * size), size)
    rng, ref = random.Random(seed), random.Random(seed)
    for half, want in zip(subset_sweep(ground, 4, rng), reference_halves(ground, 4, ref)):
        assert half == want
        assert rng.getstate() == ref.getstate()


def test_halves_of_an_empty_ground_are_empty_and_draw_nothing():
    rng = random.Random(8)
    state = rng.getstate()
    assert list(subset_sweep((), 3, rng)) == [(), (), ()]
    assert rng.getstate() == state


def test_halves_of_one_element_match_the_reference():
    got = list(subset_sweep((9,), 40, random.Random(2)))
    assert got == list(reference_halves((9,), 40, random.Random(2)))
    assert set(got) == {(), (9,)}


def test_samples_is_the_least_count_under_the_escape_bound():
    """An oracle wrong on the sets that miss 4 given elements escapes one half
    with probability 15/16; SAMPLES is the least count of halves that all
    let it escape with probability below 10^-6."""
    assert (15 / 16) ** SAMPLES < 1e-6 <= (15 / 16) ** (SAMPLES - 1)


@pytest.mark.parametrize("size", [EXHAUSTIVE_LIMIT, EXHAUSTIVE_LIMIT + 1])
def test_comparison_parts_sweep_every_subset_up_to_the_limit(size):
    """A listing of at most EXHAUSTIVE_LIMIT elements gets the one part of
    every subset; a longer one the empty set, the leading parts in order,
    the prefixes and then the halves."""
    lead = [("a", [(-1, (0,))]), ("b", [(-1, (1,))])]
    names = [name for name, _ in comparison_parts(range(size), 0, *lead)]
    if size <= EXHAUSTIVE_LIMIT:
        assert names == ["subsets"]
    else:
        assert names == ["empty", "a", "b", "prefixes", "halves"]


@pytest.mark.parametrize("samples", [SAMPLES, 3])
def test_a_sampled_comparison_asks_its_parts_in_order(monkeypatch, samples):
    """Two agreeing per-set oracles on 20 elements, compared part by part:
    one of them is asked the empty set, each node set of a leading listing,
    every prefix of the listing, one of each size from 1 to 20 in the
    listing's order, and then the halves of the listing that
    ``random.Random(seed)`` draws, SAMPLES of them as the module holds it
    when the halves are asked."""
    monkeypatch.setattr(biased_module, "SAMPLES", samples)
    listing = random.Random(5).sample(range(20), 20)
    leading = [(-1, (4, 9)), (0, (1,)), (-1, (7,))]
    asked = []  # every set ``a`` is asked, in order
    a = FuncOracle(range(20), lambda s: asked.append(s) or min(len(s), 3))
    b = FuncOracle(range(20), lambda s: min(len(s), 3))
    for _, compare in comparison_parts(listing, 11, ("lead", leading)):
        assert compare(a, b) is None
    want = [(), (4, 9), (4, 9, 1), (7,)]
    want += [listing[:k] for k in range(1, 21)]
    want += reference_halves(listing, samples, random.Random(11))
    assert asked == [frozenset(s) for s in want]


def test_each_element_is_kept_in_about_half_of_the_halves():
    """Over 4,000 halves of 200 elements each element is kept 45-55% of the
    time: the top bit is drawn like the others, and no bit is dropped."""
    ground = tuple(range(0, 400, 2))
    kept = dict.fromkeys(ground, 0)
    for half in subset_sweep(ground, 4000, random.Random(3)):
        for x in half:
            kept[x] += 1
    assert all(1800 <= count <= 2200 for count in kept.values()), min(kept.values())


def test_axiom_check_graphic_k4():
    z1 = make_cyclic(1)
    g = graph(z1, 4, [(0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0)])
    assert matroid_axiom_check(GraphicOracle(g)) == (True, None)


def test_axiom_check_catches_corruption():
    z1 = make_cyclic(1)
    g = graph(z1, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    base = GraphicOracle(g)
    poisoned = frozenset({0, 1})

    def rank(s):
        return base.rank(s) + (1 if frozenset(s) == poisoned else 0)

    ok, witness = matroid_axiom_check(FuncOracle(base.ground, rank))
    assert not ok
    assert witness is not None


# The corruption case above, then one oracle failing at each axiom; the
# witnesses are those of the pairwise check the closure masks replaced.
TRIANGLE = GraphicOracle(graph(make_cyclic(1), 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)]))


@pytest.mark.parametrize(
    "ground, rank, witness",
    [
        ((0, 1, 2), lambda s: TRIANGLE.rank(s) + (s == {0, 1}), ("unit", (0,), 1)),
        ((2, 4, 6), lambda s: 1, ("empty", (), 1)),
        ((2, 4, 6), lambda s: 2 * len(s), ("unit", (), 2)),
        ((2, 4, 6), lambda s: len(s) - ({4, 6} <= s) - (len(s) == 3), ("unit", (2, 4), 6)),
        ((3, 5, 7, 9), lambda s: int({5, 7, 9} <= s), ("submodular", (5,), (7, 9))),
        (
            (3, 5, 7, 9),
            lambda s: int({3, 5, 7, 9} <= s) + min(len(s & {7, 9}), 1),
            ("submodular", (3, 7), (5, 9)),
        ),
    ],
)
def test_axiom_check_witnesses(ground, rank, witness):
    assert matroid_axiom_check(FuncOracle(ground, rank)) == (False, witness)


def _pairwise_axiom_check(oracle):
    """The axiom check with every pair tested at every subset, kept as the
    reference for the closure-mask check."""
    ground = oracle.ground
    m = len(ground)
    table = {
        mask: oracle.rank([ground[i] for i in range(m) if mask >> i & 1])
        for mask in range(1 << m)
    }
    if table[0] != 0:
        return False, ("empty", (), table[0])
    for mask in range(1 << m):
        r = table[mask]
        for i in range(m):
            if mask >> i & 1:
                continue
            step = table[mask | 1 << i] - r
            if step < 0 or step > 1:
                return False, (
                    "unit",
                    tuple(ground[k] for k in range(m) if mask >> k & 1),
                    ground[i],
                )
    for mask in range(1 << m):
        r = table[mask]
        free = [i for i in range(m) if not mask >> i & 1]
        for a, b in itertools.combinations(free, 2):
            if (
                table[mask | 1 << a] + table[mask | 1 << b]
                < table[mask | 1 << a | 1 << b] + r
            ):
                return False, (
                    "submodular",
                    tuple(ground[k] for k in range(m) if mask >> k & 1),
                    (ground[a], ground[b]),
                )
    return True, None


AXIOM_GROUPS = [make_dihedral(6), make_field_affine(5)]
AXIOM_CONTEXTS = [
    [FrobeniusContext(grp, p, validate=False) for p in frobenius_partitions(grp)]
    for grp in AXIOM_GROUPS
]


def _table_in_range(rng: random.Random, kind: int) -> tuple[tuple[int, ...], list[int]]:
    """A rank table over at most nine elements: random values, a maximum of
    intersection sizes (unit increase, often not submodular), or a real
    lift's table with up to two entries moved by one."""
    if kind == 2:
        i = rng.randrange(len(AXIOM_GROUPS))
        g = random_gain_graph(AXIOM_GROUPS[i], rng, max_vertices=4, max_edges=9)
        m = LiftedMatroid(rng.choice(AXIOM_CONTEXTS[i]), g)
        table = rank_table(m)
        for _ in range(rng.randrange(3)):
            table[rng.randrange(len(table))] += rng.choice((-1, 1))
        return m.ground, table
    ground = tuple(sorted(rng.sample(range(20), rng.randint(3 * kind, 9))))
    n = 1 << len(ground)
    if kind == 0:
        table = [rng.randrange(4) for _ in range(n)]
        table[0] = rng.choice((0, 0, 0, 1))
        return ground, table
    sets = [rng.getrandbits(len(ground)) for _ in range(rng.randint(2, 3))]
    return ground, [max((x & s).bit_count() for s in sets) for x in range(n)]


def _random_table(rng: random.Random) -> tuple[tuple[int, ...], list[int]]:
    """A table of _table_in_range, or one of those with one to three entries
    moved far outside [0, m], which the check clamps before packing."""
    kind = rng.randrange(4)
    if kind < 3:
        return _table_in_range(rng, kind)
    ground, table = _table_in_range(rng, rng.randrange(3))
    for _ in range(rng.randint(1, 3)):
        table[rng.randrange(len(table))] = rng.choice((-300, len(ground) + 2, 10**30))
    return ground, table


def _table_oracle(ground, table):
    index = {e: 1 << k for k, e in enumerate(ground)}
    return FuncOracle(ground, lambda s: table[sum(index[e] for e in s)])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_axiom_check_matches_pairwise_reference(seed):
    oracle = _table_oracle(*_random_table(random.Random(seed)))
    assert matroid_axiom_check(oracle) == _pairwise_axiom_check(oracle)


def test_axiom_check_at_the_size_bound():
    """K_6 plus one parallel edge has EXHAUSTIVE_LIMIT elements and passes."""
    z1 = make_cyclic(1)
    k6 = [(i, j, 0) for i, j in itertools.combinations(range(6), 2)]
    oracle = GraphicOracle(graph(z1, 6, k6 + [(0, 1, 0)]))
    assert len(oracle.ground) == biased_module.EXHAUSTIVE_LIMIT
    assert matroid_axiom_check(oracle) == (True, None)


def test_axiom_check_on_twelve_elements_matches_pairwise_reference():
    """K_5 plus two parallel edges, with the rank of the flat spanned by
    vertices 0-3 (its eight edges) raised from three to four: unit increase
    holds, local submodularity breaks."""
    z1 = make_cyclic(1)
    k5 = [(i, j, 0) for i, j in itertools.combinations(range(5), 2)]
    g = graph(z1, 5, k5 + [(0, 1, 0), (2, 3, 0)])
    oracle = GraphicOracle(g)
    table = rank_table(oracle)
    assert len(oracle.ground) == 12
    flat = sum(1 << k for k, e in enumerate(oracle.ground) if 4 not in g.ends[e][:2])
    assert flat.bit_count() == 8 and table[flat] == 3
    table[flat] += 1
    bumped = _table_oracle(oracle.ground, table)
    result = _pairwise_axiom_check(bumped)
    assert result[1][0] == "submodular"
    assert matroid_axiom_check(bumped) == result


# --- first disagreement -------------------------------------------------------


def _first_by_size(a, b):
    """The reference scan: every subset by size, in combinations order, one
    rank query per oracle each."""
    return next(
        (
            s
            for k in range(len(a.ground) + 1)
            for s in itertools.combinations(a.ground, k)
            if a.rank(s) != b.rank(s)
        ),
        None,
    )


def _corrupted(oracle, rng):
    """A per-subset copy of ``oracle`` with up to two ranks moved by one; the
    moved sets are drawn by size first, so that small ones come up."""
    ground = oracle.ground
    moved = {}
    for _ in range(rng.randrange(3)):
        s = frozenset(rng.sample(ground, rng.randint(0, len(ground))))
        moved[s] = rng.choice((-1, 1))
    return FuncOracle(ground, lambda s: oracle.rank(s) + moved.get(s, 0))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_first_disagreement_matches_by_size_scan(seed):
    """first_disagreement and the pruned walk on its own (which any oracle
    can take, by its per-subset walk) against the reference scan: a lift
    against corrupted copies of itself, walkable and not, and walkable pairs
    that differ as matroids (two partitions, the quotient frame and lift)."""
    rng = random.Random(seed)
    i = rng.randrange(len(AXIOM_GROUPS))
    g = random_gain_graph(AXIOM_GROUPS[i], rng, max_vertices=4, max_edges=9)
    ctx, other = rng.choice(AXIOM_CONTEXTS[i]), rng.choice(AXIOM_CONTEXTS[i])
    m = LiftedMatroid(ctx, g)
    bad = _corrupted(m, rng)
    plain = FuncOracle(m.ground, m.rank)
    quotient = m.quotient_biased
    pairs = [
        (m, bad),
        (bad, m),
        (plain, bad),
        (m, plain),
        (m, LiftedMatroid(other, g)),
        (m, FrameOracle(quotient)),
        (LiftOracle(quotient), m),
        (GraphicOracle(g), FrameOracle(quotient)),
    ]
    for a, b in pairs:
        expected = _first_by_size(a, b)
        assert first_disagreement(a, b) == expected, (a, b)
        assert _walk_disagreement(a, b) == expected, (a, b)


def test_first_disagreement_asks_a_plain_oracle_by_size(z2):
    """With an oracle that is asked per subset, the comparison stops at the
    witness of a by-size scan: one rank flipped on (2, 5, 8, 11) of K_4 over
    Z2 costs the subsets of at most four elements up to it, not the supersets
    of 0 and 1 a depth-first walk would visit first."""
    m = LiftedMatroid(FrobeniusContext(z2, frobenius_partitions(z2)[0]), complete_gain_graph(z2, 4))
    assert len(m.ground) == 12
    witness = (2, 5, 8, 11)
    asked = []

    def rank(s):
        asked.append(s)
        return m.rank(s) + (s == frozenset(witness))

    assert first_disagreement(m, FuncOracle(m.ground, rank)) == witness
    assert len(asked) == sum(math.comb(12, k) for k in range(4)) + list(
        itertools.combinations(m.ground, 4)
    ).index(witness) + 1


def test_first_disagreement_asks_every_subset_by_size():
    """Exhaustive and per subset, the comparison asks every subset of the
    ground, by size and then in combinations order, when the oracles agree."""
    asked = []
    counted = FuncOracle((2, 5, 7), lambda s: asked.append(s) or len(s))
    assert first_disagreement(counted, FuncOracle((2, 5, 7), len)) is None
    assert asked == [frozenset(s) for s in [
        (), (2,), (5,), (7,), (2, 5), (2, 7), (5, 7), (2, 5, 7)
    ]]


def test_first_disagreement_compares_a_sample_in_its_order():
    a = FuncOracle(range(4), len)
    b = FuncOracle(range(4), lambda s: min(len(s), 2))
    assert first_disagreement(a, b, [(0,), (1, 2), (3, 2, 1), (0, 1, 2)]) == (3, 2, 1)
    assert first_disagreement(a, b, [(0,), (1, 2)]) is None


def test_first_disagreement_refuses_a_large_ground_before_any_query():
    asked = []
    counted = FuncOracle(range(EXHAUSTIVE_LIMIT + 1), lambda s: asked.append(s) or len(s))
    with pytest.raises(LimitExceeded):
        first_disagreement(counted, counted)
    assert asked == []
    assert first_disagreement(counted, counted, [(0, 1)]) is None
    assert asked == [frozenset((0, 1))] * 2


def test_first_disagreement_rejects_other_ground_sets():
    with pytest.raises(ValueError, match="ground sets differ"):
        first_disagreement(FuncOracle(range(3), len), FuncOracle(range(4), len))


# --- walks that stop at full rank --------------------------------------------

# Ten D6 edges under the partition with kernel Z3, where r(E) = 5; the walk
# step counts below are pinned on this graph.
WALK_GRAPH_TRIPLES = [
    (0, 1, 0), (1, 2, 3), (2, 3, 1), (0, 3, 4), (0, 2, 2),
    (1, 3, 5), (1, 1, 1), (3, 3, 3), (0, 2, 5), (2, 2, 2),
]
WALK_GRAPH = graph(AXIOM_GROUPS[0], 4, WALK_GRAPH_TRIPLES)
WALK_CONTEXT = AXIOM_CONTEXTS[0][2]


def _parents_below_full(table, full):
    """The nonempty sets whose parent in a depth-first walk, the set without
    its last element, has rank below ``full``: the sets a walk that fills
    below full rank still steps to."""
    return sum(table[x ^ 1 << x.bit_length() - 1] < full for x in range(1, len(table)))


def test_rank_table_fills_below_full_rank():
    """A walk at r(E) is not stepped further: 730 of the 1023 nonempty sets
    are stepped to, the rest filled, and the table is the per-subset one.
    An oracle asked per subset is stepped to every set."""
    m = LiftedMatroid(WALK_CONTEXT, WALK_GRAPH)
    assert len(m.ground) == 10 and m.full_rank() == 5
    counted, plain = CountingWalk(m), CountingWalk(FuncOracle(m.ground, m.rank))
    want = rank_table(plain)
    assert rank_table(counted) == want
    assert counted.steps == _parents_below_full(want, 5) == 730
    assert plain.steps == 1023


def test_full_rank_is_found_by_one_union_find_pass(monkeypatch):
    """r(E) of a fresh lift is one pass over the ground set, read again by
    every later full_rank() call."""
    g = graph(WALK_GRAPH.group, 4, WALK_GRAPH_TRIPLES[:8])
    want = LiftedMatroid(WALK_CONTEXT, g).rank(g.edge_ids())
    passes = []
    rank_pass = biased_module._rank_pass
    monkeypatch.setattr(
        biased_module, "_rank_pass", lambda *a: passes.append(1) or rank_pass(*a)
    )
    m = LiftedMatroid(WALK_CONTEXT, g)
    assert [m.full_rank() for _ in range(3)] == [want] * 3
    assert len(passes) == 1


def test_explicit_set_full_rank_is_the_scanned_rank(d6):
    """A digon whose gains are balanced, given with no balanced cycle: r(E)
    is read from its scanned components, not from its gains."""
    g = graph(d6, 2, [(0, 1, 0), (0, 1, 0)])
    for oracle, scanned, by_gains in [
        (FrameOracle, 2, 1),
        (LiftOracle, 2, 1),
    ]:
        explicit = oracle(BiasedGraph(g, []))
        assert explicit.full_rank() == explicit.rank(g.edge_ids()) == scanned
        assert oracle(BiasedGraph(g)).full_rank() == by_gains


def test_walk_disagreement_skips_where_both_walks_are_full():
    """An oracle against itself steps each walk to the 730 sets that
    rank_table steps to; with one side asked per subset, no set is
    skipped."""
    m = LiftedMatroid(WALK_CONTEXT, WALK_GRAPH)
    a, b = CountingWalk(m), CountingWalk(m)
    assert _walk_disagreement(a, b) is None
    assert a.steps == b.steps == 730
    c, d = CountingWalk(m), CountingWalk(FuncOracle(m.ground, m.rank))
    assert _walk_disagreement(c, d) is None
    assert c.steps == d.steps == 1023


def test_axiom_check_sees_a_moved_rank_under_a_full_rank_set():
    """A per-subset oracle is asked of every subset, even of a set X whose
    parent in the walk (X without its last element) has rank r(E): with the
    rank of X moved either way, the check still names X in its witness."""
    m = LiftedMatroid(WALK_CONTEXT, WALK_GRAPH)
    ground, full = m.ground, m.full_rank()
    table = rank_table(FuncOracle(ground, m.rank))
    basis = next(
        x for x in range(1 << len(ground) - 1) if table[x] == full == x.bit_count()
    )
    moved = basis | 1 << basis.bit_length()
    x_ids = frozenset(e for k, e in enumerate(ground) if moved >> k & 1)
    for delta in (-1, 1):
        bad = list(table)
        bad[moved] += delta
        asked = set()
        oracle = _table_oracle(ground, bad)
        counted = FuncOracle(ground, lambda s: asked.add(s) or oracle.rank(s))
        ok, witness = result = matroid_axiom_check(counted)
        assert x_ids in asked
        assert not ok and result == _pairwise_axiom_check(oracle)
        kind, subset, element = witness
        assert kind == "unit" and x_ids in (frozenset(subset), frozenset(subset) | {element})
