import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmat import (
    AffinePair,
    Edge,
    FrobeniusContext,
    GainGraph,
    LiftedMatroid,
    VectorOracle,
    affine_index,
    affine_pair,
    apply_switching,
    complete_gain_graph,
    frobenius_partitions,
    incidence_matrix,
    make_field_affine,
    matrix_rank_gf,
    scale_gains,
    switching_projective_check,
    verify_representation,
)
import frobmat.represent as represent
from frobmat.biased import first_disagreement, rank_table, subset_sweep
from frobmat.represent import MAX_MATRIX_ENTRIES, FieldMatrix, affine_modulus

from conftest import FuncOracle, random_gain_graph


@pytest.fixture(scope="module")
def figure_graph(f20):
    """Three vertices, two loops, four arcs over GF(5)+ x GF(5)*."""
    idx = lambda a, b: affine_index(f20, a, b)
    return GainGraph.from_triples(
        f20,
        3,
        [
            (0, 0, idx(3, 2)),
            (0, 1, idx(1, 3)),
            (1, 0, idx(0, 1)),
            (0, 2, idx(2, 4)),
            (1, 2, idx(0, 2)),
            (2, 2, idx(4, 1)),
        ],
    )


FIGURE_MATRIX = (
    (3, 1, 0, 2, 0, 4),
    (4, 1, 4, 1, 0, 0),
    (0, 2, 1, 0, 1, 0),
    (0, 0, 0, 1, 3, 0),
)


def minor_rank_oracle(rows, q):
    """Independent rank: largest k with a k x k minor of nonzero determinant,
    determinants computed exactly over the integers then reduced."""

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = 0
        for j in range(n):
            sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
            total += (-1) ** j * mat[0][j] * det(sub)
        return total

    best = 0
    m, n = len(rows), len(rows[0])
    for k in range(1, min(m, n) + 1):
        found = False
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if det(sub) % q != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
    return best


def test_affine_pair_round_trip(f20):
    for x in f20.elements():
        p = affine_pair(f20, x)
        assert affine_index(f20, p.a, p.b) == x
    with pytest.raises(ValueError):
        AffinePair(1, 0)


def test_incidence_matrix_matches_figure(figure_graph):
    m = incidence_matrix(figure_graph)
    assert m.q == 5 and m.rows == 4 and m.cols == 6
    assert m.entries == FIGURE_MATRIX


def test_identity_gain_edge_column(f20):
    g = GainGraph.from_triples(f20, 2, [(0, 1, affine_index(f20, 0, 1))])
    assert incidence_matrix(g).column(0) == (0, 1, 4)  # -1 reduced mod 5


def test_translation_loop_column(f20):
    g = GainGraph.from_triples(f20, 1, [(0, 0, affine_index(f20, 2, 1))])
    assert incidence_matrix(g).column(0) == (2, 0)  # 1 - 1 = 0 at the vertex


@pytest.mark.parametrize(
    "vertices, triples",
    [(10**9, [(0, 1, 0)]), (MAX_MATRIX_ENTRIES, [])],
    ids=["many-rows", "many-rows-no-edges"],
)
def test_incidence_matrix_cap_rejects_before_allocating(f20, monkeypatch, vertices, triples):
    import frobmat.represent as represent

    def no_rows(*args):
        raise AssertionError("matrix rows were allocated before the size check")

    monkeypatch.setattr(represent, "range", no_rows, raising=False)
    g = GainGraph.from_triples(f20, vertices, triples)
    with pytest.raises(ValueError, match="above the cap"):
        incidence_matrix(g)


def test_matrix_rank_gf_basics():
    zero = FieldMatrix.build(5, [[0, 0], [0, 0]])
    assert matrix_rank_gf(zero) == 0
    eye = FieldMatrix.build(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert matrix_rank_gf(eye) == 3


def test_figure_matrix_rank_with_independent_oracle(figure_graph):
    m = incidence_matrix(figure_graph)
    rows = [list(r) for r in m.entries]
    assert matrix_rank_gf(m) == 4
    assert minor_rank_oracle(rows, 5) == 4
    # column subsets agree with the minor oracle too
    for cols in itertools.combinations(range(6), 3):
        sub = [[rows[i][j] for j in cols] for i in range(4)]
        assert matrix_rank_gf(m, cols) == minor_rank_oracle(sub, 5)


def test_verify_representation_figure(figure_graph, f20_frobenius):
    ok, witness = verify_representation(f20_frobenius, figure_graph)
    assert ok and witness is None


def test_verify_representation_identity_gains(f20, f20_frobenius):
    g = GainGraph.from_triples(f20, 3, [(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    ok, _ = verify_representation(f20_frobenius, g)
    assert ok


def test_verify_representation_random_graphs():
    rng = random.Random(101)
    for q in (3, 5, 7):
        group = make_field_affine(q)
        ctx = FrobeniusContext(group, frobenius_partitions(group)[2])
        for _ in range(12):
            g = random_gain_graph(group, rng, max_vertices=4, max_edges=7)
            ok, witness = verify_representation(ctx, g)
            assert ok, (q, witness, [(e.tail, e.head, e.gain) for e in g.edges])


def test_verify_representation_samples_above_sixteen_edges(f20):
    """K_3 over AGL(1,5) has 60 edges, so the sets of comparison_parts are
    compared in place of all of them: the Frobenius partition passes, and
    the lift partition fails on the fifth prefix, the first on which the
    matrix rank (3) exceeds the lift's (2), where the full sweep would name
    (0, 1, 4), a smaller set, first."""
    g = complete_gain_graph(f20, 3)
    lift, _, frobenius = frobenius_partitions(f20)
    assert verify_representation(FrobeniusContext(f20, frobenius), g) == (True, None)
    vec = VectorOracle(incidence_matrix(g), range(60))
    m = LiftedMatroid(FrobeniusContext(f20, lift), g)
    ranks = [(vec.rank(range(k)), m.rank(range(k))) for k in range(1, 6)]
    assert ranks == [(1, 1), (2, 2), (2, 2), (2, 2), (3, 2)]
    assert (vec.rank((0, 1, 4)), m.rank((0, 1, 4))) == (3, 2)
    assert verify_representation(FrobeniusContext(f20, lift), g) == (False, (0, 1, 2, 3, 4))


def representation_faults(f20):
    """The representation corpus: the 4 x 60 incidence matrix of K_3 over
    AGL(1,5) with one entry changed, in every other column, in each row, to
    each other value mod 5: 480 faults named column/row/value, in that
    order."""
    entries = incidence_matrix(complete_gain_graph(f20, 3)).entries
    faults = []
    for col in range(0, 60, 2):
        for row in range(4):
            for value in range(5):
                if value != entries[row][col]:
                    rows = [list(r) for r in entries]
                    rows[row][col] = value
                    faults.append((f"{col}/{row}/{value}", FieldMatrix.build(5, rows)))
    return faults


# the halves verify_representation compared above EXHAUSTIVE_LIMIT edges
# before it asked the sets of comparison_parts; pinned here so that the
# reference below does not follow biased.SAMPLES
REFERENCE_HALVES = 2000


def test_the_representation_check_refuses_what_2000_halves_refused(f20, monkeypatch):
    """Every 20th fault of ``representation_faults``, under the Frobenius
    partition: each one that comparing the matrix with the lift on
    REFERENCE_HALVES halves at seed 0 refuses, none of these 24, is refused
    by verify_representation, which refuses three, each on a prefix. Over
    the whole corpus the halves refuse none and verify_representation 52,
    all in columns 0 to 20."""
    g = complete_gain_graph(f20, 3)
    ctx = FrobeniusContext(f20, frobenius_partitions(f20)[2])
    m = LiftedMatroid(ctx, g)
    faults = representation_faults(f20)
    assert len(faults) == 480
    by_halves, refused = [], []
    for name, matrix in faults[::20]:
        halves = subset_sweep(range(60), REFERENCE_HALVES, random.Random(0))
        if first_disagreement(VectorOracle(matrix, range(60)), m, halves) is not None:
            by_halves.append(name)
        monkeypatch.setattr(represent, "incidence_matrix", lambda g, matrix=matrix: matrix)
        if not verify_representation(ctx, g, seed=0)[0]:
            refused.append(name)
    assert set(by_halves) <= set(refused)
    assert (by_halves, refused) == ([], ["0/0/1", "6/3/1", "16/3/1"])


# (seed, lift-partition witness, frame-partition witness): the first subset,
# by size and then in combinations order, on which the matrix and the lift
# disagree; the matrix represents neither of these two partitions
PINNED_WITNESSES = [
    (0, (1, 3), (0, 6, 10)),
    (1, (1, 4), (1, 4)),
    (2, (1, 2, 5), (1, 2, 5)),
    (3, (3, 4), (0, 2, 4)),
    (10, (0, 4, 5), (0, 2, 4, 5)),
    (11, (0, 4), (0, 1)),
    (20, (2, 6), (0, 2, 6, 7)),
    (29, (3, 6), (0, 1, 3, 6)),
    (30, (0, 2, 7), (0, 2, 3, 7)),
    (33, (1, 5, 7), (1, 3, 5, 7)),
    (37, (4, 5), (0, 2, 5)),
    (39, (0, 1, 4), (0, 1, 4)),
]


@pytest.mark.parametrize("seed,lift_witness,frame_witness", PINNED_WITNESSES)
def test_verify_representation_pinned_witnesses(f20, seed, lift_witness, frame_witness):
    """Graphs of 8-12 edges over AGL(1,5) on the lift and frame partitions."""
    rng = random.Random(seed)
    nv = rng.randint(3, 5)
    ne = rng.randint(8, 12)
    triples = [(rng.randrange(nv), rng.randrange(nv), rng.randrange(20)) for _ in range(ne)]
    g = GainGraph.from_triples(f20, nv, triples)
    lift, frame = frobenius_partitions(f20)[:2]
    assert verify_representation(FrobeniusContext(f20, lift), g) == (False, lift_witness)
    assert verify_representation(FrobeniusContext(f20, frame), g) == (False, frame_witness)


def test_row_zero_deletion_gives_frame_matroid(figure_graph, f20_frobenius):
    m = incidence_matrix(figure_graph)
    body = FieldMatrix.build(5, [list(r) for r in m.entries[1:]])
    oracle = LiftedMatroid(f20_frobenius, figure_graph)
    ids = sorted(e.id for e in figure_graph.edges)
    vec = VectorOracle(body, ids)
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            assert vec.rank(sub) == oracle.underlying_rank(sub)


def reorient_edge(g: GainGraph, eid: int) -> GainGraph:
    """Flip the stored orientation of a non-loop; the gain inverts."""
    e = g.edge(eid)
    if e.is_loop:
        raise ValueError("loops have no orientation to flip")
    return g.with_edges(
        Edge(f.id, f.head, f.tail, g.group.inv(f.gain)) if f.id == eid else f
        for f in g.edges
    )


def reorientation_check(g: GainGraph, eid: int) -> bool:
    """Column of the reoriented matrix is -1/b times the original column."""
    q = affine_modulus(g.group)
    before = incidence_matrix(g)
    after = incidence_matrix(reorient_edge(g, eid))
    order = sorted(e.id for e in g.edges)
    j = order.index(eid)
    b = affine_pair(g.group, g.edge(eid).gain).b
    factor = (-pow(b, q - 2, q)) % q
    want = tuple((factor * x) % q for x in before.column(j))
    return after.column(j) == want and all(
        after.column(k) == before.column(k) for k in range(len(order)) if k != j
    )


def test_reorientation(figure_graph, f20):
    for eid in (1, 2, 3, 4):
        assert reorientation_check(figure_graph, eid)
    # inverse pair (a, b)^-1 = (-a/b, 1/b)
    e = figure_graph.edge(1)
    flipped = reorient_edge(figure_graph, 1).edge(1)
    p = affine_pair(f20, e.gain)
    fp = affine_pair(f20, flipped.gain)
    binv = pow(p.b, 3, 5)
    assert (fp.a, fp.b) == ((-binv * p.a) % 5, binv % 5)
    # double reorientation restores the matrix
    twice = reorient_edge(reorient_edge(figure_graph, 1), 1)
    assert incidence_matrix(twice).entries == incidence_matrix(figure_graph).entries
    with pytest.raises(ValueError, match="loop"):
        reorient_edge(figure_graph, 0)


def test_scale_gains(figure_graph, f20_frobenius):
    assert scale_gains(figure_graph, 1).edges == figure_graph.edges
    scaled = scale_gains(figure_graph, 2)
    m = incidence_matrix(scaled)
    assert m.entries[0] == (1, 2, 0, 4, 0, 3)
    assert m.entries[1:] == incidence_matrix(figure_graph).entries[1:]
    before = LiftedMatroid(f20_frobenius, figure_graph)
    after = LiftedMatroid(f20_frobenius, scaled)
    ids = before.ground
    for r in range(len(ids) + 1):
        for sub in itertools.combinations(ids, r):
            assert before.rank(sub) == after.rank(sub)
    with pytest.raises(ValueError):
        scale_gains(figure_graph, 0)


def test_switching_projective_identity(figure_graph):
    assert switching_projective_check(figure_graph, [0, 0, 0])


def test_switching_projective_single_vertex(f20):
    g = GainGraph.from_triples(
        f20, 3, [(0, 1, affine_index(f20, 2, 3)), (1, 2, affine_index(f20, 4, 2))]
    )
    for v in range(3):
        eta = [0, 0, 0]
        eta[v] = affine_index(f20, 1, 2)
        assert switching_projective_check(g, eta)


def test_switching_projective_random(figure_graph):
    rng = random.Random(7)
    for _ in range(20):
        eta = [rng.randrange(20) for _ in range(3)]
        assert switching_projective_check(figure_graph, eta)


def test_switching_preserves_vector_matroid(figure_graph):
    rng = random.Random(13)
    base = VectorOracle(incidence_matrix(figure_graph))
    for _ in range(5):
        eta = [rng.randrange(20) for _ in range(3)]
        switched = VectorOracle(incidence_matrix(apply_switching(figure_graph, eta)))
        for r in range(7):
            for sub in itertools.combinations(range(6), r):
                assert base.rank(sub) == switched.rank(sub)


def same_affine_part(q: int, p: AffinePair, r: AffinePair) -> bool:
    """Whether two non-translations fix the same point: a(1-d) = c(1-b) mod q."""
    if p.b % q == 1 or r.b % q == 1:
        raise ValueError("translations do not fix a point")
    return (p.a * (1 - r.b)) % q == (r.a * (1 - p.b)) % q


def test_same_affine_part_examples():
    assert same_affine_part(5, AffinePair(0, 2), AffinePair(0, 3))
    assert same_affine_part(5, AffinePair(1, 2), AffinePair(2, 3))
    assert not same_affine_part(5, AffinePair(1, 2), AffinePair(0, 2))
    with pytest.raises(ValueError):
        same_affine_part(5, AffinePair(0, 1), AffinePair(0, 2))


def test_same_affine_part_matches_partition(f20, f20_frobenius):
    kernel = f20_frobenius.partition.kernel.element_set
    outside = [x for x in f20.elements() if x not in kernel]
    for x, y in itertools.combinations(outside, 2):
        px, py = affine_pair(f20, x), affine_pair(f20, y)
        assert same_affine_part(5, px, py) == (
            f20_frobenius.part_of[x] == f20_frobenius.part_of[y]
        )


def test_incidence_matrix_rejects_other_groups(d6):
    g = GainGraph.from_triples(d6, 2, [(0, 1, 3)])
    with pytest.raises(ValueError, match="field_affine"):
        incidence_matrix(g)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f20: affine_index(f20, 1, 5), "multiplier must be nonzero mod q"),
        (lambda f20: affine_index(f20, 1, 0), "multiplier must be nonzero mod q"),
        (lambda f20: FieldMatrix.build(5, [[1, 2], [3]]), "ragged matrix"),
        (
            lambda f20: VectorOracle(FieldMatrix.build(5, [[1, 2]]), [0, 1, 2]),
            "one ground id per column required",
        ),
    ],
    ids=["multiplier-q", "multiplier-0", "ragged", "ids-for-columns"],
)
def test_a_malformed_argument_is_refused(f20, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(f20)


def _awkward_matrix(rng):
    """A random matrix over GF(3), GF(5) or GF(7) whose columns include zero
    columns, repeats and nonzero multiples of earlier ones."""
    q = rng.choice((3, 5, 7))
    rows = rng.randint(1, 5)
    cols = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.randrange(4) if cols else 0
        if kind == 1:
            cols.append([0] * rows)
        elif kind == 2:
            cols.append(list(rng.choice(cols)))
        elif kind == 3:
            c = rng.randrange(1, q)
            cols.append([c * x for x in rng.choice(cols)])
        else:
            cols.append([rng.randrange(q) for _ in range(rows)])
    data = [[col[i] for col in cols] for i in range(rows)]
    return FieldMatrix.build(q, data) if cols else FieldMatrix(q, rows, 0, ((),) * rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_vector_walk_matches_per_subset_elimination(seed):
    """The echelon walk's rank table against one matrix_rank_gf per subset;
    ground ids are shuffled and not consecutive."""
    rng = random.Random(seed)
    matrix = _awkward_matrix(rng)
    ids = rng.sample(range(3 * matrix.cols + 1), matrix.cols)
    oracle = VectorOracle(matrix, ids)
    col_of = {eid: j for j, eid in enumerate(ids)}
    subsets = [
        [e for k, e in enumerate(oracle.ground) if mask >> k & 1]
        for mask in range(1 << matrix.cols)
    ]
    want = [matrix_rank_gf(matrix, [col_of[e] for e in s]) for s in subsets]
    assert rank_table(oracle) == want
    assert [oracle.rank(s) for s in subsets] == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_vector_walk_fills_as_per_subset_rank(seed):
    """rank_table stops the echelon walk at full rank and fills below it;
    the table must equal the one asked per subset, where each rank is a
    fresh matrix_rank_gf: on an incidence matrix of a random F20 graph and
    on an awkward matrix."""
    rng = random.Random(seed)
    g = random_gain_graph(make_field_affine(5), rng, max_vertices=4, max_edges=10)
    ids = sorted(e.id for e in g.edges)
    matrix = _awkward_matrix(rng)
    for vec in (
        VectorOracle(incidence_matrix(g), ids),
        VectorOracle(matrix, rng.sample(range(3 * matrix.cols + 1), matrix.cols)),
    ):
        assert rank_table(vec) == rank_table(FuncOracle(vec.ground, vec.rank))
