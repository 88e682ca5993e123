import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmat import (
    BiasedGraph,
    ClassLiftOracle,
    FrameOracle,
    FrobeniusContext,
    LiftedMatroid,
    LimitExceeded,
    RecoveryError,
    Subgroup,
    complete_edge_id,
    complete_gain_graph,
    edge_bundle,
    enumerate_cycles,
    frobenius_partitions,
    is_balanced_cycle,
    linear_class,
    make_cyclic,
    make_dihedral,
    make_field_affine,
    quotient_gains,
    recover_partition,
    switching_action_check,
)
from frobmat.recovery import _all_complete_cycles, _random_cycle, complete_cycle_count

from conftest import FuncOracle


def test_edge_bundle_counts(d6):
    assert len(edge_bundle(d6, 4, [0])) == 6
    assert len(edge_bundle(d6, 4, range(6))) == 36
    assert len(edge_bundle(d6, 3, [3])) == 3
    ids = edge_bundle(d6, 3, [3])
    assert ids == tuple(sorted(complete_edge_id(d6, 3, i, j, 3) for i, j in ((0, 1), (0, 2), (1, 2))))


def test_round_trip_d6(d6, d6_partitions, d6_frobenius):
    k4 = complete_gain_graph(d6, 4)
    m = LiftedMatroid(d6_frobenius, k4)
    recovered = recover_partition(d6, d6_partitions[2].kernel, 4, m)
    assert recovered == d6_partitions[2]


def test_lift_branch_returns_empty_family(z2):
    part = frobenius_partitions(z2)[0]
    ctx = FrobeniusContext(z2, part)
    k4 = complete_gain_graph(z2, 4)
    recovered = recover_partition(z2, part.kernel, 4, LiftedMatroid(ctx, k4))
    assert recovered.kernel.elements == (0, 1) and recovered.complements == ()


def test_frame_branch_returns_whole_group(d6):
    part = frobenius_partitions(d6)[1]
    ctx = FrobeniusContext(d6, part)
    k4 = complete_gain_graph(d6, 4)
    recovered = recover_partition(d6, part.kernel, 4, LiftedMatroid(ctx, k4))
    assert recovered.kernel.elements == (0,)
    assert [c.elements for c in recovered.complements] == [tuple(range(6))]


def test_recovery_via_class_file_oracle(z2):
    """The lift matroid presented as a frame oracle plus a circuit list."""
    part = frobenius_partitions(z2)[0]
    ctx = FrobeniusContext(z2, part)
    k4 = complete_gain_graph(z2, 4)
    members = linear_class(ctx, k4)
    qb = BiasedGraph.from_gain_graph(quotient_gains(k4, ctx.quotient))
    oracle = ClassLiftOracle(qb, members)
    recovered = recover_partition(z2, part.kernel, 4, oracle)
    assert recovered == part


def test_rejects_small_n(d6, d6_partitions, d6_frobenius):
    k3 = complete_gain_graph(d6, 3)
    m = LiftedMatroid(d6_frobenius, k3)
    with pytest.raises(RecoveryError, match="n >= 4"):
        recover_partition(d6, d6_partitions[2].kernel, 3, m)


def test_rejects_cycle_hypothesis_violation(z2):
    """The frame matroid itself (nontrivial kernel) makes kernel digons into
    circuits that are not balanced."""
    kernel = Subgroup((0, 1))
    k4 = complete_gain_graph(z2, 4)
    from frobmat.groups import quotient

    frame = FrameOracle(BiasedGraph.from_gain_graph(quotient_gains(k4, quotient(z2, kernel))))
    with pytest.raises(RecoveryError, match="cycle"):
        recover_partition(z2, kernel, 4, frame)


def test_rejects_non_normal_kernel(d6, d6_frobenius):
    k4 = complete_gain_graph(d6, 4)
    m = LiftedMatroid(d6_frobenius, k4)
    with pytest.raises(RecoveryError, match="normal"):
        recover_partition(d6, Subgroup((0, 3)), 4, m)


def test_rejects_mismatched_kernel(d6, d6_partitions, d6_frobenius):
    """Declaring the wrong (but normal) kernel must surface a violation."""
    k4 = complete_gain_graph(d6, 4)
    m = LiftedMatroid(d6_frobenius, k4)
    with pytest.raises(RecoveryError):
        recover_partition(d6, Subgroup(tuple(range(6))), 4, m)


def test_rejects_out_of_range_kernel(d6, d6_frobenius):
    m = LiftedMatroid(d6_frobenius, complete_gain_graph(d6, 4))
    with pytest.raises(ValueError, match="element 99 out of range"):
        recover_partition(d6, Subgroup((0, 99)), 4, m)


def test_rejects_an_oracle_on_another_ground(d6, d6_partitions):
    with pytest.raises(RecoveryError) as info:
        recover_partition(d6, d6_partitions[2].kernel, 4, FuncOracle(range(5), len))
    assert str(info.value) == "oracle ground set does not match the complete gain graph"


def _flip_cycles(g, m, balanced, length, mod, residue):
    """m with the circuit status flipped on every cycle of the given length
    and balance whose id sum is ``residue`` mod ``mod``."""

    def rank(subset):
        r = m.rank(subset)
        if len(subset) != length or sum(subset) % mod != residue:
            return r
        try:
            flag = is_balanced_cycle(g, subset)
        except ValueError:
            return r
        if flag != balanced:
            return r
        return r + 1 if balanced else r - 1

    return FuncOracle(m.ground, rank)


@pytest.mark.parametrize("index", [0, 1])
@pytest.mark.parametrize(
    "bumped,witness",
    [
        ([(0, 1, 2, 3, 4, 7, 9)], (0, 1, 2, 3, 4, 7, 9)),
        ([(0, 1, 2, 3, 4, 7, 9), (2, 5, 8, 11)], (2, 5, 8, 11)),
    ],
)
def test_exhaustive_sweep_witnesses(z2, monkeypatch, index, bumped, witness):
    """K_4 over Z2 (12 edges) with one rank raised on each bumped set: the
    first of them by size is named by the elementary check and, with that
    check skipped, by the final comparison with the reconstructed lift."""
    part = frobenius_partitions(z2)[index]
    m = LiftedMatroid(FrobeniusContext(z2, part), complete_gain_graph(z2, 4))
    bad = {frozenset(s) for s in bumped}
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + (s in bad))
    with pytest.raises(RecoveryError) as info:
        recover_partition(z2, part.kernel, 4, oracle)
    assert str(info.value) == f"not an elementary lift of the frame matroid: {witness}"
    monkeypatch.setattr("frobmat.recovery._check_elementary", lambda *args: None)
    with pytest.raises(RecoveryError) as info:
        recover_partition(z2, part.kernel, 4, oracle)
    assert str(info.value) == f"reconstructed matroid disagrees with the input on {witness}"


WITNESS_GROUPS = {"D6": make_dihedral(6), "F20": make_field_affine(5)}


@pytest.mark.parametrize(
    "name,balanced,length,mod,residue,seed,message",
    [
        # every cycle is checked (order <= 10)
        ("D6", True, 3, 5, 0, 0, "cycle (0, 9, 21) is balanced but is not a circuit of the lift"),
        ("D6", False, 4, 17, 5, 5,
         "cycle (0, 9, 29, 35) is unbalanced but is a circuit of the lift"),
        # all digons plus seeded samples (order 20)
        ("F20", True, 3, 5, 0, 0, "cycle (0, 35, 75) is balanced but is not a circuit of the lift"),
        ("F20", False, 2, 7, 0, 0, "cycle (0, 7) is unbalanced but is a circuit of the lift"),
        ("F20", False, 4, 17, 5, 5,
         "cycle (1, 28, 96, 118) is unbalanced but is a circuit of the lift"),
    ],
)
def test_cycle_hypothesis_witnesses(name, balanced, length, mod, residue, seed, message):
    """The first failing cycle in sorted id order, for both routes and both
    failure kinds; the sampled witnesses also pin the seeded draws."""
    group = WITNESS_GROUPS[name]
    part = frobenius_partitions(group)[-1]
    g = complete_gain_graph(group, 4)
    m = LiftedMatroid(FrobeniusContext(group, part, validate=False), g)
    oracle = _flip_cycles(g, m, balanced, length, mod, residue)
    with pytest.raises(RecoveryError) as info:
        recover_partition(group, part.kernel, 4, oracle, seed=seed)
    assert str(info.value) == message


def _bundles_at_rank(group, pairs, rank):
    """A patch that answers ``rank`` on the K_4 bundle of the identity and
    each pair, and passes every other answer through."""
    bundles = {frozenset(edge_bundle(group, 4, (0, a, b))) for a, b in pairs}
    return lambda s, r: rank if s in bundles else r


D6, F20 = WITNESS_GROUPS["D6"], WITNESS_GROUPS["F20"]


@pytest.mark.parametrize(
    "group, patch, message",
    [
        (D6, lambda s, r: r + (not s), "rank of the empty set is not zero"),
        (D6, lambda s, r: r + 2 * (len(s) == 36), "full rank 7 is neither n nor n+1"),
        (
            D6,
            _bundles_at_rank(D6, [(3, 4), (4, 5)], 4),
            "bundle relation is not an equivalence relation (witness classes of 3 and 4)",
        ),
        (D6, _bundles_at_rank(D6, [(3, 4)], 4), "recovered class (0, 3, 4) is not a subgroup"),
        # 11 is the involution of the complement {0, 11, 14, 17}, a Z4
        (F20, _bundles_at_rank(F20, [(11, 14), (11, 17)], 5),
         "recovered subgroup (0, 11) is not malnormal"),
    ],
    ids=["empty-set", "full-rank", "not-transitive", "not-a-subgroup", "not-malnormal"],
)
def test_rejects_a_lift_changed_only_where_named(group, patch, message):
    """The Frobenius lift over K_4 (36 or 120 edges, so the elementary check
    samples), with the answers ``patch`` changes: the empty set, the whole
    ground, or bundles of the identity and two elements, which only the
    bundle relation asks."""
    part = frobenius_partitions(group)[-1]
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
    oracle = FuncOracle(m.ground, lambda s: patch(s, m.rank(s)))
    with pytest.raises(RecoveryError) as info:
        recover_partition(group, part.kernel, 4, oracle)
    assert str(info.value) == message


ROUTE_GROUPS = [make_cyclic(2), make_cyclic(5), make_dihedral(6), make_field_affine(3)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("group", ROUTE_GROUPS, ids=["Z2", "Z5", "D6", "AGL(1,3)"])
def test_complete_cycles_match_enumeration(group, n):
    """Cycles built with their gains against the edge-set enumeration and
    the walk-based balance test, and the closed-form count against both."""
    g = complete_gain_graph(group, n)
    expected = [(c, is_balanced_cycle(g, c)) for c in enumerate_cycles(g, max_edges=len(g.edges))]
    assert _all_complete_cycles(group, n) == expected
    assert complete_cycle_count(group.order, n) == len(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, len(ROUTE_GROUPS) - 1), st.integers(2, 4))
def test_random_cycle_balance_matches_walk(seed, gi, n):
    group = ROUTE_GROUPS[gi]
    g = complete_gain_graph(group, n)
    rng = random.Random(seed)
    for _ in range(20):
        for want_balanced in (False, True) if n >= 3 else (False,):
            cycle = _random_cycle(group, n, rng, want_balanced)
            if cycle is None:
                continue
            ids, balanced = cycle
            assert list(ids) == sorted(set(ids))
            assert balanced == is_balanced_cycle(g, ids)
            assert balanced or not want_balanced


def _z7_frame_lift():
    """K_4 over Z7 (42 edges, so every sweep samples) and its lift under the
    partition with the trivial kernel."""
    z7 = make_cyclic(7)
    part = next(p for p in frobenius_partitions(z7) if p.kernel.order == 1)
    return z7, part, LiftedMatroid(FrobeniusContext(z7, part), complete_gain_graph(z7, 4))


def test_sampled_elementary_check_names_the_first_failing_half():
    """With the kernel trivial the lift is the quotient frame matroid, so an
    oracle two above it on every set of 21 or more edges fails at the first
    such half. The halves are drawn over the ground listed bundle by bundle,
    one random() draw per edge, and the witness is printed sorted."""
    z7, part, m = _z7_frame_lift()
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + 2 * (len(s) >= 21))
    bundled = [e for a in z7.elements() for e in edge_bundle(z7, 4, (a,))]
    ref = random.Random(0)
    half = ()
    while len(half) < 21:
        half = tuple(e for e in bundled if ref.random() < 0.5)
    with pytest.raises(RecoveryError) as info:
        recover_partition(z7, part.kernel, 4, oracle, seed=0)
    assert str(info.value) == f"subset {tuple(sorted(half))} has lift rank 2 above the frame rank"


def test_recovery_rank_query_count_on_k4_over_z7():
    """The order in which the sampled sweeps list the ground changes which
    halves they ask, not how many queries recovery makes."""
    z7, part, m = _z7_frame_lift()
    calls = 0

    def rank(s):
        nonlocal calls
        calls += 1
        return m.rank(s)

    assert recover_partition(z7, part.kernel, 4, FuncOracle(m.ground, rank), seed=0) == part
    assert calls == 16435


def test_recovery_rank_query_count_on_k5_over_agl15():
    """K_5 over AGL(1,5) with its Frobenius kernel Z5: a non-abelian group
    whose rank queries run every union-find branch. The count pins that a
    cheaper pass does not come from asking fewer queries."""
    group = make_field_affine(5)
    part = next(p for p in frobenius_partitions(group) if 1 < p.kernel.order < group.order)
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 5))
    calls = 0

    def rank(s):
        nonlocal calls
        calls += 1
        return m.rank(s)

    assert recover_partition(group, part.kernel, 5, FuncOracle(m.ground, rank), seed=0) == part
    assert calls == 13958


def test_k5_over_order_ten_is_refused_by_its_cycle_count():
    assert complete_cycle_count(10, 5) == 1_360_450
    assert complete_cycle_count(9, 5) == 814_653
    group = make_dihedral(10)
    part = frobenius_partitions(group)[2]
    m = LiftedMatroid(FrobeniusContext(group, part, validate=False), complete_gain_graph(group, 5))
    with pytest.raises(LimitExceeded, match="more than 1000000 cycles"):
        recover_partition(group, part.kernel, 5, m)


def test_round_trip_sampled_path_uses_seed(d6, d6_partitions, d6_frobenius):
    k4 = complete_gain_graph(d6, 4)
    m = LiftedMatroid(d6_frobenius, k4)
    a = recover_partition(d6, d6_partitions[2].kernel, 4, m, seed=1)
    b = recover_partition(d6, d6_partitions[2].kernel, 4, m, seed=2)
    assert a == b == d6_partitions[2]


def test_switching_action_on_constructed_class(d6, d6_frobenius, d6_partitions):
    k3 = complete_gain_graph(d6, 3)
    lc = linear_class(d6_frobenius, k3)
    assert switching_action_check(d6, d6_partitions[2].kernel, 3, lc)


def test_switching_action_identity_trivially_invariant(z2):
    part = frobenius_partitions(z2)[0]
    ctx = FrobeniusContext(z2, part)
    k3 = complete_gain_graph(z2, 3)
    lc = linear_class(ctx, k3)
    assert switching_action_check(z2, part.kernel, 3, lc, samples=1, seed=0)


def test_switching_action_on_k4_induced_permutation(z2):
    part = frobenius_partitions(z2)[0]
    ctx = FrobeniusContext(z2, part)
    k4 = complete_gain_graph(z2, 4)
    lc = linear_class(ctx, k4)
    assert switching_action_check(z2, part.kernel, 4, lc)


def test_switching_action_rejects_n2(z2):
    part = frobenius_partitions(z2)[0]
    with pytest.raises(ValueError, match="n >= 3"):
        switching_action_check(z2, part.kernel, 2, [])


def test_switching_action_rejects_missing_balanced_cycle(d6, d6_partitions, d6_frobenius):
    k3 = complete_gain_graph(d6, 3)
    lc = list(linear_class(d6_frobenius, k3))
    balanced_triangle = sorted(
        (
            complete_edge_id(d6, 3, 0, 1, 0),
            complete_edge_id(d6, 3, 1, 2, 0),
            complete_edge_id(d6, 3, 0, 2, 0),
        )
    )
    lc.remove(tuple(balanced_triangle))
    with pytest.raises(ValueError, match="hypothesis"):
        switching_action_check(d6, d6_partitions[2].kernel, 3, lc, samples=200)
