import functools
import operator
import random
import tracemalloc
from typing import Iterable, Sequence

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from frobmat import (
    BiasedGraph,
    ClassLiftOracle,
    FiniteGroup,
    FrameOracle,
    FrobeniusContext,
    LiftedMatroid,
    LimitExceeded,
    RecoveryError,
    Subgroup,
    complete_gain_graph,
    edge_bundle,
    enumerate_cycles,
    frobenius_partitions,
    is_balanced_cycle,
    is_elementary_lift,
    linear_class,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_affine,
    make_semidirect,
    quotient_gains,
    recover_partition,
)
from frobmat.biased import EXHAUSTIVE_LIMIT, subset_sweep
from frobmat.fileio import group_from_spec
from frobmat.groups import quotient
from frobmat.recovery import (
    EXHAUSTIVE_GROUP_ORDER,
    SAMPLES,
    _all_cycles,
    _is_circuit,
    _reduced_cycles,
    complete_cycle_count,
)

from conftest import FuncOracle, all_complete_cycles, complete_edge_id, reduced_complete_cycles
from test_acceptance import order_20_catalog


def test_edge_bundle_counts(d6):
    assert len(edge_bundle(d6, 4, [0])) == 6
    assert len(edge_bundle(d6, 4, range(6))) == 36
    assert len(edge_bundle(d6, 3, [3])) == 3
    ids = edge_bundle(d6, 3, [3])
    assert ids == tuple(sorted(complete_edge_id(d6, 3, i, j, 3) for i, j in ((0, 1), (0, 2), (1, 2))))


@pytest.mark.parametrize("alpha", [6, -1])
def test_edge_bundle_refuses_an_element_out_of_range(d6, alpha):
    with pytest.raises(ValueError, match=f"^element {alpha} out of range$"):
        edge_bundle(d6, 4, [0, alpha])


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
    qb = BiasedGraph(quotient_gains(k4, ctx.quotient))
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
    frame = FrameOracle(BiasedGraph(quotient_gains(k4, quotient(z2, kernel))))
    with pytest.raises(RecoveryError, match="cycle"):
        recover_partition(z2, kernel, 4, frame)


def test_rejects_rank_n_with_a_nontrivial_kernel():
    """The lift of Z4's trivial-kernel partition has rank n on K_4, which
    only a trivial kernel allows; declared with kernel {0, 2} it passes the
    cycle check and is refused by its rank."""
    z4 = make_cyclic(4)
    trivial = next(p for p in frobenius_partitions(z4) if p.kernel.order == 1)
    m = LiftedMatroid(FrobeniusContext(z4, trivial), complete_gain_graph(z4, 4))
    with pytest.raises(RecoveryError) as info:
        recover_partition(z4, Subgroup((0, 2)), 4, m)
    assert str(info.value) == "rank n with a nontrivial kernel contradicts the cycle hypothesis"


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
def test_exhaustive_sweep_witnesses(z2, index, bumped, witness):
    """K_4 over Z2 (12 edges) with one rank raised on each bumped set: the
    first of them by size is named by the final comparison with the
    reconstructed lift, which asks every subset."""
    part = frobenius_partitions(z2)[index]
    m = LiftedMatroid(FrobeniusContext(z2, part), complete_gain_graph(z2, 4))
    bad = {frozenset(s) for s in bumped}
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + (s in bad))
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
        # every digon and every balanced triangle through vertex 0 (order 20)
        ("F20", True, 3, 5, 0, 0, "cycle (0, 20, 60) is balanced but is not a circuit of the lift"),
        # the first in id order, where 0 -> 1 -> j -> 0 triangles are built first
        ("F20", True, 3, 23, 5, 0, "cycle (0, 40, 80) is balanced but is not a circuit of the lift"),
        ("F20", False, 2, 7, 0, 0, "cycle (0, 7) is unbalanced but is a circuit of the lift"),
        # nothing flipped: the quotient frame matroid by the kernel Z5, an
        # elementary lift of itself in which every digon inside a coset is a
        # circuit
        ("F20", None, None, None, None, 0,
         "cycle (0, 4) is unbalanced but is a circuit of the lift"),
    ],
)
def test_cycle_hypothesis_witnesses(name, balanced, length, mod, residue, seed, message):
    """The first failing cycle in sorted id order, for both routes and both
    failure kinds."""
    group = WITNESS_GROUPS[name]
    part = frobenius_partitions(group)[-1]
    g = complete_gain_graph(group, 4)
    if balanced is None:
        oracle = FrameOracle(
            BiasedGraph(quotient_gains(g, quotient(group, part.kernel)))
        )
    else:
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
        (D6, lambda s, r: r + (not s), "reconstructed matroid disagrees with the input on ()"),
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
    """The Frobenius lift over K_4 (36 or 120 edges, so the final comparison
    samples), with the answers ``patch`` changes: the empty set, which heads
    that comparison's sample, the whole ground, or bundles of the identity
    and two elements, which the bundle relation asks first."""
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
    assert all_complete_cycles(group, n) == expected
    assert complete_cycle_count(group.order, n) == len(expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("group", ROUTE_GROUPS, ids=["Z2", "Z5", "D6", "AGL(1,3)"])
def test_cycle_streams_come_in_sorted_order(group, n):
    """Both streams the cycle check reads against the cycles built one at a
    time from their gain words and sorted."""
    assert list(_all_cycles(group, n)) == all_complete_cycles(group, n)
    assert list(_reduced_cycles(group, n)) == sorted(reduced_complete_cycles(group, n))


LARGE_CATALOG = {
    name: group for name, group in order_20_catalog().items() if group.order > EXHAUSTIVE_GROUP_ORDER
} | {"AGL(1,7)": make_field_affine(7)}


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", sorted(LARGE_CATALOG))
def test_reduced_cycle_stream_comes_in_sorted_order(name, n):
    group = LARGE_CATALOG[name]
    assert list(_reduced_cycles(group, n)) == sorted(reduced_complete_cycles(group, n))


def test_the_cycle_stream_holds_no_cycle_list():
    """K_4 over D10 has 34,270 cycles, about 4.5 MB as a list; the stream
    holds one walk's prefix and the merge's heap."""
    group = make_dihedral(10)
    tracemalloc.start()
    try:
        count = sum(1 for _ in _all_cycles(group, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == complete_cycle_count(10, 4) == 34_270
    assert peak < 256 * 1024


def _holds_on(m, cycles):
    """Whether every listed cycle is a circuit of m exactly when balanced."""
    return all(balanced == _is_circuit(m, cycle) for cycle, balanced in cycles)


SMALL_CATALOG = {
    name: group for name, group in order_20_catalog().items() if group.order <= EXHAUSTIVE_GROUP_ORDER
}


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_reduced_cycles_give_the_verdict_of_every_cycle(name):
    """On K_4, for each partition, the digons and balanced triangles through
    vertex 0 against every cycle (the route below order 11): on the true
    lift, and on the quotient frame matroid by a nontrivial kernel, whose
    digons inside a coset are circuits."""
    group = SMALL_CATALOG[name]
    g = complete_gain_graph(group, 4)
    every = all_complete_cycles(group, 4)
    reduced = sorted(reduced_complete_cycles(group, 4))
    assert reduced == [
        (cycle, balanced)
        for cycle, balanced in every
        if len(cycle) == 2
        or (balanced and len(cycle) == 3 and any(g.edge(e).tail == 0 for e in cycle))
    ]
    for part in frobenius_partitions(group):
        oracles = [LiftedMatroid(FrobeniusContext(group, part, validate=False), g)]
        if part.kernel.order > 1:
            qg = quotient_gains(g, quotient(group, part.kernel))
            oracles.append(FrameOracle(BiasedGraph(qg)))
        for m in oracles:
            assert _holds_on(m, reduced) == _holds_on(m, every), (part, m)


THETA_PAIRS = {
    "Z3/0": (make_cyclic(3), (0,)),
    "Z4/Z2": (make_cyclic(4), (0, 2)),
    "Z2xZ2/Z2": (make_direct_product(make_cyclic(2), make_cyclic(2)), (0, 1)),
    "Z5/0": (make_cyclic(5), (0,)),
}


@functools.lru_cache(maxsize=None)
def _quotient_balanced_cycles(name):
    """For K_4 over the named (Γ, Γ₁): each cycle balanced over Γ/Γ₁ as an
    edge mask with its vertex mask, the Γ-balanced ones among them, and the
    reduced cycles as masks with their Γ-balance flags."""
    group, kernel = THETA_PAIRS[name]
    g = complete_gain_graph(group, 4)
    qg = quotient_gains(g, quotient(group, Subgroup(kernel)))
    ends = [(1 << e.tail) | (1 << e.head) for e in g.edges]
    verts, balanced = {}, set()
    for ids, flag in all_complete_cycles(group, 4):
        if is_balanced_cycle(qg, ids):
            mask = sum(1 << e for e in ids)
            verts[mask] = functools.reduce(operator.or_, (ends[e] for e in ids))
            if flag:
                balanced.add(mask)
    reduced = [(sum(1 << e for e in ids), flag) for ids, flag in reduced_complete_cycles(group, 4)]
    return verts, frozenset(balanced), reduced


def _theta_closure(seed, verts):
    """The least family holding ``seed`` with the third cycle of every theta
    whose other two it holds. Two cycles that share an edge form a theta
    exactly when their union has one edge more than its vertices, and the
    third cycle is then their symmetric difference."""
    family = set(seed)
    todo = list(family)
    while todo:
        a = todo.pop()
        for b in list(family):
            if a & b and (a | b).bit_count() == (verts[a] | verts[b]).bit_count() + 1:
                c = a ^ b
                if c not in family:
                    family.add(c)
                    todo.append(c)
    return family


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(THETA_PAIRS)), st.integers(0, 2**31 - 1))
def test_theta_closed_families_are_decided_by_the_reduced_cycles(name, seed):
    """A theta-closed family of quotient-balanced cycles on K_4 is exactly
    the Γ-balanced cycles iff it holds every balanced triangle through
    vertex 0 and no digon: the reduction the cycle hypothesis check rests on
    above order 10, with membership in place of rank queries. Z4/{0,2} and
    Z2×Z2/Z2 are not Frobenius kernel pairs."""
    verts, balanced, reduced = _quotient_balanced_cycles(name)
    rng = random.Random(seed)
    density = rng.uniform(0.0, 0.3)
    start = [c for c in sorted(balanced) if rng.random() < density]
    unbalanced = sorted(verts.keys() - balanced)
    if unbalanced and rng.random() < 0.5:
        start += rng.sample(unbalanced, rng.randint(1, 2))
    family = _theta_closure(start, verts)
    assert (family == balanced) == all((c in family) == flag for c, flag in reduced)


def _z7_frame_lift():
    """K_4 over Z7 (42 edges, so every sweep samples) and its lift under the
    partition with the trivial kernel."""
    z7 = make_cyclic(7)
    part = next(p for p in frobenius_partitions(z7) if p.kernel.order == 1)
    return z7, part, LiftedMatroid(FrobeniusContext(z7, part), complete_gain_graph(z7, 4))


def test_sampled_final_comparison_names_the_first_failing_half():
    """An oracle two above the lift on every set of 21 to 41 edges is no
    elementary lift of the quotient frame matroid, and the final comparison
    names the first such half: the cycles, the bundles and the whole ground
    (42 edges) are left alone. The halves are drawn over the ground listed
    bundle by bundle, one random() draw per edge, and the witness is printed
    sorted."""
    z7, part, m = _z7_frame_lift()
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + 2 * (21 <= len(s) < 42))
    bundled = [e for a in z7.elements() for e in edge_bundle(z7, 4, (a,))]
    ref = random.Random(0)
    half = ()
    while len(half) < 21:
        half = tuple(e for e in bundled if ref.random() < 0.5)
    with pytest.raises(RecoveryError) as info:
        recover_partition(z7, part.kernel, 4, oracle, seed=0)
    witness = tuple(sorted(half))
    assert witness[:4] == (1, 2, 3, 5) and witness[-1] == 41
    assert str(info.value) == f"reconstructed matroid disagrees with the input on {witness}"


def _elementary_reference(m, frame, bundled, rng):
    """The elementary pre-check recovery once ran before its cycle check, kept
    as the reference its final comparison must cover: m must be an
    elementary lift of ``frame``, checked on every subset when the ground has
    at most EXHAUSTIVE_LIMIT edges, else on random halves of the ground
    listed as ``bundled``."""
    if tuple(frame.ground) != tuple(m.ground):
        raise RecoveryError("ground sets of the lift and frame oracles differ")
    if len(bundled) <= EXHAUSTIVE_LIMIT:
        ok, witness = is_elementary_lift(m, frame)
        if not ok:
            raise RecoveryError(f"not an elementary lift of the frame matroid: {witness}")
        return
    if m.rank(()) != 0:
        raise RecoveryError("rank of the empty set is not zero")
    for subset in subset_sweep(bundled, SAMPLES, rng):
        d = m.rank(subset) - frame.rank(subset)
        if d not in (0, 1):
            raise RecoveryError(
                f"subset {tuple(sorted(subset))} has lift rank {d} above the frame rank"
            )


GUARD_GROUPS = {"D6": D6, "F20": F20, "Z7": make_cyclic(7)}


@functools.lru_cache(maxsize=None)
def _guard_case(name, index):
    """K_4 over the named group: a partition, its lift, the quotient frame
    matroid by its kernel, and the ground listed bundle by bundle."""
    group = GUARD_GROUPS[name]
    parts = frobenius_partitions(group)
    part = parts[index % len(parts)]
    g = complete_gain_graph(group, 4)
    m = LiftedMatroid(FrobeniusContext(group, part, validate=False), g)
    qg = quotient_gains(g, quotient(group, part.kernel))
    frame = FrameOracle(BiasedGraph(qg))
    bundled = tuple(e for a in group.elements() for e in edge_bundle(group, 4, (a,)))
    return group, part, m, frame, bundled


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(GUARD_GROUPS)),
    st.integers(0, 2),
    st.sampled_from([-2, -1, 2, 3]),
    st.sampled_from(["above", "size", "superset"]),
    st.integers(0, 120),
    st.lists(st.integers(0, 119), min_size=1, max_size=3),
    st.integers(0, 3),
)
def test_the_final_comparison_refuses_what_the_elementary_check_refused(
    name, index, shift, kind, size, edges, seed
):
    """A lift with its rank shifted on every set above a size, of one size,
    or holding a few edges: whenever the elementary check recovery once
    made refuses it, recovery still raises RecoveryError."""
    group, part, m, frame, bundled = _guard_case(name, index)
    size %= len(m.ground) + 1
    held = frozenset(e % len(m.ground) for e in edges)
    faulty = {
        "above": lambda s: len(s) >= size,
        "size": lambda s: len(s) == size,
        "superset": lambda s: held <= s,
    }[kind]
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + shift * faulty(s))
    try:
        _elementary_reference(oracle, frame, bundled, random.Random(seed))
        refused = False
    except RecoveryError:
        refused = True
    assume(refused)
    with pytest.raises(RecoveryError):
        recover_partition(group, part.kernel, 4, oracle, seed=seed)


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
    assert calls == 14935


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
    assert calls == 13332


def test_k5_over_order_ten_is_refused_by_its_cycle_count():
    assert complete_cycle_count(10, 5) == 1_360_450
    assert complete_cycle_count(9, 5) == 814_653
    group = make_dihedral(10)
    part = frobenius_partitions(group)[2]
    m = LiftedMatroid(FrobeniusContext(group, part, validate=False), complete_gain_graph(group, 5))
    with pytest.raises(LimitExceeded, match="more than 1000000 cycles"):
        recover_partition(group, part.kernel, 5, m)


def _zp_by_zd(p: int, d: int) -> FiniteGroup:
    """Z_p ⋊ Z_d, Z_d acting by the powers of a unit of order d mod p."""
    u = next(u for u in range(2, p) if len({pow(u, k, p) for k in range(d + 1)}) == d)
    action = [[x * pow(u, b, p) % p for x in range(p)] for b in range(d)]
    return make_semidirect(make_cyclic(p), make_cyclic(d), action)


# Frobenius groups of order 21 to 58, past the order-20 catalog
OUTSIDE_CATALOG = {
    **{f"Z{p}:Z{d}": (lambda p=p, d=d: _zp_by_zd(p, d))
       for p, d in ((7, 3), (11, 2), (11, 5), (13, 2), (13, 3), (13, 4), (17, 2),
                    (19, 2), (19, 3), (23, 2), (29, 2))},
    "AGL(1,7)": lambda: make_field_affine(7),
}


@functools.lru_cache(maxsize=None)
def _outside_catalog_group(name: str) -> FiniteGroup:
    return OUTSIDE_CATALOG[name]()


@settings(max_examples=7, deadline=None)
@given(
    st.sampled_from(sorted(OUTSIDE_CATALOG)), st.sampled_from([4, 5]), st.randoms(use_true_random=False)
)
def test_every_partition_round_trips_past_the_catalog(name, n, rng):
    """K_4 or K_5 over a Frobenius group outside the order-20 catalog, its
    elements renamed at random through a table spec: every partition comes
    back. On K_5 the three partitions of a group take 0.3 s (Z7:Z3) to
    1.5 s (Z29:Z2) in all, so about half of the seven draws are K_5 and the
    test takes 3-6 s."""
    group = _outside_catalog_group(name)
    image = [0] + rng.sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in group.elements()]
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            table[image[a]][image[b]] = image[ab]
    renamed = group_from_spec({"kind": "table", "table": table})
    kn = complete_gain_graph(renamed, n)
    parts = frobenius_partitions(renamed)
    assert len(parts) == 3
    for part in parts:
        m = LiftedMatroid(FrobeniusContext(renamed, part, validate=False), kn)
        assert recover_partition(renamed, part.kernel, n, m) == part


def test_round_trip_sampled_path_uses_seed(d6, d6_partitions, d6_frobenius):
    k4 = complete_gain_graph(d6, 4)
    m = LiftedMatroid(d6_frobenius, k4)
    a = recover_partition(d6, d6_partitions[2].kernel, 4, m, seed=1)
    b = recover_partition(d6, d6_partitions[2].kernel, 4, m, seed=2)
    assert a == b == d6_partitions[2]


def induced_edge_permutation(
    group: FiniteGroup, n: int, eta: Sequence[int]
) -> dict[int, int]:
    """Edge map of switching on the complete gain graph: the (i, j) edge with
    gain alpha goes to the edge with gain eta_i^-1 ∘ alpha ∘ eta_j."""
    if len(eta) != n:
        raise ValueError("switching function length must be n")
    perm = {}
    for i in range(n):
        for j in range(i + 1, n):
            for alpha in group.elements():
                new = group.mul(group.mul(group.inv(eta[i]), alpha), eta[j])
                perm[complete_edge_id(group, n, i, j, alpha)] = complete_edge_id(
                    group, n, i, j, new
                )
    return perm


def switching_action_check(
    group: FiniteGroup,
    kernel: Subgroup,
    n: int,
    linear_class: Iterable[Iterable[int]],
    samples: int = 20,
    seed: int = 0,
) -> bool:
    """Single-vertex switchings must map the class onto itself.

    Requires n >= 3 and that every balanced cycle is in the class (spot-checked
    on triangles).
    """
    if n < 3:
        raise ValueError("the switching action needs n >= 3")
    g = complete_gain_graph(group, n)
    members = {frozenset(c) for c in linear_class}
    rng = random.Random(seed)
    for _ in range(samples):
        alpha, beta = rng.randrange(group.order), rng.randrange(group.order)
        tri = sorted(
            (
                complete_edge_id(group, n, 0, 1, alpha),
                complete_edge_id(group, n, 1, 2, beta),
                complete_edge_id(group, n, 0, 2, group.mul(alpha, beta)),
            )
        )
        if frozenset(tri) not in members:
            raise ValueError(
                f"hypothesis violated: balanced triangle {tuple(tri)} is missing"
            )
    for _ in range(samples):
        v = rng.randrange(n)
        gamma = rng.randrange(group.order)
        eta = [0] * n
        eta[v] = gamma
        perm = induced_edge_permutation(group, n, eta)
        image = {frozenset(perm[e] for e in c) for c in members}
        if image != members:
            return False
    return True


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
