import collections
import functools
import itertools
import math
import operator
import random
import sys
import tracemalloc
import types
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
    from_table,
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
from frobmat.biased import (
    EXHAUSTIVE_LIMIT,
    SAMPLES,
    RankOracle,
    _listing_disagreement,
    first_disagreement,
    rank_table,
    subset_sweep,
)
from frobmat import groups
from frobmat.fileio import group_from_spec
from frobmat.gaingraph import MAX_COMPLETE_EDGES, complete_pair_offsets, cycle_walk, gain_of_walk
from frobmat.groups import generated_subgroup, is_malnormal, is_subgroup, quotient
from frobmat.recovery import (
    EXHAUSTIVE_GROUP_ORDER,
    _check_cycle_hypothesis,
    _Counted,
    _final_sets,
    _reduced_cycles,
    complete_cycle_count,
)

from conftest import (
    CountingWalk,
    FuncOracle,
    added_to_class,
    all_complete_cycles,
    asked_cycle_count,
    candidate_cycles,
    complete_cycle,
    complete_cycle_groups,
    complete_edge_id,
    corpus_lift,
    dropped_from_class,
    final_sample_corpus,
    greedy_generators,
    kernel_classes,
    n_circuit_partners,
    non_lift_certificate,
    reduced_complete_cycles,
    reference_halves,
)
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


def test_edge_bundle_refuses_a_k_n_above_the_edge_cap_before_any_id():
    """K_500 over the trivial group has 124,750 edges, above the cap that
    complete_gain_graph keeps: its bundle is refused with the same message,
    before the 500 x 500 offset table or any id exists. The cap is at most,
    so one pair over an order of exactly the cap is laid out."""
    tracemalloc.start()
    try:
        with pytest.raises(
            ValueError, match="^K_500 over a group of order 1 has 124750 edges, above the cap 100000$"
        ):
            edge_bundle(make_cyclic(1), 500, (0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ValueError, match="above the cap"):
        complete_gain_graph(make_cyclic(1), 500)
    assert complete_pair_offsets(MAX_COMPLETE_EDGES, 2) == ((0, 0), (0, 0))
    with pytest.raises(ValueError, match=f"has {MAX_COMPLETE_EDGES + 1} edges, above the cap"):
        complete_pair_offsets(MAX_COMPLETE_EDGES + 1, 2)


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
        # the least flipped balanced triangle, (0, 9, 21), is T(1, 2, 0, 3) of
        # an identity row
        ("D6", True, 3, 5, 0, 0, "cycle (0, 9, 21) is balanced but is not a circuit of the lift"),
        # the least flipped 4-cycle, (0, 9, 29, 35), has its gain outside the
        # kernel Z3; the least among N's circuits is named, and no 4-cycle is
        # asked
        ("D6", False, 4, 17, 5, 5,
         "cycle (1, 8, 29, 35) is unbalanced but is a circuit of the lift"),
        # one digon for the kernel Z5, whose other elements are one class,
        # and the candidate's balanced triangles through vertex 0 (order 20)
        ("F20", True, 3, 5, 0, 0, "cycle (0, 20, 60) is balanced but is not a circuit of the lift"),
        # the first in id order, where 0 -> 1 -> j -> 0 triangles are built first
        ("F20", True, 3, 23, 5, 0, "cycle (0, 40, 80) is balanced but is not a circuit of the lift"),
        # the digon (0, 7), gains 0 and 7 in two cosets, is not asked; nor is
        # (1, 13), inside a coset but not the listed digon (0, 4) of Z5's
        # class, which the oracle leaves alone: recovery returns the
        # partition, and a theta with a balanced triangle certifies that the
        # oracle, which flips digons alone, is no elementary lift of N
        ("F20", False, 2, 7, 0, 0, "cycle (1, 13) is unbalanced but is a circuit of the lift"),
        # nothing flipped: the quotient frame matroid by the kernel Z5, an
        # elementary lift of itself in which every digon inside a coset is a
        # circuit, the listed (0, 4) among them
        ("F20", None, None, None, None, 0,
         "cycle (0, 4) is unbalanced but is a circuit of the lift"),
    ],
)
def test_cycle_hypothesis_witnesses(name, balanced, length, mod, residue, seed, message):
    """The first failing cycle in sorted id order among those asked, for
    both failure kinds. The message names the least failing N-circuit; where
    the cycle check does not list it, as D6's 4-cycle, recovery returns the
    partition, and that cycle with its short partners of
    ``n_circuit_partners`` holds a theta certificate that the oracle is no
    elementary lift of N."""
    group = WITNESS_GROUPS[name]
    part = frobenius_partitions(group)[-1]
    g = complete_gain_graph(group, 4)
    m = LiftedMatroid(FrobeniusContext(group, part, validate=False), g)
    if balanced is None:
        oracle = FrameOracle(m.quotient_biased)
    else:
        oracle = _flip_cycles(g, m, balanced, length, mod, residue)
    cycle = tuple(map(int, message.split("(")[1].split(")")[0].split(", ")))
    if cycle not in [c for c, _ in _reduced_cycles(group, part.kernel, 4)]:
        assert recover_partition(group, part.kernel, 4, oracle, seed=seed) == part
        family = n_circuit_partners(group, part.kernel, 4, [cycle])
        assert non_lift_certificate(oracle, m.underlying_rank, family)[0] == "theta"
        return
    with pytest.raises(RecoveryError) as info:
        recover_partition(group, part.kernel, 4, oracle, seed=seed)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "name, cycle",
    [
        ("D6", (0, 9, 21)),
        ("F20", (0, 20, 60)),
        # on F20, S = {1, 4}: T(1, 2, 2, 0) of the column, T(1, 3, 4, 5) of a
        # generator row and T(2, 3, 0, 7) of an identity row
        ("F20", (2, 20, 61)),
        ("F20", (4, 45, 81)),
        ("F20", (20, 47, 107)),
        # T(2, 3, 1, 0), outside the candidate: (0, 2, 1), (0, 3, 0), (2, 3, 1⁻¹ = 2)
        pytest.param("F20", (21, 40, 102), marks=pytest.mark.xfail(
            strict=True,
            raises=pytest.fail.Exception,
            reason="ROADMAP item 13: the cycle check asks only the candidate's "
            "balanced triangles, and no final-comparison set is this one",
        )),
    ],
    ids=["D6", "F20", "F20-column", "F20-generator-row", "F20-identity-row", "F20-off-candidate"],
)
def test_a_balanced_cycle_below_circuit_rank_is_refused(name, cycle):
    """The lift with the rank of one balanced triangle alone lowered to
    |C| - 2, which no elementary lift of N gives a cycle: its rank is one
    below N's, the certificate of ``non_lift_certificate``. The one query
    asks r(C) = |C| - 1, not r(C) <= |C| - 1, so the cycle check names the
    triangle; nothing later in recovery asks that set. That holds for the
    candidate's triangles, T(1, 2, 0, 3) on D6, and T(1, 2, 0, 0) and one of
    each of its parts on F20, and not for one outside it, such as
    T(2, 3, 1, 0)."""
    group = WITNESS_GROUPS[name]
    part = frobenius_partitions(group)[-1]
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) - (s == frozenset(cycle)))
    assert non_lift_certificate(oracle, m.underlying_rank, [cycle]) == ("rank", cycle)
    with pytest.raises(RecoveryError) as info:
        recover_partition(group, part.kernel, 4, oracle)
    assert str(info.value) == f"cycle {cycle} is balanced but is not a circuit of the lift"


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "name, kernel_order, pair",
    [
        pytest.param("D6", 3, (0, 9), id="D6", marks=pytest.mark.xfail(
            strict=True,
            raises=pytest.fail.Exception,
            reason="ROADMAP item 7: the final sample does not reach a dependent pair inside a cycle",
        )),
        pytest.param("F20", 5, (0, 20), id="F20"),
    ],
)
def test_a_dependent_pair_inside_a_cycle_is_refused(name, kernel_order, pair, seed):
    """The lift with the rank of one 2-edge set alone lowered by one is no
    matroid, so no elementary lift of N. Each cycle through the pair still
    has rank |C| - 1, so the one query per cycle passes it, and the final
    comparison must refuse it. On F20 the pair, the identity edges on
    (0, 1) and (0, 2), is the final comparison's prefix of two edges; on D6,
    (0, 1) with gain 0 and (0, 2) with gain 3, no set of it is the pair. The
    pair, a forest, is one below N's rank: the certificate."""
    group = WITNESS_GROUPS[name]
    part = next(p for p in frobenius_partitions(group) if p.kernel.order == kernel_order)
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) - (s == frozenset(pair)))
    assert oracle.rank(pair) == 1
    assert non_lift_certificate(oracle, m.underlying_rank, [pair]) == ("rank", pair)
    with pytest.raises(RecoveryError):
        recover_partition(group, part.kernel, 4, oracle, seed=seed)


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
            "recovered partition: complement (0, 3, 4) is not a subgroup",
        ),
        (D6, _bundles_at_rank(D6, [(3, 4)], 4),
         "recovered partition: complement (0, 3, 4) is not a subgroup"),
        # 11 is the involution of the complement {0, 11, 14, 17}, a Z4
        (F20, _bundles_at_rank(F20, [(11, 14), (11, 17)], 5),
         "recovered partition: complement (0, 11) is not malnormal"),
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


RELATION_GROUPS = {
    "D6": D6, "D10": make_dihedral(10), "AGL(1,3)": make_field_affine(3), "F20": F20,
}


@functools.lru_cache(maxsize=None)
def _relation_case(name):
    """The Frobenius partition of the named group, its lift over K_4 and the
    pairs of elements outside its kernel."""
    group = RELATION_GROUPS[name]
    part = frobenius_partitions(group)[-1]
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
    outside = [x for x in group.elements() if x not in part.kernel]
    return group, part, m, list(itertools.combinations(outside, 2))


def _flipped_relation(name, pairs):
    """The lift of ``_relation_case`` with the rank of the bundle {0, a, b} of
    each pair flipped between n and n + 1, n = 4."""
    group, _, m, _ = _relation_case(name)
    flipped = {frozenset(edge_bundle(group, 4, (0, a, b))) for a, b in pairs}
    return FuncOracle(m.ground, lambda s: 9 - m.rank(s) if s in flipped else m.rank(s))


def _refused_in_the_bundles_phase(name, oracle):
    """Whether recovery refuses ``oracle`` before its final comparison starts;
    it may accept it, or refuse it there."""
    group, part, _, _ = _relation_case(name)
    stats = {}
    try:
        recover_partition(group, part.kernel, 4, oracle, stats=stats)
    except RecoveryError:
        return "final" not in stats["rank_queries"]
    return False


def test_every_flipped_bundle_relation_is_refused_in_the_bundles_phase():
    """The relation fault corpus: on K_4 over D6, D10, AGL(1,3) and F20 under
    the Frobenius partition, the lift with the bundle of the identity and one
    pair of elements outside the kernel flipped, for every pair: 3, 10, 3
    and 105 faults. A flipped pair joins two classes or splits one, and
    recovery refuses each before its final comparison."""
    faults = [(name, pair) for name in RELATION_GROUPS for pair in _relation_case(name)[3]]
    assert len(faults) == 121
    accepted = [
        (name, pair)
        for name, pair in faults
        if not _refused_in_the_bundles_phase(name, _flipped_relation(name, [pair]))
    ]
    assert accepted == []


def _reference_classes(group, kernel, n, m):
    """The class checks recovery made of its bundle relation before it handed
    the classes to ``validate_partition``, kept as the reference: the
    relation must be an equivalence, then each class with the identity a
    subgroup, then each such subgroup malnormal."""
    outside = [x for x in group.elements() if x not in kernel]
    related = {a: {a} for a in outside}
    for alpha, beta in itertools.combinations(outside, 2):
        if m.rank(edge_bundle(group, n, (0, alpha, beta))) == n:
            related[alpha].add(beta)
            related[beta].add(alpha)
    classes = []
    for alpha in outside:
        if related[alpha] not in classes:
            classes.append(related[alpha])
    for cls in classes:
        for beta in cls:
            if related[beta] != cls:
                raise RecoveryError(
                    "bundle relation is not an equivalence relation "
                    f"(witness classes of {min(cls)} and {beta})"
                )
    for cls in classes:
        elems = tuple(sorted(cls | {0}))
        if not is_subgroup(group, elems):
            raise RecoveryError(f"recovered class {elems} is not a subgroup")
        if not is_malnormal(group, Subgroup(elems)):
            raise RecoveryError(f"recovered subgroup {elems} is not malnormal")


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("name", ["D10", "F20"])
def test_recovery_refuses_a_flipped_relation_when_the_reference_does(name, seed):
    """Up to five pairs' bundles flipped at once, drawn with the seed:
    recovery refuses before its final comparison exactly when the reference
    class checks refuse."""
    group, part, _, pairs = _relation_case(name)
    rng = random.Random(f"{name}/{seed}")
    oracle = _flipped_relation(name, rng.sample(pairs, rng.randint(0, 5)))
    try:
        _reference_classes(group, part.kernel, 4, oracle)
        reference_refused = False
    except RecoveryError:
        reference_refused = True
    assert _refused_in_the_bundles_phase(name, oracle) == reference_refused


ROUTE_GROUPS = [make_cyclic(2), make_cyclic(5), make_dihedral(6), make_field_affine(3)]


def _whole(group):
    """Γ as a kernel: every cycle's gain lies in it, so every cycle is an
    N-circuit and the cycle stream lists a digon for every class of Γ."""
    return Subgroup(tuple(group.elements()))


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
    """The one stream the cycle check reads, with the kernel Γ, against the
    cycles built one at a time from their gain words: it is sorted, and it
    is the candidate read off every cycle, in order."""
    stream = list(_reduced_cycles(group, _whole(group), n))
    assert stream == sorted(stream) == candidate_cycles(group, n, all_complete_cycles(group, n))


LARGE_CATALOG = {
    name: group for name, group in order_20_catalog().items() if group.order > EXHAUSTIVE_GROUP_ORDER
} | {"AGL(1,7)": make_field_affine(7)}


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("name", sorted(LARGE_CATALOG))
def test_reduced_cycle_stream_comes_in_sorted_order(name, n):
    """Over a group above order 10, whose cycles are too many to list, the
    stream is sorted, and is the candidate read off every digon and
    balanced triangle through vertex 0, in order."""
    group = LARGE_CATALOG[name]
    stream = list(_reduced_cycles(group, _whole(group), n))
    assert stream == sorted(stream)
    assert stream == candidate_cycles(group, n, sorted(reduced_complete_cycles(group, n)))


def _relabeled(group, rng):
    """``group`` with its elements but the identity renamed by a random
    permutation, as a validated Cayley table, and the permutation."""
    perm = [0] + rng.sample(range(1, group.order), group.order - 1)
    back = {p: x for x, p in enumerate(perm)}
    table = group.table
    relabeled = from_table(
        [[perm[table[back[a]][back[b]]] for b in group.elements()] for a in group.elements()]
    )
    return relabeled, perm


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(LARGE_CATALOG))
def test_the_greedy_generators_generate_the_group_under_relabeling(name, seed):
    """Under a random relabeling of the group, ``group.generators``, the S
    the reduced stream reads, is the test side's greedy S, which generates
    Γ with at most log2 |Γ| elements, and the stream on K_4 is the candidate
    read off that S."""
    group, _ = _relabeled(LARGE_CATALOG[name], random.Random(seed))
    gens = group.generators
    assert gens == greedy_generators(group)
    assert generated_subgroup(group, gens).order == group.order and 2 ** len(gens) <= group.order
    stream = list(_reduced_cycles(group, _whole(group), 4))
    assert stream == candidate_cycles(group, 4, sorted(reduced_complete_cycles(group, 4)))


@pytest.mark.parametrize("name", sorted(LARGE_CATALOG))
def test_the_kernel_classes_map_onto_each_other_under_relabeling(name):
    """Under three random relabelings of the group, the classes of Γ less
    the identity under conjugation and inversion, read off every element by
    ``kernel_classes``, are the relabeled classes, and the stream with the
    kernel Γ lists one digon per class, gains 0 and its least id on
    (0, 1): the chosen classes do not hang on the ids, only their
    representatives do."""
    group = LARGE_CATALOG[name]
    classes = kernel_classes(group, group.elements())
    for seed in range(3):
        relabeled, perm = _relabeled(group, random.Random(seed))
        mapped = sorted(tuple(sorted(perm[x] for x in c)) for c in classes)
        assert kernel_classes(relabeled, relabeled.elements()) == mapped
        digons = [c for c, _ in _reduced_cycles(relabeled, _whole(relabeled), 4) if len(c) == 2]
        edge = functools.partial(complete_edge_id, relabeled, 4, 0, 1)
        assert digons == [(edge(0), edge(c[0])) for c in mapped]


def _n_circuits(group, kernel, n, cycles):
    """The listed cycles that are circuits of N, the quotient frame matroid
    of K_n over Γ/kernel, in their order: r_N(C) = |C| - 1, since every
    proper subset of a cycle is a forest."""
    g = complete_gain_graph(group, n)
    frame = FrameOracle(BiasedGraph(quotient_gains(g, quotient(group, kernel))))
    return [(c, flag) for c, flag in cycles if frame.rank(c) == len(c) - 1]


N_CIRCUIT_HOSTS = {
    "D6": (make_dihedral(6), (4,)),
    "Z7": (make_cyclic(7), (4,)),
    "D8": (make_dihedral(8), (4,)),
    "D10": (make_dihedral(10), (4,)),
    "Q8": (order_20_catalog()["Q8"], (4,)),
    "A4": (order_20_catalog()["A4"], (4, 5)),
    "AGL(1,5)": (make_field_affine(5), (4, 5)),
    "D14": (make_dihedral(14), (4, 5)),
}


@pytest.mark.parametrize("name", sorted(N_CIRCUIT_HOSTS))
def test_the_cycle_streams_list_exactly_the_n_circuits(name):
    """Under every partition, the stream the cycle check reads is its
    stream with the kernel Γ filtered by a FrameOracle of N, in the same
    order, and so sorted, on K_4 and on K_5. With the kernel Γ it is the
    candidate read off the reference's digons and balanced triangles through
    vertex 0."""
    group, ns = N_CIRCUIT_HOSTS[name]
    for n in ns:
        every = list(_reduced_cycles(group, _whole(group), n))
        assert every == candidate_cycles(group, n, sorted(reduced_complete_cycles(group, n)))
        for part in frobenius_partitions(group):
            stream = list(_reduced_cycles(group, part.kernel, n))
            assert stream == _n_circuits(group, part.kernel, n, every), part


def test_the_cycle_stream_holds_no_cycle_list():
    """K_6 over AGL(1,7), order 42, with the kernel Γ: the stream lists
    966 cycles, about 140 KB as a list, and read holds one at a time."""
    group = make_field_affine(7)
    tracemalloc.start()
    try:
        count = sum(1 for _ in _reduced_cycles(group, _whole(group), 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == asked_cycle_count(group, group.elements(), 6) == 966
    assert peak < 64 * 1024


def _is_circuit(m, ids):
    """The definition, in |C| + 1 queries: the ids form a circuit of m when
    they have rank |C| - 1 and so has each set of all but one of them. The
    reference for the one query the cycle check asks."""
    r = len(ids) - 1
    return m.rank(ids) == r and all(m.rank([x for x in ids if x != e]) == r for e in ids)


def _holds_on(m, cycles):
    """Whether every listed cycle is a circuit of m exactly when balanced."""
    return all(balanced == _is_circuit(m, cycle) for cycle, balanced in cycles)


SMALL_CATALOG = {
    name: group for name, group in order_20_catalog().items() if group.order <= EXHAUSTIVE_GROUP_ORDER
}


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_reduced_cycles_give_the_verdict_of_every_cycle(name):
    """On K_4, for each partition, the digons and every balanced triangle
    through vertex 0 against every cycle: on the true lift, and on the
    quotient frame matroid by a nontrivial kernel, whose digons inside a
    coset are circuits."""
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


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_the_candidate_gives_the_verdict_of_every_cycle(name):
    """On K_4, for each partition, the candidate's balanced triangles and
    the chosen digons of the kernel's classes, the set the cycle check asks,
    against every cycle: on the true lift, and on the quotient frame
    matroid by a nontrivial kernel."""
    group = SMALL_CATALOG[name]
    g = complete_gain_graph(group, 4)
    every = all_complete_cycles(group, 4)
    candidate = candidate_cycles(group, 4, every)
    for part in frobenius_partitions(group):
        asked = _n_circuits(group, part.kernel, 4, candidate)
        oracles = [LiftedMatroid(FrobeniusContext(group, part, validate=False), g)]
        if part.kernel.order > 1:
            qg = quotient_gains(g, quotient(group, part.kernel))
            oracles.append(FrameOracle(BiasedGraph(qg)))
        for m in oracles:
            assert _holds_on(m, asked) == _holds_on(m, every), (part, m)


@pytest.mark.parametrize("name", sorted(SMALL_CATALOG))
def test_one_query_gives_the_circuit_verdict_of_every_cycle(name):
    """On K_4, under each partition, r(C) = |C| - 1 names the same cycles as
    circuits as the definition does, for the lift and for the quotient frame
    matroid: in both each proper subset of a cycle, a forest, is
    independent."""
    group = SMALL_CATALOG[name]
    g = complete_gain_graph(group, 4)
    cycles = [cycle for cycle, _ in all_complete_cycles(group, 4)]
    for part in frobenius_partitions(group):
        qg = quotient_gains(g, quotient(group, part.kernel))
        for m in (
            LiftedMatroid(FrobeniusContext(group, part, validate=False), g),
            FrameOracle(BiasedGraph(qg)),
        ):
            one_query = [c for c in cycles if m.rank(c) == len(c) - 1]
            assert one_query == [c for c in cycles if _is_circuit(m, c)], (part, m)


THETA_PAIRS = {
    "Z3/0": (make_cyclic(3), (0,)),
    "Z4/Z2": (make_cyclic(4), (0, 2)),
    "Z2xZ2/Z2": (make_direct_product(make_cyclic(2), make_cyclic(2)), (0, 1)),
    "Z5/0": (make_cyclic(5), (0,)),
}


def _masks(cycles):
    """The listed cycles as edge masks, with their flags."""
    return [(sum(1 << e for e in ids), flag) for ids, flag in cycles]


@functools.lru_cache(maxsize=None)
def _quotient_balanced_cycles(group, kernel, n):
    """For K_n over Γ and the kernel Γ₁, given by its elements: each cycle
    balanced over Γ/Γ₁ as an edge mask with its vertex mask, and the
    Γ-balanced ones among them."""
    g = complete_gain_graph(group, n)
    qg = quotient_gains(g, quotient(group, Subgroup(kernel)))
    ends = [(1 << e.tail) | (1 << e.head) for e in g.edges]
    verts, balanced = {}, set()
    for ids, flag in all_complete_cycles(group, n):
        if is_balanced_cycle(qg, ids):
            mask = sum(1 << e for e in ids)
            verts[mask] = functools.reduce(operator.or_, (ends[e] for e in ids))
            if flag:
                balanced.add(mask)
    return verts, frozenset(balanced)


@functools.lru_cache(maxsize=None)
def _deciding_cycles(name, route):
    """The named pair's cycles of K_4 that decide the cycle hypothesis with
    the kernel Γ, as masks with their Γ-balance flags: every digon and
    every balanced triangle through vertex 0 (``reduced``), or the
    candidate's, one digon per class of Γ and the triangles, which the cycle
    check asks (``candidate``). The digons outside a coset of the kernel are
    no quotient-balanced cycle, so no family holds them."""
    group, _ = THETA_PAIRS[name]
    reduced = sorted(reduced_complete_cycles(group, 4))
    return _masks(reduced if route == "reduced" else candidate_cycles(group, 4, reduced))


def _theta_closure(seed, verts, closed=frozenset(), until=frozenset()):
    """The least family holding ``seed`` and ``closed``, a theta-closed
    family, with the third cycle of every theta whose other two it holds;
    or, with ``until``, that family grown until it holds one of ``until``.
    Two cycles that share an edge form a theta exactly when their union has
    one edge more than its vertices, and the third cycle is then their
    symmetric difference."""
    family = set(closed) | set(seed)
    todo = list(family - closed)
    while todo and not until & family:
        a = todo.pop()
        for b in list(family):
            if a & b and (a | b).bit_count() == (verts[a] | verts[b]).bit_count() + 1:
                c = a ^ b
                if c not in family:
                    family.add(c)
                    todo.append(c)
    return family


@pytest.mark.parametrize("route", ["reduced", "candidate"])
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(THETA_PAIRS)), st.integers(0, 2**31 - 1))
def test_theta_closed_families_are_decided_by_the_reduced_cycles(route, name, seed):
    """A theta-closed family of quotient-balanced cycles on K_4 is exactly
    the Γ-balanced cycles iff it holds every balanced triangle the route
    lists and no digon: every one through vertex 0, or the candidate's. That
    is the reduction the cycle hypothesis check rests on at every order,
    with membership in place of rank queries. Z4/{0,2} and Z2×Z2/Z2 are not
    Frobenius kernel pairs."""
    group, kernel = THETA_PAIRS[name]
    verts, balanced = _quotient_balanced_cycles(group, kernel, 4)
    rng = random.Random(seed)
    density = rng.uniform(0.0, 0.3)
    start = [c for c in sorted(balanced) if rng.random() < density]
    unbalanced = sorted(verts.keys() - balanced)
    if unbalanced and rng.random() < 0.5:
        start += rng.sample(unbalanced, rng.randint(1, 2))
    family = _theta_closure(start, verts)
    decided = _deciding_cycles(name, route)
    assert (family == balanced) == all((c in family) == flag for c, flag in decided)


Z2XZ2 = THETA_PAIRS["Z2xZ2/Z2"][0]

# K_n, the group, the kernel's elements and how many of its Γ-unbalanced
# N-circuits to draw, or None for every one
CLASS_HOSTS = {
    "K4-Z3/Z3": (4, make_cyclic(3), (0, 1, 2), None),
    "K4-Z4/Z4": (4, make_cyclic(4), (0, 1, 2, 3), None),
    "K4-Z2xZ2/Z2": (4, Z2XZ2, (0, 1), None),
    "K4-Z2xZ2/Z2xZ2": (4, Z2XZ2, (0, 1, 2, 3), None),
    "K4-D6/Z3": (4, D6, (0, 1, 2), 100),
    "K4-D6/D6": (4, D6, tuple(range(6)), 100),
    "K4-Z5/Z5": (4, make_cyclic(5), tuple(range(5)), 100),
    "K4-Z7/Z7": (4, make_cyclic(7), tuple(range(7)), 100),
    "K5-Z3/Z3": (5, make_cyclic(3), (0, 1, 2), 100),
}


@pytest.mark.parametrize("name", sorted(CLASS_HOSTS))
def test_every_unbalanced_n_circuit_brings_in_a_listed_digon(name):
    """The digons of ``_check_cycle_hypothesis``'s sketch: a Γ-unbalanced
    N-circuit U added to the balanced cycles, a theta-closed family, brings
    into the theta closure the digon the stream lists for the class of U's
    gain under conjugation and inversion. So were U one of m's circuits,
    m's class being linear, that listed digon would be one too, and the
    cycle check refuses m; no other digon need be asked."""
    n, group, kernel, samples = CLASS_HOSTS[name]
    g = complete_gain_graph(group, n)
    verts, balanced = _quotient_balanced_cycles(group, kernel, n)
    classes = kernel_classes(group, kernel)
    listed = {}
    for cycle, _ in _reduced_cycles(group, Subgroup(kernel), n):
        if len(cycle) == 2:
            k = g.edge(cycle[1]).gain
            listed[next(c for c in classes if k in c)] = sum(1 << e for e in cycle)
    assert len(listed) == len(classes)
    unbalanced = sorted(verts.keys() - balanced)
    if samples is not None:
        unbalanced = random.Random(name).sample(unbalanced, samples)
    for u in unbalanced:
        ids = [e for e in range(len(g.edges)) if u >> e & 1]
        gain = gain_of_walk(g, cycle_walk(g, ids))
        digon = listed[next(c for c in classes if gain in c)]
        assert digon in _theta_closure([u], verts, balanced, {digon}), ids


FACT_B_PAIRS = THETA_PAIRS | {
    "Z3/Z3": (make_cyclic(3), (0, 1, 2)),
    "Z2xZ2/Z2xZ2": (Z2XZ2, (0, 1, 2, 3)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FACT_B_PAIRS)), st.integers(0, 2**31 - 1))
def test_theta_closed_families_are_decided_by_the_listed_cycles(name, seed):
    """Fact B over the set the cycle check asks: a theta-closed family of
    quotient-balanced cycles on K_4, drawn at densities up to 1.0, is
    exactly the Γ-balanced cycles iff it holds every balanced triangle
    ``_reduced_cycles`` lists for the kernel and none of its digons, one
    per class of the kernel less the identity."""
    group, kernel = FACT_B_PAIRS[name]
    verts, balanced = _quotient_balanced_cycles(group, kernel, 4)
    rng = random.Random(seed)
    density = rng.uniform(0.0, 1.0)
    start = [c for c in sorted(balanced) if rng.random() < density]
    unbalanced = sorted(verts.keys() - balanced)
    if unbalanced and rng.random() < 0.5:
        start += rng.sample(unbalanced, rng.randint(1, 2))
    family = _theta_closure(start, verts)
    decided = _masks(_reduced_cycles(group, Subgroup(kernel), 4))
    assert (family == balanced) == all((c in family) == flag for c, flag in decided)


CANDIDATE_HOSTS = {
    "K4-Z5": (make_cyclic(5), 4),
    "K4-Z7": (make_cyclic(7), 4),
    "K4-D6": (D6, 4),
    "K4-D8": (make_dihedral(8), 4),
    "K4-Z2xZ2": (THETA_PAIRS["Z2xZ2/Z2"][0], 4),
    "K4-AGL(1,3)": (make_field_affine(3), 4),
    "K5-Z2": (make_cyclic(2), 5),
    "K5-Z3": (make_cyclic(3), 5),
}


def _candidate_closure(group, n, column=True):
    """The theta closure of the candidate's balanced triangles on K_n, and
    every balanced cycle of K_n, as masks."""
    verts, balanced = _quotient_balanced_cycles(group, (0,), n)
    every = all_complete_cycles(group, n)
    seed = [c for c, flag in _masks(candidate_cycles(group, n, every, column)) if flag]
    return _theta_closure(seed, verts), balanced


@pytest.mark.parametrize("name", sorted(CANDIDATE_HOSTS))
def test_the_candidate_closes_to_the_balanced_cycles(name):
    """The theta closure of the candidate's triangles, with the trivial
    kernel, is every balanced cycle: the identity rows, the generator rows
    of the greedy S and the column decide every balanced cycle of the lift
    of any partition, since each is in the closure of what is asked."""
    closure, balanced = _candidate_closure(*CANDIDATE_HOSTS[name])
    assert closure == balanced


def test_the_candidate_without_its_column_does_not_close():
    """Without the column T(1, 2, a, 0) the identity and generator rows of
    K_4 over Z5, S = {1}, close to 295 of its 475 balanced cycles: no
    bundle on {0, 1, 2, k} then reaches T(1, k, a, y) for a outside {0, 1}."""
    closure, balanced = _candidate_closure(make_cyclic(5), 4, column=False)
    assert (len(closure), len(balanced)) == (295, 475)


def _z7_frame_lift():
    """K_4 over Z7 (42 edges, so every sweep samples) and its lift under the
    partition with the trivial kernel."""
    z7 = make_cyclic(7)
    part = next(p for p in frobenius_partitions(z7) if p.kernel.order == 1)
    return z7, part, LiftedMatroid(FrobeniusContext(z7, part), complete_gain_graph(z7, 4))


def test_sampled_final_comparison_names_the_first_failing_prefix():
    """An oracle two above the lift on every set of 21 to 41 edges is no
    elementary lift of the quotient frame matroid, and the final comparison
    names the prefix of 21 edges of the ground listed bundle by bundle: the
    cycles, the bundles and the whole ground (42 edges) are left alone, and
    the prefixes come before the halves. The witness is printed sorted."""
    z7, part, m = _z7_frame_lift()
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + 2 * (21 <= len(s) < 42))
    bundled = [e for a in z7.elements() for e in edge_bundle(z7, 4, (a,))]
    with pytest.raises(RecoveryError) as info:
        recover_partition(z7, part.kernel, 4, oracle, seed=0)
    witness = tuple(sorted(bundled[:21]))
    # gains 0 to 2 on every pair, and gain 3 on the pairs at vertex 0
    assert witness == (0, 1, 2, 3, 7, 8, 9, 10, 14, 15, 16, 17, 21, 22, 23, 28, 29, 30, 35, 36, 37)
    assert str(info.value) == f"reconstructed matroid disagrees with the input on {witness}"


def test_sampled_final_comparison_names_the_first_failing_half():
    """The oracle two above the lift on every set of 21 to 41 edges that
    misses edge 0, the identity edge on (0, 1): the prefixes all hold it, as
    do the bundles, so the final comparison names the first such half. The
    halves are drawn over the ground listed bundle by bundle, one random bit
    per edge, and the witness is printed sorted."""
    z7, part, m = _z7_frame_lift()
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + 2 * (21 <= len(s) < 42 and 0 not in s))
    bundled = [e for a in z7.elements() for e in edge_bundle(z7, 4, (a,))]
    half = next(
        h for h in reference_halves(bundled, SAMPLES, random.Random(0)) if len(h) >= 21 and 0 not in h
    )
    with pytest.raises(RecoveryError) as info:
        recover_partition(z7, part.kernel, 4, oracle, seed=0)
    witness = tuple(sorted(half))
    assert witness[:4] == (1, 4, 5, 10) and witness[-1] == 41
    assert str(info.value) == f"reconstructed matroid disagrees with the input on {witness}"


def test_the_last_prefix_is_the_whole_ground():
    """With the whole group as kernel recovery asks no full rank before the
    final comparison, so an oracle wrong on the whole ground alone is first
    asked there: by the last prefix, which names it. 1,500 halves did not
    reach it."""
    z7 = make_cyclic(7)
    part = frobenius_partitions(z7)[0]
    assert part.kernel.order == 7
    m = LiftedMatroid(FrobeniusContext(z7, part), complete_gain_graph(z7, 4))
    oracle = FuncOracle(m.ground, lambda s: m.rank(s) + 2 * (len(s) == 42))
    stats = {}
    with pytest.raises(RecoveryError) as info:
        recover_partition(z7, part.kernel, 4, oracle, seed=0, stats=stats)
    assert str(info.value) == f"reconstructed matroid disagrees with the input on {tuple(range(42))}"
    assert list(stats["final_parts"]["rank_queries"])[-1] == "prefixes"


# the halves of the elementary reference, the count recovery drew before its
# final comparison asked the prefixes; pinned here so that the guard below
# does not follow biased.SAMPLES
REFERENCE_HALVES = 1500


def _elementary_reference(m, frame, bundled, rng):
    """The elementary pre-check recovery once ran before its cycle check, kept
    as the reference its final comparison must cover: m must be an
    elementary lift of ``frame``, checked on every subset when the ground has
    at most EXHAUSTIVE_LIMIT edges, else on REFERENCE_HALVES random halves of
    the ground listed as ``bundled``."""
    if tuple(frame.ground) != tuple(m.ground):
        raise RecoveryError("ground sets of the lift and frame oracles differ")
    if len(bundled) <= EXHAUSTIVE_LIMIT:
        ok, witness = is_elementary_lift(m, frame)
        if not ok:
            raise RecoveryError(f"not an elementary lift of the frame matroid: {witness}")
        return
    if m.rank(()) != 0:
        raise RecoveryError("rank of the empty set is not zero")
    for subset in subset_sweep(bundled, REFERENCE_HALVES, rng):
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
    st.sampled_from(["above", "size", "superset", "avoid"]),
    st.integers(0, 120),
    st.lists(st.integers(0, 119), min_size=1, max_size=3),
    st.integers(0, 2**31 - 1),
)
def test_the_final_comparison_refuses_what_the_elementary_check_refused(
    name, index, shift, kind, size, edges, seed
):
    """A lift with its rank shifted on every set above a size, of one size,
    holding a few edges, or of more than 4 edges missing them: whenever the
    elementary check recovery once made refuses it, recovery still raises
    RecoveryError, at any seed. When the missed edges meet the first 5 of
    ``bundled``, every bundle and every prefix of more than 4 edges holds
    one of them, so only a half can refuse an ``avoid`` fault."""
    group, part, m, frame, bundled = _guard_case(name, index)
    size %= len(m.ground) + 1
    held = frozenset(e % len(m.ground) for e in edges)
    faulty = {
        "above": lambda s: len(s) >= size,
        "size": lambda s: len(s) == size,
        "superset": lambda s: held <= s,
        "avoid": lambda s: len(s) > 4 and held.isdisjoint(s),
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


# The corpus faults (see conftest.final_sample_corpus) that recovery refused
# at each of seeds 0 to 3 when its final comparison asked the empty set, the
# bundles and 1,500 halves, and no prefixes; it accepted the others. Read off
# ``python tests/final_sample_probe.py --seeds 0,1,2,3`` on that tree, one
# partition per line prefix.
REFUSED_BY_1500_HALVES = """
Z7/p0 above/3/-1 above/21/-1 size/3/-1 size/19/-1 size/21/-1 superset/0/-1 avoid/0/-1
Z7/p0 superset/21.41/-1 avoid/21.41/-1 superset/1.14.28/-1 avoid/1.14.28/-1 above/3/+2
Z7/p0 above/21/+2 size/3/+2 size/19/+2 size/21/+2 superset/0/+2 avoid/0/+2
Z7/p0 superset/21.41/+2 avoid/21.41/+2 superset/1.14.28/+2 avoid/1.14.28/+2
Z7/p0 drop/0.7.28.35 drop/0.7.29.36 drop/0.7.30.37 drop/1.9.30.36 add/0.1 add/0.13.21
Z7/p0 add/21.34.35 add/0.7.29.35 frame
Z7/p1 above/3/-1 above/21/-1 above/38/-1 size/3/-1 size/19/-1 size/21/-1 size/42/-1
Z7/p1 superset/0/-1 avoid/0/-1 superset/21.41/-1 avoid/21.41/-1 superset/1.14.28/-1
Z7/p1 avoid/1.14.28/-1 above/3/+2 above/21/+2 above/38/+2 size/3/+2 size/19/+2
Z7/p1 size/21/+2 size/42/+2 superset/0/+2 avoid/0/+2 superset/21.41/+2 avoid/21.41/+2
Z7/p1 superset/1.14.28/+2 avoid/1.14.28/+2 drop/0.7.28.35 drop/0.7.29.36 drop/0.7.30.37
Z7/p1 drop/0.12.29.38
Z11/p0 above/3/-1 above/33/-1 size/3/-1 size/31/-1 size/33/-1 superset/0/-1 avoid/0/-1
Z11/p0 superset/33.65/-1 avoid/33.65/-1 superset/1.22.44/-1 avoid/1.22.44/-1 above/3/+2
Z11/p0 above/33/+2 size/3/+2 size/31/+2 size/33/+2 superset/0/+2 avoid/0/+2
Z11/p0 superset/33.65/+2 avoid/33.65/+2 superset/1.22.44/+2 avoid/1.22.44/+2
Z11/p0 drop/0.11.44.55 add/0.1 frame
Z11/p1 above/3/-1 above/33/-1 above/62/-1 size/3/-1 size/31/-1 size/33/-1 size/66/-1
Z11/p1 superset/0/-1 avoid/0/-1 superset/33.65/-1 avoid/33.65/-1 superset/1.22.44/-1
Z11/p1 avoid/1.22.44/-1 above/3/+2 above/33/+2 above/62/+2 size/3/+2 size/31/+2
Z11/p1 size/33/+2 size/66/+2 superset/0/+2 avoid/0/+2 superset/33.65/+2 avoid/33.65/+2
Z11/p1 superset/1.22.44/+2 avoid/1.22.44/+2 drop/0.11.44.55 drop/0.11.45.56
Z11/p1 drop/0.11.46.57 drop/2.18.44.61
D6/p0 above/3/-1 above/18/-1 size/3/-1 size/16/-1 size/18/-1 superset/0/-1 avoid/0/-1
D6/p0 superset/18.35/-1 avoid/18.35/-1 superset/1.12.24/-1 avoid/1.12.24/-1 above/3/+2
D6/p0 above/18/+2 size/3/+2 size/16/+2 size/18/+2 superset/0/+2 avoid/0/+2
D6/p0 superset/18.35/+2 avoid/18.35/+2 superset/1.12.24/+2 avoid/1.12.24/+2
D6/p0 drop/0.6.24.30 drop/0.6.25.31 drop/0.6.26.32 drop/0.7.24.32 add/0.1 add/0.8.18
D6/p0 add/18.26.30 add/0.6.25.30 frame
D6/p1 above/3/-1 above/18/-1 above/32/-1 size/3/-1 size/16/-1 size/18/-1 size/36/-1
D6/p1 superset/0/-1 avoid/0/-1 superset/18.35/-1 avoid/18.35/-1 superset/1.12.24/-1
D6/p1 avoid/1.12.24/-1 above/3/+2 above/18/+2 above/32/+2 size/3/+2 size/16/+2
D6/p1 size/18/+2 size/36/+2 superset/0/+2 avoid/0/+2 superset/18.35/+2 avoid/18.35/+2
D6/p1 superset/1.12.24/+2 avoid/1.12.24/+2 drop/0.6.24.30 drop/0.6.25.31 drop/0.6.26.32
D6/p1 drop/5.11.29.35
D6/p2 above/3/-1 above/18/-1 above/32/-1 size/3/-1 size/16/-1 size/18/-1 size/36/-1
D6/p2 superset/0/-1 avoid/0/-1 superset/18.35/-1 avoid/18.35/-1 superset/1.12.24/-1
D6/p2 avoid/1.12.24/-1 above/3/+2 above/18/+2 above/32/+2 size/3/+2 size/16/+2
D6/p2 size/18/+2 size/36/+2 superset/0/+2 avoid/0/+2 superset/18.35/+2 avoid/18.35/+2
D6/p2 superset/1.12.24/+2 avoid/1.12.24/+2 drop/0.6.24.30 drop/0.6.25.31 drop/0.6.26.32
D6/p2 drop/4.8.28.31 add/0.1 add/0.8.18 add/18.26.30 add/0.6.25.30 frame
F20/p0 above/3/-1 above/60/-1 size/3/-1 size/58/-1 size/60/-1 superset/0/-1 avoid/0/-1
F20/p0 superset/60.119/-1 avoid/60.119/-1 superset/1.40.80/-1 avoid/1.40.80/-1
F20/p0 above/3/+2 above/60/+2 size/3/+2 size/58/+2 size/60/+2 superset/0/+2 avoid/0/+2
F20/p0 superset/60.119/+2 avoid/60.119/+2 superset/1.40.80/+2 avoid/1.40.80/+2
F20/p0 drop/0.20.80.100 add/0.1 frame
F20/p1 above/3/-1 above/60/-1 above/116/-1 size/3/-1 size/58/-1 size/60/-1 size/120/-1
F20/p1 superset/0/-1 avoid/0/-1 superset/60.119/-1 avoid/60.119/-1 superset/1.40.80/-1
F20/p1 avoid/1.40.80/-1 above/3/+2 above/60/+2 above/116/+2 size/3/+2 size/58/+2
F20/p1 size/60/+2 size/120/+2 superset/0/+2 avoid/0/+2 superset/60.119/+2
F20/p1 avoid/60.119/+2 superset/1.40.80/+2 avoid/1.40.80/+2 drop/0.20.80.100
F20/p1 drop/0.20.81.101 drop/0.20.82.102 drop/18.35.82.116
F20/p2 above/3/-1 above/60/-1 above/116/-1 size/3/-1 size/58/-1 size/60/-1 size/120/-1
F20/p2 superset/0/-1 avoid/0/-1 superset/60.119/-1 avoid/60.119/-1 superset/1.40.80/-1
F20/p2 avoid/1.40.80/-1 above/3/+2 above/60/+2 above/116/+2 size/3/+2 size/58/+2
F20/p2 size/60/+2 size/120/+2 superset/0/+2 avoid/0/+2 superset/60.119/+2
F20/p2 avoid/60.119/+2 superset/1.40.80/+2 avoid/1.40.80/+2 drop/0.20.80.100
F20/p2 drop/0.20.81.101 drop/0.20.82.102 add/0.4 frame
"""

CORPUS = {fault.name: fault for fault in final_sample_corpus()}


def _corpus_names(block):
    for line in block.split("\n"):
        if line:
            prefix, *rests = line.split()
            yield from (f"{prefix}/{rest}" for rest in rests)


def test_the_corpus_names_each_fault_once():
    assert len(CORPUS) == len(final_sample_corpus()) == 392
    refused = list(_corpus_names(REFUSED_BY_1500_HALVES))
    assert len(refused) == len(set(refused)) == 298 and set(refused) <= CORPUS.keys()


# seeds the list above was not read at, spread over 0 to 2^31 - 1, the range
# the bench's converse workload draws recovery's seeds from
HELD_OUT_SEEDS = (2101, 65537, 987654321, 2**31 - 1)

# Corpus faults of order at most 10 that recovery refused while its cycle
# check asked every N-circuit there, and accepts now that it asks one digon
# per kernel class and the candidate's triangles at every order: the lift's
# class less a balanced 4-cycle, or plus a triangle or 4-cycle whose gain is
# a kernel element, neither of which the check asks, under the partitions
# whose bundles and sample do not meet it.
ACCEPTED_CLASS_FAULTS = [
    f"{prefix}/{rest}"
    for prefix, rests in (
        ("Z7/p0", "drop/0.7.29.36 drop/0.7.30.37 drop/1.9.30.36 "
                  "add/0.13.21 add/21.34.35 add/0.7.29.35"),
        ("D6/p0", "drop/0.6.25.31 drop/0.6.26.32 drop/0.7.24.32 "
                  "add/0.8.18 add/18.26.30 add/0.6.25.30"),
        ("D6/p2", "drop/0.6.25.31 drop/0.6.26.32 drop/4.8.28.31 "
                  "add/0.8.18 add/18.26.30 add/0.6.25.30"),
    )
    for rest in rests.split()
]


def _corpus_certificate(name):
    """``non_lift_certificate`` of a corpus fault that changes the lift's
    class by the one cycle its name ends with, read off that cycle and its
    partners of ``n_circuit_partners``."""
    fault = CORPUS[name]
    gname, index, _, cycle = name.split("/")
    family = n_circuit_partners(fault.group, fault.kernel, 4, [map(int, cycle.split("."))])
    lift = corpus_lift(gname, int(index[1:]))
    return non_lift_certificate(fault.build(), lift.underlying_rank, family)


@pytest.mark.parametrize("name", list(_corpus_names(REFUSED_BY_1500_HALVES)))
def test_the_final_sample_refuses_what_1500_halves_refused(name):
    """Each corpus fault that 1,500 halves refused at seeds 0 to 3 is still
    refused at those seeds and at HELD_OUT_SEEDS. The seed draws only the
    halves, so a run refused before them is refused the same way at every
    seed, and the other seeds run only when the halves refused it. The
    ``avoid`` faults, on sets of more than 4 edges that miss one to three
    given edges, are refused only by a half; each escapes SAMPLES halves
    with probability at most (7/8)^SAMPLES at any seed. The faults of
    ACCEPTED_CLASS_FAULTS return the partition of their lift instead, and
    hold a theta certificate that they are no elementary lift of N."""
    fault = CORPUS[name]
    if name in ACCEPTED_CLASS_FAULTS:
        part = frobenius_partitions(fault.group)[int(name.split("/")[1][1:])]
        assert recover_partition(fault.group, fault.kernel, 4, fault.build()) == part
        assert _corpus_certificate(name)[0] == "theta"
        return
    for seed in (0, 1, 2, 3, *HELD_OUT_SEEDS):
        stats = {}
        with pytest.raises(RecoveryError):
            recover_partition(fault.group, fault.kernel, 4, fault.build(), seed=seed, stats=stats)
        if "halves" not in stats.get("final_parts", {}).get("rank_queries", {}):
            break


# Corpus faults above order 10 that recovery accepts: the lift's class plus
# one unbalanced cycle whose gain is a kernel element. Such a class is not
# linear (the added cycle and a balanced triangle sharing two of its edges
# make a theta whose third cycle, a digon inside a kernel coset, is outside
# the class), so the oracle is no matroid, but the cycle check asks no set
# that shows it and the final sample misses it.
ACCEPTED_KERNEL_CYCLE_FAULTS = [
    "Z11/p0/add/0.21.33", "Z11/p0/add/33.54.55", "Z11/p0/add/0.11.45.55",
    "F20/p0/add/0.22.60", "F20/p0/add/60.82.100", "F20/p0/add/0.20.81.100",
    "F20/p2/add/0.36.60", "F20/p2/add/60.96.100", "F20/p2/add/0.20.84.100",
]


@pytest.mark.parametrize("group", [make_cyclic(3), make_cyclic(5), D6], ids=["Z3", "Z5", "D6"])
def test_no_certificate_is_found_for_a_lift(group):
    """``non_lift_certificate`` certifies no elementary lift of N: the lift
    of each partition of K_4 over the group, nor N itself, on the balanced
    4-cycle 0 1 3 2 with gains (0, 1, 1⁻¹, 0) and its partners of
    ``n_circuit_partners``, every pair of which it reads."""
    g = complete_gain_graph(group, 4)
    cycle, balanced = complete_cycle(group, 4, (0, 1, 3, 2), (0, 1, group.inverse[1], 0))
    assert balanced
    for part in frobenius_partitions(group):
        m = LiftedMatroid(FrobeniusContext(group, part), g)
        family = n_circuit_partners(group, part.kernel, 4, [cycle])
        for oracle in (m, FrameOracle(m.quotient_biased)):
            assert non_lift_certificate(oracle, m.underlying_rank, family) is None, part


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="ROADMAP item 7: the final sample does not reach an added kernel-gain cycle above order 10",
)
@pytest.mark.parametrize("name", ACCEPTED_KERNEL_CYCLE_FAULTS)
def test_an_added_kernel_gain_cycle_is_refused(name):
    """Each fault holds a theta certificate that it is no elementary lift of
    N, and recovery does not refuse it."""
    assert _corpus_certificate(name)[0] == "theta"
    fault = CORPUS[name]
    with pytest.raises(RecoveryError):
        recover_partition(fault.group, fault.kernel, 4, fault.build(), seed=0)


@pytest.mark.parametrize("index", [0, 1], ids=["whole-kernel", "trivial-kernel"])
def test_corpus_class_faults_are_the_lifts_of_the_changed_class(index):
    """The corpus reads a class with one cycle dropped or added off m's and
    N's ranks; on K_4 over Z3 (18 edges) that matches ``ClassLiftOracle``
    given the lift's class as listed, changed, on every cycle and on 300
    random sets, where it differs from m. A cycle is added under the whole kernel only, where every
    cycle is a circuit of N."""
    z3 = make_cyclic(3)
    part = frobenius_partitions(z3)[index]
    g = complete_gain_graph(z3, 4)
    ctx = FrobeniusContext(z3, part)
    m = LiftedMatroid(ctx, g)
    members = {tuple(c) for c in linear_class(ctx, g)}
    qb = BiasedGraph(quotient_gains(g, ctx.quotient))
    dropped, balanced = complete_cycle(z3, 4, (0, 1, 3, 2), (1, 2, 1, 2))
    assert balanced and dropped in members
    changes = [(dropped_from_class(m, dropped), members - {dropped})]
    if part.kernel.order > 1:
        added, balanced = complete_cycle(z3, 4, (0, 1, 2), (0, 0, 1))
        assert not balanced and added not in members
        changes.append((added_to_class(m, added), members | {added}))
    rng = random.Random(index)
    sets = [list(c) for c in enumerate_cycles(g, max_edges=len(g.edges))]
    sets += [[e for e in m.ground if rng.random() < rng.random()] for _ in range(300)]
    for fault, changed in changes:
        reference = ClassLiftOracle(qb, changed)
        ranks = [fault.rank(s) for s in sets]
        assert ranks == [reference.rank(s) for s in sets]
        assert ranks != [m.rank(s) for s in sets]


# the cycles the check asks of K_4 over Z7 with the trivial kernel, by
# ``asked_cycle_count``: no digon, the identity rows C(3, 2)·7 = 21, the
# generator rows 2·1·7 = 14 with S = {1}, and the column's 7 less the 2 the
# rows hold, 40 in all
Z7_ASKED = asked_cycle_count(make_cyclic(7), (0,), 4)


def test_recovery_rank_query_count_on_k4_over_z7():
    """The order in which the sampled sweeps list the ground changes which
    halves they ask, not how many queries recovery makes: the Z7_ASKED
    balanced triangles, 40, the full rank, then the final
    comparison's empty set, the 22 distinct bundles (C(8, 2) pairs a <= b,
    less the 6 pairs (a, a), a != 0, that repeat (0, a)), 42 prefixes and
    215 halves."""
    z7, part, m = _z7_frame_lift()
    calls = 0

    def rank(s):
        nonlocal calls
        calls += 1
        return m.rank(s)

    assert recover_partition(z7, part.kernel, 4, FuncOracle(m.ground, rank), seed=0) == part
    assert Z7_ASKED == 21 + 14 + 5 == 40
    assert calls == Z7_ASKED + 1 + (1 + 22 + 42 + 215)


def test_recovery_rank_query_count_on_k5_over_agl15():
    """K_5 over AGL(1,5) with its Frobenius kernel Z5: a non-abelian group
    whose rank queries run every union-find branch. The count pins that a
    cheaper pass does not come from asking fewer queries: one digon, since
    the four other elements of Z5 are one class under conjugation, and the
    candidate's 257 balanced triangles through vertex 0, with S = {1, 4}:
    the identity rows, C(4, 2)·20 = 120, the generator rows, 3·2·20 = 120,
    and the column's 20 less the 3 the rows hold, 17; the full rank and the
    bundles of the identity with one and with two of the 15 elements outside
    the kernel, then the final comparison's empty set, the 191 distinct
    bundles (C(21, 2) pairs a <= b, less the 19 pairs (a, a), a != 0, that
    repeat (0, a)), 200 prefixes and 215 halves."""
    group = make_field_affine(5)
    part = next(p for p in frobenius_partitions(group) if 1 < p.kernel.order < group.order)
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 5))
    calls = 0

    def rank(s):
        nonlocal calls
        calls += 1
        return m.rank(s)

    assert recover_partition(group, part.kernel, 5, FuncOracle(m.ground, rank), seed=0) == part
    assert calls == 1 + 257 + (1 + 15 + 105) + (1 + 191 + 200 + 215)


class _Asked(RankOracle):
    """m as it is, with every set asked of it recorded in ``asked``, in order."""

    def __init__(self, m):
        self.m, self.ground, self.asked = m, m.ground, []

    def rank(self, subset):
        self.asked.append(tuple(subset))
        return self.m.rank(subset)


@pytest.mark.parametrize(
    "group, n, kernel_order, checked, asked",
    [(make_cyclic(7), 4, 1, 8701, 40), (make_field_affine(5), 5, 5, 4300, 258)],
    ids=["K4-Z7", "K5-AGL(1,5)"],
)
def test_the_cycle_check_asks_each_cycle_once_in_stream_order(
    group, n, kernel_order, checked, asked, monkeypatch
):
    """The cycle phase asks m of each cycle it streams, the cycle itself,
    once and in stream order: the N-circuits among the chosen digons and
    the candidate's balanced triangles through vertex 0. Recovery holds its
    count of every cycle of K_4 over Z7, and of every digon and balanced
    triangle through vertex 0 of K_5 over AGL(1,5), ``checked``, against
    DEFAULT_CYCLE_COUNT_LIMIT, so the cap bounds the phase's queries from
    above. ``asked`` is ``asked_cycle_count``: with the trivial kernel on Z7
    no digon and 40 triangles (Z7_ASKED), and with the kernel Z5 on
    AGL(1,5) one digon, for Z5's one class, and the candidate's 257
    triangles of C(4, 2)·20² = 2400. The phases' counts add up to every
    query m was asked."""
    part = next(p for p in frobenius_partitions(group) if p.kernel.order == kernel_order)
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, n))
    oracle, stats = _Asked(m), {}
    monkeypatch.setattr("frobmat.recovery.DEFAULT_CYCLE_COUNT_LIMIT", checked)
    assert recover_partition(group, part.kernel, n, oracle, stats=stats) == part
    queries = stats["rank_queries"]
    stream = _reduced_cycles(group, part.kernel, n)
    assert oracle.asked[: queries["cycles"]] == [c for c, _ in stream]
    assert queries["cycles"] == asked == asked_cycle_count(group, part.kernel.elements, n) < checked
    assert queries["cycles"] + queries["bundles"] + queries["final"] == queries["total"]
    assert queries["total"] == len(oracle.asked)
    monkeypatch.setattr("frobmat.recovery.DEFAULT_CYCLE_COUNT_LIMIT", checked - 1)
    with pytest.raises(LimitExceeded, match=f"more than {checked - 1} cycles"):
        recover_partition(group, part.kernel, n, m)


@pytest.mark.parametrize("name", ["D6", "Z7", "D10"])
def test_the_cycle_phase_asks_the_closed_form_count(name):
    """Under every partition of K_4 over D6, Z7 and D10 the cycle phase asks
    ``asked_cycle_count`` cycles of the lift. On D6 with the kernel Z3 and
    S = {1, 3} that is one digon, for the class {1, 2}, the identity rows
    C(3, 2)·6, the generator rows 2·2·6 and the column's 6 less 3,
    1 + 18 + 24 + 3 = 46."""
    assert asked_cycle_count(D6, (0, 1, 2), 4) == 1 + 18 + 24 + 3 == 46
    group = N_CIRCUIT_HOSTS[name][0]
    for part in frobenius_partitions(group):
        m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
        stats = {}
        assert recover_partition(group, part.kernel, 4, m, stats=stats) == part
        want = asked_cycle_count(group, part.kernel.elements, 4)
        assert stats["rank_queries"]["cycles"] == want, part


STREAMED_GROUPS = {"D6": make_dihedral(6), "Z7": make_cyclic(7), "Q8": order_20_catalog()["Q8"]}


def _flipped_lift(name, seed, every):
    """The lift of K_4 over the named group, under a partition drawn with
    ``seed``, and the lift with the circuit verdict flipped on one to three
    random cycles, each from its own group of ``complete_cycle_groups`` (the
    digons, four triangles, three 4-cycles): among N's circuits, or with
    ``every`` among every cycle. Returns the group, the partition, the
    lift, the flipped oracle, which records the sets asked of it, and the
    flipped cycles with their balance flags."""
    group = STREAMED_GROUPS[name]
    rng = random.Random(seed)
    part = rng.choice(frobenius_partitions(group))
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
    groups = complete_cycle_groups(group, 4)
    if not every:
        groups = [_n_circuits(group, part.kernel, 4, cycles) for cycles in groups]
    # the digons' group of N's circuits is empty under the trivial kernel
    drawn = [cycles for cycles in groups if cycles]
    picked = [rng.choice(cycles) for cycles in rng.sample(drawn, rng.randint(1, 3))]
    flip = {frozenset(cycle): 1 if balanced else -1 for cycle, balanced in picked}
    oracle = _Asked(FuncOracle(m.ground, lambda s: m.rank(s) + flip.get(s, 0)))
    return group, part, m, oracle, picked


def _refused_on_the_least_flipped_listed_cycle(name, seed, every, pinned=False):
    """Recovery of ``_flipped_lift``'s oracle must be refused on the least
    flipped cycle that the cycle check's stream lists, having asked each
    cycle before it once, in stream order. Where the stream lists none, the
    flipped cycles with their partners of ``n_circuit_partners`` hold a
    certificate that the oracle is no elementary lift of N, and recovery
    returns the partition; with ``pinned``, a strict xfail's row, it is
    still asked to refuse."""
    group, part, m, oracle, picked = _flipped_lift(name, seed, every)
    stream = list(_reduced_cycles(group, part.kernel, 4))
    witness = next((c for c in stream if c in picked), None)
    if witness is None:
        family = n_circuit_partners(group, part.kernel, 4, [c for c, _ in picked])
        assert non_lift_certificate(oracle, m.underlying_rank, family) is not None
        if not pinned:
            assert recover_partition(group, part.kernel, 4, oracle) == part
            return
    with pytest.raises(RecoveryError) as info:
        recover_partition(group, part.kernel, 4, oracle)
    cycle, balanced = witness
    assert str(info.value) == (
        f"cycle {cycle} is {'balanced' if balanced else 'unbalanced'} "
        f"but is {'not ' if balanced else ''}a circuit of the lift"
    )
    assert oracle.asked == [c for c, _ in stream[: stream.index(witness) + 1]]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(STREAMED_GROUPS))
def test_the_witness_is_the_least_failing_cycle_of_all_streams(name, seed):
    """K_4 over a group of order at most 10 and an oracle that is the lift
    but flips the verdict of one to three random N-circuits: recovery is
    refused on the least flipped one that the cycle check's one stream
    lists, or returns the partition and the flips are certified. Seeds 1 to
    4 draw the partition with the kernel Γ, whose N-circuits are every
    cycle."""
    _refused_on_the_least_flipped_listed_cycle(name, seed, False)


_OUTSIDE_N = pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="every flipped cycle lies outside N's circuits, which the cycle check does not ask",
)


@pytest.mark.parametrize(
    "name, seed, pinned",
    [
        ("D6", 0, False),
        ("D6", 5, False),
        ("Q8", 0, False),
        pytest.param("Q8", 5, True, marks=_OUTSIDE_N),
        pytest.param("Z7", 0, True, marks=_OUTSIDE_N),
        ("Z7", 5, False),
    ],
    ids=["D6-0", "D6-5", "Q8-0", "Q8-5", "Z7-0", "Z7-5"],
)
def test_a_lift_flipped_on_any_cycles_is_refused_on_its_least_flipped_n_circuit(
    name, seed, pinned
):
    """The seeds whose partition has a kernel other than Γ, with the flipped
    cycles drawn from every cycle: where the stream lists one, recovery is
    refused on the least such. Q8-5 and Z7-0, under the trivial kernel,
    flip only cycles outside N's circuits. Each such oracle ranks one set, a
    cycle independent in N, below r_N, the certificate, so it is no
    elementary lift of N; but it is wrong on that set alone, which the
    final comparison's sample of 48 or 42 edges misses."""
    _refused_on_the_least_flipped_listed_cycle(name, seed, True, pinned)


def test_stats_of_a_run_refused_inside_the_final_comparison():
    """K_4 over Z7 with the trivial kernel, and an oracle one above the lift
    on the third sampled half only: the run is refused there. Its stats list
    the three phases and the total, which is every query m was asked: the
    Z7_ASKED triangles of ``asked_cycle_count``, the full rank and the final
    comparison's. Its parts that ran are listed in order, their queries (the
    empty set, the 22 distinct bundles, the 42 prefixes, three halves) and
    seconds adding up to the phase's."""
    z7, part, m = _z7_frame_lift()
    bundled = [e for a in z7.elements() for e in edge_bundle(z7, 4, (a,))]
    third = next(itertools.islice(reference_halves(bundled, SAMPLES, random.Random(0)), 2, None))
    oracle = _Asked(FuncOracle(m.ground, lambda s: m.rank(s) + (s == frozenset(third))))
    stats = {}
    with pytest.raises(RecoveryError) as info:
        recover_partition(z7, part.kernel, 4, oracle, seed=0, stats=stats)
    assert str(info.value).endswith(f"disagrees with the input on {tuple(sorted(third))}")
    queries, seconds = stats["rank_queries"], stats["seconds"]
    phases = ["cycles", "bundles", "final"]
    assert list(stats) == ["rank_queries", "seconds", "final_parts"]
    assert queries == {"cycles": Z7_ASKED, "bundles": 1,
                       "final": 1 + 22 + 42 + 3, "total": len(oracle.asked)}
    assert sum(queries[p] for p in phases) == queries["total"] and list(seconds) == phases
    split = stats["final_parts"]
    assert split["rank_queries"] == {"empty": 1, "bundles": 22, "prefixes": 42, "halves": 3}
    parts = ["empty", "bundles", "prefixes", "halves"]
    assert list(split["rank_queries"]) == list(split["seconds"]) == parts
    assert sum(split["seconds"].values()) == pytest.approx(seconds["final"])
    assert all(s >= 0 for s in [*seconds.values(), *split["seconds"].values()])


@pytest.mark.parametrize(
    "group, first_parts",
    [
        (make_cyclic(7), {"empty": 1, "bundles": 0, "prefixes": 0, "halves": 0}),
        (make_cyclic(2), {"subsets": 1}),
    ],
    ids=["K4-Z7-sampled", "K4-Z2-exhaustive"],
)
def test_rebuilding_the_lift_counts_in_the_final_phase_and_its_first_part(
    group, first_parts, monkeypatch
):
    """The seconds are read from a clock that only the rebuild of the lift
    moves, by one: that second goes to the final phase and its first part."""
    part = next(p for p in frobenius_partitions(group) if p.kernel.order == 1)
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
    now = [0.0]

    def rebuild(*args):
        now[0] += 1
        return LiftedMatroid(*args)

    monkeypatch.setattr("frobmat.recovery.LiftedMatroid", rebuild)
    monkeypatch.setattr("frobmat.recovery.time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    stats = {}
    assert recover_partition(group, part.kernel, 4, m, stats=stats) == part
    assert stats["seconds"] == {"cycles": 0, "bundles": 0, "final": 1}
    assert stats["final_parts"]["seconds"] == first_parts


def test_stats_of_a_run_refused_before_any_phase():
    z7 = make_cyclic(7)
    part = next(p for p in frobenius_partitions(z7) if p.kernel.order == 1)
    m = LiftedMatroid(FrobeniusContext(z7, part), complete_gain_graph(z7, 3))
    stats = {}
    with pytest.raises(RecoveryError, match="n >= 4"):
        recover_partition(z7, part.kernel, 3, m, stats=stats)
    assert stats == {"rank_queries": {"total": 0}, "seconds": {}}


@pytest.mark.parametrize("index", [0, 1])
def test_stats_count_each_step_of_a_walk_as_one_query(z2, index):
    """K_4 over Z2 (12 edges): the final comparison walks m and the rebuilt
    lift together. A step of m's walk counts as one query and reading m's
    full rank as none, so the final phase counts the steps."""
    part = frobenius_partitions(z2)[index]
    m = LiftedMatroid(FrobeniusContext(z2, part), complete_gain_graph(z2, 4))
    oracle, stats = CountingWalk(m), {}
    assert recover_partition(z2, part.kernel, 4, oracle, stats=stats) == part
    final = stats["rank_queries"]["final"]
    assert final == stats["final_parts"]["rank_queries"]["subsets"] == oracle.steps > 0


def test_recovery_without_stats_asks_m_itself(monkeypatch):
    """With ``stats`` None no counting wrapper is built, and every query
    reaches m's own rank from recovery's or the final comparison's code:
    as many as a run with stats counts of the same oracle kind. A FuncOracle
    is not incremental, so the final comparison asks it each of the 22
    distinct bundles and every prefix, after the Z7_ASKED triangles of
    ``asked_cycle_count`` and the full rank."""
    z7, part, m = _z7_frame_lift()
    stats = {}
    plain = FuncOracle(m.ground, m.rank)
    assert recover_partition(z7, part.kernel, 4, plain, seed=0, stats=stats) == part
    callers = []

    def rank(s):
        caller = sys._getframe(2)  # past FuncOracle.rank
        callers.append((caller.f_globals["__name__"], caller.f_code.co_name))
        return m.rank(s)

    def no_wrapper(*args):
        raise AssertionError("a counting wrapper was built")

    monkeypatch.setattr("frobmat.recovery._Counted", no_wrapper)
    assert recover_partition(z7, part.kernel, 4, FuncOracle(m.ground, rank), seed=0) == part
    assert len(callers) == stats["rank_queries"]["total"] == Z7_ASKED + 1 + (1 + 22 + 42 + 215)
    assert {module for module, _ in callers} == {"frobmat.recovery", "frobmat.biased"}
    assert all(name != "rank" for _, name in callers)


def test_recovery_walks_the_prefixes_of_an_incremental_m():
    """m the lift itself: both oracles of the final comparison are
    incremental, so its prefixes and its bundles are walked, one step of
    each per edge. The walk of the prefixes stops at the seventh, the
    identity bundle and one edge of gain 1, where both are at full rank 4:
    35 queries fewer than a FuncOracle's 42 prefixes. The bundles take the
    identity block's 6 steps to rank 3, then one step into each of the 6
    other blocks, where both are at full rank, so no {0, a} state is
    extended: 12 steps for a FuncOracle's 22 bundles. So with stats or
    without. The cycle check asks the Z7_ASKED triangles of
    ``asked_cycle_count`` before them, and the full rank."""
    z7, part, m = _z7_frame_lift()
    stats = {}
    assert recover_partition(z7, part.kernel, 4, m, seed=0, stats=stats) == part
    assert stats["rank_queries"]["total"] == Z7_ASKED + 1 + (1 + 12 + 7 + 215)
    assert stats["final_parts"]["rank_queries"]["bundles"] == 6 + 6
    assert stats["final_parts"]["rank_queries"]["prefixes"] == 7
    walked = CountingWalk(m)
    assert recover_partition(z7, part.kernel, 4, walked, seed=0) == part
    assert walked.steps == 12 + 7


@pytest.mark.parametrize("seed, short", [(0, 0), (180, 1)])
def test_a_half_costs_one_query_or_two_when_its_head_falls_short(seed, short):
    """K_4 over Z7 with the trivial kernel, m the lift itself, of full rank
    4: the halves ask m each half's head, its first 12 edges, and the whole
    half after it only when the head falls short of rank 4. No head does at
    seed 0; at seed 180 one does, and its half costs m two queries."""
    z7, part, m = _z7_frame_lift()
    bundled = _final_sets(z7, 4)[0]
    halves = list(reference_halves(bundled, SAMPLES, random.Random(seed)))
    assert all(len(h) > 12 for h in halves)
    assert sum(m.rank(h[:12]) < 4 for h in halves) == short
    stats = {}
    assert recover_partition(z7, part.kernel, 4, m, seed=seed, stats=stats) == part
    assert stats["final_parts"]["rank_queries"]["halves"] == SAMPLES + short


@pytest.mark.parametrize("route", ["rank_table", "steps"])
def test_a_counted_walk_of_an_oracle_asked_per_set_counts_every_ask(route):
    """A walk of a non-incremental oracle asks it the rank of each set, the
    empty set first: the counting wrapper counts each of those asks."""
    asks = []
    counted = _Counted(FuncOracle(range(4), lambda s: asks.append(s) or min(len(s), 2)))
    if route == "rank_table":
        assert rank_table(counted) == [min(bin(mask).count("1"), 2) for mask in range(16)]
    else:
        state, _, step = counted.walk()
        for e in counted.ground:
            state, _ = step(state, e, True)
    assert counted.queries == len(asks) == (16 if route == "rank_table" else 5)


PREFIX_GROUPS = {"D6": D6, "D10": make_dihedral(10), "F20": F20}


def _chain(order):
    """The prefixes of ``order`` as a listing of one-edge nodes."""
    return [(k - 1, (e,)) for k, e in enumerate(order)]


def _node_sets(nodes):
    """The set of each node of a listing, in order, each its parent's plus
    its block."""
    sets = []
    for parent, block in nodes:
        sets.append((sets[parent] if parent >= 0 else ()) + tuple(block))
    return sets


def _edge_blocks(group, n):
    """The bundle of each element, sorted, indexed by the element."""
    return [edge_bundle(group, n, (a,)) for a in group.elements()]


def _asked_prefixes(a, b, order):
    """The first prefix of ``order`` on which a and b differ, found by asking
    both every prefix, and the number of steps a walk of both should take:
    up to that prefix, or else up to the first one where both are at full
    rank."""
    ranks = [(a.rank(order[:k]), b.rank(order[:k])) for k in range(1, len(order) + 1)]
    k = next((k for k, (ra, rb) in enumerate(ranks, 1) if ra != rb), None)
    if k is not None:
        return tuple(order[:k]), k
    full = (a.full_rank(), b.full_rank())
    return None, next(k for k, r in enumerate(ranks, 1) if r == full)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", sorted(PREFIX_GROUPS))
def test_walked_prefixes_name_the_witness_of_per_prefix_asks(name, n):
    """The lifts of K_n over the group under every ordered pair of its
    partitions, along the ground listed bundle by bundle and along a random
    order: walking both oracles names the prefix that asking them every
    prefix names, and steps each walk up to it, or else up to the first
    prefix where both are at full rank, and no further."""
    group = PREFIX_GROUPS[name]
    g = complete_gain_graph(group, n)
    lifts = [LiftedMatroid(FrobeniusContext(group, p), g) for p in frobenius_partitions(group)]
    shuffled = list(g.edge_ids())
    random.Random(f"{name}{n}").shuffle(shuffled)
    verdicts = set()
    for order in (_final_sets(group, n)[0], tuple(shuffled)):
        for a, b in itertools.product(lifts, repeat=2):
            witness, steps = _asked_prefixes(a, b, order)
            walk_a, walk_b = CountingWalk(a), CountingWalk(b)
            assert _listing_disagreement(walk_a, walk_b, _chain(order)) == witness
            assert walk_a.steps == walk_b.steps == steps
            verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_the_walk_of_a_frame_and_a_lift_stops_at_neither_full_rank_alone():
    """K_4 over D6: the frame matroid, with the trivial kernel, is at its
    full rank 4 from the seventh prefix on, where the lift with kernel Z3 is
    at 4 of 5. They first differ on the nineteenth prefix, the bundles of
    the three rotations and one reflection: there the lift is at its full
    rank too, so a walk that stops when either is full, or that tests the
    stop before it compares the ranks, names nothing."""
    g = complete_gain_graph(D6, 4)
    frame, lift = (
        LiftedMatroid(FrobeniusContext(D6, p), g)
        for p in frobenius_partitions(D6)
        if p.kernel.order in (1, 3)
    )
    bundled = _final_sets(D6, 4)[0]
    prefixes = _chain(bundled)
    assert (frame.full_rank(), lift.full_rank()) == (4, 5)
    assert (frame.rank(bundled[:7]), lift.rank(bundled[:7])) == (4, 4)
    assert (frame.rank(bundled[:19]), lift.rank(bundled[:19])) == (4, 5)
    assert _listing_disagreement(lift, frame, prefixes) == bundled[:19]
    assert _listing_disagreement(frame, lift, prefixes) == bundled[:19]


@pytest.mark.parametrize("size", [1, 7, 21, 42])
@pytest.mark.parametrize("shift", [-1, 2])
def test_prefixes_of_an_oracle_asked_per_set_are_each_asked(shift, size):
    """An oracle that is not incremental is asked every prefix, past where
    both are at full rank: a shift of the lift's rank on one size of set
    alone is named at that size, against the lift and against a FuncOracle
    of it. Each of the two oracles is asked each prefix up to it once."""
    z7, part, m = _z7_frame_lift()
    bundled = _final_sets(z7, 4)[0]
    prefixes = _chain(bundled)
    asked = []

    def shifted(s):
        asked.append(len(s))
        return m.rank(s) + shift * (len(s) == size)

    for other in (m, FuncOracle(m.ground, m.rank)):
        asked.clear()
        oracle = FuncOracle(m.ground, shifted)
        assert _listing_disagreement(oracle, other, prefixes) == bundled[:size]
        assert _listing_disagreement(other, oracle, prefixes) == bundled[:size]
        assert asked == [*range(1, size + 1)] * 2


@pytest.mark.parametrize("name, n", [("D6", 4), ("F20", 5)])
def test_the_final_bundles_are_the_edge_bundles(name, n):
    """The final comparison's listing of the ground is the bundles of the
    elements in order, each sorted, one block per element. The bundle
    listing's first |Γ|
    nodes carry those blocks, and its sets are the distinct ``edge_bundle``
    sets of the identity and a pair a <= b, in the order of the pairs, each
    once: the pair (a, a), a != 0, repeats (0, a), so |Γ| - 1 of the
    C(|Γ| + 1, 2) pairs are dropped. No bundle holds an edge twice."""
    group = PREFIX_GROUPS[name]
    bundled, bundles = _final_sets(group, n)
    blocks = _edge_blocks(group, n)
    assert [block for _, block in bundles[: group.order]] == blocks
    assert bundled == tuple(e for block in blocks for e in block)
    pairs = itertools.combinations_with_replacement(group.elements(), 2)
    distinct = list(dict.fromkeys(edge_bundle(group, n, (0, a, b)) for a, b in pairs))
    joined = _node_sets(bundles)
    assert len(joined) == len(distinct) == math.comb(group.order + 1, 2) - (group.order - 1)
    assert [tuple(sorted(bundle)) for bundle in joined] == distinct
    assert all(len(set(bundle)) == len(bundle) for bundle in joined)


def _asked_bundles(a, b, blocks):
    """The first bundle joined from ``blocks`` on which a and b differ, found
    by asking both every bundle, and the number of steps a walk of both
    should take up to it: each bundle is stepped from its parent, the bundle
    one block smaller, unless both are at full rank there, through its
    block up to the first set where both are."""
    full = (a.full_rank(), b.full_rank())

    def ranks(s):
        return a.rank(s), b.rank(s)

    identity, rest = list(blocks[0]), range(1, len(blocks))
    tree = [([], identity)] + [(identity, list(blocks[x])) for x in rest]
    tree += [(identity + list(blocks[x]), list(blocks[y])) for x, y in itertools.combinations(rest, 2)]
    steps = 0
    for parent, block in tree:
        if ranks(parent) != full:
            sizes = range(1, len(block) + 1)
            steps += next((k for k in sizes if ranks(parent + block[:k]) == full), len(block))
        ra, rb = ranks(parent + block)
        if ra != rb:
            return parent + block, steps
    return None, steps


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("name", sorted(PREFIX_GROUPS))
def test_walked_bundles_name_the_witness_of_per_bundle_asks(name, n):
    """The lifts of K_n over the group under each of its partitions and their
    quotient frame matroids, every ordered pair of them: walking both
    oracles through the bundles names the bundle that asking them every
    bundle names, and steps each walk as ``_asked_bundles`` counts, no
    further. The pairs differ in full rank, and at a bundle where one is
    full and the other is not, as well as agree."""
    group = PREFIX_GROUPS[name]
    g = complete_gain_graph(group, n)
    lifts = [LiftedMatroid(FrobeniusContext(group, p), g) for p in frobenius_partitions(group)]
    oracles = lifts + [FrameOracle(m.quotient_biased) for m in lifts]
    blocks, bundles = _edge_blocks(group, n), _final_sets(group, n)[1]
    verdicts = set()
    for a, b in itertools.product(oracles, repeat=2):
        witness, steps = _asked_bundles(a, b, blocks)
        witness = witness and tuple(witness)
        assert first_disagreement(a, b, _node_sets(bundles)) == witness
        walk_a, walk_b = CountingWalk(a), CountingWalk(b)
        assert _listing_disagreement(walk_a, walk_b, bundles) == witness
        assert walk_a.steps == walk_b.steps == steps
        verdicts.add((witness is None, a.full_rank() == b.full_rank()))
    assert verdicts == {(True, True), (False, True), (False, False)}


def test_the_bundle_walk_of_a_frame_and_a_lift_stops_at_neither_full_rank_alone():
    """K_4 over D6: the frame matroid, with the trivial kernel, is at its
    full rank 4 on every bundle {0, a}, where the lift with kernel Z3 is at
    4 of 5, and on {0, 1, 2}, of the identity and two rotations, where the
    lift still is. They first differ on {0, 1, 3}, a rotation and a
    reflection, where the lift is at its full rank: a walk that stops a
    block or skips a state when either is full names nothing."""
    g = complete_gain_graph(D6, 4)
    frame, lift = (
        LiftedMatroid(FrobeniusContext(D6, p), g)
        for p in frobenius_partitions(D6)
        if p.kernel.order in (1, 3)
    )
    blocks, bundles = _edge_blocks(D6, 4), _final_sets(D6, 4)[1]
    identity = list(blocks[0])
    assert (frame.full_rank(), lift.full_rank()) == (4, 5)
    assert {(frame.rank(identity + list(blocks[x])), lift.rank(identity + list(blocks[x])))
            for x in range(1, 6)} == {(4, 4)}
    witness = tuple(identity + list(blocks[1]) + list(blocks[3]))
    assert (frame.rank(witness), lift.rank(witness)) == (4, 5)
    assert _listing_disagreement(lift, frame, bundles) == witness
    assert _listing_disagreement(frame, lift, bundles) == witness


class _Traced(RankOracle):
    """``oracle``, one above its rank on the set ``wrong`` alone, its walk's
    states carried with their sets: each step is recorded in ``steps`` as
    (the set it steps from, the element, whether it is that state's last
    step, the rank it reads)."""

    def __init__(self, oracle, wrong=()):
        self.oracle, self.ground, self.incremental = oracle, oracle.ground, oracle.incremental
        self.wrong, self.steps = frozenset(wrong), []

    def rank(self, subset):
        return self.oracle.rank(subset) + (frozenset(subset) == self.wrong)

    def full_rank(self):
        return self.oracle.full_rank()

    def walk(self):
        state, r, step = self.oracle.walk()

        def traced(state, e, last):
            inner, edges = state
            inner, r = step(inner, e, last)
            edges += (e,)
            r += frozenset(edges) == self.wrong
            self.steps.append((edges[:-1], e, last, r))
            return (inner, edges), r

        return (state, ()), r, traced


def test_a_saved_bundle_state_reads_the_same_rank_after_each_extension():
    """K_4 over D6 with kernel Z3 = {0, 1, 2}, walked against itself: the
    walk keeps the state of {0} and of each bundle {0, a}, and each of its
    extensions but the last steps first from a copy. So every step reads the
    rank of the set it reaches, from a saved state's copied and last
    extension alike: {0, 3}, of rank 4, reaches full rank 5 with each of
    the reflections 4 and 5, which the state must not keep. {0} is extended
    by each of the 5 other blocks, so it is copied 4 times; {0, a} by each
    block b > a, copied 4 - a times for a = 1..3; {0, 4} by block 5 alone,
    its last, and {0, 5} by none, so neither is copied."""
    part = next(p for p in frobenius_partitions(D6) if p.kernel.order == 3)
    lift = LiftedMatroid(FrobeniusContext(D6, part), complete_gain_graph(D6, 4))
    blocks, bundles = _edge_blocks(D6, 4), _final_sets(D6, 4)[1]
    traced = _Traced(lift)
    assert _listing_disagreement(traced, _Traced(lift), bundles) is None
    assert all(r == lift.rank(edges + (e,)) for edges, e, _, r in traced.steps)
    saved = collections.Counter(edges for edges, _, last, _ in traced.steps if not last)
    identity = tuple(blocks[0])
    assert saved == {identity: 4, **{identity + tuple(blocks[a]): 4 - a for a in range(1, 4)}}
    assert lift.rank(identity + tuple(blocks[3])) == 4
    assert {lift.rank(identity + tuple(blocks[3]) + tuple(blocks[b])) for b in (4, 5)} == {5}


@pytest.mark.parametrize("index, bundle", [(0, (0,)), (3, (0, 3)), (6, (0, 1, 2))])
def test_a_bundle_walk_names_the_one_bundle_an_oracle_is_wrong_on(index, bundle):
    """K_4 over D6 with kernel Z3, and the lift one above itself on one
    bundle alone, below full rank: the identity's, the first level's {0, 3}
    or the second level's {0, 1, 2}. A bundle below full rank is read to
    its end, so walked or asked per bundle, either way round, the
    comparison names that bundle."""
    part = next(p for p in frobenius_partitions(D6) if p.kernel.order == 3)
    lift = LiftedMatroid(FrobeniusContext(D6, part), complete_gain_graph(D6, 4))
    bundles = _final_sets(D6, 4)[1]
    witness = _node_sets(bundles)[index]
    assert tuple(sorted(witness)) == edge_bundle(D6, 4, bundle)
    assert lift.rank(witness) < lift.full_rank()
    wrong = _Traced(lift, witness)
    for a, b in ((wrong, lift), (lift, wrong)):
        assert _listing_disagreement(a, b, bundles) == witness
        assert _listing_disagreement(FuncOracle(a.ground, a.rank), b, bundles) == witness


def test_bundles_of_an_oracle_asked_per_set_are_each_asked():
    """An oracle that is not incremental is asked each distinct bundle once,
    in the listing's order, and so is the lift it is compared with, even
    where both are at full rank."""
    z7, part, m = _z7_frame_lift()
    bundles = _final_sets(z7, 4)[1]
    plain, lift = _Asked(FuncOracle(m.ground, m.rank)), _Asked(m)
    assert _listing_disagreement(plain, lift, bundles) is None
    listing = _node_sets(bundles)
    assert len(listing) == 22
    assert plain.asked == lift.asked == listing


def _random_listing(ground, rng):
    """12 to 24 nodes over ``ground``, each under the empty set or a random
    earlier node whose set is not the whole ground, with a block of 1 to 3
    edges, fewer where fewer are left, outside its parent's set."""
    nodes, sets = [], []
    for _ in range(rng.randint(12, 24)):
        parent = rng.choice([-1] + [j for j, s in enumerate(sets) if len(s) < len(ground)])
        base = sets[parent] if parent >= 0 else ()
        outside = sorted(set(ground) - set(base))
        block = tuple(rng.sample(outside, min(len(outside), rng.randint(1, 3))))
        nodes.append((parent, block))
        sets.append(base + block)
    return nodes


def _asked_listing(a, b, nodes):
    """The first node set of ``nodes`` on which a and b differ, found by
    asking both every node set, and the number of steps a walk of both
    should take up to it: each node is stepped from its parent's set, unless
    both are at full rank there, through its block up to the first set
    where both are."""
    full = (a.full_rank(), b.full_rank())

    def ranks(s):
        return a.rank(s), b.rank(s)

    sets, steps = _node_sets(nodes), 0
    for (parent, block), s in zip(nodes, sets):
        base = sets[parent] if parent >= 0 else ()
        if ranks(base) != full:
            sizes = range(1, len(block) + 1)
            steps += next((k for k in sizes if ranks(base + block[:k]) == full), len(block))
        ra, rb = ranks(s)
        if ra != rb:
            return s, steps
    return None, steps


@pytest.mark.parametrize("name", ["D6", "Z7"])
def test_a_walk_of_random_listings_names_the_witness_of_per_set_asks(name):
    """Random listings of (parent, block) nodes over K_4 over the group. The
    oracles are the lifts under every partition and their quotient frame
    matroids, every ordered pair of them, and each lift against itself one
    above its rank on one node's set below full rank, either way round. The
    walk names the node set that asking every node set in listing order
    names, steps each walk as ``_asked_listing`` counts, and reads at each
    step the rank of the set it reaches; an oracle asked per set is asked
    each node set once, in listing order, up to that witness."""
    group = {"D6": D6, "Z7": make_cyclic(7)}[name]
    g = complete_gain_graph(group, 4)
    lifts = [LiftedMatroid(FrobeniusContext(group, p), g) for p in frobenius_partitions(group)]
    oracles = lifts + [FrameOracle(m.quotient_biased) for m in lifts]
    rng = random.Random(f"listing-{name}")
    verdicts = set()
    for _ in range(4):
        nodes = _random_listing(g.edge_ids(), rng)
        sets = _node_sets(nodes)
        pairs, traced = list(itertools.product(oracles, repeat=2)), []
        for lift in lifts:
            wrong = _Traced(lift, rng.choice([s for s in sets if lift.rank(s) < lift.full_rank()]))
            pairs += [(wrong, lift), (lift, wrong)]
            traced.append(wrong)
        for a, b in pairs:
            witness, steps = _asked_listing(a, b, nodes)
            assert first_disagreement(a, b, sets) == witness
            walk_a, walk_b = CountingWalk(a), CountingWalk(b)
            assert _listing_disagreement(walk_a, walk_b, nodes) == witness
            assert walk_a.steps == walk_b.steps == steps
            plain = _Asked(FuncOracle(a.ground, a.rank))
            assert _listing_disagreement(plain, b, nodes) == witness
            assert plain.asked == (sets if witness is None else sets[: sets.index(witness) + 1])
            verdicts.add(witness is None)
        assert all(r == t.rank(edges + (e,)) for t in traced for edges, e, _, r in t.steps)
    assert verdicts == {True, False}


def test_a_counted_full_rank_of_an_oracle_asked_per_set_counts_its_ask():
    """The full rank of an oracle that is not incremental is the rank of its
    ground, asked through the counting wrapper, so it counts one query."""
    asks = []
    counted = _Counted(FuncOracle(range(4), lambda s: asks.append(s) or min(len(s), 2)))
    assert counted.full_rank() == 2
    assert counted.queries == len(asks) == 1


def test_k5_over_order_ten_is_refused_by_its_cycle_count():
    assert complete_cycle_count(10, 5) == 1_360_450
    assert complete_cycle_count(9, 5) == 814_653
    group = make_dihedral(10)
    part = frobenius_partitions(group)[2]
    m = LiftedMatroid(FrobeniusContext(group, part, validate=False), complete_gain_graph(group, 5))
    with pytest.raises(LimitExceeded, match="more than 1000000 cycles"):
        recover_partition(group, part.kernel, 5, m)


@pytest.mark.parametrize("name", ["D10", "Z10"])
def test_the_cycle_check_alone_accepts_k5_over_order_ten(name):
    """K_5 over D10 and over Z10 (250 edges), under every partition: the
    cycle check alone accepts the lift and asks ``asked_cycle_count``
    cycles, while ``recover_partition`` is refused before it by its
    up-front count of every cycle, 1,360,450, which bounds K_5 at order 10
    and not the cycles asked."""
    group = {"D10": make_dihedral(10), "Z10": make_cyclic(10)}[name]
    g = complete_gain_graph(group, 5)
    for part in frobenius_partitions(group):
        m = _Counted(LiftedMatroid(FrobeniusContext(group, part), g))
        _check_cycle_hypothesis(group, part.kernel, 5, m)
        assert m.queries == asked_cycle_count(group, part.kernel.elements, 5), part
        with pytest.raises(LimitExceeded, match="more than 1000000 cycles"):
            recover_partition(group, part.kernel, 5, m)


def test_recovery_checks_the_declared_kernel_once(monkeypatch):
    """K_4 over D10 under its Frobenius partition: recovery tests the
    declared kernel once for a subgroup and once for normality, before its
    cycle check, and at its end validates the complements alone."""
    group = make_dihedral(10)
    part = frobenius_partitions(group)[-1]
    m = LiftedMatroid(FrobeniusContext(group, part), complete_gain_graph(group, 4))
    calls = []
    for name in ("is_subgroup", "is_normal"):
        def spied(grp, h, real=getattr(groups, name), name=name):
            calls.append((name, tuple(getattr(h, "elements", h))))
            return real(grp, h)

        monkeypatch.setattr(groups, name, spied)
    assert recover_partition(group, part.kernel, 4, m) == part
    kernel = part.kernel.elements
    assert kernel == (0, 1, 2, 3, 4)
    assert [c for c in calls if c[1] == kernel] == [("is_subgroup", kernel), ("is_normal", kernel)]


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
