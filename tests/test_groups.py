import functools
import importlib.util
import itertools
import math
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmat import (
    FrobeniusPartition,
    Subgroup,
    frobenius_partitions,
    from_table,
    is_malnormal,
    is_normal,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_affine,
    make_inversion_extension,
    make_semidirect,
    quotient,
    subgroups,
    validate_partition,
)
from frobmat import groups as groups_module
from frobmat.fileio import group_from_spec
from frobmat.groups import (
    MAX_PRODUCT_DEPTH,
    MAX_TABLE_ORDER,
    generated_subgroup,
    is_prime,
    is_subgroup,
)

from conftest import (
    _conjugation_closed,
    conjugate,
    conjugate_subgroup,
    element_order,
    exhaustive_partitions,
    find_isomorphism,
    is_isomorphic,
    perm_group,
    subgroup_as_group,
)


def quaternion_table():
    """Unit quaternions {1,-1,i,-i,j,-j,k,-k} as indices 0..7."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul = {
        ("1", x): x for x in names
    }
    for x in names:
        mul[(x, "1")] = x

    def neg(x):
        return x[1:] if x.startswith("-") else "-" + x

    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
        ("-1", "-1"): "1",
    }
    for x in ("i", "j", "k"):
        base[("-1", x)] = neg(x)
        base[(x, "-1")] = neg(x)
    def product(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            r = b
        elif b == "1":
            r = a
        else:
            r = base[(a, b)]
        if sign < 0:
            r = neg(r)
        return r

    return [[names.index(product(a, b)) for b in names] for a in names]


# --- constructors -----------------------------------------------------------


def test_cyclic_trivial():
    g = make_cyclic(1)
    assert g.order == 1 and g.table == ((0,),)


def test_cyclic_three():
    g = make_cyclic(3)
    assert g.mul(1, 2) == 0
    assert g.inv(1) == 2


def test_cyclic_six_unique_involution():
    g = make_cyclic(6)
    involutions = [x for x in g.elements() if x != 0 and g.mul(x, x) == 0]
    assert involutions == [3]


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        make_cyclic(0)


def test_dihedral_six():
    g = make_dihedral(6)
    assert g.order == 6
    outside = [x for x in range(3, 6) if g.mul(x, x) == 0]
    assert len(outside) == 3


def test_dihedral_two_is_z2():
    assert is_isomorphic(make_dihedral(2), make_cyclic(2))


def test_dihedral_ten_rotations_normal():
    g = make_dihedral(10)
    rot = set(range(5))
    # brute-force conjugation straight off the table
    for x in g.elements():
        for r in rot:
            assert g.table[g.table[g.inv(x)][r]][x] in rot


def test_dihedral_rejects_odd():
    with pytest.raises(ValueError):
        make_dihedral(7)


def test_direct_product_klein():
    g = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert g.order == 4
    assert sum(1 for x in g.elements() if x != 0 and g.mul(x, x) == 0) == 3


def test_direct_product_with_trivial():
    d6 = make_dihedral(6)
    assert is_isomorphic(make_direct_product(make_cyclic(1), d6), d6)


def test_direct_product_z3_z3_orders():
    g = make_direct_product(make_cyclic(3), make_cyclic(3))
    assert all(element_order(g, x) == 3 for x in g.elements() if x != 0)


def test_semidirect_trivial_action_is_direct_product():
    z3, z4 = make_cyclic(3), make_cyclic(4)
    trivial = [list(range(3))] * 4
    assert make_semidirect(z3, z4, trivial).table == make_direct_product(z3, z4).table


def _bench_catalog_specs() -> list[dict]:
    """Every group spec of the benchmark's catalog workload."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [s for slot in module.catalog_slots() for s in slot]


def test_direct_and_inversion_products_are_the_checked_semidirect_product():
    """make_direct_product and make_inversion_extension skip make_semidirect's
    checks on their actions, the trivial one and inversion; on every direct
    and inversion group of the bench catalog, the checked route accepts the
    same action and gives the same table."""
    specs = _bench_catalog_specs()
    directs = [s["factors"] for s in specs if s["kind"] == "direct"]
    bases = [s["base"] for s in specs if s["kind"] == "inversion"]
    assert len(directs) == 47 and len(bases) == 13
    for factors in directs:
        g1, g2 = map(group_from_spec, factors)
        trivial = [list(g1.elements())] * g2.order
        assert make_direct_product(g1, g2).table == make_semidirect(g1, g2, trivial).table
    for spec in bases:
        base = group_from_spec(spec)
        inversion = [list(base.elements()), list(base.inverse)]
        want = make_semidirect(base, make_cyclic(2), inversion)
        assert make_inversion_extension(base).table == want.table


def test_semidirect_inversion_is_dihedral():
    z3, z2 = make_cyclic(3), make_cyclic(2)
    g = make_semidirect(z3, z2, [list(range(3)), [0, 2, 1]])
    assert is_isomorphic(g, make_dihedral(6))


def test_semidirect_mod5_action_matches_field_affine():
    z5, z4 = make_cyclic(5), make_cyclic(4)
    action = [[pow(2, b, 5) * x % 5 for x in range(5)] for b in range(4)]
    g = make_semidirect(z5, z4, action)
    assert is_isomorphic(g, make_field_affine(5))


def test_semidirect_rejects_non_automorphism():
    z4, z2 = make_cyclic(4), make_cyclic(2)
    shift = [1, 2, 3, 0]  # a permutation, but not multiplicative
    with pytest.raises(ValueError, match="identity|automorphism"):
        make_semidirect(z4, z2, [list(range(4)), shift])


def test_semidirect_rejects_non_homomorphism():
    z5, z4 = make_cyclic(5), make_cyclic(4)
    mul2 = [2 * x % 5 for x in range(5)]
    # phi_1 has order 4, so phi_1 phi_1 cannot be the identity phi_2
    action = [list(range(5)), mul2, list(range(5)), list(range(5))]
    with pytest.raises(ValueError, match="homomorphism"):
        make_semidirect(z5, z4, action)


def test_field_affine_identity_and_product():
    g = make_field_affine(5)
    assert g.order == 20
    idx = lambda a, b: a * 4 + b - 1
    assert g.mul(idx(1, 3), idx(0, 2)) == idx(1, 1)


def test_field_affine_three_is_dihedral_six():
    assert is_isomorphic(make_field_affine(3), make_dihedral(6))


@pytest.mark.parametrize(
    "q", [q for q in range(3, MAX_TABLE_ORDER) if q * (q - 1) <= MAX_TABLE_ORDER and is_prime(q)]
)
def test_field_affine_is_the_checked_semidirect_product(q):
    """make_field_affine skips make_semidirect's checks on its action; the
    checked route, over GF(q)* from a validated table, accepts the action and
    gives the same table."""
    units = from_table([[(b * d) % q - 1 for d in range(1, q)] for b in range(1, q)])
    action = [[b * c % q for c in range(q)] for b in range(1, q)]
    want = make_semidirect(make_cyclic(q), units, action)
    assert make_field_affine(q).table == want.table


def test_field_affine_rejects_composite():
    with pytest.raises(ValueError):
        make_field_affine(4)
    with pytest.raises(ValueError):
        make_field_affine(2)
    with pytest.raises(ValueError, match="cap"):
        make_field_affine(103)


def test_inversion_extension_examples():
    assert is_isomorphic(make_inversion_extension(make_cyclic(3)), make_dihedral(6))
    assert is_isomorphic(make_inversion_extension(make_cyclic(1)), make_cyclic(2))
    assert is_isomorphic(make_inversion_extension(make_cyclic(9)), make_dihedral(18))


def test_inversion_extension_rejects_bad_input():
    with pytest.raises(ValueError, match="odd"):
        make_inversion_extension(make_cyclic(4))
    z7 = make_cyclic(7)
    heisenberg21 = make_semidirect(
        z7, make_cyclic(3), [[pow(2, b, 7) * x % 7 for x in range(7)] for b in range(3)]
    )
    with pytest.raises(ValueError, match="abelian"):
        make_inversion_extension(heisenberg21)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_cyclic(10**6),
        lambda: group_from_spec({"kind": "direct", "factors": [{"kind": "cyclic", "n": 1000}] * 2}),
        lambda: group_from_spec({"kind": "direct", "factors": [_cyc(47), _cyc(46), _cyc(2)]}),
        # before the trial division of a prime q, which runs O(sqrt q) steps
        lambda: make_field_affine(10**18 + 3),
    ],
    ids=["cyclic-1e6", "Z1000xZ1000", "Z47xZ46xZ2", "AGL(1,10^18+3)"],
)
def test_table_cap_rejects_before_building(rows_spy, build):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="table cap"):
        build()
    assert time.perf_counter() - start < 1.0
    assert rows_spy.built == []  # not even a factor's table


def test_from_table_cap_rejects_before_copying_rows():
    # one short row referenced past the cap: nothing large is allocated, and
    # an uncapped check would fail later, on squareness, after copying rows
    row = [0]
    with pytest.raises(ValueError, match="table cap"):
        from_table([row] * (MAX_TABLE_ORDER + 1))


def test_from_table_trivial_and_z2():
    assert from_table([[0]]).order == 1
    g = from_table([[0, 1], [1, 0]])
    assert g.inv(1) == 1


def test_from_table_rejects_missing_inverse():
    with pytest.raises(ValueError, match="no inverse for 1"):
        from_table([[0, 1], [1, 1]])


def test_from_table_relabels_identity_to_zero():
    # Z3 written with identity at index 2
    tbl = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = from_table(tbl)
    assert all(g.mul(0, x) == x for x in g.elements())
    assert is_isomorphic(g, make_cyclic(3))


def test_from_table_rejects_non_associative():
    with pytest.raises(ValueError, match="associative"):
        from_table([[0, 1, 2], [1, 0, 0], [2, 0, 0]])


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "empty table"),
        ([[0, 1], [1]], "table is not square: row 1 has length 1"),
        ([[0, 2], [1, 0]], "not closed: row 0 contains 2"),
        ([[0, 1], [1, "0"]], "not closed: row 1 contains '0'"),
    ],
    ids=["empty", "not-square", "out-of-range", "not-an-int"],
)
def test_from_table_names_the_first_bad_row(table, message):
    with pytest.raises(ValueError) as info:
        from_table(table)
    assert str(info.value) == message


# --- subgroup machinery -----------------------------------------------------


def brute_force_subgroups(g):
    """Independent oracle: closure test over every subset (tiny groups only)."""
    out = []
    elems = list(g.elements())
    for r in range(1, g.order + 1):
        for combo in itertools.combinations(elems, r):
            s = set(combo)
            if 0 not in s:
                continue
            if all(g.mul(a, b) in s for a in s for b in s):
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda t: (len(t), t))


SMALL_GROUPS = {
    **{f"Z{n}": lambda n=n: make_cyclic(n) for n in range(1, 13)},
    "D8": lambda: make_dihedral(8),
    "D10": lambda: make_dihedral(10),
    "D12": lambda: make_dihedral(12),
    "Z2xZ4": lambda: make_direct_product(make_cyclic(2), make_cyclic(4)),
    "Z2xZ2xZ2": lambda: make_direct_product(
        make_direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2)
    ),
    "Z3:Z4": lambda: make_semidirect(
        make_cyclic(3), make_cyclic(4), [[x * (-1) ** b % 3 for x in range(3)] for b in range(4)]
    ),
    "AGL(1,3)": lambda: make_field_affine(3),
    "Q8": lambda: from_table(quaternion_table()),
}


@functools.lru_cache(maxsize=None)
def small_group(name):
    g = SMALL_GROUPS[name]()
    return g, brute_force_subgroups(g)


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_subgroups_match_brute_force(name):
    g, expected = small_group(name)
    assert [s.elements for s in subgroups(g)] == expected


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(SMALL_GROUPS)),
    picks=st.lists(st.integers(min_value=0, max_value=11), max_size=4),
)
def test_generated_subgroup_is_smallest_containing_subgroup(name, picks):
    g, subs = small_group(name)
    gens = [x % g.order for x in picks]
    smallest = min((s for s in subs if set(gens) <= set(s)), key=len)
    assert generated_subgroup(g, gens).elements == smallest


@pytest.mark.parametrize(
    "group, count",
    [
        (lambda: make_field_affine(7), 26),
        (lambda: make_field_affine(11), 38),
        (lambda: make_direct_product(make_cyclic(2), make_dihedral(48)), 258),
    ],
    ids=["AGL(1,7)", "AGL(1,11)", "C2xD48"],
)
def test_subgroup_lattice_sizes(group, count):
    assert len(subgroups(group())) == count


def test_subgroups_z4():
    subs = subgroups(make_cyclic(4))
    assert [s.elements for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]


def test_subgroups_d6_matches_brute_force(d6):
    subs = subgroups(d6)
    assert len(subs) == 6
    assert [s.elements for s in subs] == brute_force_subgroups(d6)


def test_subgroups_quaternion():
    q8 = from_table(quaternion_table())
    subs = subgroups(q8)
    assert len(subs) == 6
    assert [s.elements for s in subs] == brute_force_subgroups(q8)
    central = next(s for s in subs if s.order == 2)
    for s in subs:
        if s.order > 1:
            assert central.elements[1] in s


def test_is_normal(d6):
    assert is_normal(d6, Subgroup((0, 1, 2)))
    assert not is_normal(d6, Subgroup((0, 3)))
    assert is_normal(d6, Subgroup(tuple(range(6))))


def test_is_malnormal(d6):
    assert is_malnormal(d6, Subgroup((0, 3)))
    assert not is_malnormal(d6, Subgroup((0, 1, 2)))
    assert is_malnormal(d6, Subgroup(tuple(range(6))))


# --- Frobenius partitions ---------------------------------------------------


def test_frobenius_partitions_d6(d6, d6_partitions):
    parts = d6_partitions
    assert [p.kernel.order for p in parts] == [6, 1, 3]
    frob = parts[2]
    assert frob.kernel.elements == (0, 1, 2)
    assert [c.elements for c in frob.complements] == [(0, 3), (0, 4), (0, 5)]
    for p in parts:
        validate_partition(d6, p)


def test_frobenius_partitions_z4_trivial_only():
    parts = frobenius_partitions(make_cyclic(4))
    assert [p.kernel.order for p in parts] == [4, 1]


def test_frobenius_partitions_field_affine_five(f20):
    parts = frobenius_partitions(f20)
    assert len(parts) == 3
    frob = parts[2]
    assert frob.kernel.order == 5
    assert len(frob.complements) == 5
    assert all(c.order == 4 for c in frob.complements)
    validate_partition(f20, frob)


def test_frobenius_properties_invariants():
    """Kernel-complement product, equal sizes, pairwise conjugacy."""
    for g in (make_dihedral(6), make_dihedral(10), make_field_affine(5)):
        for p in frobenius_partitions(g):
            if p.kernel.order in (1, g.order):
                continue
            sizes = {c.order for c in p.complements}
            assert len(sizes) == 1
            assert g.order == p.kernel.order * sizes.pop()
            for a, b in itertools.combinations(p.complements, 2):
                assert any(
                    conjugate_subgroup(g, a, x).elements == b.elements
                    for x in g.elements()
                )


def test_at_most_one_nontrivial_partition():
    for g in (
        make_dihedral(6),
        make_dihedral(10),
        make_cyclic(12),
        make_field_affine(5),
        from_table(quaternion_table()),
    ):
        parts = frobenius_partitions(g)
        assert sum(1 for p in parts if p.is_nontrivial(g.order)) <= 1


def _affine_perms(mats, p=3):
    """Permutations of the vectors of F_p² (index a + p·b for (a, b)): each
    matrix M in ``mats`` acts as v ↦ Mv, and None as v ↦ v + (1, 0)."""
    vecs = [(a, b) for b in range(p) for a in range(p)]

    def index(v):
        return v[0] % p + p * (v[1] % p)

    perms = []
    for m in mats:
        if m is None:
            perms.append([index((a + 1, b)) for a, b in vecs])
        else:
            perms.append([index((m[0][0] * a + m[0][1] * b, m[1][0] * a + m[1][1] * b)) for a, b in vecs])
    return perms


def _gf8_times_x(v):
    return (v << 1) ^ (0b1011 if v & 4 else 0)


Q8_IN_SL23 = [((0, 1), (2, 0)), ((1, 1), (1, 2))]

# name -> (generators, degree, order, Frobenius?)
PERMUTATION_GROUPS = {
    "A4": ([(1, 2, 0, 3), (1, 0, 3, 2)], 4, 12, True),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 4, 24, False),
    "SL(2,3)": (_affine_perms([((1, 1), (0, 1)), ((1, 0), (1, 1))]), 9, 24, False),
    "S3xS3": ([(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)], 6, 36, False),
    "AGL(1,8)": ([[v ^ 1 for v in range(8)], [_gf8_times_x(v) for v in range(8)]], 8, 56, True),
    # GF(9) = F_3[i], i² = -1; 1 + i has order 8 and acts as [[1, 2], [1, 1]]
    "AGL(1,9)": (_affine_perms([((1, 2), (1, 1)), None]), 9, 72, True),
    "3^2:Q8": (_affine_perms(Q8_IN_SL23 + [None]), 9, 72, True),
}


UNIT_ACTIONS = [
    (m, k, u)
    for m in range(2, 49)
    for k in range(2, 96 // m + 1)
    for u in range(1, m)
    if math.gcd(u, m) == 1 and pow(u, k, m) == 1
]

REFERENCE_FAMILIES = {
    "cyclic": lambda: [make_cyclic(n) for n in range(2, 57)],
    "dihedral": lambda: [make_dihedral(n) for n in range(2, 57, 2)],
    "affine": lambda: [make_field_affine(q) for q in (3, 5, 7, 11)],
    "inversion": lambda: [make_inversion_extension(make_cyclic(n)) for n in range(3, 24, 2)],
    "small": lambda: [
        make_direct_product(make_cyclic(3), make_cyclic(3)),
        make_direct_product(make_cyclic(5), make_cyclic(5)),
        from_table(quaternion_table()),
    ],
    "semidirect": lambda: [group_from_spec(_cyclic_action(*muk)) for muk in UNIT_ACTIONS],
    "permutation": lambda: [
        perm_group(gens, degree) for gens, degree, _, _ in PERMUTATION_GROUPS.values()
    ],
}


@pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
def test_partitions_match_the_exhaustive_search(family):
    for g in REFERENCE_FAMILIES[family]():
        assert frobenius_partitions(g) == exhaustive_partitions(g)


@pytest.mark.parametrize("name", sorted(PERMUTATION_GROUPS))
def test_permutation_groups_are_frobenius_as_known(name):
    gens, degree, order, frobenius = PERMUTATION_GROUPS[name]
    g = perm_group(gens, degree)
    assert g.order == order
    assert (len(frobenius_partitions(g)) == 3) == frobenius


FACTORS = {
    "Z1": lambda: make_cyclic(1),
    "Z2": lambda: make_cyclic(2),
    "Z3": lambda: make_cyclic(3),
    "Z4": lambda: make_cyclic(4),
    "D6": lambda: make_dihedral(6),
    "D8": lambda: make_dihedral(8),
    "D10": lambda: make_dihedral(10),
    "Q8": lambda: from_table(quaternion_table()),
    "A4": lambda: perm_group(*PERMUTATION_GROUPS["A4"][:2]),
    "AGL(1,5)": lambda: make_field_affine(5),
    "AGL(1,7)": lambda: make_field_affine(7),
}
FACTOR_PAIRS = [
    (a, b)
    for a in sorted(FACTORS)
    for b in sorted(FACTORS)
    if FACTORS[a]().order * FACTORS[b]().order <= 96
]


@settings(max_examples=40, deadline=None)
@given(pair=st.sampled_from(FACTOR_PAIRS))
def test_partitions_of_direct_products_match_the_exhaustive_search(pair):
    g = make_direct_product(*(FACTORS[name]() for name in pair))
    assert frobenius_partitions(g) == exhaustive_partitions(g)


def _relabelled(group, rng):
    """The group with its non-identity elements renamed at random, and the
    renaming as an image array."""
    image = [0] + rng.sample(range(1, group.order), group.order - 1)
    table = [[0] * group.order for _ in group.elements()]
    for a, row in enumerate(group.table):
        for b, ab in enumerate(row):
            table[image[a]][image[b]] = image[ab]
    return from_table(table), image


@functools.lru_cache(maxsize=None)
def _q8_complement_group():
    g = perm_group(*PERMUTATION_GROUPS["3^2:Q8"][:2])
    return g, exhaustive_partitions(g)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partitions_do_not_depend_on_element_labels(seed):
    # 3²:Q8 is the one Frobenius group of order ≤ 96 with a nonabelian
    # complement, so the only one where the centralizer of a complement
    # element can be smaller than its complement; the labels decide which
    # complement elements the walk meets first
    g, parts = _q8_complement_group()
    h, image = _relabelled(g, random.Random(seed))

    def rename(s):
        return Subgroup(tuple(sorted(image[e] for e in s.elements)))

    assert frobenius_partitions(h) == [
        FrobeniusPartition(rename(p.kernel), tuple(sorted(map(rename, p.complements))))
        for p in parts
    ]


def test_partition_search_builds_no_subgroup_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("frobenius_partitions enumerated subgroups")

    monkeypatch.setattr(groups_module, "subgroups", refuse)
    monkeypatch.setattr(groups_module, "generated_subgroup", refuse)
    for g in (
        make_dihedral(6),
        make_field_affine(7),
        perm_group(*PERMUTATION_GROUPS["3^2:Q8"][:2]),
        group_from_spec(LATTICE_GROUPS["C2xD48"]),
    ):
        assert [p.kernel.order for p in frobenius_partitions(g)][:2] == [g.order, 1]


def test_a_partition_that_fails_its_final_check_is_refused(monkeypatch):
    # the checks cannot fail in a group; lying tests reach them
    monkeypatch.setattr(groups_module, "is_malnormal", lambda group, h: True)
    with pytest.raises(ValueError, match="^conjugates of a malnormal subgroup overlap$"):
        frobenius_partitions(perm_group(*PERMUTATION_GROUPS["S4"][:2]))
    monkeypatch.undo()
    monkeypatch.setattr(groups_module, "is_normal", lambda group, h: False)
    with pytest.raises(ValueError, match="^Frobenius kernel is not a normal subgroup$"):
        frobenius_partitions(make_dihedral(6))


def test_partition_search_refuses_by_order_before_the_table(rows_spy):
    """The table cap is the one bound on a group the partition search
    receives: AGL(1,53) is refused by its order q(q-1), before any group,
    Z53 or GF(53)* included, is made."""
    with pytest.raises(ValueError) as info:
        make_field_affine(53)
    assert str(info.value) == "group order 2756 exceeds the table cap 2162"
    assert rows_spy.made == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_cyclic(5),
        lambda: make_dihedral(8),
        lambda: make_direct_product(make_cyclic(3), make_dihedral(6)),
        lambda: group_from_spec(_cyclic_action(5, 4, 2)),
        lambda: make_field_affine(5),
        lambda: make_inversion_extension(make_cyclic(5)),
        lambda: from_table(quaternion_table()),
        lambda: quotient(make_dihedral(6), Subgroup((0, 1, 2))).quotient,
        lambda: subgroup_as_group(make_dihedral(6), Subgroup((0, 1, 2))),
    ],
    ids=["cyclic", "dihedral", "direct", "semidirect", "field_affine", "inversion", "from_table",
         "quotient", "subgroup_as_group"],
)
def test_each_rows_function_runs_once(rows_spy, make):
    """Whichever read comes first builds the table, and no read builds it
    again, nor any other group's made with it."""
    reads = [
        lambda g: g.table,
        lambda g: g.inverse,
        lambda g: g.mul(g.order - 1, g.order - 1),
        lambda g: conjugate(g, g.order - 1, 1),
        lambda g: g.generators,
    ]
    for first in range(len(reads)):
        g = make()
        for read in (reads[first:] + reads[:first]) * 2:
            read(g)
        assert rows_spy.built.count(g) == 1
    assert all(rows_spy.built.count(h) <= 1 for h in rows_spy.made)


def _at_depth(frames, call):
    """``call()`` run ``frames`` Python frames below this one."""
    return call() if frames == 0 else _at_depth(frames - 1, call)


@pytest.mark.parametrize("frames", [100, 800])
def test_a_first_table_read_takes_a_few_frames_at_any_depth(frames):
    """A 300-level spec's tables are built bottom up on the first read, so
    the partition search answers from deep in a caller's stack."""
    spec = _cyc(3)
    for _ in range(MAX_PRODUCT_DEPTH):
        spec = {"kind": "semidirect", "g1": spec, "g2": _cyc(1), "action": [[0, 1, 2]]}
    group = group_from_spec(spec)
    parts = _at_depth(frames, lambda: frobenius_partitions(group))
    assert [p.kernel.order for p in parts] == [3, 1]


def test_a_product_chain_past_the_depth_bound_is_refused_unbuilt(rows_spy):
    out = make_cyclic(3)
    for _ in range(MAX_PRODUCT_DEPTH):
        out = make_direct_product(out, make_cyclic(1))
    with pytest.raises(ValueError, match="^products nest more than 300 levels deep$"):
        make_direct_product(out, make_cyclic(1))
    assert rows_spy.built == []
    assert out.table == make_cyclic(3).table


def test_factor_tables_are_built_before_their_products_once_each(rows_spy):
    """Z2×Z3 is a factor of the product at each of the two levels above it."""
    z2, z3, d6 = make_cyclic(2), make_cyclic(3), make_dihedral(6)
    low = make_direct_product(z2, z3)
    mid = make_direct_product(low, d6)
    top = make_direct_product(mid, low)
    top.table
    built = rows_spy.built
    assert sorted(map(id, built)) == sorted(map(id, [z2, z3, d6, low, mid, top]))
    for factor, product in [(z2, low), (z3, low), (low, mid), (d6, mid), (mid, top), (low, top)]:
        assert built.index(factor) < built.index(product)


def test_partitions_of_orders_one_and_two():
    whole = FrobeniusPartition(Subgroup((0,)), ())
    assert frobenius_partitions(make_cyclic(1)) == [whole]
    z2 = Subgroup((0, 1))
    assert frobenius_partitions(make_cyclic(2)) == [
        FrobeniusPartition(z2, ()),
        FrobeniusPartition(Subgroup((0,)), (z2,)),
    ]


def test_validate_partition_rejects_bad_family(d6):
    """One partition of D6 (rotations 0-2, reflections 3-5) per invariant.
    Conjugation closure has no case: a proper malnormal subgroup is a
    Frobenius complement, and these are all conjugate, so a family that
    passes the earlier checks is closed."""
    for kernel, complements, message in [
        ((0, 1), (), "kernel is not a subgroup"),
        ((0, 3), (), "kernel is not normal"),
        ((0, 1, 2), ((0,),), "complements must be nontrivial"),
        ((0, 1, 2), ((0, 3, 4),), "complement 0 is not a subgroup"),
        ((0,), ((0, 1, 2),), "complement 0 is not malnormal"),
        ((0, 1, 2), ((0, 3), (0, 3)), "element 3 covered twice"),
        ((0, 1, 2), ((0, 3),), "elements not covered: [4, 5]"),
    ]:
        bad = FrobeniusPartition(Subgroup(kernel), tuple(map(Subgroup, complements)))
        with pytest.raises(ValueError) as info:
            validate_partition(d6, bad)
        assert str(info.value) == message


def test_validate_partition_tests_malnormality_of_non_conjugates_only(monkeypatch, d6):
    """Complement 0 is tested in full and its conjugates are not; a later
    complement that is no conjugate of complement 0 still is."""
    calls = []
    malnormal = groups_module.is_malnormal
    monkeypatch.setattr(
        groups_module, "is_malnormal", lambda g, h: calls.append(h) or malnormal(g, h)
    )
    for group in (d6, make_field_affine(7)):
        part = frobenius_partitions(group)[2]
        assert len(part.complements) > 1
        calls.clear()
        validate_partition(group, part)
        assert calls == [part.complements[0]]
    bad = FrobeniusPartition(Subgroup((0, 1, 2)), (Subgroup((0, 3)), Subgroup((0, 1, 2))))
    with pytest.raises(ValueError, match="^complement 1 is not malnormal$"):
        validate_partition(d6, bad)


# --- quotients --------------------------------------------------------------


def test_quotient_whole_group(d6):
    qm = quotient(d6, Subgroup(tuple(range(6))))
    assert qm.quotient.order == 1
    assert set(qm.projection) == {0}


def test_quotient_trivial_subgroup(d6):
    qm = quotient(d6, Subgroup((0,)))
    assert qm.projection == tuple(range(6))
    assert qm.quotient.table == d6.table


def test_quotient_d6_by_rotations(d6):
    qm = quotient(d6, Subgroup((0, 1, 2)))
    assert qm.quotient.order == 2
    # projection is a homomorphism
    for a in d6.elements():
        for b in d6.elements():
            assert qm.projection[d6.mul(a, b)] == qm.quotient.mul(
                qm.projection[a], qm.projection[b]
            )


def test_quotient_rejects_non_normal(d6):
    with pytest.raises(ValueError):
        quotient(d6, Subgroup((0, 3)))


def test_subgroup_as_group(d6):
    rot = subgroup_as_group(d6, Subgroup((0, 1, 2)))
    assert is_isomorphic(rot, make_cyclic(3))


def test_find_isomorphism_returns_none_for_distinct_groups():
    assert find_isomorphism(make_cyclic(4), make_direct_product(make_cyclic(2), make_cyclic(2))) is None


def test_out_of_range_elements_are_rejected(d6):
    """An element that is no index of the group is a ValueError, not an
    IndexError from the Cayley table, in every subgroup predicate."""
    bad = Subgroup((0, 99))
    for check in (
        lambda: is_subgroup(d6, [0, 99]),
        lambda: is_subgroup(d6, [-1, 0]),
        lambda: is_normal(d6, bad),
        lambda: is_malnormal(d6, bad),
        lambda: quotient(d6, bad),
    ):
        with pytest.raises(ValueError, match="out of range for a group of order 6"):
            check()


def test_a_set_without_the_identity_is_no_subgroup(d6):
    assert not is_subgroup(d6, [1, 2])
    assert not is_subgroup(d6, [])


# --- the join search and normality against their definitions ---------------


def _reference_subgroups(group):
    """The join search with every join recomputed from 0: each found h is
    joined with every cyclic representative outside it, and <gens, g> is the
    orbit of 0 under right multiplication by gens + (g,)."""

    def orbit(gens):
        elems, seen = [0], {0}
        for a in elems:
            for g in gens:
                c = group.table[a][g]
                if c not in seen:
                    seen.add(c)
                    elems.append(c)
        return tuple(sorted(elems))

    cyclic = {}
    for g in range(1, group.order):
        cyclic.setdefault(orbit((g,)), g)
    found = {(0,)} | set(cyclic)
    frontier = [(key, (g,)) for key, g in cyclic.items()]
    while frontier:
        h, gens = frontier.pop()
        for g in cyclic.values():
            if g in h:
                continue
            k = orbit(gens + (g,))
            if k not in found:
                found.add(k)
                frontier.append((k, gens + (g,)))
    return sorted(found, key=lambda s: (len(s), s))


def _cyc(n):
    return {"kind": "cyclic", "n": n}


def _dih(order):
    return {"kind": "dihedral", "order": order}


def _direct(a, b):
    return {"kind": "direct", "factors": [a, b]}


def _cyclic_action(m, k, u):
    """Z_m ⋊ Z_k where the generator of Z_k multiplies by the unit u."""
    action = [[pow(u, b, m) * x % m for x in range(m)] for b in range(k)]
    return {"kind": "semidirect", "g1": _cyc(m), "g2": _cyc(k), "action": action}


# Catalog families of order 18-96: direct products (cyclic, dihedral, affine
# factors), cyclic semidirect products, inversion extensions, AGL(1,7), C2×D48.
LATTICE_GROUPS = {
    "Inv(Z3xZ3)": {"kind": "inversion", "base": _direct(_cyc(3), _cyc(3))},
    "Inv(Z5xZ5)": {"kind": "inversion", "base": _direct(_cyc(5), _cyc(5))},
    "AGL(1,7)": {"kind": "field_affine", "q": 7},
    "D48": _dih(48),
    "C2xC24": _direct(_cyc(2), _cyc(24)),
    "C3xC12": _direct(_cyc(3), _cyc(12)),
    "C4xC8": _direct(_cyc(4), _cyc(8)),
    "C6xC6": _direct(_cyc(6), _cyc(6)),
    "C2xD20": _direct(_cyc(2), _dih(20)),
    "C3xD14": _direct(_cyc(3), _dih(14)),
    "D10xC4": _direct(_dih(10), _cyc(4)),
    "C5xD6": _direct(_cyc(5), _dih(6)),
    "C2xAGL(1,5)": _direct(_cyc(2), {"kind": "field_affine", "q": 5}),
    "D6xD6": _direct(_dih(6), _dih(6)),
    "C2xD48": _direct(_cyc(2), _dih(48)),
    "Z7:Z6": _cyclic_action(7, 6, 3),
    "Z13:Z4": _cyclic_action(13, 4, 5),
    "Z5:Z8": _cyclic_action(5, 8, 2),
    "Z16:Z2": _cyclic_action(16, 2, 7),
    "Z8:Z4": _cyclic_action(8, 4, 3),
    "Z12:Z2": _cyclic_action(12, 2, 5),
    "Z11:Z5": _cyclic_action(11, 5, 3),
}


@functools.lru_cache(maxsize=None)
def lattice_group(name):
    return group_from_spec(LATTICE_GROUPS[name])


@pytest.mark.parametrize("name", sorted(LATTICE_GROUPS))
def test_subgroups_match_the_reference_join_search(name):
    g = lattice_group(name)
    assert [s.elements for s in subgroups(g)] == _reference_subgroups(g)


def _normal_by_definition(g, elements):
    s = set(elements)
    return all(conjugate(g, x, a) in s for x in g.elements() for a in elements)


def _closed_by_definition(g, family):
    members = {a.elements for a in family}
    return all(
        conjugate_subgroup(g, a, x).elements in members
        for a in family
        for x in g.elements()
    )


NORMALITY_GROUPS = sorted(SMALL_GROUPS) + ["Inv(Z3xZ3)", "AGL(1,7)", "C2xAGL(1,5)", "Z8:Z4"]


@functools.lru_cache(maxsize=None)
def normality_group(name):
    g = SMALL_GROUPS[name]() if name in SMALL_GROUPS else lattice_group(name)
    return g, tuple(subgroups(g))


@pytest.mark.parametrize("name", NORMALITY_GROUPS)
def test_is_normal_matches_its_definition_on_every_subgroup(name):
    g, subs = normality_group(name)
    for h in subs:
        assert is_normal(g, h) == _normal_by_definition(g, h.elements)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(NORMALITY_GROUPS), data=st.data())
def test_normality_tests_match_their_definitions_on_random_sets(name, data):
    g, subs = normality_group(name)
    # any set holding 0, subgroup or not
    rest = data.draw(st.sets(st.integers(0, g.order - 1)))
    h = Subgroup(tuple(sorted({0} | rest)))
    assert is_normal(g, h) == _normal_by_definition(g, h.elements)
    picks = data.draw(st.lists(st.sampled_from(subs), min_size=1, max_size=4))
    assert _conjugation_closed(g, picks) == _closed_by_definition(g, picks)
    # the union of the picks' conjugacy classes is closed; dropping one
    # member of a class of two or more breaks it
    closed = sorted({conjugate_subgroup(g, a, x) for a in picks for x in g.elements()})
    assert _conjugation_closed(g, closed) and _closed_by_definition(g, closed)
    drop = data.draw(st.sampled_from(closed))
    broken = [a for a in closed if a != drop]
    assert _conjugation_closed(g, broken) == _closed_by_definition(g, broken)
    assert _conjugation_closed(g, broken) == is_normal(g, drop)


@pytest.mark.parametrize("name", NORMALITY_GROUPS + ["C2xD48", "Inv(Z5xZ5)"])
def test_generators_are_the_greedy_generating_sequence(name):
    g = SMALL_GROUPS[name]() if name in SMALL_GROUPS else lattice_group(name)
    gens, span = [], {0}
    for x in g.elements():
        if x not in span:
            gens.append(x)
            span = set(generated_subgroup(g, gens).elements)
    assert g.generators == tuple(gens)
    assert generated_subgroup(g, g.generators).elements == tuple(g.elements())


@pytest.mark.parametrize(
    "a, b, image",
    [
        (lambda: make_field_affine(3), lambda: make_dihedral(6), [0, 3, 1, 4, 2, 5]),
        (
            lambda: make_inversion_extension(make_cyclic(9)),
            lambda: make_dihedral(18),
            [0, 9, 1, 10, 2, 11, 3, 12, 4, 13, 5, 14, 6, 15, 7, 16, 8, 17],
        ),
        (
            lambda: make_semidirect(
                make_cyclic(5), make_cyclic(4), [[pow(2, b, 5) * x % 5 for x in range(5)] for b in range(4)]
            ),
            lambda: make_field_affine(5),
            [0, 1, 3, 2, 4, 5, 7, 6, 8, 9, 11, 10, 12, 13, 15, 14, 16, 17, 19, 18],
        ),
        (
            lambda: make_direct_product(make_cyclic(2), make_cyclic(6)),
            lambda: make_direct_product(make_cyclic(6), make_cyclic(2)),
            [0, 2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 11],
        ),
    ],
    ids=["AGL(1,3)-D6", "Inv(Z9)-D18", "Z5:Z4-AGL(1,5)", "Z2xZ6-Z6xZ2"],
)
def test_find_isomorphism_maps_are_pinned(a, b, image):
    assert find_isomorphism(a(), b()) == image


# --- row-built tables against the per-cell rules ----------------------------
# An independent route: every table cell from its product rule, and the
# automorphism and homomorphism laws of a semidirect action one cell at a
# time, with the error texts of the library.


def _cell_table(mul, n):
    return [[mul(a, b) for b in range(n)] for a in range(n)]


def _cell_inverse(table):
    return tuple(row.index(0) for row in table)


class _CellGroup:
    def __init__(self, table, affine_modulus=None):
        self.table, self.affine_modulus = table, affine_modulus
        self.order = len(table)
        self.inverse = _cell_inverse(table)


def _cell_cyclic(n):
    return _CellGroup(_cell_table(lambda a, b: (a + b) % n, n))


def _cell_dihedral(two_n):
    n = two_n // 2

    def mul(x, y):
        i, p = x % n, x >= n
        j, q = y % n, y >= n
        # r^i s ∘ r^j (s^q) = r^(i-j) s^(1+q); r^i ∘ r^j s^q = r^(i+j) s^q
        k = (i - j) % n if p else (i + j) % n
        return k + (0 if p == q else n)

    return _CellGroup(_cell_table(mul, two_n))


def _cell_semidirect(g1, g2, action):
    if len(action) != g2.order:
        raise ValueError("action must give one permutation per element of g2")
    phis = [tuple(p) for p in action]
    els1, els2 = range(g1.order), range(g2.order)
    mul1 = lambda a, b: g1.table[a][b]
    mul2 = lambda a, b: g2.table[a][b]
    for b, phi in enumerate(phis):
        if sorted(phi) != list(els1):
            raise ValueError(f"action[{b}] is not a permutation of g1")
        if phi[0] != 0:
            raise ValueError(f"action[{b}] does not fix the identity")
        for x in els1:
            for y in els1:
                if phi[mul1(x, y)] != mul1(phi[x], phi[y]):
                    raise ValueError(
                        f"action[{b}] is not an automorphism: breaks ({b},{x},{y})"
                    )
    if phis[0] != tuple(els1):
        raise ValueError("action[0] must be the identity automorphism")
    for b in els2:
        for d in els2:
            comp = tuple(phis[b][phis[d][x]] for x in els1)
            if comp != phis[mul2(b, d)]:
                raise ValueError(
                    f"action is not a homomorphism: breaks ({b},{d},{mul2(b, d)})"
                )
    n2 = g2.order

    def mul(x, y):
        a, b = divmod(x, n2)
        c, d = divmod(y, n2)
        return mul1(a, phis[b][c]) * n2 + mul2(b, d)

    return _CellGroup(_cell_table(mul, g1.order * n2))


def _cell_field_affine(q):
    def mul(x, y):
        a, b = divmod(x, q - 1)
        c, d = divmod(y, q - 1)
        b, d = b + 1, d + 1
        return ((a + b * c) % q) * (q - 1) + (b * d) % q - 1

    return _CellGroup(_cell_table(mul, q * (q - 1)), affine_modulus=q)


def _cell_group(spec):
    """The group of a well-formed spec, cell by cell."""
    kind = spec["kind"]
    if kind == "cyclic":
        return _cell_cyclic(spec["n"])
    if kind == "dihedral":
        return _cell_dihedral(spec["order"])
    if kind == "field_affine":
        return _cell_field_affine(spec["q"])
    if kind == "direct":
        out = _cell_group(spec["factors"][0])
        for f in spec["factors"][1:]:
            g = _cell_group(f)
            out = _cell_semidirect(out, g, [list(range(out.order))] * g.order)
        return out
    if kind == "semidirect":
        return _cell_semidirect(_cell_group(spec["g1"]), _cell_group(spec["g2"]), spec["action"])
    assert kind == "inversion"
    base = _cell_group(spec["base"])
    if base.order % 2 == 0:
        raise ValueError("base group must have odd order")
    t = base.table
    if any(t[a][b] != t[b][a] for a in range(base.order) for b in range(a)):
        raise ValueError("base group must be abelian")
    return _cell_semidirect(base, _cell_cyclic(2), [list(range(base.order)), list(base.inverse)])


def _outcome(build):
    """A built group's table, inverse, affine modulus and
    commutativity, or the text of the ValueError it raised."""
    try:
        g = build()
    except ValueError as exc:
        return str(exc)
    t = [list(row) for row in g.table]
    abelian = all(t[a][b] == t[b][a] for a in range(len(t)) for b in range(a))
    return t, tuple(g.inverse), g.affine_modulus, abelian


def _shapes():
    """Every direct, semidirect and inversion shape of the catalog, nested
    products included, plus the dihedral groups of order 2-60 and AGL(1,q)
    for q <= 13."""
    affine = lambda q: {"kind": "field_affine", "q": q}
    out = {f"D{o}": _dih(o) for o in range(2, 61, 2)}
    out.update({f"AGL(1,{q})": affine(q) for q in (3, 5, 7, 11, 13)})
    for n in range(1, 24, 2):
        out[f"Inv(Z{n})"] = {"kind": "inversion", "base": _cyc(n)}
    factors = [_cyc(2), _cyc(3), _cyc(4), _cyc(5), _cyc(6), _dih(6), _dih(10), affine(5)]
    names = ["Z2", "Z3", "Z4", "Z5", "Z6", "D6", "D10", "AGL(1,5)"]
    for (a, f), (b, g) in itertools.product(zip(names, factors), repeat=2):
        out[f"{a}x{b}"] = _direct(f, g)
    for m, k, units in (
        (3, 4, (2,)), (5, 4, (2, 3)), (7, 3, (2, 4)), (7, 6, (3, 5)), (9, 2, (8,)),
        (11, 5, (3, 4)), (13, 3, (3, 9)), (13, 4, (5, 8)), (3, 8, (2,)), (5, 8, (2, 3)),
        (8, 2, (3, 5)), (8, 4, (3,)), (16, 2, (7,)), (12, 2, (5,)), (7, 2, (6,)), (11, 2, (10,)),
    ):
        for u in units:
            out[f"Z{m}:{u}Z{k}"] = _cyclic_action(m, k, u)
    z7z3 = _cyclic_action(7, 3, 2)
    out.update({
        "Inv(Z3xZ3)": {"kind": "inversion", "base": _direct(_cyc(3), _cyc(3))},
        "Inv(Z5xZ5)": {"kind": "inversion", "base": _direct(_cyc(5), _cyc(5))},
        "Inv(Z3xZ5)": {"kind": "inversion", "base": _direct(_cyc(3), _cyc(5))},
        "Z2xD6xZ3": {"kind": "direct", "factors": [_cyc(2), _dih(6), _cyc(3)]},
        "Inv(Z5)xAGL(1,5)": _direct({"kind": "inversion", "base": _cyc(5)}, affine(5)),
        "Z2x(Z7:Z3)": _direct(_cyc(2), z7z3),
        "(Z7:Z3)xD6": _direct(z7z3, _dih(6)),
        "(Z2xZ2):Z3": {
            "kind": "semidirect",
            "g1": _direct(_cyc(2), _cyc(2)),
            "g2": _cyc(3),
            "action": [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]],
        },
        "Inv(Z3xZ3)xZ2": _direct({"kind": "inversion", "base": _direct(_cyc(3), _cyc(3))}, _cyc(2)),
    })
    return out


SHAPES = _shapes()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_row_built_tables_match_the_per_cell_rules(name):
    spec = SHAPES[name]
    row_built = _outcome(lambda: group_from_spec(spec))
    assert not isinstance(row_built, str), row_built
    assert row_built == _outcome(lambda: _cell_group(spec))


@pytest.mark.parametrize(
    "make, cell",
    [
        (lambda: make_dihedral(2), lambda: _cell_dihedral(2)),
        (lambda: make_field_affine(13), lambda: _cell_field_affine(13)),
        (lambda: make_cyclic(7), lambda: _cell_cyclic(7)),
        (
            lambda: make_direct_product(make_dihedral(8), make_field_affine(3)),
            lambda: _cell_group(_direct(_dih(8), {"kind": "field_affine", "q": 3})),
        ),
    ],
    ids=["D2", "AGL(1,13)", "Z7", "D8xAGL(1,3)"],
)
def test_constructors_match_the_per_cell_rules(make, cell):
    """Groups from the constructors themselves build their tables at the
    first read, not in group_from_spec."""
    assert _outcome(make) == _outcome(cell)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SHAPES)), data=st.data())
def test_conjugates_by_right_coset_are_the_conjugates_by_every_element(name, data):
    """On the Frobenius complements of the catalog's shapes, and on a random
    subgroup, conjugating by one element per right coset gives the set of
    conjugates by every element; a complement's are listed once each."""
    g = group_from_spec(SHAPES[name])
    complements = [a for p in frobenius_partitions(g) for a in p.complements]
    picks = data.draw(st.lists(st.integers(0, g.order - 1), max_size=2))
    for h in complements + [generated_subgroup(g, picks)]:
        listed = [tuple(c) for c in groups_module._conjugates(g, h.elements)]
        assert set(listed) == {conjugate_subgroup(g, h, x).elements for x in g.elements()}
        if h in complements:
            assert len(listed) == len(set(listed))


def _corrupted_action(rng):
    """A cyclic action Z_m ⋊ Z_k with one or two changes: an entry moved,
    two entries swapped, a permutation replaced by another automorphism, or
    a row dropped."""
    m, k, u = rng.choice([(5, 4, 2), (7, 3, 2), (7, 6, 3), (13, 4, 5), (8, 2, 3), (9, 2, 8),
                          (12, 2, 5), (3, 2, 2), (8, 4, 3)])
    action = [[pow(u, b, m) * x % m for x in range(m)] for b in range(k)]
    for _ in range(rng.randrange(1, 3)):
        b = rng.randrange(len(action))
        change = rng.randrange(4)
        if change == 0:
            action[b][rng.randrange(m)] = rng.randrange(m)
        elif change == 1:
            i, j = rng.sample(range(m), 2)
            action[b][i], action[b][j] = action[b][j], action[b][i]
        elif change == 2:
            unit = rng.choice([v for v in range(1, m) if math.gcd(v, m) == 1])
            action[b] = [unit * x % m for x in range(m)]
        elif len(action) > 1:
            del action[b]
    return {"kind": "semidirect", "g1": _cyc(m), "g2": _cyc(k), "action": action}


def test_corrupted_actions_fail_alike_on_both_routes():
    rng = random.Random(2024)
    kinds = set()
    for _ in range(300):
        spec = _corrupted_action(rng)
        row_built = _outcome(lambda: group_from_spec(spec))
        assert row_built == _outcome(lambda: _cell_group(spec)), spec
        kinds.add(re.sub(r"\[\d+\]", "[#]", row_built).split(":")[0] if isinstance(row_built, str) else "group")
    assert kinds == {
        "group",
        "action must give one permutation per element of g2",
        "action[#] is not a permutation of g1",
        "action[#] does not fix the identity",
        "action[#] is not an automorphism",
        "action[#] must be the identity automorphism",
        "action is not a homomorphism",
    }


def _cell_from_table(table):
    """from_table with associativity tested one triple at a time."""
    n = len(table)
    rows = [list(r) for r in table]
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"table is not square: row {i} has length {len(row)}")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"not closed: row {i} contains {x!r}")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                    raise ValueError(f"not associative at triple ({a},{b},{c})")
    ident = None
    for e in range(n):
        if rows[e] == list(range(n)) and all(rows[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise ValueError("no identity element")
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0
        rows = [[perm[rows[perm[a]][perm[b]]] for b in range(n)] for a in range(n)]
    for a in range(n):
        if 0 not in rows[a]:
            raise ValueError(f"no inverse for {a}")
        b = rows[a].index(0)
        if rows[b][a] != 0:
            raise ValueError(f"no inverse for {a}")
    return _CellGroup(rows)


def test_corrupted_tables_fail_alike_on_both_routes():
    """Group tables relabelled at random, some with one to three cells
    changed, and small random magmas (a zero semigroup among them: associative
    with no identity) take the same verdict and text on both routes."""
    rng = random.Random(7)
    bases = [make_cyclic(6), make_dihedral(8), make_field_affine(5), from_table(quaternion_table()),
             make_cyclic(1), make_cyclic(2)]
    verdicts = set()
    for trial in range(400):
        if trial % 10 == 9:
            n = rng.randrange(1, 4)
            table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        else:
            g = rng.choice(bases)
            perm = list(range(g.order))
            rng.shuffle(perm)
            table = [[0] * g.order for _ in range(g.order)]
            for a in range(g.order):
                for b in range(g.order):
                    table[perm[a]][perm[b]] = perm[g.table[a][b]]
            for _ in range(rng.randrange(0, 4) if g.order > 1 else 0):
                table[rng.randrange(g.order)][rng.randrange(g.order)] = rng.randrange(g.order)
        row_built = _outcome(lambda: from_table(table))
        assert row_built == _outcome(lambda: _cell_from_table(table)), table
        verdicts.add(row_built.split(" ")[0] if isinstance(row_built, str) else "group")
    assert verdicts == {"group", "not", "no"}
    assert _outcome(lambda: from_table([[0, 0], [0, 0]])) == "no identity element"
