"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

import itertools
import json
import random
import time

from frobmat import (
    BiasedGraph,
    FrameOracle,
    FrobeniusContext,
    LiftOracle,
    LiftedMatroid,
    apply_switching,
    build_spike_graph,
    class_member,
    complete_gain_graph,
    enumerate_cycles,
    frame_circuits,
    frobenius_partitions,
    from_table,
    incidence_matrix,
    is_balanced_cycle,
    is_linear_class,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_field_affine,
    make_inversion_extension,
    make_semidirect,
    matroid_axiom_check,
    quotient_gains,
    recover_partition,
    scale_gains,
    switching_projective_check,
    verify_spike,
)
from frobmat.cli import main
from frobmat.lifts import contract, delete
from frobmat.represent import VectorOracle

from conftest import random_gain_graph


def report(number: int, ok: bool, detail: str, started: float, budget: float):
    elapsed = time.time() - started
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


FIGURE_SPEC = {
    "group": {"kind": "field_affine", "q": 5},
    "vertices": 3,
    "edges": [[0, 0, 13], [0, 1, 6], [1, 0, 0], [0, 2, 11], [1, 2, 1], [2, 2, 16]],
}

FIGURE_TEXT = "5 4 6\n3 1 0 2 0 4\n4 1 4 1 0 0\n0 2 1 0 1 0\n0 0 0 1 3 0\n"


def quaternion_table():
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def neg(x):
        return x[1:] if x.startswith("-") else "-" + x

    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

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
        return neg(r) if sign < 0 else r

    return [[names.index(product(a, b)) for b in names] for a in names]


def nontrivial_context(group):
    part = next(
        p for p in frobenius_partitions(group) if p.is_nontrivial(group.order)
    )
    return FrobeniusContext(group, part, validate=False)


def test_criterion_01_figure_reproduction(tmp_path, capsys):
    started = time.time()
    path = tmp_path / "figure.json"
    path.write_text(json.dumps(FIGURE_SPEC))
    code = main(["matrix", "--graph", str(path)])
    out = capsys.readouterr().out
    ok = code == 0 and out == FIGURE_TEXT
    code2 = main(["verify", "--graph", str(path), "--representation"])
    out2 = capsys.readouterr().out
    ok = ok and code2 == 0 and out2 == "representation: PASS\n"
    report(1, ok, "figure matrix bit-exact and representation verified on 64 subsets",
           started, 1.0)


def test_criterion_02_partition_catalog():
    started = time.time()
    d6 = frobenius_partitions(make_dihedral(6))
    ok = [p.kernel.order for p in d6] == [6, 1, 3]
    ok = ok and len(frobenius_partitions(make_cyclic(4))) == 2
    ok = ok and len(frobenius_partitions(from_table(quaternion_table()))) == 2
    fa5 = frobenius_partitions(make_field_affine(5))
    frob = [p for p in fa5 if p.is_nontrivial(20)]
    ok = ok and len(frob) == 1 and frob[0].kernel.order == 5
    ok = ok and [c.order for c in frob[0].complements] == [4, 4, 4, 4, 4]
    report(2, ok, "D6:3 (6,1,3), Z4:2, Q8:2, F20: kernel 5 with five order-4 complements",
           started, 5.0)


def test_criterion_03_special_case_collapse():
    started = time.time()
    rng = random.Random(303)
    groups = [
        make_cyclic(2), make_cyclic(6), make_dihedral(6),
        make_dihedral(10), make_cyclic(12), make_dihedral(12),
    ]
    contexts = {}
    for g in groups:
        parts = frobenius_partitions(g)
        lift = next(p for p in parts if p.kernel.order == g.order)
        frame = next(p for p in parts if p.kernel.order == 1)
        contexts[id(g)] = (
            FrobeniusContext(g, frame, validate=False),
            FrobeniusContext(g, lift, validate=False),
        )
    checked = 0
    for _ in range(100):
        group = rng.choice(groups)
        g = random_gain_graph(group, rng, max_vertices=4, max_edges=10)
        ctx_frame, ctx_lift = contexts[id(group)]
        b = BiasedGraph(g)
        fo, lo = FrameOracle(b), LiftOracle(b)
        # the same matroids from the balanced cycles alone, by component scan
        explicit = BiasedGraph(
            g, [c for c in enumerate_cycles(g) if is_balanced_cycle(g, c)]
        )
        fx, lx = FrameOracle(explicit), LiftOracle(explicit)
        mf, ml = LiftedMatroid(ctx_frame, g), LiftedMatroid(ctx_lift, g)
        ids = [e.id for e in g.edges]
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                assert mf.rank(sub) == fo.rank(sub), (group.order, sub)
                assert ml.rank(sub) == lo.rank(sub), (group.order, sub)
                assert mf.rank(sub) == fx.rank(sub), (group.order, sub)
                assert ml.rank(sub) == lx.rank(sub), (group.order, sub)
        checked += 1
    report(3, checked == 100, f"{checked} graphs collapse to frame and lift ranks on all subsets",
           started, 60.0)


def test_criterion_04_linear_class_theorem():
    started = time.time()
    rng = random.Random(404)
    pool = [
        make_dihedral(6),
        make_dihedral(10),
        make_field_affine(5),
        make_field_affine(7),
        make_inversion_extension(make_cyclic(9)),
    ]
    contexts = [nontrivial_context(g) for g in pool]
    violations = 0
    instances = 0
    while instances < 500:
        i = rng.randrange(len(pool))
        group, ctx = pool[i], contexts[i]
        g = random_gain_graph(group, rng, max_vertices=4, max_edges=10)
        qb = BiasedGraph(quotient_gains(g, ctx.quotient))
        # the class by its gain definition, so that no rank engine picks it
        host_circuits = frame_circuits(qb)
        lc = [c for c in host_circuits if class_member(ctx, g, c)]
        ok, witness = is_linear_class(FrameOracle(qb), host_circuits, lc)
        if not ok:
            violations += 1
        instances += 1
    report(4, violations == 0,
           f"{instances} instances over {len(pool)} Frobenius groups, {violations} violations",
           started, 300.0)


def test_criterion_05_walk_equivalence(d6, d6_frobenius, f20, f20_frobenius):
    started = time.time()
    from frobmat.lifts import _classify_circuit, class_member_walks

    checked = 0

    def sweep(ctx, g):
        nonlocal checked
        qb = BiasedGraph(quotient_gains(g, ctx.quotient))
        for circuit in frame_circuits(qb):
            try:
                shape = _classify_circuit(ctx, g, circuit)
            except ValueError:
                continue
            if shape.kind == "cycle":
                continue
            assert class_member(ctx, g, circuit) == class_member_walks(ctx, g, circuit)
            checked += 1

    sweep(d6_frobenius, complete_gain_graph(d6, 3))
    rng = random.Random(505)
    for _ in range(25):
        sweep(d6_frobenius, random_gain_graph(d6, rng, max_vertices=4, max_edges=8))
    for _ in range(25):
        sweep(f20_frobenius, random_gain_graph(f20, rng, max_vertices=5, max_edges=8))
    report(5, checked > 300,
           f"membership routes agree on {checked} theta/handcuff circuits",
           started, 60.0)


def test_criterion_06_matroid_axioms():
    started = time.time()
    rng = random.Random(606)
    pool = []
    for group in (make_dihedral(6), make_field_affine(5), make_cyclic(2), make_cyclic(9)):
        contexts = [
            FrobeniusContext(group, p, validate=False)
            for p in frobenius_partitions(group)
        ]
        for ctx in contexts:
            for _ in range(2):
                pool.append(LiftedMatroid(ctx, random_gain_graph(group, rng, 4, 12)))
    z2ctx = FrobeniusContext(make_cyclic(2), frobenius_partitions(make_cyclic(2))[0])
    for r in (3, 4, 5):
        pool.append(build_spike_graph(z2ctx, r)[1])
    count = 0
    for oracle in pool:
        if len(oracle.ground) > 12:
            continue
        ok, witness = matroid_axiom_check(oracle)
        assert ok, witness
        count += 1
    report(6, count >= 20, f"rank axioms verified on {count} constructed matroids (|E| <= 12)",
           started, 120.0)


def test_criterion_07_minor_commutation():
    started = time.time()
    rng = random.Random(707)
    d6 = make_dihedral(6)
    f20 = make_field_affine(5)
    z2 = make_cyclic(2)
    contexts = []
    for group in (d6, f20, z2):
        for p in frobenius_partitions(group):
            contexts.append((group, FrobeniusContext(group, p, validate=False)))
    coverage = {"delete": 0, "nonloop": 0, "unbalanced": 0, "kernel": 0, "identity": 0}
    instances = 0
    while instances < 50:
        group, ctx = contexts[rng.randrange(len(contexts))]
        g = random_gain_graph(group, rng, max_vertices=3, max_edges=6)
        m = LiftedMatroid(ctx, g)
        ids = list(m.ground)
        for e in g.edges:
            rest = [i for i in ids if i != e.id]
            subsets = [
                combo
                for r in range(len(rest) + 1)
                for combo in itertools.combinations(rest, r)
            ]
            deletion = delete(ctx, g, e.id)
            for sub in subsets:
                assert deletion.rank(sub) == m.rank(sub)
            coverage["delete"] += 1
            minor = contract(ctx, g, e.id)
            if not e.is_loop:
                kind = "nonloop"
            elif e.gain == 0:
                kind = "identity"
            else:
                kind = "kernel" if ctx.in_kernel(e.gain) else "unbalanced"
            r_e = m.rank([e.id])
            for sub in subsets:
                assert minor.rank(sub) == m.rank(set(sub) | {e.id}) - r_e
            coverage[kind] += 1
        instances += 1
    ok = all(coverage[k] > 0 for k in coverage)
    report(7, ok, f"50 instances, all edges, coverage {coverage}", started, 300.0)


def test_criterion_08_spikes():
    started = time.time()
    verified = []
    for n in (2, 3):
        group = make_cyclic(n)
        ctx = FrobeniusContext(group, frobenius_partitions(group)[0])
        for r in (3, 4, 5, 6):
            graph, oracle = build_spike_graph(ctx, r)
            ok, tips = verify_spike(oracle, r)
            assert ok and 2 * r in tips, (n, r)
            verified.append((n, r))
    report(8, len(verified) == 8, f"verified r-spikes {verified}", started, 30.0)


def order_20_catalog():
    """Constructor-backed groups of order <= 20; includes every Frobenius
    group of order <= 20 up to isomorphism."""
    z2sq = make_direct_product(make_cyclic(2), make_cyclic(2))
    a4 = make_semidirect(z2sq, make_cyclic(3), [[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
    dic3 = make_semidirect(
        make_cyclic(3), make_cyclic(4),
        [[0, 1, 2], [0, 2, 1], [0, 1, 2], [0, 2, 1]],
    )
    groups = {
        "Z12": make_cyclic(12),
        "Z16": make_cyclic(16),
        "D6": make_dihedral(6),
        "D8": make_dihedral(8),
        "D10": make_dihedral(10),
        "D14": make_dihedral(14),
        "D18": make_dihedral(18),
        "D20": make_dihedral(20),
        "Q8": from_table(quaternion_table()),
        "A4": a4,
        "Dic3": dic3,
        "GDih(3x3)": make_inversion_extension(make_direct_product(make_cyclic(3), make_cyclic(3))),
        "AGL(1,5)": make_field_affine(5),
        "AGL(1,3)": make_field_affine(3),
    }
    return groups


def test_criterion_09_converse_round_trip():
    started = time.time()
    results = []
    for name, group in order_20_catalog().items():
        parts = frobenius_partitions(group)
        nontrivial = [p for p in parts if p.is_nontrivial(group.order)]
        for part in nontrivial:
            ctx = FrobeniusContext(group, part, validate=False)
            k4 = complete_gain_graph(group, 4)
            m = LiftedMatroid(ctx, k4)
            recovered = recover_partition(group, part.kernel, 4, m)
            assert recovered == part, name
            results.append(name)
    # the trivial branches: frame (empty kernel) and lift (whole group)
    d6 = make_dihedral(6)
    parts = frobenius_partitions(d6)
    k4 = complete_gain_graph(d6, 4)
    lift_part = parts[0]
    frame_part = parts[1]
    rec = recover_partition(
        d6, lift_part.kernel, 4,
        LiftedMatroid(FrobeniusContext(d6, lift_part, validate=False), k4),
    )
    assert rec.complements == ()
    rec = recover_partition(
        d6, frame_part.kernel, 4,
        LiftedMatroid(FrobeniusContext(d6, frame_part, validate=False), k4),
    )
    assert [c.elements for c in rec.complements] == [tuple(range(6))]
    ok = len(results) >= 7
    report(9, ok, f"round trips for {sorted(set(results))} plus frame/lift branches",
           started, 600.0)


def test_criterion_10_switching_scaling_equivalences():
    started = time.time()
    rng = random.Random(1010)
    groups = {5: make_field_affine(5), 7: make_field_affine(7)}
    contexts = {q: nontrivial_context(g) for q, g in groups.items()}
    for trial in range(100):
        q = 5 if trial % 2 == 0 else 7
        group = groups[q]
        g = random_gain_graph(group, rng, max_vertices=4, max_edges=8)
        eta = [rng.randrange(group.order) for _ in range(g.vertex_count)]
        assert switching_projective_check(g, eta), trial
        c = rng.randrange(1, q)
        scaled = scale_gains(g, c)
        m0, m1 = incidence_matrix(g), incidence_matrix(scaled)
        assert m1.entries[0] == tuple(x * c % q for x in m0.entries[0])
        assert m1.entries[1:] == m0.entries[1:]
        ids = sorted(e.id for e in g.edges)
        before = VectorOracle(m0, ids)
        after = VectorOracle(m1, ids)
        switched = VectorOracle(incidence_matrix(apply_switching(g, eta)), ids)
        base = LiftedMatroid(contexts[q], g)
        base_scaled = LiftedMatroid(contexts[q], scaled)
        for r in range(len(ids) + 1):
            for sub in itertools.combinations(ids, r):
                want = before.rank(sub)
                assert after.rank(sub) == want
                assert switched.rank(sub) == want
                assert base_scaled.rank(sub) == base.rank(sub)
    report(10, True, "100 GF(5)/GF(7) instances: switching/scaling identities bit-exact, ranks invariant",
           started, 60.0)
