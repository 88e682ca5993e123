import contextlib
import functools
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobmat import (
    FrobeniusContext,
    LiftedMatroid,
    build_spike_graph,
    complete_gain_graph,
    enumerate_cycles,
    frobenius_partitions,
    is_balanced_cycle,
    linear_class,
    make_cyclic,
    make_dihedral,
    make_field_affine,
)
import frobmat
from frobmat.lifts import contract, delete
from frobmat import cli
from frobmat.cli import main
from frobmat.biased import first_disagreement, rank_table, subset_sweep
from frobmat.fileio import format_circuits, graph_from_spec, graph_to_spec, group_from_spec

from conftest import FuncOracle, asked_cycle_count, random_gain_graph

D6_SPEC = {"kind": "dihedral", "order": 6}
FIGURE_SPEC = {
    "group": {"kind": "field_affine", "q": 5},
    "vertices": 3,
    "edges": [[0, 0, 13], [0, 1, 6], [1, 0, 0], [0, 2, 11], [1, 2, 1], [2, 2, 16]],
}
K4_D6_SPEC = {"complete": {"group": D6_SPEC, "n": 4}}


@pytest.fixture
def write(tmp_path):
    def _write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(path)

    return _write


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_frobpart_d6(write, capsys):
    code, out, err = run(capsys, "frobpart", "--group", write("g.json", D6_SPEC))
    assert code == 0 and err == ""
    assert out == (
        "partition 1: kernel size 6; complement sizes: none\n"
        "  kernel: 0,1,2,3,4,5\n"
        "partition 2: kernel size 1; complement sizes: 6\n"
        "  kernel: 0\n"
        "  complement: 0,1,2,3,4,5\n"
        "partition 3: kernel size 3; complement sizes: 2,2,2\n"
        "  kernel: 0,1,2\n"
        "  complement: 0,3\n"
        "  complement: 0,4\n"
        "  complement: 0,5\n"
    )


def test_frobpart_cyclic_four(write, capsys):
    code, out, _ = run(capsys, "frobpart", "--group", write("g.json", {"kind": "cyclic", "n": 4}))
    assert code == 0
    assert out.count("partition") == 2


def test_frobpart_field_affine_three(write, capsys):
    code, out, _ = run(
        capsys, "frobpart", "--group", write("g.json", {"kind": "field_affine", "q": 3})
    )
    assert code == 0
    assert out.count("partition") == 3
    assert "kernel size 3; complement sizes: 2,2,2" in out


def _frobpart_in_child(path):
    """Run ``frobpart`` on ``path`` in a child process limited to 1 GB of
    address space; the limit applies to the child only. Returns the child and
    its wall time."""
    src = os.path.dirname(os.path.dirname(frobmat.__file__))
    path_dirs = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_dirs)))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "frobmat.cli", "frobpart", "--group", path],
        capture_output=True, text=True, env=env, preexec_fn=limit,
    )
    return child, time.perf_counter() - start


def test_frobpart_refuses_agl_1_101_under_a_1gb_address_space(write):
    """AGL(1,101) is past the table cap, so the child prints one error line
    and exits 2 without building its 10100 x 10100 table."""
    child, seconds = _frobpart_in_child(write("g.json", {"kind": "field_affine", "q": 101}))
    assert seconds < 1.0
    assert child.returncode == 2 and child.stdout == ""
    assert child.stderr == "error: group order 10100 exceeds the table cap 2162\n"


@pytest.mark.parametrize(
    "spec, partitions, err",
    [
        ({"kind": "field_affine", "q": 47}, 3, None),
        (
            {"kind": "table", "table": [[(a + b) % 240 for b in range(240)] for a in range(240)]},
            2,
            None,
        ),
        (
            {"kind": "direct", "factors": [{"kind": "cyclic", "n": n} for n in (47, 46, 2)]},
            0,
            "group order 4324 exceeds the table cap 2162",
        ),
    ],
    ids=["AGL(1,47)", "Z240-table", "Z47xZ46xZ2"],
)
def test_frobpart_refuses_a_group_above_the_limit_at_once(write, spec, partitions, err):
    """The table cap is the one bound on a group. Inside it, AGL(1,47) (the
    cap itself, a Frobenius group) and a given Z240 table (abelian, so only
    the whole-group and trivial-kernel partitions) are answered within the
    1 GB child. A product past the cap is refused by its order at once,
    before any factor's table is built (Z47×Z46×Z2; see
    test_groups.test_table_cap_rejects_before_building)."""
    child, seconds = _frobpart_in_child(write("g.json", spec))
    if err is None:
        assert seconds < 10.0
        assert child.returncode == 0 and child.stderr == ""
        assert child.stdout.count("partition ") == partitions
    else:
        assert seconds < 1.0
        assert child.returncode == 2 and child.stdout == ""
        assert child.stderr == f"error: {err}\n"


AGL53 = {"kind": "field_affine", "q": 53}
CAP_ERR = "group order 2756 exceeds the table cap 2162"


@pytest.mark.parametrize(
    "argv, spec, err",
    [
        (["frobpart", "--group"], AGL53, CAP_ERR),
        (["rank", "--graph"], {"group": AGL53, "vertices": 2, "edges": [[0, 1, 5]]}, CAP_ERR),
        (["rank", "--graph"], {"group": AGL53, "vertices": 2, "edges": [[0, 1, 5000]]}, CAP_ERR),
        (["recover", "--kernel", "1", "--graph"], {"complete": {"group": AGL53, "n": 2}}, CAP_ERR),
        (
            ["frobpart", "--group"],
            {"kind": "direct", "factors": [AGL53, {"kind": "cyclic", "n": 1}]},
            CAP_ERR,
        ),
        (
            ["frobpart", "--group"],
            {"kind": "direct", "factors": [{"kind": "cyclic", "n": 1}, AGL53]},
            CAP_ERR,
        ),
        (
            ["circuits", "--graph"],
            {"group": {"kind": "direct", "factors": [{"kind": "nope"}, AGL53]},
             "vertices": 2, "edges": []},
            "unknown group kind 'nope'",
        ),
    ],
    ids=[
        "frobpart", "rank", "rank-bad-gain", "recover-bad-kernel", "direct-agl-first",
        "direct-agl-second", "bad-factor-before-agl",
    ],
)
def test_a_group_above_the_limit_is_refused_unbuilt_after_other_input_errors(
    write, capsys, rows_spy, argv, spec, err
):
    """A group past the table cap is refused by its order as it is read:
    after errors in the input read before it (an earlier factor), before
    errors in the input read after it (a gain, the recovery kernel). No
    rows function runs, and no group but a trivial factor is made: not the
    group, nor Z53 or GF(53)*."""
    code, out, got = run(capsys, *argv, write("spec.json", spec))
    assert (code, out, got) == (2, "", f"error: {err}\n")
    assert rows_spy.built == []
    assert all(g.order == 1 for g in rows_spy.made)


@pytest.mark.parametrize("depth", [600, 3000])
@pytest.mark.parametrize("command", ["frobpart", "rank"])
def test_a_deeply_nested_spec_is_refused_in_one_line(write, capsys, command, depth):
    """Past the recursion limit in the spec walk (600 inversion levels) or in
    the JSON parser (3000), the spec is refused as a usage error."""
    group = '{"kind": "inversion", "base": ' * depth + '{"kind": "cyclic", "n": 3}' + "}" * depth
    if command == "frobpart":
        argv = ["--group", write("g.json", group)]
    else:
        argv = ["--graph", write("g.json", f'{{"vertices": 2, "edges": [], "group": {group}}}')]
    assert run(capsys, command, *argv) == (2, "", "error: spec is nested too deeply\n")


@pytest.mark.parametrize("reader", ["group", "graph"])
def test_a_deeply_nested_spec_is_a_value_error_in_process(reader):
    """Library callers of the spec readers get the CLI's refusal too: 600
    inversion levels over Z3 raise ValueError, not RecursionError."""
    group = {"kind": "cyclic", "n": 3}
    for _ in range(600):
        group = {"kind": "inversion", "base": group}
    with pytest.raises(ValueError) as info:
        if reader == "group":
            group_from_spec(group)
        else:
            graph_from_spec({"group": group, "vertices": 2, "edges": []})
    assert str(info.value) == "spec is nested too deeply"


DEPTH_ERR = "products nest more than 300 levels deep"


def _nested_semidirect(levels, fold_direct=False):
    """Z3 under ``levels`` trivial semidirect products by Z1, each read
    lazily through the one below; with ``fold_direct``, Z3 and ``levels``
    copies of Z1 in one direct product, which folds to the same chain."""
    z1, s = {"kind": "cyclic", "n": 1}, {"kind": "cyclic", "n": 3}
    if fold_direct:
        return {"kind": "direct", "factors": [s] + [z1] * levels}
    for _ in range(levels):
        s = {"kind": "semidirect", "g1": s, "g2": z1, "action": [[0, 1, 2]]}
    return s


@pytest.mark.parametrize("fold_direct", [False, True], ids=["semidirect", "direct"])
@pytest.mark.parametrize("levels, code", [(300, 0), (301, 2), (400, 2)])
def test_a_table_chain_past_the_spec_depth_is_refused_in_one_line(
    write, levels, code, fold_direct
):
    """A product keeps its unbuilt factors, so products nest at most 300
    levels deep: in the 1 GB child, 300 levels answer, and deeper specs are
    refused by the product depth bound as they are read, before any table is
    built."""
    child, _ = _frobpart_in_child(write("g.json", _nested_semidirect(levels, fold_direct)))
    assert child.returncode == code
    if code == 0:
        assert child.stdout.startswith("partition 1: kernel size 3;") and child.stderr == ""
    else:
        assert (child.stdout, child.stderr) == ("", f"error: {DEPTH_ERR}\n")


def test_a_long_flat_direct_product_is_refused_as_it_is_read(write):
    """A direct product folds each factor in as it reads it, so Z3 times
    200,000 copies of Z1 is refused at the 301st product, without making
    the factors after it."""
    child, seconds = _frobpart_in_child(write("g.json", _nested_semidirect(200_000, True)))
    assert seconds < 1.0
    assert (child.returncode, child.stdout, child.stderr) == (2, "", f"error: {DEPTH_ERR}\n")


@pytest.mark.parametrize(
    "group", [D6_SPEC, {"kind": "field_affine", "q": 5}], ids=["D6", "AGL(1,5)"]
)
@pytest.mark.parametrize(
    "argv",
    [
        ["rank"],
        ["bases", "--kernel", "auto"],
        ["circuits", "--kernel", "auto"],
        ["verify", "--kernel", "auto", "--axioms", "--minors"],
        ["minor", "--kernel", "auto"],
        ["matrix"],
    ],
    ids=["rank", "bases", "circuits", "verify", "minor", "matrix"],
)
def test_a_negative_vertex_count_is_refused(write, capsys, argv, group):
    spec = {"group": group, "vertices": -3, "edges": []}
    code, out, err = run(capsys, *argv, "--graph", write("g.json", spec))
    assert (code, out, err) == (2, "", "error: vertex count must be non-negative, got -3\n")


def test_frobpart_bad_file(write, capsys):
    code, out, err = run(capsys, "frobpart", "--group", write("g.json", {"kind": "nope"}))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize(
    "command, flag, spec, path",
    [
        ("frobpart", "--group", {"kind": "cyclic"}, "n"),
        (
            "frobpart",
            "--group",
            {"kind": "semidirect", "g1": {"kind": "cyclic", "n": 3},
             "g2": {"kind": "cyclic", "n": 2}, "action": 5},
            "action",
        ),
        ("matrix", "--graph", {"group": D6_SPEC, "edges": [[0, 1, 2]]}, "vertices"),
    ],
    ids=["cyclic-without-n", "semidirect-action-int", "graph-without-vertices"],
)
def test_malformed_spec_exits_cleanly(write, capsys, command, flag, spec, path):
    code, out, err = run(capsys, command, flag, write("spec.json", spec))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and f"field {path} " in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ([D6_SPEC], "graph spec must be a JSON object"),
        ({"group": {"file": 6}, "vertices": 1, "edges": []}, "spec field group.file must be a string"),
        (
            {"complete": {"group": {"file": None}, "n": 2}},
            "spec field complete.group.file must be a string",
        ),
        (
            {"group": D6_SPEC, "vertices": 2, "edges": [[0, 1, 2], 3]},
            "spec field edges[1] must be a list, got int",
        ),
        (
            {"group": D6_SPEC, "vertices": 2, "edges": [[0, 1, 2], [0, 1, False]]},
            "spec field edges[1][2] must be an integer, got bool",
        ),
    ],
    ids=["not-an-object", "file-not-a-string", "complete-file-not-a-string", "row-not-a-list",
         "cell-not-an-integer"],
)
def test_graph_spec_errors_name_their_field(write, capsys, spec, message):
    code, out, err = run(capsys, "rank", "--graph", write("spec.json", json.dumps(spec)))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_graph_spec_reads_its_group_from_a_file_beside_it(write, capsys):
    write("d6.json", D6_SPEC)
    edges = [[0, 1, 1], [1, 2, 3], [2, 0, 4], [0, 0, 2]]
    inline = {"group": D6_SPEC, "vertices": 3, "edges": edges}
    by_file = dict(inline, group={"file": "d6.json"})
    expected = run(capsys, "circuits", "--graph", write("inline.json", inline))
    assert expected[0] == 0 and expected[1]
    assert run(capsys, "circuits", "--graph", write("by_file.json", by_file)) == expected
    complete = {"complete": {"group": {"file": "d6.json"}, "n": 4}}
    assert run(capsys, "rank", "--graph", write("k4.json", complete)) == (0, "5\n", "")


def test_int_rows_formats_no_path_for_a_valid_table(monkeypatch):
    """A valid 1000-element table is checked by type alone: no cell's JSON
    path is formatted."""
    import frobmat.fileio as fileio

    calls = []
    where = fileio._where
    monkeypatch.setattr(fileio, "_where", lambda *a: calls.append(a) or where(*a))
    table = [list(range(1000))] * 1000
    assert fileio._int_rows(table, "table") is table
    assert calls == []


def test_oversized_complete_graph_exits_before_building(write, capsys, monkeypatch):
    import frobmat.gaingraph as gaingraph

    def no_edge(*args):
        raise AssertionError("an edge was built before the size check")

    # about 10^10 edges: an uncapped build would exhaust memory
    monkeypatch.setattr(gaingraph, "Edge", no_edge)
    spec = {"complete": {"group": {"kind": "cyclic", "n": 2}, "n": 100000}}
    code, out, err = run(capsys, "rank", "--graph", write("big.json", spec))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "above the cap" in err


def test_oversized_matrix_exits_before_allocating_rows(write, capsys, monkeypatch):
    import frobmat.represent as represent

    def no_rows(*args):
        raise AssertionError("matrix rows were allocated before the size check")

    # about 10^9 rows: an uncapped build would exhaust memory
    monkeypatch.setattr(represent, "range", no_rows, raising=False)
    spec = dict(FIGURE_SPEC, vertices=1_000_000_000)
    code, out, err = run(capsys, "matrix", "--graph", write("big.json", spec))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "above the cap" in err


def test_rank_empty_subset(write, capsys):
    path = write("k4.json", K4_D6_SPEC)
    code, out, _ = run(capsys, "rank", "--graph", path, "--kernel", "auto", "--subset", "")
    assert code == 0 and out == "0\n"


def test_rank_full_k4(write, capsys):
    path = write("k4.json", K4_D6_SPEC)
    code, out, _ = run(capsys, "rank", "--graph", path, "--kernel", "auto")
    assert code == 0 and out == "5\n"


def test_rank_lift_case_disjoint_loops(write, capsys):
    spec = {
        "group": {"kind": "cyclic", "n": 2},
        "vertices": 2,
        "edges": [[0, 0, 1], [1, 1, 1]],
    }
    path = write("loops.json", spec)
    code, out, _ = run(capsys, "rank", "--graph", path, "--kernel", "0,1")
    assert code == 0 and out == "1\n"


def test_circuits_of_tree_empty(write, capsys):
    spec = {
        "group": D6_SPEC,
        "vertices": 3,
        "edges": [[0, 1, 0], [1, 2, 3]],
    }
    code, out, _ = run(capsys, "circuits", "--graph", write("t.json", spec), "--kernel", "auto")
    assert code == 0 and out == ""


def test_circuits_of_spike(write, capsys):
    z2 = make_cyclic(2)
    ctx = FrobeniusContext(z2, frobenius_partitions(z2)[0])
    g, _ = build_spike_graph(ctx, 3)
    spec = graph_to_spec(g, {"kind": "cyclic", "n": 2})
    code, out, _ = run(capsys, "circuits", "--graph", write("s.json", spec), "--kernel", "0,1")
    assert code == 0
    lines = out.strip().splitlines()
    triples_through_tip = [ln for ln in lines if ln in ("0,1,6", "2,3,6", "4,5,6")]
    assert len(triples_through_tip) == 3


GOLDEN_D6_GRAPH = {
    "group": D6_SPEC,
    "vertices": 4,
    "edges": [
        [0, 1, 0], [1, 2, 3], [2, 3, 1], [0, 3, 4],
        [0, 2, 2], [1, 3, 5], [1, 1, 1], [3, 3, 3],
    ],
}

GOLDEN_D6_CIRCUITS = """0,1,2,3,6
0,1,2,4,6,7
0,1,3,4,7
0,1,4,5,6,7
0,2,3,4,5,7
0,2,4,5,6,7
0,3,5,6
1,2,5
1,3,4,5,6,7
2,3,4,6,7
"""


def test_circuits_golden(write, capsys):
    code, out, _ = run(
        capsys, "circuits", "--graph", write("g.json", GOLDEN_D6_GRAPH), "--kernel", "auto"
    )
    assert code == 0 and out == GOLDEN_D6_CIRCUITS


def test_bases_of_tree(write, capsys):
    spec = {"group": D6_SPEC, "vertices": 3, "edges": [[0, 1, 0], [1, 2, 0]]}
    code, out, _ = run(capsys, "bases", "--graph", write("t.json", spec), "--kernel", "auto")
    assert code == 0 and out == "0,1\n"


def d6_36_edge_spec():
    """36 random edges on 6 vertices over D6, under the 40-edge cycle cap."""
    rng = random.Random(0)
    edges = [[rng.randrange(6), rng.randrange(6), rng.randrange(6)] for _ in range(36)]
    return {"group": D6_SPEC, "vertices": 6, "edges": edges}


def test_bases_above_the_candidate_cap_exits_in_one_line(write, capsys):
    """The 36-edge D6 graph: the lift has rank 7, and C(36, 7) is about 8.3
    million candidates."""
    start = time.perf_counter()
    code, out, err = run(
        capsys, "bases", "--graph", write("g.json", d6_36_edge_spec()), "--kernel", "auto"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: more than 1000000 basis candidates of size 7\n"


@pytest.mark.parametrize(
    "command",
    [["circuits"], ["circuits", "--of", "linear-class"], ["verify", "--linear-class"]],
    ids=["circuits", "circuits-linear-class", "verify-linear-class"],
)
def test_circuit_families_above_the_pair_cap_exit_in_one_line(write, capsys, command):
    """The 36-edge D6 graph has 5,627 cycles; the unbalanced ones alone make
    more than a million pairs, refused before the first pair."""
    start = time.perf_counter()
    code, out, err = run(
        capsys, *command, "--graph", write("g.json", d6_36_edge_spec()), "--kernel", "auto"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: more than 1000000 pairs of unbalanced cycles\n"


def test_matrix_figure_golden(write, capsys):
    code, out, _ = run(capsys, "matrix", "--graph", write("fig.json", FIGURE_SPEC))
    assert code == 0
    assert out == "5 4 6\n3 1 0 2 0 4\n4 1 4 1 0 0\n0 2 1 0 1 0\n0 0 0 1 3 0\n"


def test_matrix_single_identity_edge(write, capsys):
    spec = {
        "group": {"kind": "field_affine", "q": 5},
        "vertices": 2,
        "edges": [[0, 1, 0]],
    }
    code, out, _ = run(capsys, "matrix", "--graph", write("e.json", spec))
    assert code == 0 and out == "5 3 1\n0\n1\n4\n"


def test_matrix_empty_graph(write, capsys):
    spec = {"group": {"kind": "field_affine", "q": 5}, "vertices": 0, "edges": []}
    code, out, _ = run(capsys, "matrix", "--graph", write("e.json", spec))
    assert code == 0 and out == "5 1 0\n"


def test_verify_figure_representation(write, capsys):
    code, out, _ = run(
        capsys, "verify", "--graph", write("fig.json", FIGURE_SPEC), "--representation"
    )
    assert code == 0 and out == "representation: PASS\n"


def test_verify_axioms_linear_class_minors(write, capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--graph", write("g.json", GOLDEN_D6_GRAPH),
        "--kernel", "auto",
        "--axioms", "--linear-class", "--minors",
    )
    assert code == 0
    assert out == "axioms: PASS\nlinear-class: PASS\nminors: PASS\n"


def _wrong_contraction(ctx, g, eid):
    return delete(ctx, g, eid)


def _swapped_deletion(ctx, g, eid):
    return contract(ctx, g, eid)


def _other_partition_deletion(index):
    """A wrong deletion: the deleted graph's lift under partition ``index``."""

    def wrong(ctx, g, eid):
        part = frobenius_partitions(ctx.group)[index]
        return LiftedMatroid(FrobeniusContext(ctx.group, part), delete(ctx, g, eid).graph)

    return wrong


AGL15_SPEC = {"kind": "field_affine", "q": 5}
MINORS_D6_9 = [
    [0, 2, 0], [1, 0, 3], [1, 1, 5], [1, 0, 0], [1, 0, 3], [1, 2, 0], [2, 1, 2],
    [2, 0, 4], [0, 1, 0],
]
MINORS_AGL_10 = [
    [0, 2, 17], [0, 1, 19], [1, 2, 18], [0, 2, 0], [1, 1, 17], [0, 0, 15], [2, 2, 15],
    [1, 2, 4], [0, 2, 4], [2, 1, 0],
]
MINORS_D6_15 = [
    [0, 0, 0], [2, 1, 5], [2, 2, 4], [1, 0, 4], [1, 3, 5], [3, 2, 4], [3, 2, 0], [0, 2, 3],
    [2, 3, 3], [1, 1, 1], [1, 0, 1], [2, 1, 1], [2, 1, 3], [3, 2, 4], [2, 2, 3],
]
MINORS_AGL_15 = [
    [1, 2, 3], [3, 3, 4], [0, 0, 0], [3, 2, 1], [1, 2, 8], [1, 0, 8], [1, 0, 8], [2, 1, 5],
    [2, 2, 11], [0, 2, 12], [1, 1, 7], [3, 2, 2], [2, 0, 9], [2, 1, 13], [3, 2, 13],
]
MINORS_D6_14A = [
    [3, 0, 3], [3, 1, 3], [1, 1, 5], [3, 0, 1], [0, 0, 1], [1, 2, 4], [2, 3, 3], [0, 0, 5],
    [2, 0, 5], [0, 1, 5], [2, 2, 1], [2, 2, 3], [0, 2, 4], [3, 0, 5],
]
MINORS_D6_16 = [
    [3, 0, 5], [3, 0, 1], [1, 3, 5], [3, 3, 5], [2, 2, 2], [2, 3, 3], [2, 0, 0], [3, 2, 0],
    [2, 1, 1], [0, 0, 2], [0, 3, 0], [0, 1, 4], [3, 3, 2], [1, 0, 5], [2, 1, 4], [0, 1, 2],
]
MINORS_D6_14B = [
    [3, 2, 5], [3, 3, 0], [2, 1, 4], [2, 1, 2], [0, 1, 2], [0, 3, 0], [2, 1, 0], [3, 3, 2],
    [3, 3, 3], [0, 0, 4], [1, 1, 4], [2, 0, 1], [1, 0, 3], [3, 0, 2],
]
MINORS_D6_18 = [
    [2, 1, 3], [0, 3, 5], [3, 3, 5], [0, 3, 3], [0, 3, 1], [0, 1, 0], [3, 0, 2], [0, 2, 5],
    [3, 2, 5], [3, 0, 0], [0, 0, 4], [3, 0, 1], [3, 3, 4], [1, 3, 1], [2, 3, 5], [2, 3, 1],
    [2, 0, 1], [1, 1, 3],
]
MINORS_AGL_20 = [
    [3, 2, 13], [0, 0, 1], [0, 1, 8], [3, 3, 18], [0, 1, 14], [1, 3, 16], [2, 3, 3], [2, 0, 17],
    [0, 1, 2], [2, 2, 3], [0, 3, 1], [3, 3, 7], [2, 1, 15], [2, 2, 13], [2, 0, 9], [2, 3, 9],
    [2, 0, 10], [3, 3, 12], [1, 1, 19], [1, 2, 0],
]


@pytest.mark.parametrize(
    "group, vertices, edges, seed, wrong, line",
    [
        # at most 17 edges: every subset of the rest, by size
        (D6_SPEC, 3, MINORS_D6_9, 0, {"contract": _wrong_contraction},
         "contraction of 0 differs on (3, 5)"),
        # both minors wrong on the same subsets: deletion is named
        (D6_SPEC, 3, MINORS_D6_9, 0,
         {"contract": _wrong_contraction, "delete": _swapped_deletion},
         "deletion of 0 differs on (3, 5)"),
        # the contraction's witness (3, 5) comes before the deletion's (1, 2, 3)
        (D6_SPEC, 3, MINORS_D6_9, 0,
         {"contract": _wrong_contraction, "delete": _other_partition_deletion(0)},
         "contraction of 0 differs on (3, 5)"),
        # the deletion's witness (4, 5) comes before the contraction's (1, 4, 8)
        (AGL15_SPEC, 3, MINORS_AGL_10, 0,
         {"contract": _wrong_contraction, "delete": _other_partition_deletion(0)},
         "deletion of 0 differs on (4, 5)"),
        # 14 to 16 edges, so at most 16 in the rest: every subset too, the
        # seed unused. Edge 0 of MINORS_D6_15 is a balanced loop, whose
        # contraction is its deletion, so edge 1 is named
        (D6_SPEC, 4, MINORS_D6_15, 7, {"contract": _wrong_contraction},
         "contraction of 1 differs on (4, 6)"),
        # both minors wrong on the same subsets, first on (7, 10): deletion
        (AGL15_SPEC, 4, MINORS_AGL_15, 7,
         {"contract": _wrong_contraction, "delete": _swapped_deletion},
         "deletion of 0 differs on (7, 10)"),
        # the contraction's (3, 7) and the deletion's (4, 7): same size, and
        # the contraction's ids come first
        (D6_SPEC, 4, MINORS_D6_14A, 10,
         {"contract": _wrong_contraction, "delete": _other_partition_deletion(1)},
         "contraction of 0 differs on (3, 7)"),
        # the deletion's (7, 8) is smaller than the contraction's (2, 4, 13)
        (D6_SPEC, 4, MINORS_D6_14B, 30,
         {"contract": _wrong_contraction, "delete": _other_partition_deletion(0)},
         "deletion of 0 differs on (7, 8)"),
        # the deletion's (3, 4) comes before the contraction's (3, 10)
        (D6_SPEC, 4, MINORS_D6_16, 1190,
         {"contract": _wrong_contraction, "delete": _other_partition_deletion(0)},
         "deletion of 0 differs on (3, 4)"),
        # above 17 edges: the empty set, the walked prefixes of the rest, then
        # seeded halves; here the prefix of 7 edges names the contraction
        (D6_SPEC, 4, MINORS_D6_18, 0, {"contract": _wrong_contraction},
         "contraction of 0 differs on (1, 2, 3, 4, 5, 6, 7)"),
        # the deletion's prefix (1, 2, 3) comes before the contraction's of 6
        (AGL15_SPEC, 4, MINORS_AGL_20, 0,
         {"contract": _wrong_contraction, "delete": _other_partition_deletion(0)},
         "deletion of 0 differs on (1, 2, 3)"),
    ],
)
def test_verify_minors_names_the_first_wrong_minor(
    write, capsys, monkeypatch, group, vertices, edges, seed, wrong, line
):
    """With a wrong minor injected, the report names the least of the
    deletion and contraction witnesses, by size and then by sorted ids, and
    the deletion on a tie."""
    for name, fn in wrong.items():
        monkeypatch.setattr(cli, name, fn)
    spec = {"group": group, "vertices": vertices, "edges": edges}
    code, out, err = run(
        capsys, "verify", "--graph", write("g.json", spec), "--kernel", "auto",
        "--minors", "--seed", str(seed),
    )
    assert (code, out, err) == (1, f"minors: FAIL ({line})\n", "")


@functools.lru_cache(maxsize=None)
def _minor_fault_graph(spec_name, edges):
    """A graph of ``edges`` random edges on 4 vertices over the named group,
    its context under the one nontrivial partition and its lift."""
    spec = {"D6": D6_SPEC, "AGL(1,5)": AGL15_SPEC}[spec_name]
    rng = random.Random(f"minor-faults/{spec_name}/{edges}")
    order = group_from_spec(spec).order
    triples = [[rng.randrange(4), rng.randrange(4), rng.randrange(order)] for _ in range(edges)]
    graph = graph_from_spec({"group": spec, "vertices": 4, "edges": triples})
    ctx = FrobeniusContext(graph.group, cli._select_partition(graph.group, "auto"))
    return graph, ctx, LiftedMatroid(ctx, graph)


def minor_faults():
    """The minors corpus: on D6 and AGL(1,5) graphs of 13 to 20 edges, one
    graph per group and size, four faults each. A fault is (name, group,
    edges, kind, edge, set): the deletion or the contraction of a random
    edge, one above its rank on one random set of the other edges with
    fewer elements than the minor's full rank, so below it. Two faults per
    graph are deletions and two contractions."""
    faults = []
    for spec_name in ("D6", "AGL(1,5)"):
        for edges in range(13, 21):
            graph, ctx, _ = _minor_fault_graph(spec_name, edges)
            rng = random.Random(f"minor-fault-sets/{spec_name}/{edges}")
            for kind in ("deletion", "deletion", "contraction", "contraction"):
                e = rng.randrange(edges)
                minor = (delete if kind == "deletion" else contract)(ctx, graph, e)
                held = sorted(rng.sample(minor.ground, rng.randint(1, minor.full_rank() - 1)))
                name = f"{spec_name}/{edges}/{kind}/{e}/{'.'.join(map(str, held))}"
                faults.append((name, spec_name, edges, kind, e, tuple(held)))
    return faults


def _compared_by_300_halves(edges, e, held, seed):
    """Whether the minor check before the shared comparison asked ``held``
    of edge e's minors at ``seed``: every subset of the other edges when
    there were at most 12 of them, else 300 halves of them drawn from one
    rng shared from edge to edge. A fault off on ``held`` alone was refused
    exactly when it was asked."""
    rng = random.Random(seed)
    for edge in range(e + 1):
        rest = tuple(i for i in range(edges) if i != edge)
        sample = None if len(rest) <= 12 else list(subset_sweep(rest, 300, rng))
    return sample is None or held in sample


def _verify_minor_fault(monkeypatch, spec_name, edges, kind, e, held, seed):
    """``_verify_minors`` with one minor of edge e one above its rank on
    ``held``."""
    graph, ctx, oracle = _minor_fault_graph(spec_name, edges)

    def faulty(right, right_kind):
        def build(ctx, g, eid):
            minor = right(ctx, g, eid)
            if (eid, right_kind) != (e, kind):
                return minor
            return FuncOracle(minor.ground, lambda s: minor.rank(s) + (s == frozenset(held)))

        return build

    monkeypatch.setattr(cli, "delete", faulty(delete, "deletion"))
    monkeypatch.setattr(cli, "contract", faulty(contract, "contraction"))
    return cli._verify_minors(ctx, graph, oracle, seed)


def test_minor_faults_refused_by_300_halves_are_still_refused(monkeypatch):
    """Every fault of ``minor_faults`` that the minor check refused at one of
    seeds 0 to 3 when it asked 300 halves above 12 other edges is refused by
    the shared comparison at that seed, and the check names that edge's
    minor on ``held``: no other set differs. Those are the 8 faults on 13
    edges, at every seed, and 3 on 14 or 16 edges, where a half hit ``held``
    at some seeds; the shared comparison asks every set of 16 or fewer
    other edges."""
    refused = [
        (fault, seed)
        for fault in minor_faults()
        for seed in range(4)
        if _compared_by_300_halves(fault[2], fault[4], fault[5], seed)
    ]
    assert len(refused) == 8 * 4 + 6
    assert {fault[2] for fault, _ in refused} == {13, 14, 16}
    for (name, spec_name, edges, kind, e, held), seed in refused:
        ok, detail = _verify_minor_fault(monkeypatch, spec_name, edges, kind, e, held, seed)
        assert (ok, detail) == (False, f"{kind} of {e} differs on {held}"), name


def test_verify_without_a_check_exits_before_loading_the_graph(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")  # loading it would fail differently
    code, out, err = run(capsys, "verify", "--graph", missing)
    assert code == 2 and out == ""
    assert err == (
        "error: verify needs at least one of --axioms, --linear-class,"
        " --representation, --minors\n"
    )


def test_verify_prints_no_report_lines_before_an_error(write, capsys):
    """The axioms pass on a D6 graph, but a representation needs a
    make_field_affine group: only the one error line is written."""
    code, out, err = run(
        capsys,
        "verify",
        "--graph", write("g.json", GOLDEN_D6_GRAPH),
        "--kernel", "auto",
        "--axioms", "--representation",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_verify_corrupted_class_file(write, capsys):
    # identity-gain theta: three balanced cycles, any two force the third
    theta = {
        "group": D6_SPEC,
        "vertices": 3,
        "edges": [[0, 1, 0], [0, 1, 0], [0, 2, 0], [2, 1, 0]],
    }
    path = write("class.txt", "0,2,3\n1,2,3\n")  # the digon 0,1 is missing
    code, out, _ = run(
        capsys,
        "verify",
        "--graph", write("g.json", theta),
        "--kernel", "auto",
        "--linear-class", path,
    )
    assert code == 1
    assert "linear-class: FAIL" in out and "witness" in out


def test_minor_delete_only(write, capsys):
    spec = {"group": D6_SPEC, "vertices": 3, "edges": [[0, 1, 0], [1, 2, 3], [0, 2, 2]]}
    code, out, _ = run(
        capsys, "minor", "--graph", write("g.json", spec), "--kernel", "auto",
        "--delete", "1",
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 3
    assert data["edges"] == [[0, 1, 0], [0, 2, 2]]


def test_minor_contract_merges_vertex(write, capsys):
    spec = {"group": D6_SPEC, "vertices": 3, "edges": [[0, 1, 0], [1, 2, 3]]}
    code, out, _ = run(
        capsys, "minor", "--graph", write("g.json", spec), "--kernel", "auto",
        "--contract", "0",
    )
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == 2
    assert len(data["edges"]) == 1


@pytest.mark.parametrize(
    "group, edges, loop, want",
    [
        (
            D6_SPEC,
            [[0, 1, 3], [0, 0, 1], [1, 2, 4], [2, 0, 5], [1, 1, 2], [0, 2, 1], [2, 2, 3]],
            1,
            [[0, 1, 3], [1, 2, 3], [2, 0, 3], [1, 1, 0], [0, 2, 0], [2, 2, 3]],
        ),
        (
            AGL15_SPEC,
            [[0, 1, 13], [1, 2, 6], [2, 2, 8], [0, 2, 11], [1, 1, 19], [2, 0, 7], [0, 0, 2]],
            2,
            [[0, 1, 1], [1, 2, 2], [0, 2, 3], [1, 1, 3], [2, 0, 3], [0, 0, 2]],
        ),
    ],
    ids=["D6", "AGL(1,5)"],
)
def test_minor_contract_kernel_loop_output(write, capsys, group, edges, loop, want):
    """Contracting a non-identity kernel loop maps every gain into the first
    complement through the quotient."""
    spec = {"group": group, "vertices": 3, "edges": edges}
    code, out, err = run(
        capsys, "minor", "--graph", write("g.json", spec), "--kernel", "auto",
        "--contract", str(loop),
    )
    want_spec = {"group": group, "vertices": 3, "edges": want}
    assert (code, out, err) == (0, json.dumps(want_spec, indent=1) + "\n", "")


def test_minor_invalid_edge_errors(write, capsys):
    spec = {"group": D6_SPEC, "vertices": 2, "edges": [[0, 1, 0]]}
    code, _, err = run(
        capsys, "minor", "--graph", write("g.json", spec), "--kernel", "auto",
        "--contract", "9",
    )
    assert code == 2 and "error:" in err


def test_recover_round_trip_d6(write, capsys):
    code, out, _ = run(
        capsys, "recover", "--graph", write("k4.json", K4_D6_SPEC), "--kernel", "0,1,2"
    )
    assert code == 0
    assert "kernel: 0,1,2" in out
    assert out.count("complement:") == 3


def test_recover_lift_class_from_file(write, capsys):
    z2 = make_cyclic(2)
    part = frobenius_partitions(z2)[0]
    ctx = FrobeniusContext(z2, part)
    from frobmat import complete_gain_graph

    k4 = complete_gain_graph(z2, 4)
    lc = linear_class(ctx, k4)
    class_path = write("class.txt", format_circuits(lc))
    spec = {"complete": {"group": {"kind": "cyclic", "n": 2}, "n": 4}}
    code, out, _ = run(
        capsys, "recover", "--graph", write("k4.json", spec), "--kernel", "0,1",
        "--class", class_path,
    )
    assert code == 0
    assert "kernel size 2; complement sizes: none" in out


def test_recover_rejects_class_violating_cycles(write, capsys):
    z2 = make_cyclic(2)
    part = frobenius_partitions(z2)[0]
    ctx = FrobeniusContext(z2, part)
    from frobmat import complete_gain_graph

    k4 = complete_gain_graph(z2, 4)
    lc = list(linear_class(ctx, k4))
    balanced_triangles = [c for c in lc if len(c) == 3]
    lc.remove(balanced_triangles[0])
    class_path = write("class.txt", format_circuits(lc))
    spec = {"complete": {"group": {"kind": "cyclic", "n": 2}, "n": 4}}
    code, _, err = run(
        capsys, "recover", "--graph", write("k4.json", spec), "--kernel", "0,1",
        "--class", class_path,
    )
    assert code == 2
    assert "error:" in err


def test_recover_refuses_a_non_frobenius_kernel(write, capsys):
    """The converse theorem: Z4 is not Frobenius with kernel {0, 2}, so the
    class of its 256 balanced cycles of K_4 is not that of an elementary
    lift of the quotient frame matroid, and recovery refuses it."""
    k4 = complete_gain_graph(make_cyclic(4), 4)
    balanced = [c for c in enumerate_cycles(k4) if is_balanced_cycle(k4, c)]
    assert len(balanced) == 256
    spec = {"complete": {"group": {"kind": "cyclic", "n": 4}, "n": 4}}
    code, out, err = run(
        capsys, "recover", "--graph", write("k4.json", spec), "--kernel", "0,2",
        "--class", write("class.txt", format_circuits(balanced)),
    )
    assert code == 2 and out == ""
    assert err == "error: bundle of the identity and 1 does not have rank n\n"


def _z4_balanced_class():
    k4 = complete_gain_graph(make_cyclic(4), 4)
    return format_circuits([c for c in enumerate_cycles(k4) if is_balanced_cycle(k4, c)])


@pytest.mark.parametrize(
    "group, kernel, class_file, phases, parts",
    [
        (D6_SPEC, "0,1,2", None, ["cycles", "bundles", "final"],
         ["empty", "bundles", "prefixes", "halves"]),
        # 12 edges: the final comparison walks both oracles
        ({"kind": "cyclic", "n": 2}, "0", None, ["cycles", "bundles", "final"], ["subsets"]),
        # refused by the bundle relation, so no final comparison
        ({"kind": "cyclic", "n": 4}, "0,2", _z4_balanced_class, ["cycles", "bundles"], None),
    ],
    ids=["K4-D6", "K4-Z2", "K4-Z4-refused"],
)
def test_recover_stats_go_to_stderr_and_leave_stdout_alone(
    write, capsys, group, kernel, class_file, phases, parts
):
    """``--stats`` adds one JSON line to stderr, before any error line, and
    changes neither stdout nor the exit code. The phases that ran are
    listed in order, their counts add up to the total, and the cycle phase
    asks one query per N-circuit of its stream, ``asked_cycle_count``: 46
    on D6 with the kernel Z3, 10 on Z2 with the trivial kernel and 23 on Z4
    with the kernel Z2. The final comparison's parts are listed in order, and
    their counts and seconds add up to the phase's."""
    argv = ["recover", "--graph", write("k4.json", {"complete": {"group": group, "n": 4}})]
    argv += ["--kernel", kernel]
    if class_file is not None:
        argv += ["--class", write("class.txt", class_file())]
    code, out, err = run(capsys, *argv)
    stats_code, stats_out, stats_err = run(capsys, *argv, "--stats")
    assert code == (2 if class_file else 0)
    assert (stats_code, stats_out) == (code, out)
    line, rest = stats_err.split("\n", 1)
    assert rest == err
    stats = json.loads(line)
    queries = stats["rank_queries"]
    assert list(queries) == phases + ["total"] and list(stats["seconds"]) == phases
    assert sum(queries[p] for p in phases) == queries["total"]
    asked = asked_cycle_count(group_from_spec(group), map(int, kernel.split(",")), 4)
    assert queries["cycles"] == asked
    assert all(seconds >= 0 for seconds in stats["seconds"].values())
    if parts is None:
        assert "final_parts" not in stats
        return
    split = stats["final_parts"]
    assert list(split["rank_queries"]) == parts and list(split["seconds"]) == parts
    assert sum(split["rank_queries"].values()) == queries["final"]
    assert sum(split["seconds"].values()) == pytest.approx(stats["seconds"]["final"])
    assert all(seconds >= 0 for seconds in split["seconds"].values())


@pytest.mark.parametrize("with_class", [False, True])
def test_recover_rejects_out_of_range_kernel(write, capsys, with_class):
    spec = {"complete": {"group": {"kind": "cyclic", "n": 2}, "n": 4}}
    args = ["recover", "--graph", write("k4.json", spec), "--kernel", "0,99"]
    if with_class:
        args += ["--class", write("c.txt", "0,1\n")]
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "99" in err


TWO_EDGE_D6 = {"group": D6_SPEC, "vertices": 2, "edges": [[0, 1, 1], [0, 1, 3]]}

SEVENTEEN_EDGES = {
    "group": D6_SPEC,
    "vertices": 3,
    "edges": [[i % 3, (i + 1) % 3, i % 6] for i in range(17)],
}


@pytest.mark.parametrize(
    "argv, spec, message",
    [
        (["rank"], {"group": D6_SPEC, "vertices": 2, "edges": [[0, 2, 0]]},
         "edge 0 has an endpoint out of range"),
        (["rank"], {"group": D6_SPEC, "vertices": 2, "edges": [[0, 1, 6]]},
         "edge 0 has gain out of range"),
        (["recover", "--kernel", "1,2"], K4_D6_SPEC, "subgroup must contain the identity 0"),
        (["recover", "--kernel", "0,0"], K4_D6_SPEC, "kernel element 0 is listed more than once"),
        (["rank", "--kernel", "0,1,2,2"], TWO_EDGE_D6, "kernel element 2 is listed more than once"),
        (["bases", "--kernel", "2,0,1,2"], TWO_EDGE_D6, "kernel element 2 is listed more than once"),
        (["minor", "--delete", "99"], GOLDEN_D6_GRAPH, "no edge 99"),
        # rank_table tabulates at most biased.EXHAUSTIVE_LIMIT (16) elements
        (["verify", "--axioms"], SEVENTEEN_EDGES, "ground set larger than 16"),
        (["frobpart"], {"kind": "direct", "factors": [{"kind": "cyclic", "n": 3}]},
         "direct product needs at least two factors"),
        (["rank"], {"complete": [D6_SPEC, 4]}, "spec field complete must be an object"),
    ],
    ids=[
        "rank-endpoint", "rank-gain", "recover-kernel-without-identity",
        "recover-kernel-repeated", "rank-kernel-repeated", "bases-kernel-repeated",
        "minor-delete-unknown", "verify-axioms-17-edges",
        "direct-one-factor", "complete-not-an-object",
    ],
)
def test_a_refused_input_exits_in_one_line(write, capsys, argv, spec, message):
    flag = "--group" if argv[0] == "frobpart" else "--graph"
    code, out, err = run(capsys, argv[0], flag, write("in.json", spec), *argv[1:])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _identity_theta():
    """Three balanced cycles (the digon 0,1 and the triangles 0,2,3 and
    1,2,3): its linear class is all three."""
    return {"group": D6_SPEC, "vertices": 3, "edges": [[0, 1, 0], [0, 1, 0], [0, 2, 0], [2, 1, 0]]}


def test_verify_names_a_class_file_set_that_is_no_host_circuit(write, capsys):
    code, out, err = run(
        capsys, "verify", "--graph", write("g.json", _identity_theta()),
        "--linear-class", write("class.txt", "0,1\n0,1,2\n"),
    )
    assert (code, err) == (1, "")
    assert out == (
        "linear-class: FAIL (candidate [0, 1, 2] is not a circuit of the host)\n"
    )


def test_blank_lines_of_a_class_file_are_skipped(write, capsys):
    graph = write("g.json", _identity_theta())
    for text in ("0,1\n0,2,3\n1,2,3\n", "\n0,1\n\n  \n0,2,3\n1,2,3\n\n"):
        code, out, err = run(capsys, "verify", "--graph", graph, "--linear-class", write("c.txt", text))
        assert (code, out, err) == (0, "linear-class: PASS\n", "")


def test_recover_refuses_a_cycle_set_above_the_cap_before_building_any(
    write, capsys, monkeypatch
):
    """Above order 10 recovery counts every digon and every balanced
    triangle through vertex 0 against the cap: on K_46 over Z96 that is
    13,843,440 cycles, counted and refused before one is built."""

    _refuse_cycle_streams(monkeypatch)
    spec = {"complete": {"group": {"kind": "cyclic", "n": 96}, "n": 46}}
    start = time.perf_counter()
    code, out, err = run(capsys, "recover", "--graph", write("k46.json", spec), "--kernel", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: more than 1000000 cycles\n")


def test_recover_refuses_every_cycle_above_the_cap_before_streaming_any(
    write, capsys, monkeypatch
):
    """Up to order 10 recovery counts every cycle against the cap, an upper
    bound on what its cycle check asks: on K_5 over D10 that is 1,360,450,
    counted and refused before the cycle stream is started."""
    _refuse_cycle_streams(monkeypatch)
    spec = {"complete": {"group": {"kind": "dihedral", "order": 10}, "n": 5}}
    code, out, err = run(capsys, "recover", "--graph", write("k5.json", spec), "--kernel", "0")
    assert (code, out, err) == (2, "", "error: more than 1000000 cycles\n")


def _refuse_cycle_streams(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the cycle stream was started")

    monkeypatch.setattr("frobmat.recovery._reduced_cycles", fail)


def test_recover_class_refuses_too_many_cycles_before_listing_any(write, capsys, monkeypatch):
    """K_5 over D20 has more than 10^6 cycles; the class-lift oracle would
    list them all at its first query."""

    def fail(*args, **kwargs):
        raise AssertionError("cycles were listed")

    monkeypatch.setattr("frobmat.biased.enumerate_cycles", fail)
    spec = {"complete": {"group": {"kind": "dihedral", "order": 20}, "n": 5}}
    code, out, err = run(
        capsys, "recover", "--graph", write("k5.json", spec), "--kernel", "0",
        "--class", write("c.txt", "0,1\n"),
    )
    assert code == 2 and out == ""
    assert err == "error: more than 1000000 cycles\n"


@pytest.mark.parametrize(
    "command, flag",
    [(c, "--seed") for c in ("frobpart", "rank", "circuits", "bases", "matrix", "minor")]
    + [
        (c, "--limit")
        for c in ("frobpart", "rank", "circuits", "bases", "matrix", "verify", "minor", "recover")
    ],
)
def test_unread_flags_are_refused_in_one_line(write, capsys, command, flag):
    source = ["--group", write("d6.json", D6_SPEC)] if command == "frobpart" else [
        "--graph", write("g.json", FIGURE_SPEC)
    ]
    if command == "recover":
        source += ["--kernel", "0"]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, flag, "1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("error: unrecognized arguments") and err.count("\n") == 1


# Graph specs the error-path test mutates: every group kind, a complete graph
# and loops.
MUTABLE_SPECS = [
    FIGURE_SPEC,
    {"complete": {"group": {"kind": "cyclic", "n": 3}, "n": 4}},
    {
        "group": {"kind": "table", "table": [[0, 1], [1, 0]]},
        "vertices": 2,
        "edges": [[0, 1, 1], [1, 1, 0], [0, 1, 0]],
    },
    {
        "group": {
            "kind": "semidirect",
            "g1": {"kind": "cyclic", "n": 3},
            "g2": {"kind": "cyclic", "n": 2},
            "action": [[0, 1, 2], [0, 2, 1]],
        },
        "vertices": 3,
        "edges": [[0, 1, 2], [1, 2, 3], [2, 0, 5], [1, 1, 4]],
    },
    {
        "group": {"kind": "inversion", "base": {"kind": "cyclic", "n": 5}},
        "vertices": 2,
        "edges": [[0, 1, 1], [0, 1, 6], [0, 0, 3]],
    },
    {
        "group": {
            "kind": "direct",
            "factors": [{"kind": "cyclic", "n": 2}, {"kind": "dihedral", "order": 6}],
        },
        "vertices": 3,
        "edges": [[0, 1, 7], [1, 2, 0], [2, 2, 11]],
    },
]

# Small integers only, plus one far past every cap: a group spec of order
# near the table cap would be valid and slow to build.
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.just(10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
ID_TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["", " ", "a", "1.5", "+2", "0x1", "9" * 30, "1 2"]),
)


def _paths(node, at=()):
    yield at
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, at + (key,))


def _mutate(data, spec):
    """Replace, delete or append at one place in a copy of the spec."""
    spec = json.loads(json.dumps(spec))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(spec))))
        if not path:
            continue
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        action = data.draw(st.sampled_from(["replace", "delete", "append"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "append" and isinstance(parent[path[-1]], list):
            parent[path[-1]].append(data.draw(JSON_VALUES))
        else:
            parent[path[-1]] = data.draw(JSON_VALUES)
    return spec


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_specs_and_subsets_answer_or_fail_in_one_line(tmp_path_factory, data):
    spec = _mutate(data, data.draw(st.sampled_from(MUTABLE_SPECS)))
    path = tmp_path_factory.mktemp("spec") / "graph.json"
    path.write_text(json.dumps(spec))
    command = data.draw(st.sampled_from(["rank", "matrix"]))
    args = [command, "--graph", str(path)]
    if command == "rank":
        args += ["--kernel", data.draw(st.sampled_from(["auto", "0"]))]
        if data.draw(st.booleans()):
            args += ["--subset", ",".join(data.draw(st.lists(ID_TOKENS, max_size=5)))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    if code == 0:
        assert err.getvalue() == ""
        if command == "rank":
            assert out.getvalue().strip().isdigit()
        else:  # a matrix, whose header line is "q rows cols"
            words = out.getvalue().splitlines()[0].split()
            assert len(words) == 3 and all(w.isdigit() for w in words)
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


MINOR_CONTEXTS = [
    [FrobeniusContext(grp, p, validate=False) for p in frobenius_partitions(grp)]
    for grp in (make_dihedral(6), make_field_affine(5))
]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_oracle_minor_walks_match_per_subset_rank(seed):
    """The deletion and contraction walks of the oracle-level minor, which
    stop at full rank, against the minor's per-subset rank, and the lift's
    own minors against them, on every edge of a random D6 or F20 graph."""
    rng = random.Random(seed)
    ctx = rng.choice(MINOR_CONTEXTS[seed % 2])
    g = random_gain_graph(ctx.group, rng, max_vertices=4, max_edges=8)
    m = LiftedMatroid(ctx, g)
    for e in m.ground:
        for lifted, contracting in ((delete, False), (contract, True)):
            minor = cli._OracleMinor(m, e, contracting)
            assert rank_table(minor) == rank_table(FuncOracle(minor.ground, minor.rank))
            assert first_disagreement(lifted(ctx, g, e), minor) is None
