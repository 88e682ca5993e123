"""Command-line surface: deterministic, text-first, golden-file friendly.

Exit code 0 means every requested check passed; parse and limit errors go to
stderr with a nonzero exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fileio
from .biased import (
    BiasedGraph,
    ClassLiftOracle,
    FrameOracle,
    RankOracle,
    comparison_parts,
    frame_circuits,
    is_linear_class,
    matroid_axiom_check,
)
from .errors import LimitExceeded, RecoveryError
from .gaingraph import DEFAULT_CYCLE_COUNT_LIMIT, GainGraph, quotient_gains
from .groups import FiniteGroup, FrobeniusPartition, Subgroup, frobenius_partitions
from .groups import quotient as group_quotient
from .lifts import (
    FrobeniusContext,
    LiftedMatroid,
    bases,
    circuits,
    contract,
    delete,
    linear_class,
)
from .recovery import complete_cycle_count, recover_partition
from .represent import incidence_matrix, verify_representation


def _parse_kernel(text: str) -> tuple[int, ...]:
    """The kernel elements of a ``--kernel`` list, sorted; refuses a repeat."""
    elements = fileio.parse_id_list(text)
    for i, x in enumerate(elements):
        if x in elements[:i]:
            raise ValueError(f"kernel element {x} is listed more than once")
    return tuple(sorted(elements))


def _select_partition(group: FiniteGroup, selector: str) -> FrobeniusPartition:
    parts = frobenius_partitions(group)
    if selector == "auto":
        nontrivial = [p for p in parts if p.is_nontrivial(group.order)]
        if len(nontrivial) != 1:
            raise ValueError(
                f"'auto' needs exactly one nontrivial partition, found {len(nontrivial)}"
            )
        return nontrivial[0]
    want = _parse_kernel(selector)
    for p in parts:
        if p.kernel.elements == want:
            return p
    raise ValueError(f"no Frobenius partition has kernel {list(want)}")


def _context(args) -> tuple[FiniteGroup, GainGraph, FrobeniusContext]:
    graph = fileio.load_graph(args.graph)
    part = _select_partition(graph.group, args.kernel)
    return graph.group, graph, FrobeniusContext(graph.group, part, validate=False)


def cmd_frobpart(args) -> int:
    group = fileio.load_group(args.group)
    parts = frobenius_partitions(group)
    for i, p in enumerate(parts, start=1):
        print(fileio.format_partition(group, p, i))
    return 0


def cmd_rank(args) -> int:
    _, graph, ctx = _context(args)
    oracle = LiftedMatroid(ctx, graph)
    subset = (
        fileio.parse_id_list(args.subset)
        if args.subset is not None
        else list(oracle.ground)
    )
    print(oracle.rank(subset))
    return 0


def cmd_circuits(args) -> int:
    _, graph, ctx = _context(args)
    fam = linear_class(ctx, graph) if args.of == "linear-class" else circuits(ctx, graph)
    sys.stdout.write(fileio.format_circuits(fam))
    return 0


def cmd_bases(args) -> int:
    _, graph, ctx = _context(args)
    sys.stdout.write(fileio.format_circuits(bases(ctx, graph)))
    return 0


def cmd_matrix(args) -> int:
    graph = fileio.load_graph(args.graph)
    sys.stdout.write(incidence_matrix(graph).to_text())
    return 0


def cmd_verify(args) -> int:
    if not (args.axioms or args.linear_class is not None or args.representation or args.minors):
        raise ValueError(
            "verify needs at least one of --axioms, --linear-class, --representation, --minors"
        )
    _, graph, ctx = _context(args)
    oracle = LiftedMatroid(ctx, graph)
    # printed once every requested check has returned, so an error in a later
    # check leaves its one ``error:`` line alone
    lines: list[str] = []
    failures = 0

    def report(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail and not ok:
            line += f" ({detail})"
        lines.append(line)
        failures += 0 if ok else 1

    if args.axioms:
        ok, witness = matroid_axiom_check(oracle)
        report("axioms", ok, f"witness {witness}")
    if args.linear_class is not None:
        host = FrameOracle(oracle.quotient_biased)
        host_circuits = frame_circuits(oracle.quotient_biased)
        if args.linear_class == "":
            cand = linear_class(ctx, graph, frame=host_circuits)
        else:
            cand = fileio.parse_circuits(Path(args.linear_class).read_text())
        try:
            ok, witness = is_linear_class(host, host_circuits, cand)
            detail = f"modular-pair witness {witness}"
        except ValueError as exc:
            ok, detail = False, str(exc)
        report("linear-class", ok, detail)
    if args.representation:
        ok, witness = verify_representation(ctx, graph, seed=args.seed)
        report("representation", ok, f"witness subset {witness}")
    if args.minors:
        ok, detail = _verify_minors(ctx, graph, oracle, args.seed)
        report("minors", ok, detail)
    print("\n".join(lines))
    return 1 if failures else 0


class _OracleMinor(RankOracle):
    """``oracle`` with edge e deleted, or contracted when ``contracting``:
    r(X + C) - r(C) on the other edges, where C is {e} or empty. The walk
    steps through C first, so it is monotone when the oracle's walk is."""

    def __init__(self, oracle: RankOracle, e: int, contracting: bool):
        self.oracle, self.lead = oracle, (e,) if contracting else ()
        self.offset = oracle.rank(self.lead)
        self.ground = tuple(i for i in oracle.ground if i != e)
        self.incremental = oracle.incremental

    def rank(self, subset) -> int:
        return self.oracle.rank((*self.lead, *subset)) - self.offset

    def walk(self):
        state, _, step = self.oracle.walk()
        for e in self.lead:
            state, _ = step(state, e, True)
        offset = self.offset

        def minor_step(state, x: int, last: bool):
            child, r = step(state, x, last)
            return child, r - offset

        return state, 0, minor_step


def _verify_minors(ctx, graph, oracle, seed: int) -> tuple[bool, str]:
    """Each single-edge minor must match the oracle-level minor on the parts
    of ``comparison_parts`` over the other edges, with ``seed`` for each
    edge. Of an edge's two witnesses the least by size and then sorted ids
    is named, the deletion's on a tie."""
    for e in graph.edges:
        parts = comparison_parts(tuple(i for i in oracle.ground if i != e.id), seed)
        found = []
        for kind, build in (("deletion", delete), ("contraction", contract)):
            a, b = build(ctx, graph, e.id), _OracleMinor(oracle, e.id, kind == "contraction")
            bad = next((s for _, compare in parts if (s := compare(a, b)) is not None), None)
            if bad is not None:
                found.append(((len(bad), tuple(sorted(bad))), kind, bad))
        if found:
            # min keeps the first of equal keys: the deletion
            _, kind, bad = min(found, key=lambda f: f[0])
            return False, f"{kind} of {e.id} differs on {bad}"
    return True, ""


def cmd_minor(args) -> int:
    _, graph, ctx = _context(args)
    current = graph
    for eid in fileio.parse_id_list(args.delete or ""):
        current = delete(ctx, current, eid).graph
    for eid in fileio.parse_id_list(args.contract or ""):
        current = contract(ctx, current, eid).graph
    raw = json.loads(Path(args.graph).read_text())
    group_spec = raw.get("group") or raw.get("complete", {}).get("group")
    print(json.dumps(fileio.graph_to_spec(current, group_spec), indent=1))
    return 0


def cmd_recover(args) -> int:
    graph = fileio.load_graph(args.graph)
    group = graph.group
    kernel = Subgroup(_parse_kernel(args.kernel))
    n = graph.vertex_count
    if args.cls:
        members = fileio.parse_circuits(Path(args.cls).read_text())
        qgraph = quotient_gains(graph, group_quotient(group, kernel))
        # the oracle lists every cycle of its host at its first query; the
        # host of K_n has complete_cycle_count of them, and recovery
        # refuses any other graph
        if complete_cycle_count(group.order, n) > DEFAULT_CYCLE_COUNT_LIMIT:
            raise LimitExceeded(f"more than {DEFAULT_CYCLE_COUNT_LIMIT} cycles")
        oracle = ClassLiftOracle(BiasedGraph(qgraph), members)
    else:
        part = _select_partition(group, args.kernel)
        oracle = LiftedMatroid(FrobeniusContext(group, part, validate=False), graph)
    stats = {} if args.stats else None
    try:
        recovered = recover_partition(group, kernel, n, oracle, seed=args.seed, stats=stats)
    finally:
        if stats is not None:
            print(json.dumps(stats), file=sys.stderr)
    print(fileio.format_partition(group, recovered, 1))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line with exit code 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frobmat",
        description="Matroids from gain graphs over groups with Frobenius partitions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kernel=True):
        p.add_argument("--graph", required=True, help="gain graph JSON file")
        if kernel:
            p.add_argument(
                "--kernel",
                default="auto",
                help="partition selector: 'auto' or kernel elements 'e1,e2,...'",
            )

    p = sub.add_parser("frobpart", help="list Frobenius partitions of a group")
    p.add_argument("--group", required=True, help="group spec JSON file")
    p.set_defaults(fn=cmd_frobpart)

    p = sub.add_parser("rank", help="rank of an edge subset")
    common(p)
    p.add_argument("--subset", default=None, help="edge ids 'i,j,...'; omit for all")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("circuits", help="circuit list")
    common(p)
    p.add_argument("--of", choices=("matroid", "linear-class"), default="matroid")
    p.set_defaults(fn=cmd_circuits)

    p = sub.add_parser("bases", help="basis list")
    common(p)
    p.set_defaults(fn=cmd_bases)

    p = sub.add_parser("matrix", help="incidence matrix over GF(q)")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser("verify", help="verification report")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--axioms", action="store_true")
    p.add_argument(
        "--linear-class",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="check the computed class, or a circuit-list file when given",
    )
    p.add_argument("--representation", action="store_true")
    p.add_argument("--minors", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("minor", help="delete/contract edges, print the graph")
    common(p)
    p.add_argument("--delete", default="", help="edge ids to delete")
    p.add_argument("--contract", default="", help="edge ids to contract")
    p.set_defaults(fn=cmd_minor)

    p = sub.add_parser("recover", help="recover the partition from a lift")
    common(p, kernel=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kernel", required=True, help="kernel elements 'e1,e2,...'")
    p.add_argument(
        "--class",
        dest="cls",
        default="",
        metavar="FILE",
        help="linear-class circuit list; omitted = rebuild from the kernel's partition",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="write the oracle's rank queries and seconds per phase to stderr as JSON",
    )
    p.set_defaults(fn=cmd_recover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, LimitExceeded, RecoveryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
