"""Spans around frobmat's public functions, recorded from outside the package.

The tracer rebinds each traced function at every place a ``frobmat.*`` module
binds it (``scan_components`` is also bound in ``lifts``, ``frame_circuits``
in ``lifts`` and ``cli``), and wraps the traced rank-oracle methods on their
classes. Nothing under ``src/`` changes; ``uninstall`` puts the originals
back.

A span is (name, start, end, parent, job) plus a per-name count (results
found, edges scanned, subset size) and a raised flag. Spans stay in compact
arrays in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import sys
import time
from array import array
from pathlib import Path

import frobmat


def _found(out, args) -> int:
    return len(out)


def _edges_scanned(out, args) -> int:
    return sum(len(sc.edge_ids) for sc in out)


def _subset_size(out, args) -> int:
    subset = args[1]
    return len(subset) if hasattr(subset, "__len__") else -1


# (module, attribute) -> how a span of it is counted; a dotted attribute is a
# method on a class
TRACED = {
    ("groups", "frobenius_partitions"): _found,
    ("groups", "subgroups"): _found,
    ("groups", "generated_subgroup"): None,
    ("groups", "is_normal"): None,
    ("groups", "is_malnormal"): None,
    ("groups", "make_cyclic"): None,
    ("groups", "make_dihedral"): None,
    ("groups", "make_direct_product"): None,
    ("groups", "make_semidirect"): None,
    ("groups", "make_field_affine"): None,
    ("groups", "make_inversion_extension"): None,
    ("fileio", "group_from_spec"): None,
    ("gaingraph", "enumerate_cycles"): _found,
    ("gaingraph", "is_balanced_cycle"): None,
    ("gaingraph", "complete_gain_graph"): None,
    ("gaingraph", "quotient_gains"): None,
    ("biased", "scan_components"): _edges_scanned,
    ("biased", "frame_circuits"): _found,
    ("biased", "rank_table"): None,
    ("biased", "matroid_axiom_check"): None,
    ("biased", "is_linear_class"): None,
    ("biased", "FrameOracle.rank"): None,
    ("lifts", "LiftedMatroid.rank"): _subset_size,
    ("lifts", "LiftedMatroid.underlying_rank"): None,
    ("lifts", "linear_class"): _found,
    ("lifts", "circuits"): _found,
    ("lifts", "bases"): _found,
    ("lifts", "class_member"): None,
    ("lifts", "is_elementary_lift"): None,
    ("represent", "verify_representation"): None,
    ("represent", "matrix_rank_gf"): None,
    ("represent", "incidence_matrix"): None,
    ("recovery", "recover_partition"): None,
}

SPAN_NAMES = [f"{mod}.{attr}" for mod, attr in TRACED]
BUILD_SPANS = ["fileio.group_from_spec"] + [n for n in SPAN_NAMES if n.startswith("groups.make_")]
RANK_SPANS = ["lifts.LiftedMatroid.rank", "biased.FrameOracle.rank"]


def _stat(span: str, stat: str, unit: str, better: str = "lower") -> tuple:
    return (f"{span}.{stat}", unit, better, stat, span)


# per-layer metrics: (name, unit, better, statistic, span names)
PER_LAYER = [
    _stat("groups.frobenius_partitions", "calls", "count"),
    _stat("groups.frobenius_partitions", "self_s", "s"),
    _stat("groups.subgroups", "calls", "count"),
    _stat("groups.subgroups", "self_s", "s"),
    _stat("groups.subgroups", "found", "count", "higher"),
    _stat("groups.generated_subgroup", "calls", "count"),
    _stat("groups.generated_subgroup", "self_s", "s"),
    ("groups.subgroups.useful_frac", "ratio", "higher", "useful_frac", None),
    _stat("groups.is_normal", "calls", "count"),
    _stat("groups.is_normal", "self_s", "s"),
    _stat("groups.is_malnormal", "calls", "count"),
    _stat("groups.is_malnormal", "self_s", "s"),
    ("groups.partitions.found", "count", "higher", "found", "groups.frobenius_partitions"),
    ("groups.build.self_s", "s", "lower", "self_s", BUILD_SPANS),
    _stat("gaingraph.enumerate_cycles", "calls", "count"),
    _stat("gaingraph.enumerate_cycles", "self_s", "s"),
    _stat("gaingraph.enumerate_cycles", "raised", "count"),
    ("gaingraph.cycles.enumerated", "count", "lower", "found", "gaingraph.enumerate_cycles"),
    _stat("gaingraph.is_balanced_cycle", "calls", "count"),
    _stat("gaingraph.is_balanced_cycle", "self_s", "s"),
    _stat("gaingraph.complete_gain_graph", "self_s", "s"),
    _stat("gaingraph.quotient_gains", "self_s", "s"),
    _stat("biased.scan_components", "calls", "count"),
    _stat("biased.scan_components", "self_s", "s"),
    ("biased.scan_components.edges", "count", "lower", "found", "biased.scan_components"),
    _stat("biased.frame_circuits", "calls", "count"),
    _stat("biased.frame_circuits", "self_s", "s"),
    _stat("biased.frame_circuits", "found", "count", "higher"),
    ("biased.frame_circuits.cycle_pairs", "count", "lower", "cycle_pairs", None),
    _stat("biased.rank_table", "self_s", "s"),
    _stat("biased.matroid_axiom_check", "self_s", "s"),
    _stat("biased.is_linear_class", "calls", "count"),
    _stat("biased.is_linear_class", "self_s", "s"),
    _stat("biased.FrameOracle.rank", "calls", "count"),
    _stat("biased.FrameOracle.rank", "self_s", "s"),
    _stat("lifts.LiftedMatroid.rank", "calls", "count"),
    _stat("lifts.LiftedMatroid.rank", "self_s", "s"),
    _stat("lifts.LiftedMatroid.rank", "mean_subset", "edges"),
    _stat("lifts.LiftedMatroid.underlying_rank", "calls", "count"),
    _stat("lifts.LiftedMatroid.underlying_rank", "self_s", "s"),
    _stat("lifts.linear_class", "calls", "count"),
    _stat("lifts.linear_class", "self_s", "s"),
    _stat("lifts.linear_class", "found", "count", "higher"),
    _stat("lifts.circuits", "self_s", "s"),
    _stat("lifts.circuits", "found", "count", "higher"),
    _stat("lifts.bases", "self_s", "s"),
    _stat("lifts.bases", "found", "count", "higher"),
    _stat("lifts.class_member", "calls", "count"),
    _stat("lifts.class_member", "self_s", "s"),
    _stat("lifts.is_elementary_lift", "self_s", "s"),
    _stat("represent.verify_representation", "self_s", "s"),
    _stat("represent.matrix_rank_gf", "calls", "count"),
    _stat("represent.matrix_rank_gf", "self_s", "s"),
    _stat("represent.incidence_matrix", "self_s", "s"),
    _stat("recovery.recover_partition", "calls", "count"),
    _stat("recovery.recover_partition", "self_s", "s"),
    _stat("recovery.recover_partition", "raised", "count"),
    ("recovery.rank_queries", "count", "lower", "rank_queries", None),
    ("trace.overhead_frac", "ratio", "lower", "overhead_frac", None),
]

NOTES = {
    "biased.frame_circuits.cycle_pairs": "computed: C(k,2) per call, k from its child enumerate_cycles span",
    "groups.subgroups.useful_frac": "subgroups found / generated_subgroup calls under subgroups",
    "recovery.rank_queries": "LiftedMatroid.rank and FrameOracle.rank spans below recover_partition",
    "trace.overhead_frac": "1 - traced jobs_per_s / untraced jobs_per_s on the same jobs",
}


def frobmat_modules() -> list:
    for info in pkgutil.iter_modules(frobmat.__path__):
        importlib.import_module(f"frobmat.{info.name}")
    return [m for name, m in sys.modules.items() if name == "frobmat" or name.startswith("frobmat.")]


class Tracer:
    """Records spans while installed; ``job`` tags every span with a job id."""

    def __init__(self):
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.jobid = array("i")
        self.count = array("q")
        self.raised = array("b")
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, nid: int, counter):
        name, start, end, parent = self.name, self.start, self.end, self.parent
        jobid, count, raised, stack = self.jobid, self.count, self.raised, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            jobid.append(self.job)
            count.append(0)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf()
                stack.pop()
            if counter is not None:
                count[idx] = counter(out, args)
            return out

        return traced

    def install(self) -> "Tracer":
        modules = frobmat_modules()
        for nid, ((mod, attr), counter) in enumerate(TRACED.items()):
            home = sys.modules[f"frobmat.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, nid, counter))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, nid, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def binding_sites(self) -> list[str]:
        """``module.attribute`` for every rebinding currently installed."""
        return sorted(f"{getattr(o, '__name__', o)}.{k}" for o, k, _ in self._restore)

    # -- aggregation ---------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        n = len(self.start)
        names, parent, count = self.name, self.parent, self.count
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        k = len(SPAN_NAMES)
        calls, self_s, found, raised = [0] * k, [0.0] * k, [0] * k, [0] * k
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            found[nid] += count[i]
            raised[nid] += self.raised[i]
        ids = {s: j for j, s in enumerate(SPAN_NAMES)}
        subgroups, generated = ids["groups.subgroups"], ids["groups.generated_subgroup"]
        fc, cycles = ids["biased.frame_circuits"], ids["gaingraph.enumerate_cycles"]
        recover = ids["recovery.recover_partition"]
        rank_ids = {ids[s] for s in RANK_SPANS}
        rank_subset = ids["lifts.LiftedMatroid.rank"]
        useful_calls = cycle_pairs = rank_queries = 0
        sized = sized_total = 0
        under_recover = bytearray(n)
        for i in range(n):
            p = parent[i]
            nid = names[i]
            if p >= 0:
                under_recover[i] = names[p] == recover or under_recover[p]
                if nid == generated and names[p] == subgroups:
                    useful_calls += 1
                if nid == cycles and names[p] == fc:
                    cycle_pairs += math.comb(count[i], 2)
            if nid in rank_ids and under_recover[i]:
                rank_queries += 1
            if nid == rank_subset and count[i] >= 0:
                sized += 1
                sized_total += count[i]
        special = {
            "useful_frac": found[subgroups] / useful_calls if useful_calls else 0.0,
            "cycle_pairs": cycle_pairs,
            "rank_queries": rank_queries,
            "overhead_frac": overhead_frac,
        }
        out = {}
        for metric, unit, _better, stat, spans in PER_LAYER:
            if spans is None:
                value = special[stat]
            else:
                group = [ids[s] for s in ([spans] if isinstance(spans, str) else spans)]
                if stat == "calls":
                    value = sum(calls[j] for j in group)
                elif stat == "self_s":
                    value = sum(self_s[j] for j in group)
                elif stat == "found":
                    value = sum(found[j] for j in group)
                elif stat == "raised":
                    value = sum(raised[j] for j in group)
                else:  # mean_subset
                    value = sized_total / sized if sized else 0.0
            out[metric] = (value, unit)
        return out

    def write(self, prefix: Path) -> Path:
        """Write the spans as ``<prefix>.bin`` (the arrays back to back, in
        the order the ``.json`` header lists them) plus the header."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "jobid", "count", "raised"]
        with open(f"{prefix}.bin", "wb") as f:
            for field in fields:
                getattr(self, field).tofile(f)
        header = {
            "spans": len(self.start),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "names": SPAN_NAMES,
            "byteorder": sys.byteorder,
        }
        path = Path(f"{prefix}.json")
        path.write_text(json.dumps(header, indent=1) + "\n")
        return path
