"""JSON/text formats shared by the CLI and tests.

Group spec: {"kind": "cyclic"|"dihedral"|"direct"|"semidirect"|"field_affine"|
"inversion"|"table", plus kind-specific fields}. Gain graph: {"group": spec or
{"file": path}, "vertices": n, "edges": [[tail, head, gain], ...]} with the
edge id equal to the array position, or {"complete": {"group": spec, "n": k}}.
Every loader leaves a group's Cayley table to its first read.
Circuit lists are one comma-separated line per circuit, lines sorted.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Iterable, Optional

from . import groups as _groups
from .gaingraph import GainGraph, complete_gain_graph
from .groups import FiniteGroup, FrobeniusPartition


def _where(path: str, key: str | int) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def _field(spec: dict, key: str, path: str) -> Any:
    if key not in spec:
        raise ValueError(f"spec field {_where(path, key)} is missing")
    return spec[key]


def _int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"spec field {where} must be an integer, got {type(value).__name__}")
    return value


def _list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"spec field {where} must be a list, got {type(value).__name__}")
    return value


def _int_rows(value: Any, where: str) -> list[list[int]]:
    """A list of lists of integers, e.g. a Cayley table or an action. Rows
    are checked by type first, so paths are formatted only in a bad row."""
    for i, row in enumerate(_list(value, where)):
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            at = _where(where, i)
            for j, x in enumerate(_list(row, at)):
                _int(x, _where(at, j))
    return value


def group_from_spec(spec: Any, path: str = "") -> FiniteGroup:
    """Build a group from its JSON spec, its Cayley table left to the first
    read; a group past the table cap, or nesting products past
    ``groups.MAX_PRODUCT_DEPTH`` levels, is refused before any table, a
    factor's included, is built. A malformed spec raises ValueError naming the
    JSON path of the bad field (``path`` prefixes nested specs), and so does
    one nested past the interpreter's recursion limit."""
    try:
        return _spec_group(spec, path)
    except RecursionError:
        raise ValueError("spec is nested too deeply") from None


def _spec_group(spec: Any, path: str) -> FiniteGroup:
    if not isinstance(spec, dict) or "kind" not in spec:
        what = f"spec field {path}" if path else "group spec"
        raise ValueError(f"{what} must be an object with a 'kind' field")

    def get_int(key: str) -> int:
        return _int(_field(spec, key, path), _where(path, key))

    def sub(key: str) -> FiniteGroup:
        return _spec_group(_field(spec, key, path), _where(path, key))

    kind = spec["kind"]
    if kind == "cyclic":
        return _groups.make_cyclic(get_int("n"))
    if kind == "dihedral":
        return _groups.make_dihedral(get_int("order"))
    if kind == "direct":
        where = _where(path, "factors")
        specs = _list(_field(spec, "factors", path), where)
        if len(specs) < 2:
            raise ValueError("direct product needs at least two factors")
        # each factor folds in as it is read, so a product past a bound is
        # refused before the factors after it are read
        factors = (_spec_group(s, _where(where, i)) for i, s in enumerate(specs))
        return functools.reduce(_groups.make_direct_product, factors)
    if kind == "semidirect":
        action = _int_rows(_field(spec, "action", path), _where(path, "action"))
        return _groups.make_semidirect(sub("g1"), sub("g2"), action)
    if kind == "field_affine":
        return _groups.make_field_affine(get_int("q"))
    if kind == "inversion":
        return _groups.make_inversion_extension(sub("base"))
    if kind == "table":
        return _groups.from_table(_int_rows(_field(spec, "table", path), _where(path, "table")))
    raise ValueError(f"unknown group kind {kind!r}")


def load_group(path: str | Path) -> FiniteGroup:
    # past the recursion limit in the JSON parser
    try:
        return group_from_spec(json.loads(Path(path).read_text()))
    except RecursionError:
        raise ValueError("spec is nested too deeply") from None


def _resolve_group(spec: Any, base_dir: Path, path: str) -> FiniteGroup:
    if isinstance(spec, dict) and "file" in spec:
        file = spec["file"]
        if not isinstance(file, str):
            raise ValueError(f"spec field {_where(path, 'file')} must be a string")
        return load_group(base_dir / file)
    return group_from_spec(spec, path)


def graph_from_spec(spec: Any, base_dir: Optional[Path] = None) -> GainGraph:
    """Build a gain graph from its JSON spec; a malformed spec raises
    ValueError naming the JSON path of the bad field."""
    base_dir = base_dir or Path(".")
    if not isinstance(spec, dict):
        raise ValueError("graph spec must be a JSON object")
    if "complete" in spec:
        inner = spec["complete"]
        if not isinstance(inner, dict):
            raise ValueError("spec field complete must be an object")
        group = _resolve_group(_field(inner, "group", "complete"), base_dir, "complete.group")
        return complete_gain_graph(group, _int(_field(inner, "n", "complete"), "complete.n"))
    group = _resolve_group(_field(spec, "group", ""), base_dir, "group")
    vertices = _int(_field(spec, "vertices", ""), "vertices")
    edges = _int_rows(_field(spec, "edges", ""), "edges")
    for i, e in enumerate(edges):
        if len(e) != 3:
            raise ValueError(f"spec field edges[{i}] must be [tail, head, gain]")
    return GainGraph.from_triples(group, vertices, edges)


def load_graph(path: str | Path) -> GainGraph:
    p = Path(path)
    try:
        return graph_from_spec(json.loads(p.read_text()), base_dir=p.parent)
    except RecursionError:
        raise ValueError("spec is nested too deeply") from None


def graph_to_spec(g: GainGraph, group_spec: Any) -> dict:
    return {
        "group": group_spec,
        "vertices": g.vertex_count,
        "edges": [[e.tail, e.head, e.gain] for e in sorted(g.edges, key=lambda e: e.id)],
    }


def format_circuits(circuits: Iterable[Iterable[int]]) -> str:
    lines = sorted(",".join(str(i) for i in sorted(c)) for c in circuits)
    return "\n".join(lines) + ("\n" if lines else "")


def parse_circuits(text: str) -> list[tuple[int, ...]]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        out.append(tuple(sorted(int(x) for x in line.split(","))))
    return sorted(out)


def format_partition(group: FiniteGroup, part: FrobeniusPartition, index: int) -> str:
    lines = [f"partition {index}: {part.describe()}"]
    lines.append("  kernel: " + ",".join(str(x) for x in part.kernel.elements))
    for comp in part.complements:
        lines.append("  complement: " + ",".join(str(x) for x in comp.elements))
    return "\n".join(lines)


def parse_id_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.split(",")]
