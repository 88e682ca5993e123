"""The public surface of ``frobmat``: every name its ``__init__`` exports has
a use outside the tests, so that code only its own tests call cannot come
back as a library function."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frobmat"


def exported_names() -> list[str]:
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def referenced_names(source: str) -> set[str]:
    """Names, attributes, imported names and string constants (``getattr``
    lookups) of a module, outside the definition of the name itself."""
    found = set()
    for top in ast.parse(source).body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.discard(top.name)
        found |= names
    return found


def unused_exports() -> list[str]:
    """The exported names that no other library module, the acceptance
    suite, the bench or a backticked span of the README refers to. A span
    counts for the name it starts with: `GraphicOracle(g)` is a use of
    ``GraphicOracle``, and `groups.MAX_TABLE_ORDER` one of ``groups``."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py"))]
    used = set()
    for path in sources:
        used |= referenced_names(path.read_text())
    for span in re.findall(r"`([^`]+)`", (ROOT / "README.md").read_text()):
        used.add(re.match(r"\w*", span).group())
    return [name for name in exported_names() if name not in used]


def test_every_export_is_used_outside_the_tests():
    assert exported_names()
    unused = unused_exports()
    assert not unused, "exported, but used only by the tests: " + ", ".join(unused)


def test_the_definition_alone_is_not_a_use():
    source = "def f():\n    return f()\n\n\ndef g():\n    return h\n"
    assert referenced_names(source) == {"h"}


def test_no_module_reads_the_environment():
    """Every setting is an argument or a constant: no module of the package
    reads ``os.environ`` or ``os.getenv``, so no environment knob comes back."""
    readers = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := {"environ", "getenv"} & referenced_names(path.read_text()))
    }
    assert not readers, f"modules that read the environment: {readers}"


# Parameters kept unread on purpose: the bench calls
# fileio.format_partition(group, part, index) with this signature.
UNREAD_ON_PURPOSE = {("fileio.py", "format_partition", "group")}


def unread_parameters(path: Path) -> list[tuple[str, str, str]]:
    """(file, function, parameter) for each parameter of a module-level
    function or method that its body never reads. Nested functions are
    skipped (a step closure's signature is fixed by its caller), and so is a
    body that only raises NotImplementedError."""
    out = []

    def check(fn: ast.FunctionDef) -> None:
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if [ast.unparse(stmt) for stmt in body] == ["raise NotImplementedError"]:
            return
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for p in params:
            if p is not None and p.arg not in ("self", "cls") and p.arg not in read:
                out.append((path.name, fn.name, p.arg))

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                check(child)
            elif isinstance(child, ast.ClassDef):
                visit(child)

    visit(ast.parse(path.read_text()))
    return out


def test_every_parameter_is_read():
    unread = [
        found
        for path in sorted(PACKAGE.glob("*.py"))
        for found in unread_parameters(path)
        if found not in UNREAD_ON_PURPOSE
    ]
    assert not unread, "parameters their function never reads: " + ", ".join(
        f"{file}:{fn}({param})" for file, fn, param in unread
    )


def test_an_unread_parameter_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "class C:\n"
        "    def f(self, a, b=1, *rest, c):\n"
        "        'doc'\n"
        "        def inner(x, unused):\n"
        "            return x + b\n"
        "        return inner(a, c)\n"
        "\n"
        "    def stub(self, d):\n"
        "        raise NotImplementedError\n"
        "\n"
        "    def refuse(self, h):\n"
        "        raise ValueError\n"
        "\n"
        "\n"
        "def g(e, f):\n"
        "    return e\n"
    )
    assert unread_parameters(source) == [
        ("m.py", "f", "rest"), ("m.py", "refuse", "h"), ("m.py", "g", "f")
    ]
