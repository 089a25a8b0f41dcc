"""Byte-for-byte identity of CLI outputs on the recorded corpus, and
source rules for the package: no floating point, no unreferenced
definition, no nested function that names itself or a sibling."""

import ast
import json
from pathlib import Path

import corpus

DATA = Path(__file__).parent / "data" / "cli_corpus.json"
SRC = Path(__file__).parent.parent / "src" / "tropmap"


def test_cli_outputs_match_the_recorded_corpus():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    computed = corpus.compute()
    assert sorted(computed) == sorted(recorded)
    for name, records in recorded.items():
        for want, got in zip(records, computed[name], strict=True):
            assert got == want, f"{name}: {' '.join(want['argv'])}"


def test_corpus_covers_the_required_cases():
    recorded = json.loads(DATA.read_text(encoding="utf-8"))
    assert sum(name.startswith("figure1 ") for name in recorded) == 4 * len(corpus.FIGURE1_T)
    assert sum(name.startswith("rectangle ") for name in recorded) == 16
    assert sum(name.startswith("random genus one") for name in recorded) >= 40


def test_no_float_in_the_package():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                offenders.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            elif isinstance(node, ast.Name) and node.id == "float":
                offenders.append(f"{path.name}:{node.lineno} float")
    assert offenders == []


def test_every_top_level_definition_has_a_reference():
    """Each top-level function and class of the package is read (as a name
    or an attribute) somewhere in the package outside its own definition,
    or exported by the package's ``__init__``.  A reference from the tests
    alone does not count: a helper that only tests call belongs in the
    tests."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    definitions = [
        (path, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    referenced: dict[str, list[ast.AST]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                referenced.setdefault(node.attr, []).append(node)
            elif path.name == "__init__.py" and isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    referenced.setdefault(alias.name, []).append(node)
    unused = []
    for path, definition in definitions:
        own = set(ast.walk(definition))
        if all(node in own for node in referenced.get(definition.name, [])):
            unused.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert unused == []


def _scope_functions(node: ast.AST) -> list[ast.AST]:
    """The functions defined in the scope of ``node``, not inside a nested
    function, lambda or class."""
    out, stack = [], list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(child)
        elif not isinstance(child, (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(child))
    return out


def test_no_nested_function_names_itself_or_a_sibling():
    """A nested function that names itself holds its own closure cell: a
    reference cycle that keeps everything the call touched alive until the
    cycle collector runs.  Two siblings that name each other do the same.
    Searches keep an explicit stack instead."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = _scope_functions(outer)
            names = {f.name for f in nested}
            for f in nested:
                named = {n.id for n in ast.walk(f) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                offenders += [f"{path.name}:{f.lineno} {f.name} names {name}" for name in sorted(named & names)]
    assert offenders == []
