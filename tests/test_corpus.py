"""Byte-for-byte identity of CLI outputs on the recorded corpus, and
source rules for the package: no floating point, no unreferenced
definition, no nested function that names itself or a sibling, one writer
of the CLI's report envelopes, and a live function behind every per-layer
benchmark metric."""

import ast
import json
from pathlib import Path
from typing import Iterator

import corpus

DATA = Path(__file__).parent / "data" / "cli_corpus.json"
SRC = Path(__file__).parent.parent / "src" / "tropmap"
BENCHMARK = Path(__file__).parent.parent / "BENCHMARK.json"


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


# The package's public names that no library code calls, each with the
# reason it is kept.  An ``__init__`` export counts as a reference only for
# a name listed here.
EXPORTED_WITHOUT_A_CALLER = {
    "is_face": "ROADMAP item 4 (find an R4 certificate) places a map on a face with it",
    "contract_type": "ROADMAP item 11 (face atlas) contracts edge subsets with it",
    "type_automorphisms": "ROADMAP item 11 reports |Aut| of each face with it",
    "subcurve_in_flat": "the per-layer metric wellspaced.subcurve_in_flat.self_ms names it (ROADMAP item 15)",
    "rref": "the per-layer metrics exactgeom.rref.* name it; cycle frames eliminate on the integers",
}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(function: ast.AST) -> list[ast.arg]:
    a = function.args
    return [x for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]


def _bound_names(function: ast.AST) -> set[str]:
    """The names a function or lambda binds: its parameters, and each name
    it assigns, imports or defines, its comprehensions' targets included,
    outside the functions and classes nested in it."""
    bound = {x.arg for x in _parameters(function)}
    stack = list(function.body) if isinstance(function.body, list) else [function.body]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        if not isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _references(tree: ast.Module, modules: set[str]) -> Iterator[tuple[str, ast.AST]]:
    """(name, node) for each read of a name that no enclosing function
    binds, and for each attribute read on a package module (``moduli.x``).
    A function's decorators, defaults and annotations are read in the
    scope that encloses it."""
    stack: list[tuple[ast.AST, frozenset[str]]] = [(tree, frozenset())]
    while stack:
        node, shadowed = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
            yield node.id, node
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules - shadowed
        ):
            yield node.attr, node
        if isinstance(node, _FUNCTIONS):
            a = node.args
            outer = [*getattr(node, "decorator_list", ()), *a.defaults, *a.kw_defaults, getattr(node, "returns", None)]
            outer += [x.annotation for x in _parameters(node)]
            inner = shadowed | _bound_names(node)
            body = node.body if isinstance(node.body, list) else [node.body]
            stack.extend((child, shadowed) for child in outer if child is not None)
            stack.extend((child, inner) for child in body)
        else:
            stack.extend((child, shadowed) for child in ast.iter_child_nodes(node))


def _top_level_references():
    """(every top-level function and class of the package, the nodes that
    read each name outside the ``__init__`` exports, the exported names).
    A name counts where no enclosing function binds it, and an attribute
    only on a package module, so a parameter ``fan`` or an attribute
    ``v.genus`` reads no top-level ``fan`` or ``genus``."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    modules = {path.stem for path in trees}
    definitions = [
        (path, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    referenced: dict[str, list[ast.AST]] = {}
    exported: set[str] = set()
    for path, tree in trees.items():
        if path.name == "__init__.py":
            exported.update(alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names)
        for name, node in _references(tree, modules):
            referenced.setdefault(name, []).append(node)
    return definitions, referenced, exported


def test_every_top_level_definition_has_a_reference():
    """Each top-level function and class of the package is read (as a name
    or an attribute) somewhere in the package outside its own definition,
    or exported by the package's ``__init__`` and named, with its reason,
    in ``EXPORTED_WITHOUT_A_CALLER``.  A reference from the tests alone
    does not count: a helper that only tests call belongs in the tests.  A
    listed name that gains a library caller, or is no longer exported, is
    stale and fails."""
    definitions, referenced, exported = _top_level_references()
    unused, stale = [], []
    for path, definition in definitions:
        own = set(ast.walk(definition))
        called = not all(node in own for node in referenced.get(definition.name, []))
        allowed = definition.name in EXPORTED_WITHOUT_A_CALLER and definition.name in exported
        if not called and not allowed:
            unused.append(f"{path.name}:{definition.lineno} {definition.name}")
        if called and definition.name in EXPORTED_WITHOUT_A_CALLER:
            stale.append(f"{definition.name} has a library caller")
    defined = {definition.name for _, definition in definitions}
    stale += [f"{name} is not exported" for name in EXPORTED_WITHOUT_A_CALLER if name not in exported & defined]
    assert (unused, stale) == ([], [])


def test_cli_writes_stdout_in_one_envelope_writer():
    """``cli.py`` writes to stdout (``sys.stdout.write``, or ``print``
    without ``file=``) only in ``_Io.envelope``, which writes every report
    envelope, and in ``_cmd_example``, which writes a bare document.  A
    field that every envelope carries is then added in one place."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    writers = []
    stack = [(node, "") for node in tree.body]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            callee = ast.unparse(node.func)
            if callee == "sys.stdout.write" or (callee == "print" and not any(k.arg == "file" for k in node.keywords)):
                writers.append(scope)
        stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    assert sorted(writers) == ["_Io.envelope", "_cmd_example"]


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


def test_every_per_layer_metric_names_a_public_function():
    """A per-layer metric ``layer.function.quantity`` in ``BENCHMARK.json``
    sums the spans of one public function of a layer module, and a traced
    benchmark run counts a metric that names no function as a failure.  So
    each one names a top-level public function of ``<layer>.py``, and a
    rename or deletion fails here rather than in a traced run."""
    metrics = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    named = sorted({tuple(parts[:2]) for parts in (m["name"].split(".") for m in metrics) if len(parts) == 3})
    missing = []
    for layer, function in named:
        path = SRC / f"{layer}.py"
        tree = ast.parse(path.read_text(encoding="utf-8") if path.exists() else "")
        defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
        if function.startswith("_") or function not in defined:
            missing.append(f"{layer}.{function}")
    assert len(named) >= 20 and missing == [], (len(named), missing)
