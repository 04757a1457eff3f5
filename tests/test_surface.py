"""Guard against regrowth of test-only public surface.

Every top-level function, class and constant and every class method in
``src/`` must be reached from somewhere other than its own definition: from
``src/`` itself, the benchmarks, the benchmark harness, the examples or the
reference implementations in ``tests/oracles.py``.  A name that nothing else
uses is surface only the unit tests keep alive; delete it with its tests, or
give it a caller.

The check counts code references over those trees: every AST ``Name`` and
``Attribute`` node that reads a value, plus each component of a string
constant that is a dotted identifier (``"LinkChannel.measure_vector"``, the
form perfbench names its span targets in).  A definition, an assignment, an
import, a docstring, a comment, an ``__all__`` list or a ``lazy_exports(...)``
table is not a reference, so exporting a name does not keep it alive.
"""

import ast
import re
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
CALLER_TREES = ("src", "benchmarks", "perfbench", "examples")
# The oracles are the references the fast paths are pinned against; a name
# they call is part of that contract, not surface kept for a unit test.
CALLER_FILES = ("tests/oracles.py",)

ALLOWED = {
    "cache_stats": "goes with QueryEngine's result cache and leaves with it",
    "load_answers": "reads the answers file `query run --out` writes (docs/WIRE_FORMAT.md)",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


class _References(ast.NodeVisitor):
    """Counts every name a module's code refers to."""

    def __init__(self) -> None:
        self.counts = Counter()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.counts[node.id] += 1

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.counts[node.attr] += 1
        self.visit(node.value)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            self.counts.update(node.value.split("."))

    def visit_Assign(self, node: ast.Assign) -> None:
        targets = [n for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        if any(t.id == "__all__" for t in targets):
            # ``__all__ = [...]`` exports; ``... = lazy_exports(...)`` still
            # calls ``lazy_exports`` but its table is an export list too.
            if isinstance(node.value, ast.Call):
                self.visit(node.value.func)
            return
        self.generic_visit(node)


def _caller_sources():
    for tree in CALLER_TREES:
        yield from sorted((REPO_ROOT / tree).rglob("*.py"))
    for name in CALLER_FILES:
        yield REPO_ROOT / name


def _reference_counts() -> Counter:
    references = _References()
    for path in _caller_sources():
        references.visit(ast.parse(path.read_text()))
    return references.counts


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _definitions() -> dict:
    """``{name: [path, ...]}``, one path per top-level function, class or
    module constant and per class method in ``src/`` of that name (dunder
    names excluded)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [m for m in node.body if isinstance(m, functions)]
            for member in members:
                for name in _defined_names(member):
                    if not re.fullmatch(r"__\w+__", name):
                        found.setdefault(name, []).append(str(path.relative_to(REPO_ROOT)))
    return found


def _unreached() -> dict:
    """The definitions whose name no code outside the tests refers to."""
    references = _reference_counts()
    return {name: paths for name, paths in _definitions().items() if not references[name]}


def test_every_function_has_a_caller_outside_the_tests():
    unreached = {
        name: paths for name, paths in _unreached().items() if name not in ALLOWED
    }
    assert not unreached, (
        "names reached only by tests (delete them with their tests, or "
        f"give them a caller): {unreached}"
    )


def test_allowlist_is_still_needed():
    stale = sorted(set(ALLOWED) - set(_unreached()))
    assert not stale, f"allowlisted names now have a caller; drop them: {stale}"
