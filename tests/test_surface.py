"""Guard against regrowth of test-only public surface.

Every top-level function and class method in ``src/`` must be reached from
somewhere other than its own definition: from ``src/`` itself, the
benchmarks, the benchmark harness, the examples or the reference
implementations in ``tests/oracles.py``.  A name that nothing else mentions
is surface only the unit tests keep alive; delete it with its tests, or
give it a caller.  The check is textual: identifier tokens are counted
once over those trees, so a mention in ``__all__``, a docstring or a
``getattr`` string counts as a use.
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
    "export_factors": "docs/API.md names it as the warm-start seam of SweepState",
    "cache_stats": "goes with QueryEngine's result cache, whose future is open",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _caller_sources():
    for tree in CALLER_TREES:
        yield from sorted((REPO_ROOT / tree).rglob("*.py"))
    for name in CALLER_FILES:
        yield REPO_ROOT / name


def _token_counts() -> Counter:
    counts = Counter()
    for path in _caller_sources():
        counts.update(_IDENTIFIER.findall(path.read_text()))
    return counts


def _definitions() -> dict:
    """``{name: [path, ...]}``, one path per top-level function or class
    method in ``src/`` of that name (dunder methods excluded)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for member in members:
                if isinstance(member, functions) and not re.fullmatch(r"__\w+__", member.name):
                    found.setdefault(member.name, []).append(str(path.relative_to(REPO_ROOT)))
    return found


def _unreached() -> dict:
    """The definitions whose name is mentioned only where it is defined."""
    tokens = _token_counts()
    return {
        name: paths
        for name, paths in _definitions().items()
        if tokens[name] <= len(paths)
    }


def test_every_function_has_a_caller_outside_the_tests():
    unreached = {
        name: paths for name, paths in _unreached().items() if name not in ALLOWED
    }
    assert not unreached, (
        "functions reached only by tests (delete them with their tests, or "
        f"give them a caller): {unreached}"
    )


def test_allowlist_is_still_needed():
    stale = sorted(set(ALLOWED) - set(_unreached()))
    assert not stale, f"allowlisted names now have a caller; drop them: {stale}"
