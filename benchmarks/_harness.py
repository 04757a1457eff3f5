"""Shared helpers for the benchmark modules.

Kept separate from ``conftest.py`` so benchmark modules can import them as
plain functions (``from benchmarks._harness import run_once``) instead of the
``from .conftest import ...`` relative import that broke collection when the
directory was not a package.
"""

from __future__ import annotations

import json
import os
import tempfile

try:  # pragma: no cover - trivially environment dependent
    import pytest_benchmark  # noqa: F401

    HAVE_PYTEST_BENCHMARK = True
except ImportError:  # pragma: no cover
    HAVE_PYTEST_BENCHMARK = False

__all__ = ["HAVE_PYTEST_BENCHMARK", "record", "run_once"]


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record(name: str, rows: dict) -> None:
    """Store one benchmark's rows under ``name`` in ``$REPRO_BENCH_JSON``.

    Does nothing when the variable is unset.  The file holds one JSON object
    keyed by benchmark name: ``record`` reads the object already there, sets
    ``name`` and writes it back, so a run of several benchmarks in sequence
    keeps every row set.  A missing file, or one that does not hold a JSON
    object, counts as empty, so a stale file never fails a benchmark after it
    has measured.  Only the write is atomic (a temporary file and
    ``os.replace``): a reader never sees a half-written file, but two
    benchmarks recording at the same moment can still lose one's rows.
    """
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    try:
        with open(path) as handle:
            recorded = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
        recorded = {}
    if not isinstance(recorded, dict):
        recorded = {}
    recorded[name] = rows
    fd, temporary = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(recorded, handle, indent=2)
        os.chmod(temporary, 0o644)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)
