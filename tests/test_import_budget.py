"""Import layering guard: cheap entry points must not load heavy modules.

Package ``__init__``s export lazily (PEP 562), scipy is imported only
inside the functions that need it, ``repro.service`` never imports
``repro.daemon``, and the HTTP layer under the daemon and the shard
workers (``repro.utils.http``) is stdlib only and speaks ``http.client``,
not ``urllib.request``.  Each case imports one entry
point in a fresh interpreter and checks the set of loaded modules, not the
wall-clock time, so the guard is deterministic on any host.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
import {module}
print(json.dumps(sorted(sys.modules)))
"""


def _loaded_after(module: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


def _forbidden(name: str) -> bool:
    root = name.split(".")[0]
    return root == "scipy" or name == "repro.daemon" or name.startswith("repro.daemon.")


@pytest.mark.parametrize(
    "module", ["repro", "repro.service", "repro.io.wire", "repro.query"]
)
def test_entry_point_loads_neither_scipy_nor_daemon(module):
    loaded = _loaded_after(module)
    assert module in loaded
    assert [name for name in loaded if _forbidden(name)] == []


def test_http_layer_is_stdlib_only():
    loaded = _loaded_after("repro.utils.http")
    assert "repro.utils.http" in loaded
    heavy = [
        name
        for name in loaded
        if _forbidden(name) or name.split(".")[0] == "numpy"
    ]
    assert heavy == []


@pytest.mark.parametrize("module", ["repro.utils.http", "repro.daemon.client"])
def test_http_clients_do_not_load_urllib_request(module):
    loaded = _loaded_after(module)
    assert module in loaded
    assert "urllib.request" not in loaded
