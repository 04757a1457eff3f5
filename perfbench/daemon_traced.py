"""Run the ``repro`` CLI with the benchmark's span wrappers installed.

    python3 perfbench/daemon_traced.py daemon start --spool DIR --port 0

The daemon workload launches ``daemon start`` through this file in its
traced run.  Tracing starts disabled, so the first phase measures the
daemon untraced; ``SIGUSR1`` turns it on.  When the CLI returns (after a
drain), the recorded spans are written as JSON to ``$PERFBENCH_TRACE_OUT``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spans import Tracer, install_layers  # noqa: E402


def main(argv) -> int:
    tracer = Tracer()
    install_layers(tracer)
    signal.signal(signal.SIGUSR1, lambda signum, frame: setattr(tracer, "enabled", True))
    from repro.experiments import cli

    try:
        return cli.main(argv)
    finally:
        tracer.enabled = False
        out = os.environ.get("PERFBENCH_TRACE_OUT")
        if out:
            Path(out).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
