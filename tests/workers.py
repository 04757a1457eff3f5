"""In-process shard workers for the scatter tests.

Every scatter test runs :class:`~repro.service.remote.RemoteExecutor`
against real :class:`~repro.service.remote.WorkerServer` instances on
localhost ports, so the whole HTTP path (task encode, dispatch, solve,
result decode, gather) runs in one interpreter.
"""

from contextlib import contextmanager

from repro.service.remote import WorkerServer


@contextmanager
def running_workers(count, fault_plans=None):
    """``count`` live WorkerServers, each optionally armed with faults."""
    servers = []
    try:
        for index in range(count):
            faults = None
            if fault_plans is not None and index < len(fault_plans):
                faults = fault_plans[index]
            server = WorkerServer(faults=faults)
            server.start()
            servers.append(server)
        yield servers
    finally:
        for server in servers:
            server.stop()
