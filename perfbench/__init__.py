"""iUpdater repro benchmark: workloads, span tracing and output checks."""
