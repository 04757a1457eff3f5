"""Experiment harness regenerating every figure of the paper's evaluation."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "ExperimentConfig": "repro.experiments.config",
        "ExperimentRunner": "repro.experiments.runner",
        "figures": "repro.experiments.figures",
    },
)
