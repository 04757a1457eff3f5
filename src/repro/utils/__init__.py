"""Shared utilities: linear algebra helpers, CDF tools, RNG management."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "empirical_cdf": "repro.utils.cdf",
        "percentile": "repro.utils.cdf",
        "median": "repro.utils.cdf",
        "normalized_singular_values": "repro.utils.linalg",
        "relative_energy": "repro.utils.linalg",
        "safe_solve": "repro.utils.linalg",
        "make_rng": "repro.utils.random",
        "check_2d": "repro.utils.validation",
        "check_matching_shapes": "repro.utils.validation",
    },
)
