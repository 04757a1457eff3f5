"""Target localization: OMP matching plus KNN / SVR / RASS baselines."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "OMPLocalizer": "repro.localization.omp",
        "OMPConfig": "repro.localization.omp",
        "KNNLocalizer": "repro.localization.knn",
        "SupportVectorRegressor": "repro.localization.svr",
        "SVRConfig": "repro.localization.svr",
        "RASSLocalizer": "repro.localization.rass",
        "RASSConfig": "repro.localization.rass",
        "LocalizationReport": "repro.localization.metrics",
        "localization_errors": "repro.localization.metrics",
        "summarize_errors": "repro.localization.metrics",
    },
)
