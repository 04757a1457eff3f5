"""Survey campaigns, measurement collection and the labor-cost model."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "SurveyCampaign": "repro.simulation.campaign",
        "CampaignConfig": "repro.simulation.campaign",
        "MeasurementCollector": "repro.simulation.collector",
        "CollectionConfig": "repro.simulation.collector",
        "LaborCostModel": "repro.simulation.labor",
        "LaborCostConfig": "repro.simulation.labor",
    },
)
