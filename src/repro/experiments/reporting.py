"""Plain-text reporting helpers for the experiment harness.

The benchmark suite prints the same rows/series the paper reports so the
reproduction can be compared side by side with the published figures.  These
formatters keep that output consistent across benchmarks, examples and
EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "format_series_table",
    "format_key_values",
    "format_cdf_summary",
    "format_fleet_report",
]


def format_key_values(title: str, values: Mapping[str, float], unit: str = "") -> str:
    """Format a flat mapping of labelled scalar results."""
    lines = [title]
    width = max((len(str(k)) for k in values), default=0)
    for key, value in values.items():
        if isinstance(value, float):
            rendered = f"{value:.3f}"
        else:
            rendered = str(value)
        suffix = f" {unit}" if unit else ""
        lines.append(f"  {str(key):<{width}} : {rendered}{suffix}")
    return "\n".join(lines)


def format_series_table(
    title: str,
    series: Mapping[str, Mapping[float, float]],
    unit: str = "",
    column_label: str = "days",
) -> str:
    """Format a {row-label: {x: value}} mapping as an aligned text table."""
    columns: list = sorted({x for row in series.values() for x in row})
    header = f"{'':<36}" + "".join(f"{column_label} {c:>6g}  " for c in columns)
    lines = [title, header]
    for label, row in series.items():
        cells = []
        for c in columns:
            value = row.get(c)
            cells.append(f"{value:>12.3f}" if value is not None else f"{'-':>12}")
        lines.append(f"{label:<36}" + "".join(cells) + (f"  [{unit}]" if unit else ""))
    return "\n".join(lines)


def format_fleet_report(report) -> str:
    """Render a :class:`~repro.service.types.FleetReport` as a text table.

    One row per site (shape, sweeps, stop reason, reconstruction error vs
    the stale baseline) followed by the aggregate summary the fleet CLI
    prints per refresh.
    """
    lines = [f"fleet refresh @ {report.elapsed_days:g} days"]
    header = (
        f"  {'site':<12}{'links':>6}{'grids':>7}{'sweeps':>8}{'stop':>16}"
        f"{'error_db':>10}{'stale_db':>10}"
    )
    lines.append(header)
    for site_report in report.reports:
        matrix = site_report.matrix
        error = report.errors_db.get(site_report.site)
        stale = report.stale_errors_db.get(site_report.site)
        lines.append(
            f"  {site_report.site:<12}"
            f"{matrix.link_count:>6}"
            f"{matrix.location_count:>7}"
            f"{site_report.sweeps:>8}"
            f"{site_report.stop_reason:>16}"
            + (f"{error:>10.3f}" if error is not None else f"{'-':>10}")
            + (f"{stale:>10.3f}" if stale is not None else f"{'-':>10}")
        )
    lines.append(format_key_values("aggregate", report.aggregate()))
    return "\n".join(lines)


def format_cdf_summary(title: str, samples: Mapping[str, Sequence[float]]) -> str:
    """Format median / 80th / 90th percentiles of labelled sample sets."""
    lines = [title, f"{'':<36}{'median':>10}{'p80':>10}{'p90':>10}"]
    for label, values in samples.items():
        array = np.asarray(list(values), dtype=float)
        lines.append(
            f"{label:<36}"
            f"{np.percentile(array, 50):>10.3f}"
            f"{np.percentile(array, 80):>10.3f}"
            f"{np.percentile(array, 90):>10.3f}"
        )
    return "\n".join(lines)
