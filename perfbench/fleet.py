"""Seeded inputs and independent output checks of the benchmark.

Inputs come from the public ``repro`` simulation API (environment specs,
survey campaigns); every site keeps its campaign's ground truth so outputs
can be checked against the simulated world.  The checks use only NumPy,
JSON and this file: payloads are parsed from their documented NPZ layout
(``docs/WIRE_FORMAT.md``), and localization answers are compared with a
brute-force nearest neighbour, so a bug in the code under test cannot
hide behind the same bug in its check.
"""

from __future__ import annotations

import io
import json
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

ENVIRONMENTS = ("office", "hall", "library")
GRID_SPACING_M = 0.6  # the query engine's fallback grid spacing
QUERY_NOISE_DB = 0.5


@dataclass
class Site:
    """One simulated site: its update request per day plus ground truth."""

    name: str
    requests: Dict[float, object]
    truth: Dict[float, np.ndarray]


def site_seed(seed: int, index: int) -> int:
    """Substrate seed of site ``index`` (``FleetConfig``'s default stride of 101)."""
    return 1000 * seed + 101 * index


def build_sites(
    seed: int,
    days: Sequence[float],
    count: int = len(ENVIRONMENTS),
    link_count: Optional[int] = None,
    locations_per_link: Optional[int] = None,
) -> List[Site]:
    """Survey ``count`` sites (environments cycled) and collect each day's inputs.

    A ``FleetCampaign`` with ``synthesize_fleet``'s sampling depths and site
    seeds (``site_seed``); every site keeps its ground truth at each refresh
    day for the checks.
    """
    from repro.environments import environment_by_name
    from repro.service.fleet import FleetCampaign, FleetConfig
    from repro.simulation.campaign import CampaignConfig
    from repro.simulation.collector import CollectionConfig

    overrides = {}
    if link_count is not None:
        overrides["link_count"] = link_count
    if locations_per_link is not None:
        overrides["locations_per_link"] = locations_per_link
    specs = {}
    for index in range(count):
        env = ENVIRONMENTS[index % len(ENVIRONMENTS)]
        specs[f"{env}-{index:03d}"] = environment_by_name(env, **overrides)
    collection = CollectionConfig(survey_samples=3, reference_samples=2, online_samples=1)
    campaign = FleetCampaign(specs, FleetConfig(campaign=CampaignConfig(
        timestamps_days=(0.0, *days), collection=collection, seed=site_seed(seed, 0),
    )))
    requests = {day: campaign.build_requests(day) for day in days}
    return [
        Site(
            name=name,
            requests={day: requests[day][index] for day in days},
            truth={
                day: np.array(campaign.campaign(name).ground_truth(day).values, dtype=float)
                for day in days
            },
        )
        for index, name in enumerate(campaign.sites)
    ]


def replicate(sites: Sequence[Site], copies: int) -> List[Site]:
    """Scale a fleet without more surveying: each replica gets its own name
    and solver seed (so its random init differs) over the same measurements."""
    out = []
    for copy in range(copies):
        for site in sites:
            name = f"{site.name}-r{copy:02d}"
            requests = {
                day: replace(request, site=name, rng=request.rng + 7919 * copy)
                for day, request in site.requests.items()
            }
            out.append(Site(name=name, requests=requests, truth=site.truth))
    return out


# ------------------------------------------------------------------ payloads
def read_npz(data: bytes) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Parse a wire payload: its JSON manifest plus every named array."""
    with np.load(io.BytesIO(data), allow_pickle=False) as archive:
        manifest = json.loads(str(archive["manifest"]))
        arrays = {key: archive[key] for key in archive.files if key != "manifest"}
    return manifest, arrays


def check_request_payload(data: bytes, requests: Sequence) -> List[str]:
    """Problems found comparing an encoded request payload with its requests."""
    problems = []
    try:
        manifest, arrays = read_npz(data)
    except (OSError, ValueError, KeyError) as exc:
        return [f"request payload does not parse: {exc}"]
    if manifest.get("format") != "repro-fleet-requests":
        problems.append(f"payload format is {manifest.get('format')!r}")
    entries = manifest.get("sites") or []
    if len(entries) != len(requests):
        return problems + [f"payload holds {len(entries)} sites, expected {len(requests)}"]
    for index, (entry, request) in enumerate(zip(entries, requests)):
        key = f"site{index:04d}"
        if entry.get("site") != request.site:
            problems.append(f"{key}: site {entry.get('site')!r} != {request.site!r}")
        if list(entry.get("reference_indices") or []) != list(request.reference_indices):
            problems.append(f"{key}: reference indices differ")
        for field, expected in (
            ("baseline_values", request.baseline.values),
            ("no_decrease_matrix", request.no_decrease_matrix),
            ("no_decrease_mask", request.no_decrease_mask),
            ("reference_matrix", request.reference_matrix),
        ):
            got = arrays.get(f"{key}__{field}")
            if got is None or not np.array_equal(got, expected):
                problems.append(f"{key}: {field} does not decode to what was encoded")
    return problems


@dataclass
class ReportCheck:
    """Outcome of checking one report payload against the ground truth."""

    problems: List[str]
    errors_db: List[float]
    stale_db: List[float]
    sweeps: List[int]
    sweeps_saved: int
    estimates: Dict[str, np.ndarray]


def mean_abs_db(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(a, dtype=float) - b)))


def check_report_payload(data: bytes, sites: Sequence[Site], day: float) -> ReportCheck:
    """Every site's estimate must beat its stale baseline against the truth."""
    check = ReportCheck([], [], [], [], 0, {})
    try:
        manifest, arrays = read_npz(data)
    except (OSError, ValueError, KeyError) as exc:
        check.problems.append(f"report payload does not parse: {exc}")
        return check
    if manifest.get("format") != "repro-fleet-report":
        check.problems.append(f"report format is {manifest.get('format')!r}")
    by_name = {site.name: site for site in sites}
    entries = manifest.get("sites") or []
    if sorted(e.get("site") for e in entries) != sorted(by_name):
        check.problems.append("report sites differ from the requested fleet")
        return check
    check.sweeps_saved = int(sum((manifest.get("sweeps_saved") or {}).values()))
    for index, entry in enumerate(entries):
        site = by_name[entry["site"]]
        estimate = arrays.get(f"site{index:04d}__estimate")
        truth = site.truth[day]
        if estimate is None or estimate.shape != truth.shape:
            check.problems.append(f"{site.name}: estimate missing or misshapen")
            continue
        error = mean_abs_db(estimate, truth)
        stale = mean_abs_db(site.requests[day].baseline.values, truth)
        check.errors_db.append(error)
        check.stale_db.append(stale)
        check.sweeps.append(int(entry.get("sweeps", 0)))
        check.estimates[site.name] = estimate
        if not (np.all(np.isfinite(estimate)) and error < stale):
            check.problems.append(
                f"{site.name}: estimate error {error:.3f} dB does not beat stale {stale:.3f} dB"
            )
    return check


# ------------------------------------------------------------------- queries
def grid_points(link_count: int, locations_per_link: int) -> np.ndarray:
    """Coordinates of every grid column (links as rows ``GRID_SPACING_M`` apart)."""
    columns = np.arange(link_count * locations_per_link)
    return np.column_stack(
        [
            (columns % locations_per_link) * GRID_SPACING_M,
            (columns // locations_per_link) * GRID_SPACING_M,
        ]
    ).astype(float)


class BruteKNN:
    """Brute-force reference for the engine's default kNN matcher.

    Offset-robust distance (each vector minus its mean over links), the
    nearest column as the answer index and the inverse-distance weighted
    centroid of the three nearest columns as the answer point.
    """

    def __init__(self, values: np.ndarray, locations_per_link: int, neighbours: int = 3) -> None:
        values = np.asarray(values, dtype=float)
        self.centered = values - values.mean(axis=0, keepdims=True)
        self.points = grid_points(values.shape[0], locations_per_link)
        self.neighbours = neighbours

    def distances(self, query: np.ndarray) -> np.ndarray:
        query = np.asarray(query, dtype=float)
        centered = query - query.mean()
        return np.sqrt(np.sum((self.centered - centered[:, None]) ** 2, axis=0))

    def point(self, distances: np.ndarray) -> np.ndarray:
        nearest = np.argsort(distances, kind="stable")[: self.neighbours]
        weights = 1.0 / np.maximum(distances[nearest], 1e-9)
        return (weights / weights.sum()) @ self.points[nearest]

    def problem(self, query: np.ndarray, index: int, point) -> Optional[str]:
        """Why an answer is wrong, or ``None`` when it matches the reference."""
        distances = self.distances(query)
        best = float(distances.min())
        if not 0 <= index < distances.size:
            return f"answer index {index} out of range"
        if distances[index] > best * (1 + 1e-9) + 1e-9:
            return f"answer {index} is {distances[index]:.6f} away; nearest is {best:.6f}"
        if point is not None and not np.allclose(point, self.point(distances), atol=1e-6):
            return f"answer point {point} != reference {self.point(distances)}"
        return None


class SharedAnswers:
    """The engine's documented result-cache contract, modelled independently:
    queries to one site whose RSS vectors round to the same ``quantum_db``
    pattern may share one answer, computed for whichever of them came first.

    Patterns are remembered least-recently-used first, like the engine's
    cache; with a larger capacity than the engine's, every pattern the
    engine can still answer from is remembered, and memory stays bounded.
    """

    def __init__(self, quantum_db: float, capacity: int) -> None:
        self.quantum_db = quantum_db
        self.capacity = capacity
        self.seen: "OrderedDict[tuple, List[np.ndarray]]" = OrderedDict()

    def _key(self, site: int, vector: np.ndarray) -> tuple:
        pattern = np.round(np.asarray(vector, dtype=float) / self.quantum_db).astype(np.int64)
        return site, pattern.tobytes()

    def remember(self, site: int, vector: np.ndarray) -> None:
        key = self._key(site, vector)
        vectors = self.seen.setdefault(key, [])
        if not any(np.array_equal(vector, other) for other in vectors):
            vectors.append(vector)
        self.seen.move_to_end(key)
        while len(self.seen) > self.capacity:
            self.seen.popitem(last=False)

    def problem(self, oracle: BruteKNN, site: int, vector, index: int, point) -> Optional[str]:
        """``None`` when the answer fits the query or a query sharing its pattern."""
        problem = oracle.problem(vector, index, point)
        if problem is None:
            return None
        for other in self.seen.get(self._key(site, vector), []):
            if oracle.problem(other, index, point) is None:
                return None
        return problem


class QueryStream:
    """Seeded online RSS vectors: a true grid column at a day plus noise."""

    def __init__(self, sites: Sequence[Site], day: float, seed: int) -> None:
        self.sites = list(sites)
        self.day = day
        self.rng = np.random.default_rng(seed)

    def draw(self, count: int, site_index: Optional[int] = None):
        """``count`` fresh queries: ``[(site index, true column, vector)]``."""
        out = []
        for _ in range(count):
            k = int(self.rng.integers(len(self.sites))) if site_index is None else site_index
            truth = self.sites[k].truth[self.day]
            column = int(self.rng.integers(truth.shape[1]))
            vector = truth[:, column] + self.rng.normal(0.0, QUERY_NOISE_DB, truth.shape[0])
            out.append((k, column, vector))
        return out
