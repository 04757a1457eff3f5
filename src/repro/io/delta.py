"""Delta wire format: ship only what changed between two fleet reports.

A steady-state daemon publishes a fresh :class:`~repro.service.types.FleetReport`
every refresh, but consecutive generations of a warm-started fleet are
mostly identical — unchanged sites converge with zero sweeps and reproduce
the previous factors bit for bit.  A ``repro-fleet-delta`` payload encodes a
*target* report against a *base* report the receiver already holds:

* **same** sites ship nothing — the receiver reuses its base report entry.
* **patch** sites ship only the rows of each per-site array that actually
  differ (plus the refreshed scalar metadata).
* **full** sites — new sites, or sites whose geometry changed — ship every
  array, exactly like the full report format.

The payload carries a SHA-256 fingerprint of the base report; applying a
delta to any other report fails loudly instead of silently reconstructing a
franken-fleet.  ``apply_delta(base, load_delta(path))`` is pinned
bit-identical to loading a full report payload of the target
(``tests/io/test_delta.py``).

Layout follows the :mod:`repro.io.wire` conventions: one compressed NPZ, a
versioned JSON ``manifest`` entry, ``siteNNNN__<name>`` arrays (full sites)
and ``siteNNNN__<name>__rows`` / ``__data`` array pairs (patched sites),
``allow_pickle=False`` throughout.  Per-site metadata and arrays are encoded
with the exact same :func:`repro.io.wire.encode_site_report` /
:func:`repro.io.wire.decode_site_report` helpers the full format uses, so
the two formats cannot drift apart field by field.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.service.shard import ShardPlan
from repro.service.types import FleetReport, UpdateReport
from repro.io.wire import (
    WirePayloadError,
    _get_array,
    _read_payload,
    _site_key,
    _write_payload,
    decode_site_report,
    encode_site_report,
)

__all__ = [
    "DELTA_FORMAT",
    "DELTA_VERSION",
    "FleetDelta",
    "report_fingerprint",
    "save_delta",
    "load_delta",
    "apply_delta",
]

DELTA_FORMAT = "repro-fleet-delta"
"""Format tag of a delta payload."""

DELTA_VERSION = 1
"""Delta layout version; bumped on layout changes."""

_SITE_MODES = ("same", "patch", "full")


def report_fingerprint(report: FleetReport) -> str:
    """SHA-256 fingerprint of a report's per-site content.

    Covers every site's identifier and every per-site array (name, dtype,
    shape, raw bytes) in a canonical order, so two reports fingerprint
    equal exactly when their per-site payloads are bit-identical.  Fleet
    aggregates (errors, plan, executor) stay out: they never feed the
    per-site reconstruction a delta patches.
    """
    digest = hashlib.sha256()
    for site_report in report.reports:
        _, arrays = encode_site_report(site_report)
        digest.update(site_report.site.encode("utf-8"))
        for name in sorted(arrays):
            array = np.ascontiguousarray(arrays[name])
            digest.update(name.encode("utf-8"))
            digest.update(str(array.dtype).encode("utf-8"))
            digest.update(repr(array.shape).encode("utf-8"))
            digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class FleetDelta:
    """A loaded, validated delta payload awaiting :func:`apply_delta`.

    Attributes
    ----------
    manifest:
        The decoded JSON header: base fingerprint, per-site modes and
        metadata entries, fleet-level aggregates of the target report.
    arrays:
        The shipped arrays (full-site arrays and patch row/data pairs),
        keyed exactly as stored in the payload.
    """

    manifest: dict
    arrays: Dict[str, np.ndarray]

    @property
    def base_fingerprint(self) -> str:
        """Fingerprint of the base report this delta was computed against."""
        return str(self.manifest["base_fingerprint"])

    @property
    def sites(self) -> Tuple[str, ...]:
        """Target site identifiers in report order."""
        return tuple(str(e["site"]) for e in self.manifest["sites"])

    @property
    def modes(self) -> Dict[str, str]:
        """Per-site transfer mode: ``same``, ``patch`` or ``full``."""
        return {str(e["site"]): str(e["mode"]) for e in self.manifest["sites"]}


def _diff_array(
    key: str,
    name: str,
    base: np.ndarray,
    target: np.ndarray,
    arrays: Dict[str, np.ndarray],
) -> dict:
    """Encode one array's change; returns its per-array manifest record."""
    if (
        base.shape != target.shape
        or base.dtype != target.dtype
        or target.ndim != 2
    ):
        arrays[f"{key}__{name}"] = target
        return {"mode": "full"}
    if np.array_equal(base, target):
        return {"mode": "same"}
    changed = np.flatnonzero(np.any(base != target, axis=1))
    # Row-level patching only pays while the changed rows are the minority;
    # past that the indices are overhead on top of the full data.
    if changed.size >= target.shape[0]:
        arrays[f"{key}__{name}"] = target
        return {"mode": "full"}
    arrays[f"{key}__{name}__rows"] = changed.astype(np.int64)
    arrays[f"{key}__{name}__data"] = np.ascontiguousarray(target[changed])
    return {"mode": "patch", "rows": int(changed.size)}


def save_delta(path, base: FleetReport, target: FleetReport) -> None:
    """Serialize ``target`` as a delta against ``base``.

    Sites present in both reports with bit-identical per-site content ship
    nothing; drifted sites ship row-level patches; new or reshaped sites
    ship in full.  Sites present only in ``base`` are dropped by the delta
    (the target report is authoritative about fleet membership).
    """
    base_entries = {}
    for site_report in base.reports:
        entry, arrays = encode_site_report(site_report)
        base_entries[site_report.site] = (entry, arrays)

    arrays: Dict[str, np.ndarray] = {}
    site_entries: List[dict] = []
    for index, site_report in enumerate(target.reports):
        key = _site_key(index)
        entry, target_arrays = encode_site_report(site_report)
        previous = base_entries.get(site_report.site)
        if previous is None:
            entry["mode"] = "full"
            for name, array in target_arrays.items():
                arrays[f"{key}__{name}"] = array
        else:
            base_entry, base_arrays = previous
            diffs: Dict[str, dict] = {}
            for name, array in target_arrays.items():
                if name in base_arrays:
                    diffs[name] = _diff_array(
                        key, name, base_arrays[name], array, arrays
                    )
                else:
                    arrays[f"{key}__{name}"] = array
                    diffs[name] = {"mode": "full"}
            unchanged = (
                entry == base_entry
                and set(target_arrays) == set(base_arrays)
                and all(d["mode"] == "same" for d in diffs.values())
            )
            if unchanged:
                entry["mode"] = "same"
            else:
                entry["mode"] = "patch"
                entry["array_diffs"] = diffs
        site_entries.append(entry)

    manifest = {
        "format": DELTA_FORMAT,
        "version": DELTA_VERSION,
        "wire_version": 1,
        "count": len(site_entries),
        "base_fingerprint": report_fingerprint(base),
        "base_count": len(base.reports),
        "elapsed_days": float(target.elapsed_days),
        "stacked_sweeps": int(target.stacked_sweeps),
        "errors_db": {k: float(v) for k, v in target.errors_db.items()},
        "stale_errors_db": {
            k: float(v) for k, v in target.stale_errors_db.items()
        },
        "plan": None if target.plan is None else target.plan.to_json(),
        "executor": None if target.executor is None else str(target.executor),
        "workers": int(target.workers),
        "sweeps_saved": {k: int(v) for k, v in target.sweeps_saved.items()},
        "sites": site_entries,
    }
    _write_payload(path, manifest, arrays)


def load_delta(path) -> FleetDelta:
    """Load and validate a delta payload (format tag, version, site modes).

    Raises ``ValueError`` for wrong formats, unknown versions, or manifests
    whose site entries are malformed; array completeness against the base is
    checked at :func:`apply_delta` time, when the base is in hand.
    """
    manifest, payload = _read_delta_payload(path)
    sites = manifest.get("sites")
    if not isinstance(sites, list) or manifest.get("count") != len(sites):
        raise ValueError(
            f"corrupt manifest in {path!r}: site list/count mismatch"
        )
    if not isinstance(manifest.get("base_fingerprint"), str):
        raise ValueError(f"corrupt manifest in {path!r}: no base fingerprint")
    for index, entry in enumerate(sites):
        if not isinstance(entry, dict) or "site" not in entry:
            raise ValueError(
                f"corrupt site entry {index} in {path!r}: not a site record"
            )
        if entry.get("mode") not in _SITE_MODES:
            raise ValueError(
                f"corrupt site entry {index} in {path!r}: unknown mode "
                f"{entry.get('mode')!r}"
            )
    arrays = {name: payload[name] for name in payload.files if name != "manifest"}
    return FleetDelta(manifest=manifest, arrays=arrays)


def _read_delta_payload(path):
    """Format/version gate mirroring :func:`repro.io.wire._read_payload`."""
    try:
        return _read_payload(path, DELTA_FORMAT)
    except ValueError as exc:
        # _read_payload validates against WIRE_VERSION; re-map the message
        # to the delta's own version lineage.
        if "wire version" in str(exc):
            raise ValueError(
                f"{path!r} is not a readable {DELTA_FORMAT} v{DELTA_VERSION} "
                f"payload: {exc}"
            ) from exc
        raise


def apply_delta(base: FleetReport, delta: FleetDelta) -> FleetReport:
    """Reconstruct the target report from ``base`` + ``delta``.

    Verifies the delta's base fingerprint against ``base`` first — applying
    a delta to a report other than the one it was computed against raises a
    ``ValueError`` naming both fingerprints.  The reconstruction is
    bit-identical to the full target payload.
    """
    actual = report_fingerprint(base)
    expected = delta.base_fingerprint
    if actual != expected:
        raise ValueError(
            "delta does not apply to this base report: base fingerprint is "
            f"{actual[:16]}…, delta was computed against {expected[:16]}…"
        )
    base_reports = {r.site: r for r in base.reports}
    base_arrays = {
        site: encode_site_report(report)[1]
        for site, report in base_reports.items()
    }
    manifest = delta.manifest

    reports: List[UpdateReport] = []
    for index, entry in enumerate(manifest["sites"]):
        key = _site_key(index)
        site = str(entry["site"])
        mode = entry["mode"]
        try:
            if mode == "same":
                reports.append(base_reports[site])
                continue
            if mode == "full":
                reports.append(
                    decode_site_report(
                        entry,
                        lambda name: _get_array(
                            delta.arrays, f"{key}__{name}", "<delta>"
                        ),
                    )
                )
                continue
            site_base = base_arrays[site]
            diffs = entry.get("array_diffs") or {}

            def patched(name):
                diff = diffs.get(name) or {"mode": "same"}
                if diff["mode"] == "full":
                    return _get_array(delta.arrays, f"{key}__{name}", "<delta>")
                array = site_base[name]
                if diff["mode"] == "same":
                    return array
                rows = _get_array(
                    delta.arrays, f"{key}__{name}__rows", "<delta>"
                )
                data = _get_array(
                    delta.arrays, f"{key}__{name}__data", "<delta>"
                )
                result = array.copy()
                result[rows] = data
                return result

            reports.append(decode_site_report(entry, patched))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise WirePayloadError(
                f"cannot apply delta for site {index} ({site!r}): {exc}"
            ) from exc

    plan_data = manifest.get("plan")
    executor = manifest.get("executor")
    return FleetReport(
        elapsed_days=float(manifest["elapsed_days"]),
        reports=tuple(reports),
        errors_db={str(k): float(v) for k, v in manifest["errors_db"].items()},
        stale_errors_db={
            str(k): float(v)
            for k, v in manifest["stale_errors_db"].items()
        },
        stacked_sweeps=int(manifest["stacked_sweeps"]),
        plan=None if plan_data is None else ShardPlan.from_json(plan_data),
        executor=None if executor is None else str(executor),
        workers=int(manifest.get("workers") or 0),
        sweeps_saved={
            str(k): int(v)
            for k, v in (manifest.get("sweeps_saved") or {}).items()
        },
    )
