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

Layout follows the :mod:`repro.io.wire` conventions: one deflated NPZ, a
versioned JSON ``manifest`` entry, ``siteNNNN__<name>`` arrays (full sites)
and ``siteNNNN__<name>__rows`` / ``__data`` array pairs (patched sites),
``allow_pickle=False`` throughout, read through the same codec core.
Per-site metadata and arrays are encoded with the exact same
:func:`repro.io.wire.encode_site_report` /
:func:`repro.io.wire.decode_site_report` helpers the full format uses, and
the fleet-level header with the same encode/decode pair, so the two
formats cannot drift apart field by field.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.service.types import FleetReport, UpdateReport
from repro.io.wire import (
    WIRE_VERSION,
    WirePayloadError,
    _decode_fleet_report,
    _decoding,
    _encode_fleet_header,
    _Family,
    _get_array,
    _prefixed,
    _read_payload,
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

# A delta has its own layout version and also pins the wire version of the
# site entries it embeds; a reader must match both.
_DELTA = _Family(
    DELTA_FORMAT,
    versions=(
        ("version", DELTA_VERSION, "delta"),
        ("wire_version", WIRE_VERSION, "wire"),
    ),
)


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
        key = _DELTA.key(index)
        entry, target_arrays = encode_site_report(site_report)
        previous = base_entries.get(site_report.site)
        if previous is None:
            entry["mode"] = "full"
            arrays.update(_prefixed(key, target_arrays))
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

    header = {
        "base_fingerprint": report_fingerprint(base),
        "base_count": len(base.reports),
        **_encode_fleet_header(target),
    }
    _write_payload(path, _DELTA.manifest(header, site_entries), arrays)


def _check_site_entry(entry: dict, _get) -> dict:
    if "site" not in entry:
        raise WirePayloadError("not a site record")
    if entry.get("mode") not in _SITE_MODES:
        raise WirePayloadError(f"unknown mode {entry.get('mode')!r}")
    return entry


def _to_delta(manifest: dict, _entries, arrays) -> FleetDelta:
    if not isinstance(manifest.get("base_fingerprint"), str):
        raise WirePayloadError("no base fingerprint")
    return FleetDelta(manifest=manifest, arrays=arrays)


def load_delta(path) -> FleetDelta:
    """Load and validate a delta payload (format tag, versions, site modes).

    Raises :class:`WirePayloadError` for wrong formats, unknown delta or
    wire versions, or manifests whose site entries are malformed; array
    completeness against the base is checked at :func:`apply_delta` time,
    when the base is in hand.
    """
    return _read_payload(path, _DELTA, _check_site_entry, _to_delta)


def _apply_site(
    key: str, entry: dict, base_reports: Dict[str, UpdateReport], arrays
) -> UpdateReport:
    """One target site from its delta entry and the base report."""
    site = str(entry["site"])
    mode = entry["mode"]
    if mode == "same":
        return base_reports[site]

    def shipped(name):
        return _get_array(arrays, f"{key}__{name}")

    if mode == "full":
        return decode_site_report(entry, shipped)
    base_arrays = encode_site_report(base_reports[site])[1]
    diffs = entry.get("array_diffs") or {}

    def patched(name):
        diff = diffs.get(name) or {"mode": "same"}
        if diff["mode"] == "full":
            return shipped(name)
        array = base_arrays[name]
        if diff["mode"] == "same":
            return array
        result = array.copy()
        result[shipped(f"{name}__rows")] = shipped(f"{name}__data")
        return result

    return decode_site_report(entry, patched)


def apply_delta(base: FleetReport, delta: FleetDelta) -> FleetReport:
    """Reconstruct the target report from ``base`` + ``delta``.

    Verifies the delta's base fingerprint against ``base`` first — applying
    a delta to a report other than the one it was computed against raises a
    :class:`WirePayloadError` naming both fingerprints, as does a site the
    shipped arrays cannot rebuild.  The reconstruction is bit-identical to
    the full target payload.
    """
    actual = report_fingerprint(base)
    expected = delta.base_fingerprint
    if actual != expected:
        raise WirePayloadError(
            "delta does not apply to this base report: base fingerprint is "
            f"{actual[:16]}…, delta was computed against {expected[:16]}…"
        )
    base_reports = {r.site: r for r in base.reports}
    reports: List[UpdateReport] = []
    for index, entry in enumerate(delta.manifest["sites"]):
        with _decoding(f"cannot apply delta for site {index} ({entry['site']!r})"):
            reports.append(
                _apply_site(_DELTA.key(index), entry, base_reports, delta.arrays)
            )
    with _decoding("cannot apply delta"):
        return _decode_fleet_report(delta.manifest, reports)
