"""Delta wire payloads: ``save_delta`` / ``load_delta`` / ``apply_delta``."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.io.delta import (
    DELTA_FORMAT,
    DELTA_VERSION,
    FleetDelta,
    apply_delta,
    load_delta,
    report_fingerprint,
    save_delta,
)
from repro.io.wire import WIRE_VERSION, WirePayloadError, load_report, save_report
from repro.service.service import UpdateService
from repro.service.synthetic import synthesize_fleet


def refresh(requests, warm_from=None, **kwargs):
    return UpdateService().refresh_fleet(
        requests, elapsed_days=45.0, warm_from=warm_from, **kwargs
    )


@pytest.fixture(scope="module")
def generations():
    """Base cold refresh + a drifted target refresh of the same fleet."""
    requests = synthesize_fleet(
        3,
        elapsed_days=45.0,
        seed=11,
        link_count=3,
        locations_per_link=4,
        updater=UpdaterConfig(
            solver=SelfAugmentedConfig(max_iterations=60, tolerance=1e-4)
        ),
    )
    base = refresh(requests)
    rng = np.random.default_rng(5)
    drifted = [
        replace(
            request,
            no_decrease_matrix=request.no_decrease_matrix
            + 0.01
            * request.no_decrease_mask
            * rng.standard_normal(request.no_decrease_matrix.shape),
        )
        for request in requests
    ]
    target = refresh(drifted, warm_from=base)
    return requests, base, target


class TestFingerprint:
    def test_identical_reports_fingerprint_equal(self, generations):
        requests, base, target = generations
        again = refresh(requests)
        assert report_fingerprint(base) == report_fingerprint(again)

    def test_different_reports_fingerprint_differently(self, generations):
        requests, base, target = generations
        assert report_fingerprint(base) != report_fingerprint(target)

    def test_fingerprint_ignores_fleet_aggregates(self, generations):
        requests, base, target = generations
        relabeled = replace(base, elapsed_days=99.0, workers=7)
        assert report_fingerprint(base) == report_fingerprint(relabeled)


class TestRoundTrip:
    def test_apply_reconstructs_target_bit_identical(
        self, generations, tmp_path
    ):
        requests, base, target = generations
        delta_path = tmp_path / "delta.npz"
        full_path = tmp_path / "full.npz"
        save_delta(delta_path, base, target)
        save_report(full_path, target)
        rebuilt = apply_delta(base, load_delta(delta_path))
        full = load_report(full_path)
        assert rebuilt.sweeps_saved == full.sweeps_saved
        assert rebuilt.elapsed_days == full.elapsed_days
        for a, b in zip(full.reports, rebuilt.reports):
            assert a.site == b.site
            assert a.sweeps == b.sweeps
            assert a.warm_started == b.warm_started
            np.testing.assert_array_equal(a.estimate, b.estimate)
            np.testing.assert_array_equal(
                a.result.solver.left, b.result.solver.left
            )
            np.testing.assert_array_equal(a.matrix.values, b.matrix.values)
        assert report_fingerprint(rebuilt) == report_fingerprint(full)

    def test_delta_smaller_than_full_payload(self, generations, tmp_path):
        requests, base, target = generations
        delta_path = tmp_path / "delta.npz"
        full_path = tmp_path / "full.npz"
        save_delta(delta_path, base, target)
        save_report(full_path, target)
        assert delta_path.stat().st_size < full_path.stat().st_size

    def test_unchanged_warm_generations_ship_same(self, generations, tmp_path):
        requests, base, target = generations
        # Two consecutive warm refreshes of identical data are bit-identical
        # generation to generation, so every site rides mode "same".
        warm_a = refresh(requests, warm_from=base)
        warm_b = refresh(requests, warm_from=warm_a)
        path = tmp_path / "delta.npz"
        save_delta(path, warm_a, warm_b)
        delta = load_delta(path)
        assert set(delta.modes.values()) == {"same"}
        assert delta.arrays == {}
        rebuilt = apply_delta(warm_a, delta)
        assert report_fingerprint(rebuilt) == report_fingerprint(warm_b)

    def test_new_site_ships_full(self, generations, tmp_path):
        requests, base, target = generations
        shrunken = replace(base, reports=base.reports[:-1])
        path = tmp_path / "delta.npz"
        save_delta(path, shrunken, target)
        delta = load_delta(path)
        modes = delta.modes
        assert modes[target.reports[-1].site] == "full"
        rebuilt = apply_delta(shrunken, delta)
        assert report_fingerprint(rebuilt) == report_fingerprint(target)

    def test_drifted_sites_ship_patches(self, generations, tmp_path):
        requests, base, target = generations
        path = tmp_path / "delta.npz"
        save_delta(path, base, target)
        delta = load_delta(path)
        assert set(delta.modes.values()) == {"patch"}
        assert delta.manifest["base_count"] == len(base.reports)
        assert delta.sites == tuple(r.site for r in target.reports)


class TestValidation:
    def test_wrong_base_rejected_with_fingerprints(
        self, generations, tmp_path
    ):
        requests, base, target = generations
        path = tmp_path / "delta.npz"
        save_delta(path, base, target)
        delta = load_delta(path)
        with pytest.raises(WirePayloadError, match="fingerprint"):
            apply_delta(target, delta)

    def test_full_report_payload_rejected(self, generations, tmp_path):
        requests, base, target = generations
        path = tmp_path / "report.npz"
        save_report(path, target)
        with pytest.raises(WirePayloadError, match="format"):
            load_delta(path)

    def test_unknown_mode_rejected(self, generations, tmp_path):
        requests, base, target = generations
        path = tmp_path / "delta.npz"
        save_delta(path, base, target)
        delta = load_delta(path)
        manifest = json.loads(json.dumps(delta.manifest))
        manifest["sites"][0]["mode"] = "sideways"
        rewritten = tmp_path / "corrupt.npz"
        np.savez_compressed(
            rewritten,
            manifest=np.asarray(json.dumps(manifest)),
            **delta.arrays,
        )
        with pytest.raises(WirePayloadError, match="unknown mode"):
            load_delta(rewritten)

    def test_missing_patch_arrays_rejected(self, generations, tmp_path):
        requests, base, target = generations
        path = tmp_path / "delta.npz"
        save_delta(path, base, target)
        delta = load_delta(path)
        # Drop one shipped array: apply must fail naming the site.
        assert delta.arrays, "drifted delta should ship at least one array"
        dropped = sorted(delta.arrays)[0]
        pruned = {k: v for k, v in delta.arrays.items() if k != dropped}
        broken = FleetDelta(manifest=delta.manifest, arrays=pruned)
        with pytest.raises(WirePayloadError, match="cannot apply delta for site"):
            apply_delta(base, broken)

    @pytest.mark.parametrize(
        "key, value, lineage",
        [
            ("version", DELTA_VERSION + 1, "delta version"),
            ("wire_version", WIRE_VERSION + 1, "wire version"),
        ],
    )
    def test_unknown_version_rejected(
        self, generations, tmp_path, key, value, lineage
    ):
        """``version`` is checked against DELTA_VERSION and ``wire_version``
        against WIRE_VERSION; a mismatch in either is a typed error."""
        requests, base, target = generations
        path = tmp_path / "delta.npz"
        save_delta(path, base, target)
        delta = load_delta(path)
        assert delta.manifest["version"] == DELTA_VERSION
        assert delta.manifest["wire_version"] == WIRE_VERSION
        manifest = json.loads(json.dumps(delta.manifest))
        manifest[key] = value
        rewritten = tmp_path / "future.npz"
        np.savez_compressed(
            rewritten,
            manifest=np.asarray(json.dumps(manifest)),
            **delta.arrays,
        )
        with pytest.raises(WirePayloadError, match=lineage):
            load_delta(rewritten)

    def test_not_a_zip_rejected(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(WirePayloadError):
            load_delta(path)

    def test_format_constants_pinned(self):
        assert DELTA_FORMAT == "repro-fleet-delta"
        assert DELTA_VERSION == 1
