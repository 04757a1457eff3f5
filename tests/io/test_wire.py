"""Wire-format round-trips: payloads must preserve everything, exactly.

Property-style checks over a heterogeneous synthesized fleet: dtypes, masks,
ranks, seeds, configs and correlation artefacts survive
``load_requests(save_requests(...))`` bit-for-bit, reports (including the
executed shard plan) survive ``load_report(save_report(...))``, and corrupt
or version-mismatched payloads fail with clear ``ValueError``s.
"""

import json
import zipfile
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.rsvd import RSVDConfig
from repro.core.self_augmented import SelfAugmentedConfig
from repro.core.updater import UpdaterConfig
from repro.io import (
    REQUESTS_FORMAT,
    WIRE_VERSION,
    WirePayloadError,
    load_report,
    load_requests,
    payload_info,
    save_report,
    save_requests,
)
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.service.synthetic import synthesize_fleet
from repro.query import QueryConfig


@pytest.fixture(scope="module")
def fleet_requests():
    """A small mixed-shape, mixed-rank fleet with heterogeneous configs."""
    requests = synthesize_fleet(
        4, link_count=(3, 4), locations_per_link=(4, 5), seed=13
    )
    # Perturb one site's config so config preservation is actually exercised.
    requests[1] = replace(
        requests[1],
        config=UpdaterConfig(
            mic_strategy="gauss",
            solver=SelfAugmentedConfig(rank=3, max_iterations=17, tolerance=1e-6),
        ),
        reference_indices=None,
        correlation=None,
        rng=0,
    )
    return requests


@pytest.fixture()
def requests_path(fleet_requests, tmp_path):
    path = tmp_path / "requests.npz"
    save_requests(path, fleet_requests, elapsed_days=45.0)
    return path


class TestRequestRoundTrip:
    def test_arrays_masks_and_dtypes_preserved_exactly(
        self, fleet_requests, requests_path
    ):
        loaded = load_requests(requests_path)
        assert len(loaded) == len(fleet_requests)
        for original, copy in zip(fleet_requests, loaded):
            assert copy.site == original.site
            for attribute in ("no_decrease_matrix", "no_decrease_mask", "reference_matrix"):
                got = getattr(copy, attribute)
                expected = getattr(original, attribute)
                assert got.dtype == expected.dtype
                np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(
                copy.baseline.values, original.baseline.values
            )
            np.testing.assert_array_equal(
                copy.baseline.no_decrease_mask, original.baseline.no_decrease_mask
            )
            assert (
                copy.baseline.locations_per_link
                == original.baseline.locations_per_link
            )

    def test_ranks_seeds_indices_and_configs_preserved(
        self, fleet_requests, requests_path
    ):
        loaded = load_requests(requests_path)
        for original, copy in zip(fleet_requests, loaded):
            assert copy.rng == original.rng
            assert copy.reference_indices == original.reference_indices
            assert copy.config == original.config

    def test_correlation_artifacts_preserved(self, fleet_requests, requests_path):
        loaded = load_requests(requests_path)
        for original, copy in zip(fleet_requests, loaded):
            if original.correlation is None:
                assert copy.correlation is None
                continue
            mic0, lrr0 = original.correlation
            mic1, lrr1 = copy.correlation
            assert mic1.indices == mic0.indices
            assert mic1.rank == mic0.rank
            assert mic1.strategy == mic0.strategy
            np.testing.assert_array_equal(mic1.mic_matrix, mic0.mic_matrix)
            np.testing.assert_array_equal(lrr1.correlation, lrr0.correlation)
            np.testing.assert_array_equal(lrr1.error, lrr0.error)
            assert (lrr1.iterations, lrr1.converged) == (
                lrr0.iterations,
                lrr0.converged,
            )

    def test_loaded_fleet_solves_identically(self, fleet_requests, requests_path):
        """The wire hop must not perturb a single float of the refresh."""
        loaded = load_requests(requests_path)
        local = UpdateService().update_fleet(fleet_requests)
        from_wire = UpdateService().update_fleet(loaded)
        for a, b in zip(local, from_wire):
            np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_payload_info(self, requests_path):
        info = payload_info(requests_path)
        assert info["format"] == REQUESTS_FORMAT
        assert info["version"] == WIRE_VERSION
        assert info["count"] == 4
        assert info["elapsed_days"] == 45.0

    def test_none_seed_round_trips(self, fleet_requests, tmp_path):
        path = tmp_path / "noseed.npz"
        save_requests(path, [replace(fleet_requests[0], rng=None)])
        assert load_requests(path)[0].rng is None

    def test_live_generator_rejected(self, fleet_requests, tmp_path):
        bad = replace(fleet_requests[0], rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="live random generator"):
            save_requests(tmp_path / "bad.npz", [bad])

    def test_empty_fleet_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty fleet"):
            save_requests(tmp_path / "empty.npz", [])


def _rewrite_manifest(src, dst, mutate):
    """Copy an NPZ payload, applying ``mutate`` to its decoded manifest."""
    with np.load(src, allow_pickle=False) as payload:
        arrays = {key: payload[key] for key in payload.files if key != "manifest"}
        manifest = json.loads(str(payload["manifest"][()]))
    mutate(manifest)
    np.savez_compressed(dst, manifest=np.asarray(json.dumps(manifest)), **arrays)


class TestCorruptPayloads:
    def test_missing_file(self, tmp_path):
        with pytest.raises(WirePayloadError, match="cannot read wire payload"):
            load_requests(tmp_path / "nope.npz")

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an npz at all")
        with pytest.raises(WirePayloadError, match="cannot read wire payload"):
            load_requests(path)

    def test_npz_without_manifest(self, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez(path, data=np.zeros((2, 2)))
        with pytest.raises(WirePayloadError, match="no manifest entry"):
            load_requests(path)

    def test_version_mismatch(self, requests_path, tmp_path):
        path = tmp_path / "future.npz"
        _rewrite_manifest(
            requests_path, path, lambda m: m.update(version=WIRE_VERSION + 1)
        )
        with pytest.raises(WirePayloadError, match="wire version"):
            load_requests(path)

    def test_format_mismatch(self, requests_path, tmp_path):
        path = tmp_path / "other.npz"
        _rewrite_manifest(
            requests_path, path, lambda m: m.update(format="something-else")
        )
        with pytest.raises(WirePayloadError, match="expected 'repro-fleet-requests'"):
            load_requests(path)

    def test_report_loader_rejects_request_payload(self, requests_path):
        with pytest.raises(WirePayloadError, match="expected 'repro-fleet-report'"):
            load_report(requests_path)

    def test_count_mismatch(self, requests_path, tmp_path):
        path = tmp_path / "short.npz"
        _rewrite_manifest(requests_path, path, lambda m: m.update(count=99))
        with pytest.raises(WirePayloadError, match="count mismatch"):
            load_requests(path)

    def test_missing_array(self, requests_path, tmp_path):
        path = tmp_path / "hollow.npz"
        with np.load(requests_path, allow_pickle=False) as payload:
            arrays = {
                key: payload[key]
                for key in payload.files
                if key not in ("manifest", "site0000__reference_matrix")
            }
            manifest = str(payload["manifest"][()])
        np.savez_compressed(path, manifest=np.asarray(manifest), **arrays)
        with pytest.raises(WirePayloadError, match="missing array"):
            load_requests(path)

    def test_dtype_mismatch_detected(self, requests_path, tmp_path):
        """Arrays rewritten with a different dtype than the manifest records
        must be rejected."""
        path = tmp_path / "downcast.npz"
        with np.load(requests_path, allow_pickle=False) as payload:
            arrays = {
                key: payload[key] for key in payload.files if key != "manifest"
            }
            manifest = str(payload["manifest"][()])
        arrays["site0000__baseline_values"] = arrays[
            "site0000__baseline_values"
        ].astype(np.float32)
        np.savez_compressed(path, manifest=np.asarray(manifest), **arrays)
        with pytest.raises(WirePayloadError, match="dtype"):
            load_requests(path)

    def test_corrupt_config(self, requests_path, tmp_path):
        path = tmp_path / "badcfg.npz"

        def mutate(manifest):
            manifest["sites"][0]["config"]["solver"]["max_iterations"] = -3

        _rewrite_manifest(requests_path, path, mutate)
        with pytest.raises(WirePayloadError, match="corrupt updater config"):
            load_requests(path)

    def test_corrupt_manifest_json(self, requests_path, tmp_path):
        path = tmp_path / "badjson.npz"
        with np.load(requests_path, allow_pickle=False) as payload:
            arrays = {
                key: payload[key] for key in payload.files if key != "manifest"
            }
        np.savez_compressed(
            path, manifest=np.asarray("{not json"), **arrays
        )
        with pytest.raises(WirePayloadError, match="corrupt manifest"):
            load_requests(path)


class TestReportRoundTrip:
    @pytest.fixture(scope="class")
    def solved(self, fleet_requests):
        report = UpdateService().refresh_fleet(
            fleet_requests, elapsed_days=45.0, shards=ShardConfig(max_stack_bytes=4096)
        )
        return replace(
            report, errors_db={"office-000": 1.25}, stale_errors_db={"office-000": 2.5}
        )

    def test_report_round_trip_is_exact(self, solved, tmp_path):
        path = tmp_path / "report.npz"
        save_report(path, solved)
        loaded = load_report(path)
        assert loaded.sites == solved.sites
        assert loaded.elapsed_days == solved.elapsed_days
        assert loaded.stacked_sweeps == solved.stacked_sweeps
        assert loaded.errors_db == solved.errors_db
        assert loaded.stale_errors_db == solved.stale_errors_db
        for original, copy in zip(solved.reports, loaded.reports):
            assert copy.site == original.site
            assert copy.sweeps == original.sweeps
            assert copy.converged == original.converged
            np.testing.assert_array_equal(copy.estimate, original.estimate)
            np.testing.assert_array_equal(
                copy.result.solver.left, original.result.solver.left
            )
            np.testing.assert_array_equal(
                copy.result.solver.right, original.result.solver.right
            )
            assert copy.objective == original.objective
            assert copy.result.reference_indices == original.result.reference_indices
            assert copy.result.mic.indices == original.result.mic.indices
            np.testing.assert_array_equal(
                copy.result.lrr.correlation, original.result.lrr.correlation
            )

    def test_plan_round_trips(self, solved, tmp_path):
        path = tmp_path / "report.npz"
        save_report(path, solved)
        loaded = load_report(path)
        assert loaded.plan == solved.plan
        assert loaded.aggregate() == solved.aggregate()

    def test_executor_fields_round_trip(self, solved, tmp_path):
        from dataclasses import replace

        path = tmp_path / "report.npz"
        save_report(path, replace(solved, executor="process", workers=4))
        loaded = load_report(path)
        assert loaded.executor == "process"
        assert loaded.workers == 4
        assert loaded.aggregate()["workers"] == 4.0

    def test_unrecorded_executor_stays_none(self, solved, tmp_path):
        path = tmp_path / "report.npz"
        save_report(path, replace(solved, executor=None))
        loaded = load_report(path)
        assert loaded.executor is None
        assert loaded.workers == 0

    def test_pre_executor_payload_still_loads(self, solved, tmp_path):
        """Wire version 1 payloads written before the executor fields existed
        carry no executor/workers manifest keys; loading must default them
        rather than fail (the additive-keys compatibility policy of
        docs/WIRE_FORMAT.md)."""
        saved = tmp_path / "report.npz"
        save_report(saved, solved)
        legacy = tmp_path / "legacy.npz"

        def strip(manifest):
            manifest.pop("executor", None)
            manifest.pop("workers", None)

        _rewrite_manifest(saved, legacy, strip)
        loaded = load_report(legacy)
        assert loaded.executor is None
        assert loaded.workers == 0
        assert loaded.sites == solved.sites


def _manifest(path):
    with np.load(path, allow_pickle=False) as payload:
        return json.loads(str(payload["manifest"][()]))


class TestLegacyBackendKeys:
    """The v1 ``solver_backend`` keys: written constant, read and ignored."""

    @pytest.fixture(scope="class")
    def solved_locally(self, fleet_requests):
        return UpdateService().refresh_fleet(fleet_requests, elapsed_days=45.0)

    @pytest.mark.parametrize(
        "top, nested",
        [("looped", None), (None, "looped"), ("looped", "looped"), ("batched", "batched")],
    )
    def test_historical_request_configs_load_and_solve(
        self, fleet_requests, requests_path, solved_locally, tmp_path, top, nested
    ):
        legacy = tmp_path / "legacy.npz"

        def mutate(manifest):
            for entry in manifest["sites"]:
                entry["config"]["solver_backend"] = top
                if nested is not None:
                    entry["config"]["solver"]["solver_backend"] = nested

        _rewrite_manifest(requests_path, legacy, mutate)
        loaded = load_requests(legacy)
        assert [r.config for r in loaded] == [r.config for r in fleet_requests]
        for a, b in zip(solved_locally.reports, UpdateService().update_fleet(loaded)):
            np.testing.assert_array_equal(a.estimate, b.estimate)

    @pytest.mark.parametrize("where", ("top", "nested"))
    def test_unknown_request_backend_rejected(self, requests_path, tmp_path, where):
        bad = tmp_path / "bad.npz"

        def mutate(manifest):
            config = manifest["sites"][0]["config"]
            (config if where == "top" else config["solver"])["solver_backend"] = "gpu"

        _rewrite_manifest(requests_path, bad, mutate)
        with pytest.raises(WirePayloadError, match="solver_backend"):
            load_requests(bad)

    @pytest.fixture(scope="class")
    def report_path(self, solved_locally, tmp_path_factory):
        path = tmp_path_factory.mktemp("report") / "report.npz"
        save_report(path, solved_locally)
        return path

    @pytest.mark.parametrize("backend", ("batched", "looped"))
    def test_report_naming_a_backend_loads(
        self, solved_locally, report_path, tmp_path, backend
    ):
        legacy = tmp_path / "legacy.npz"

        def mutate(manifest):
            for entry in manifest["sites"]:
                entry["solver_backend"] = backend

        _rewrite_manifest(report_path, legacy, mutate)
        for a, b in zip(solved_locally.reports, load_report(legacy).reports):
            np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_unknown_report_backend_rejected(self, report_path, tmp_path):
        bad = tmp_path / "bad.npz"
        _rewrite_manifest(
            report_path,
            bad,
            lambda m: m["sites"][0].update(solver_backend="gpu"),
        )
        with pytest.raises(WirePayloadError, match="solver_backend"):
            load_report(bad)

    def test_fresh_payloads_carry_the_constant_keys(self, requests_path, report_path):
        """A v1 reader still finds every key it requires."""
        for entry in _manifest(requests_path)["sites"]:
            assert entry["config"]["solver_backend"] == "batched"
        for entry in _manifest(report_path)["sites"]:
            assert entry["solver_backend"] == "batched"

    def test_no_config_field_names_a_backend(self):
        for config in (RSVDConfig, SelfAugmentedConfig, UpdaterConfig, QueryConfig):
            names = [f.name for f in fields(config)]
            assert not [n for n in names if n.endswith("_backend")], config
