"""Golden refresh payload: the seeded paper-scale fleet must refresh to the
same report bytes, sweep for sweep.

The fleet is the three paper environments (office ``(8, 96)``, hall
``(8, 120)``, library ``(6, 72)``) times four replicas, each replica with its
own solver seed over the same measurements — twelve sites in three shape
buckets, two rank groups.  It is refreshed the way ``fleet run`` does it
(default shards, serial executor) and encoded with ``save_report``.  The
SHA-256 of those bytes, the executed plan's per-shard sweeps and the
per-site sweep counts are pinned, so any change to how sites advance (for
example stacking same-shape sites into one tensor) must reproduce every
float the per-site solver produced.

The content is pinned apart from the container: the report's
``report_fingerprint`` (before and after a save/load round trip) and the
SHA-256 of the inflated manifest member.  A change to how members are
compressed moves only the byte pin; these two must hold.
"""

import hashlib
import io
import zipfile
from dataclasses import replace

import pytest

from repro.environments import environment_by_name
from repro.io import load_report, save_report
from repro.io.delta import report_fingerprint
from repro.service.fleet import FleetCampaign, FleetConfig
from repro.service.service import UpdateService
from repro.service.shard import ShardConfig
from repro.simulation.campaign import CampaignConfig
from repro.simulation.collector import CollectionConfig

DAY = 45.0
REPLICAS = 4
GOLDEN_REPORT_SHA256 = "f9e46e543b9fe1a8245b043ce53af26b15792443f8703af902e84dcde73f1715"
GOLDEN_REPORT_FINGERPRINT = (
    "2a5e11f58288f0b2a78f375de72414840de8a0c143a9436fef47291e13a7ca39"
)
GOLDEN_MANIFEST_SHA256 = "c993cc2f6c266625e3f498782533e627321f4bf140b6dbcf37bc1b35b01d56c0"
GOLDEN_SHARD_SWEEPS = [19, 23]
GOLDEN_SITE_SWEEPS = [6, 13, 23, 7, 8, 11, 4, 10, 13, 6, 19, 9]


def golden_requests():
    """Seeded office/hall/library requests at day 45, four replicas each."""
    specs = {
        f"{env}-{index:03d}": environment_by_name(env)
        for index, env in enumerate(("office", "hall", "library"))
    }
    campaign = FleetCampaign(
        specs,
        FleetConfig(
            campaign=CampaignConfig(
                timestamps_days=(0.0, DAY),
                collection=CollectionConfig(
                    survey_samples=3, reference_samples=2, online_samples=1
                ),
                seed=1000,
            )
        ),
    )
    base = campaign.build_requests(DAY)
    return [
        replace(request, site=f"{request.site}-r{copy:02d}", rng=request.rng + 7919 * copy)
        for copy in range(REPLICAS)
        for request in base
    ]


@pytest.fixture(scope="module")
def golden_report():
    return UpdateService().refresh_fleet(
        golden_requests(), elapsed_days=DAY, shards=ShardConfig(), executor="serial"
    )


@pytest.fixture(scope="module")
def golden_bytes(golden_report):
    buffer = io.BytesIO()
    save_report(buffer, golden_report)
    return buffer.getvalue()


class TestGoldenRefresh:
    def test_report_bytes_are_pinned(self, golden_bytes):
        assert hashlib.sha256(golden_bytes).hexdigest() == GOLDEN_REPORT_SHA256

    def test_report_content_is_pinned(self, golden_report, golden_bytes):
        assert report_fingerprint(golden_report) == GOLDEN_REPORT_FINGERPRINT
        loaded = load_report(io.BytesIO(golden_bytes))
        assert report_fingerprint(loaded) == GOLDEN_REPORT_FINGERPRINT

    def test_manifest_member_is_pinned(self, golden_bytes):
        with zipfile.ZipFile(io.BytesIO(golden_bytes)) as archive:
            manifest = archive.read("manifest.npy")
        assert hashlib.sha256(manifest).hexdigest() == GOLDEN_MANIFEST_SHA256

    def test_plan_sweeps_are_pinned(self, golden_report):
        assert [shard.sweeps for shard in golden_report.plan.shards] == GOLDEN_SHARD_SWEEPS
        assert golden_report.stacked_sweeps == max(GOLDEN_SHARD_SWEEPS)

    def test_site_sweeps_are_pinned(self, golden_report):
        assert [report.sweeps for report in golden_report.reports] == GOLDEN_SITE_SWEEPS
