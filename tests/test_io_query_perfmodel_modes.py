"""Tests for the catalog value summaries and the deployment-mode cost model."""

import numpy as np
import pytest

from repro.core.encoder import EncodeReport
from repro.core.notation import LevelScheme
from repro.core.decimation_plan import _spatial_chunks
from repro.errors import ReproError
from repro.harness import setup_experiment
from repro.io import ChunkStats, attach_stats
from repro.io.metadata import VariableRecord
from repro.perfmodel import model_modes
from repro.session import Session


@pytest.fixture(scope="module")
def chunked_setup(tmp_path_factory):
    return setup_experiment(
        "xgc1", tmp_path_factory.mktemp("query"), scale=0.2, chunks=16
    )


class TestChunkStats:
    def test_of_values(self):
        s = ChunkStats.of(np.array([-3.0, 1.0, 2.0]))
        assert s.vmin == -3.0 and s.vmax == 2.0 and s.vabs_max == 3.0

    def test_empty(self):
        s = ChunkStats.of(np.zeros(0))
        assert s.vmin == 0.0 and s.vmax == 0.0

    def test_attach(self):
        rec = VariableRecord(
            key="k", tier="t", subfile="s", offset=0, length=1
        )
        attach_stats(rec, np.array([1.0, 5.0]))
        assert rec.attrs["stats"]["vmax"] == 5.0


class TestSummaryPruning:
    """The catalog's value summaries, read where the system reads them:
    the planner's significance filter and the blob screen's prune."""

    @pytest.fixture
    def campaign(self, chunked_setup):
        with Session(chunked_setup.hierarchy) as session:
            yield session.open(chunked_setup.canopus_name)

    def test_stats_recorded_by_encoder(self, chunked_setup, campaign):
        rec = campaign.dataset.inq("dpot/L2")
        stats = ChunkStats(**rec.attrs["stats"])
        field = chunked_setup.refactored.base_field
        assert stats.vmax == pytest.approx(field.max())

    def test_blob_screen_prunes(self, campaign):
        everything = campaign.query_blobs("dpot", threshold=-np.inf, shape=(32, 32))
        # No level-0 chunk reaches a threshold above the field's maximum.
        few = campaign.query_blobs("dpot", threshold=1e30, shape=(32, 32))
        assert everything["pruned_chunks"] == 0 and everything["restores"] == 1
        assert few["candidate_chunks"] == 0 < few["pruned_chunks"]
        assert few["restores"] == 0

    def test_pruned_chunks_cannot_hold_a_value_above_threshold(
        self, chunked_setup, campaign
    ):
        field = chunked_setup.dataset.field
        threshold = float(np.quantile(field, 0.9))
        result = campaign.query_blobs("dpot", threshold=threshold, shape=(32, 32))
        chunks = _spatial_chunks(chunked_setup.dataset.mesh.vertices, 16)
        below = [idx for idx in chunks if field[..., idx].max() < threshold]
        # Exactly the chunks holding no value above the threshold.
        assert result["pruned_chunks"] == len(below) > 0
        assert result["candidate_chunks"] == len(chunks) - len(below)

    def test_significance_prunes_monotonically(self, campaign):
        pruned = [
            campaign.plan("dpot", level=0, min_significance=m).pruned_chunks
            for m in (0.0, 1e-3, 1e-2, 1e-1)
        ]
        assert pruned == sorted(pruned)
        assert pruned[0] == 0

    def test_products_without_stats_kept(self, chunked_setup):
        """A chunk without a summary might match: never pruned."""
        with Session(chunked_setup.hierarchy) as session:
            campaign = session.open(chunked_setup.canopus_name)
            for rec in campaign.dataset.select(kind="delta"):
                rec.attrs.pop("stats", None)
                rec.attrs.pop("field_stats", None)
            blobs = campaign.query_blobs("dpot", threshold=1e30, shape=(32, 32))
            assert blobs["pruned_chunks"] == 0 and blobs["restores"] == 1
            plan = campaign.plan("dpot", level=0, min_significance=1e30)
            assert plan.pruned_chunks == 0

    def test_plan_accounts_bytes(self, campaign):
        full = campaign.plan("dpot", level=0)
        pruned = campaign.plan("dpot", level=0, min_significance=1e30)
        assert full.skipped_bytes == 0 < pruned.skipped_bytes
        assert pruned.planned_bytes < full.planned_bytes
        assert pruned.planned_bytes + pruned.skipped_bytes == full.planned_bytes


class TestModes:
    def make_report(self):
        report = EncodeReport(
            var="dpot", scheme=LevelScheme(3), original_bytes=100 << 20
        )
        report.decimation_seconds = 2.0
        report.delta_seconds = 1.0
        report.compress_seconds = 1.0
        report.compressed_bytes = {"dpot/L2": 5 << 20, "dpot/delta0-1": 15 << 20}
        return report

    def test_all_modes_present(self):
        modes = model_modes(self.make_report(), simulation_seconds=30.0)
        assert set(modes) == {"baseline", "inline", "helper_core", "in_transit"}

    def test_in_transit_blocks_least(self):
        """Staging at network speed beats every storage-bound mode."""
        modes = model_modes(self.make_report(), simulation_seconds=30.0)
        assert (
            modes["in_transit"].blocking_seconds
            < modes["inline"].blocking_seconds
        )
        assert (
            modes["in_transit"].blocking_seconds
            < modes["baseline"].blocking_seconds
        )

    def test_canopus_inline_beats_baseline_when_io_bound(self):
        """Writing 4x less data wins once storage is slow enough."""
        modes = model_modes(
            self.make_report(),
            simulation_seconds=30.0,
            storage_bandwidth=10e6,  # badly congested PFS
        )
        assert modes["inline"].step_seconds < modes["baseline"].step_seconds

    def test_baseline_wins_when_storage_is_free(self):
        """With infinite-speed storage, refactoring is pure overhead."""
        modes = model_modes(
            self.make_report(),
            simulation_seconds=30.0,
            storage_bandwidth=1e15,
        )
        assert modes["baseline"].step_seconds < modes["inline"].step_seconds

    def test_helper_core_offloads(self):
        modes = model_modes(self.make_report(), simulation_seconds=300.0)
        helper = modes["helper_core"]
        assert helper.offloaded_seconds > 0
        # Long steps hide the helper's work entirely: blocking is just
        # the compressed write.
        assert helper.blocking_seconds < modes["inline"].blocking_seconds

    def test_overhead_fraction(self):
        modes = model_modes(self.make_report(), simulation_seconds=30.0)
        for mode in modes.values():
            assert 0 <= mode.overhead_fraction < 1

    def test_validation(self):
        with pytest.raises(ReproError):
            model_modes(self.make_report(), simulation_seconds=0)
        with pytest.raises(ReproError):
            model_modes(
                self.make_report(), simulation_seconds=1.0,
                helper_core_fraction=1.5,
            )
