"""Cross-module integration tests: the whole system, end to end.

Each test exercises a realistic multi-subsystem path: XML-configured
deep hierarchies, multi-variable datasets, query-then-focused-refine,
progressive blob workflows, and the byte-split alternative flowing
through the same storage layer.
"""

import numpy as np
import pytest

from repro.analytics import (
    BlobDetectorParams,
    RasterSpec,
    cross_level_errors,
    detect_blobs,
    rasterize,
)
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.io import BPDataset, parse_config
from repro.simulations import make_cfd, make_genasis, make_xgc1


def four_tier_xml(root) -> str:
    return f"""
    <canopus-config>
      <storage root="{root}">
        <tier name="nvram"  device="nvram"  capacity="512KiB"/>
        <tier name="ssd"    device="ssd"    capacity="8MiB"/>
        <tier name="lustre" device="lustre" capacity="10GiB"/>
        <tier name="campaign" device="campaign" capacity="1TiB"/>
      </storage>
      <transport tier="lustre" method="MPI_AGGREGATE" writers="64" aggregators="4"/>
      <canopus levels="4" codec="zfp" tolerance="1e-4" decimation="2"/>
    </canopus-config>
    """


class TestXMLConfiguredPipeline:
    def test_four_tier_encode_restore(self, tmp_path):
        cfg = parse_config(four_tier_xml(tmp_path))
        ds = make_genasis(scale=0.08)
        encoder = CanopusEncoder(
            cfg.hierarchy,
            codec=cfg.codec,
            codec_params={"tolerance": cfg.tolerance, "mode": "relative"},
            transports=cfg.transports,
        )
        report, _ = encoder.encode(
            "deep", ds.variable, ds.mesh, ds.field,
            LevelScheme(cfg.levels, cfg.decimation),
        )
        # Placement spans multiple tiers (base fast, finest delta slow).
        tiers_used = set(report.placed_tiers.values())
        assert len(tiers_used) >= 3
        decoder = CanopusDecoder(
            BPDataset.open("deep", cfg.hierarchy, cfg.transports)
        )
        full = decoder.restore_to(ds.variable, 0)
        rng = np.ptp(ds.field)
        assert np.abs(full.field - ds.field).max() <= 4e-4 * rng + 1e-12

    def test_finest_delta_on_slowest_usable_tier(self, tmp_path):
        cfg = parse_config(four_tier_xml(tmp_path))
        ds = make_cfd(scale=0.3)
        encoder = CanopusEncoder(
            cfg.hierarchy, codec="zfp",
            codec_params={"tolerance": 1e-4, "mode": "relative"},
            transports=cfg.transports,
        )
        report, _ = encoder.encode(
            "cfd", ds.variable, ds.mesh, ds.field, LevelScheme(4)
        )
        base_tier = report.placed_tiers[f"{ds.variable}/L3"]
        finest_tier = report.placed_tiers[f"{ds.variable}/delta0-1"]
        order = cfg.hierarchy.tier_names()
        assert order.index(base_tier) < order.index(finest_tier)


class TestMultiVariableDataset:
    def test_two_variables_independent_schemes(self, tmp_path):
        from repro.storage import two_tier_titan

        h = two_tier_titan(tmp_path, fast_capacity=16 << 20, slow_capacity=1 << 34)
        xgc = make_xgc1(scale=0.1)
        enc = CanopusEncoder(h, codec_params={"tolerance": 1e-4, "mode": "relative"})
        shared = BPDataset.create("multi", h)
        enc.encode("multi", "dpot", xgc.mesh, xgc.field,
                   LevelScheme(3), dataset=shared, close=False)
        enc.encode("multi", "density", xgc.mesh, xgc.field ** 2,
                   LevelScheme(2), dataset=shared, close=True)

        dec = CanopusDecoder(BPDataset.open("multi", h))
        assert dec.variables() == ["density", "dpot"]
        assert dec.scheme("dpot").num_levels == 3
        assert dec.scheme("density").num_levels == 2
        a = dec.restore_to("dpot", 0)
        b = dec.restore_to("density", 0)
        assert len(a.field) == len(b.field) == xgc.mesh.num_vertices


class TestQueryThenFocusedRefine:
    def test_threshold_query_guides_roi(self, tmp_path):
        """The paper's promised workflow: scan at low accuracy, then
        fetch only the high-accuracy subset around the features."""
        from repro.storage import two_tier_titan

        ds = make_xgc1(scale=0.4)
        h = two_tier_titan(tmp_path, fast_capacity=16 << 20, slow_capacity=1 << 34)
        enc = CanopusEncoder(
            h, codec_params={"tolerance": 1e-4, "mode": "relative"}, chunks=25
        )
        enc.encode("scan", "dpot", ds.mesh, ds.field, LevelScheme(3))

        handle = BPDataset.open("scan", h)
        dec = CanopusDecoder(handle)
        base = dec.read_base("dpot")

        # 1. find the hottest region on the base.
        hot_vertex = int(np.argmax(base.field))
        center = base.mesh.vertices[hot_vertex]
        roi = (center - 0.2, center + 0.2)

        # 2. focused refinement: only chunks intersecting the ROI.
        dec.prefetch_geometry("dpot")
        before = h.clock.bytes_moved(op="read")
        refined = dec.refine(base, region=roi)
        roi_bytes = h.clock.bytes_moved(op="read") - before
        assert 0 < refined.refined_mask.sum() < len(refined.field)

        # 3. the refined region is exact; the rest is the estimate.
        dec2 = CanopusDecoder(BPDataset.open("scan", h))
        full = dec2.refine(dec2.read_base("dpot"))
        mask = refined.refined_mask
        assert np.allclose(refined.field[mask], full.field[mask])

        # 4. and it cost less I/O than a full refinement.
        dec3 = CanopusDecoder(BPDataset.open("scan", h))
        dec3.prefetch_geometry("dpot")
        b3 = dec3.read_base("dpot")
        before = h.clock.bytes_moved(op="read")
        dec3.refine(b3)
        full_bytes = h.clock.bytes_moved(op="read") - before
        assert roi_bytes < 0.6 * full_bytes

    def test_blob_query_consistent_with_data(self, tmp_path):
        from repro.session import Session
        from repro.storage import two_tier_titan

        ds = make_xgc1(scale=0.2)
        h = two_tier_titan(tmp_path, fast_capacity=16 << 20, slow_capacity=1 << 34)
        enc = CanopusEncoder(
            h, codec_params={"tolerance": 1e-4, "mode": "relative"}, chunks=16
        )
        enc.encode("q", "dpot", ds.mesh, ds.field, LevelScheme(2))
        threshold = float(np.quantile(ds.field, 0.99))
        with Session(h) as session:
            result = session.open("q").query_blobs(
                "dpot", threshold=threshold, shape=(64, 64)
            )
        # Soundness is guaranteed; completeness: the chunk holding the
        # maximum must be among the candidates.
        assert result["candidate_chunks"] >= 1, "the max's chunk must survive"
        assert result["pruned_chunks"] + result["candidate_chunks"] == 16
        assert result["restores"] == 1


class TestProgressiveBlobWorkflow:
    def test_blob_count_converges_with_refinement(self, tmp_path):
        from repro.storage import two_tier_titan

        ds = make_xgc1(scale=0.5)
        h = two_tier_titan(tmp_path, fast_capacity=32 << 20, slow_capacity=1 << 34)
        enc = CanopusEncoder(h, codec_params={"tolerance": 1e-4, "mode": "relative"})
        enc.encode("blobs", "dpot", ds.mesh, ds.field, LevelScheme(4))

        spec = RasterSpec.from_reference(ds.mesh, ds.field, (192, 192))
        params = BlobDetectorParams(10, 200, min_area=60)
        reference = len(detect_blobs(rasterize(ds.mesh, ds.field, spec), params))

        decoder = CanopusDecoder(BPDataset.open("blobs", h))
        counts = []
        for state in decoder.walk("dpot", pipeline=False):
            img = rasterize(state.mesh, state.plane(), spec)
            counts.append(len(detect_blobs(img, params)))
        # Full-accuracy restoration finds what direct analysis finds.
        assert counts[-1] == reference
        # Refinement does not lose blobs overall (counts non-decreasing
        # within 1 blob of tolerance for grouping jitter).
        assert counts[0] <= counts[-1] + 1

    def test_error_metric_improves_monotonically(self, tmp_path):
        from repro.storage import two_tier_titan

        ds = make_genasis(scale=0.05)
        h = two_tier_titan(tmp_path, fast_capacity=16 << 20, slow_capacity=1 << 34)
        enc = CanopusEncoder(h, codec_params={"tolerance": 1e-5, "mode": "relative"})
        enc.encode("conv", ds.variable, ds.mesh, ds.field, LevelScheme(4))
        decoder = CanopusDecoder(BPDataset.open("conv", h))
        errors = [
            cross_level_errors(s.mesh, s.field, ds.mesh, ds.field).rmse
            for s in decoder.walk(ds.variable, pipeline=False)
        ]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.05 * errors[0]


class TestStagingTransportEndToEnd:
    def test_encode_through_staging_then_drain(self, tmp_path):
        """In-transit mode end-to-end: the simulation's write lands in
        staging memory; analytics can read only after the drain."""
        from repro.errors import TransportError
        from repro.io.transports import PosixTransport, StagingTransport
        from repro.storage import two_tier_titan

        ds = make_cfd(scale=0.1)
        h = two_tier_titan(tmp_path, fast_capacity=8 << 20, slow_capacity=1 << 33)
        staging = StagingTransport(h.tier("lustre"))
        transports = {
            "tmpfs": PosixTransport(h.tier("tmpfs")),
            "lustre": staging,
        }
        enc = CanopusEncoder(
            h, codec_params={"tolerance": 1e-4, "mode": "relative"},
            transports=transports,
        )
        enc.encode("staged", ds.variable, ds.mesh, ds.field, LevelScheme(3))

        # Before drain: catalog (on lustre via staging) is unreadable.
        with pytest.raises(TransportError):
            BPDataset.open("staged", h, transports)
        staging.drain()
        dec = CanopusDecoder(BPDataset.open("staged", h, transports))
        full = dec.restore_to(ds.variable, 0)
        rng = np.ptp(ds.field)
        assert np.abs(full.field - ds.field).max() <= 4e-4 * rng + 1e-12


class TestTierManagementWithCanopusData:
    def test_eviction_keeps_dataset_readable(self, tmp_path):
        """Rebalancing a pressured fast tier must not break restores."""
        from repro.storage import StorageHierarchy, StorageTier, TierManager

        ds = make_xgc1(scale=0.15)
        # Fast tier sized so the base products land but push it past the
        # manager's high-water mark.
        h = StorageHierarchy(
            [
                StorageTier("fast", "dram_tmpfs", 38 << 10, tmp_path / "f"),
                StorageTier("mid", "ssd", 16 << 20, tmp_path / "m"),
                StorageTier("slow", "lustre", 1 << 33, tmp_path / "s"),
            ]
        )
        enc = CanopusEncoder(h, codec_params={"tolerance": 1e-4, "mode": "relative"})
        enc.encode("run", "dpot", ds.mesh, ds.field, LevelScheme(3))
        mgr = TierManager(h, high_water=0.4, low_water=0.2)
        moves = mgr.rebalance()
        # Fast tier was pressured by the base subfile → demoted.
        assert moves
        dec = CanopusDecoder(BPDataset.open("run", h))
        full = dec.restore_to("dpot", 0)
        rng = np.ptp(ds.field)
        assert np.abs(full.field - ds.field).max() <= 3e-4 * rng + 1e-12


class TestByteSplitThroughStorage:
    def test_byte_products_across_tiers(self, tmp_path):
        """The alternative refactorer rides the same placement layer."""
        from repro.core import byte_restore, byte_split
        from repro.core.bytesplit import ByteSplitProduct
        from repro.storage import two_tier_titan

        ds = make_cfd(scale=0.2)
        h = two_tier_titan(tmp_path, fast_capacity=64 << 10, slow_capacity=1 << 34)
        products = byte_split(ds.field, plan=(2, 2, 4))
        handle = BPDataset.create("bytes", h)
        for i, product in enumerate(products):
            handle.write(
                f"pressure/bytes{i}", product.payload, kind="base" if i == 0 else "delta",
                level=i, preferred_tier=0 if i == 0 else 1,
                attrs={"offset": product.offset, "width": product.width,
                       "count": product.count},
            )
        handle.close()

        rd = BPDataset.open("bytes", h)
        got = []
        for i in range(3):
            rec = rd.inq(f"pressure/bytes{i}")
            got.append(
                ByteSplitProduct(
                    offset=rec.attrs["offset"], width=rec.attrs["width"],
                    payload=rd.read(rec.key), count=rec.attrs["count"],
                )
            )
        assert np.array_equal(byte_restore(got), ds.field)
        # The 2-byte base fits the small fast tier; the tails spill over.
        assert rd.inq("pressure/bytes0").tier == "tmpfs"
