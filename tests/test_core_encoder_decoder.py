"""End-to-end tests for the Canopus encoder/decoder and its level walk."""

import numpy as np
import pytest

from repro.api import Session
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.errors import CanopusError, RestorationError
from repro.io import BPDataset
from repro.mesh.generators import annulus, disk
from repro.storage import SimClock, StorageHierarchy, StorageTier, two_tier_titan

TOL = 1e-4


@pytest.fixture
def hierarchy(tmp_path):
    return two_tier_titan(tmp_path, fast_capacity=4 << 20, slow_capacity=1 << 33)


@pytest.fixture(scope="module")
def dataset_inputs():
    mesh = annulus(40, 120)
    v = mesh.vertices
    field = np.sin(3 * v[:, 0]) * np.cos(3 * v[:, 1]) + 0.4 * np.exp(
        -((v[:, 0] - 0.8) ** 2 + v[:, 1] ** 2) / 0.05
    )
    return mesh, field


def encode(hierarchy, mesh, field, *, levels=3, **kw):
    kw.setdefault("codec", "zfp")
    kw.setdefault("codec_params", {"tolerance": TOL})
    enc = CanopusEncoder(hierarchy, **kw)
    return enc.encode("run", "dpot", mesh, field, LevelScheme(levels))


class TestEncoder:
    def test_products_and_placement(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        report, _ = encode(hierarchy, mesh, field)
        assert report.placed_tiers["dpot/L2"] == "tmpfs"
        assert report.placed_tiers["dpot/delta1-2"] == "lustre"
        assert report.placed_tiers["dpot/delta0-1"] == "lustre"
        assert report.compressed_bytes["dpot/L2"] > 0
        assert report.original_bytes == field.nbytes
        assert report.io_seconds > 0
        assert report.decimation_seconds > 0

    def test_base_bypasses_tiny_fast_tier(self, tmp_path, dataset_inputs):
        mesh, field = dataset_inputs
        h = two_tier_titan(tmp_path, fast_capacity=32 << 10, slow_capacity=1 << 33)
        report, _ = encode(h, mesh, field)
        # 32 KiB cannot hold base field + base mesh → bypass to lustre.
        assert report.placed_tiers["dpot/mesh2"] == "lustre"

    def test_payload_smaller_than_original(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        report, _ = encode(hierarchy, mesh, field)
        assert report.payload_bytes < report.original_bytes

    @pytest.mark.parametrize("chunks", [1, 8])
    def test_payload_bytes_are_base_and_delta_records(
        self, hierarchy, dataset_inputs, chunks
    ):
        """Chunk index lists (``kind="mapping"``) are not payload."""
        mesh, field = dataset_inputs
        report, _ = encode(hierarchy, mesh, field, chunks=chunks)
        ds = BPDataset.open("run", hierarchy)
        records = [ds.inq(key) for key in ds.keys()]
        payload = sum(r.length for r in records if r.kind in ("base", "delta"))
        assert report.payload_bytes == payload
        # The chunk index lists are stored all the same.
        assert any(
            r.kind == "mapping" and "chunk" in r.attrs for r in records
        ) == (chunks > 1)

    def test_invalid_chunks(self, hierarchy):
        with pytest.raises(CanopusError):
            CanopusEncoder(hierarchy, chunks=0)

    def test_bad_codec_fails_fast(self, hierarchy):
        from repro.errors import UnknownCodecError

        with pytest.raises(UnknownCodecError):
            CanopusEncoder(hierarchy, codec="nope")

    def test_multiple_variables_one_dataset(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        enc = CanopusEncoder(hierarchy, codec_params={"tolerance": TOL})
        ds = BPDataset.create("multi", hierarchy)
        enc.encode("multi", "a", mesh, field, LevelScheme(2), dataset=ds, close=False)
        enc.encode("multi", "b", mesh, 2 * field, LevelScheme(2), dataset=ds, close=True)
        dec = CanopusDecoder(BPDataset.open("multi", hierarchy))
        assert dec.variables() == ["a", "b"]


class TestDecoder:
    def test_read_base(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        base = dec.read_base("dpot")
        assert base.level == 2
        assert base.mesh.num_vertices == len(base.field)
        assert base.mesh.num_vertices == pytest.approx(
            mesh.num_vertices / 4, rel=0.02
        )

    def test_restore_full_accuracy_error_bounded(self, hierarchy, dataset_inputs):
        """Total error ≤ sum of per-stage codec tolerances."""
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        full = dec.restore_to("dpot", 0)
        assert full.level == 0
        assert len(full.field) == mesh.num_vertices
        assert np.max(np.abs(full.field - field)) <= 3 * TOL + 1e-12

    def test_restore_lossless_codec_near_exact(self, hierarchy, dataset_inputs):
        """Lossless codec ⇒ only float rounding remains (1 ulp per stage).

        delta = fine − est and restore = delta + est each round once, so
        the round trip is exact to ~machine epsilon, not bit-exact.
        """
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field, codec="fpc", codec_params={})
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        full = dec.restore_to("dpot", 0)
        scale = np.abs(field).max()
        assert np.max(np.abs(full.field - field)) <= 4 * np.finfo(float).eps * scale

    def test_restore_intermediate_level(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        mid = dec.restore_to("dpot", 1)
        assert mid.level == 1
        assert mid.mesh.num_vertices == pytest.approx(
            mesh.num_vertices / 2, rel=0.02
        )

    def test_timings_accumulate(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        base = dec.read_base("dpot")
        full = dec.restore_to("dpot", 0)
        assert full.timings.io_seconds > base.timings.io_seconds
        assert full.timings.restore_seconds > 0
        assert full.timings.total_seconds == pytest.approx(
            full.timings.io_seconds
            + full.timings.decompress_seconds
            + full.timings.restore_seconds
        )

    def test_base_io_cheaper_than_full_restore_io(self, hierarchy, dataset_inputs):
        """The elastic-analytics claim: a quick look costs far less I/O."""
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        base_io = dec.read_base("dpot").timings.io_seconds
        dec2 = CanopusDecoder(BPDataset.open("run", hierarchy))
        full_io = dec2.restore_to("dpot", 0).timings.io_seconds
        assert base_io < 0.5 * full_io

    def test_refine_beyond_full_raises(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        full = dec.restore_to("dpot", 0)
        with pytest.raises(RestorationError):
            dec.refine(full)

    def test_unknown_variable(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        with pytest.raises(RestorationError):
            dec.read_base("nope")

    def test_delta_rms_reported(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        state = dec.refine(dec.read_base("dpot"))
        assert state.last_delta_rms > 0


class TestChunkedAndFocused:
    def test_chunked_roundtrip_matches_monolithic(self, tmp_path, dataset_inputs):
        mesh, field = dataset_inputs
        h = two_tier_titan(tmp_path, fast_capacity=4 << 20, slow_capacity=1 << 33)
        report, _ = encode(h, mesh, field, chunks=8)
        assert "dpot/delta0-1/chunk0" in report.compressed_bytes
        dec = CanopusDecoder(BPDataset.open("run", h))
        full = dec.restore_to("dpot", 0)
        assert np.max(np.abs(full.field - field)) <= 3 * TOL + 1e-12

    def test_focused_refinement_reads_fewer_bytes(self, tmp_path, dataset_inputs):
        mesh, field = dataset_inputs
        h = two_tier_titan(tmp_path, fast_capacity=4 << 20, slow_capacity=1 << 33)
        encode(h, mesh, field, chunks=16)

        dec = CanopusDecoder(BPDataset.open("run", h))
        base = dec.read_base("dpot")
        before = h.clock.bytes_moved(op="read")
        roi = (np.array([0.5, -0.4]), np.array([1.1, 0.4]))
        focused = dec.refine(base, region=roi)
        focused_bytes = h.clock.bytes_moved(op="read") - before

        dec2 = CanopusDecoder(BPDataset.open("run", h))
        base2 = dec2.read_base("dpot")
        before = h.clock.bytes_moved(op="read")
        full = dec2.refine(base2)
        full_bytes = h.clock.bytes_moved(op="read") - before

        assert focused_bytes < full_bytes
        assert focused.refined_mask is not None
        assert 0 < focused.refined_mask.sum() < len(focused.field)
        # Inside the refined region, values match the fully refined field.
        assert np.allclose(
            focused.field[focused.refined_mask],
            full.field[focused.refined_mask],
        )


class TestWalk:
    def test_levels_iteration(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        assert [s.level for s in dec.walk("dpot")] == [2, 1, 0]

    def test_tolerance_restore_stops_at_the_first_small_delta(
        self, hierarchy, dataset_inputs
    ):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        handle = Session(hierarchy, use_restored_cache=False).open("run")
        for key in handle.dataset.keys():
            handle.dataset.inq(key).attrs.pop("stats", None)
        # Huge tolerance → stop after the first refinement.
        state = handle.restore("dpot", tolerance=1e9)
        assert state.level == 1

    def test_stop_predicate(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        for state in dec.walk("dpot"):
            if state.level == 1:
                break
        assert state.level == 1

    def test_refine_past_full_raises(self, hierarchy, dataset_inputs):
        mesh, field = dataset_inputs
        encode(hierarchy, mesh, field, levels=2)
        dec = CanopusDecoder(BPDataset.open("run", hierarchy))
        with pytest.raises(RestorationError):
            dec.refine(dec.restore_to("dpot", 0))
