"""Tests for the repro.api façade and API conformance."""

import importlib
import pkgutil
import warnings

import numpy as np
import pytest

import repro
import repro.api
from repro.api import (
    BPDataset,
    CampaignWriter,
    CanopusDecoder,
    LevelScheme,
    Session,
    write_campaign,
)
from repro.errors import BPFormatError, CanopusError, StorageError
from repro.mesh.generators import annulus
from repro.storage import two_tier_titan


@pytest.fixture
def hierarchy(tmp_path):
    return two_tier_titan(tmp_path, fast_capacity=4 << 20, slow_capacity=1 << 33)


@pytest.fixture(scope="module")
def mesh_and_field():
    mesh = annulus(30, 90)
    v = mesh.vertices
    field = np.sin(2 * v[:, 0]) * np.cos(2 * v[:, 1])
    return mesh, field


class TestOpenDataset:
    def test_create_and_reopen(self, hierarchy):
        ds = BPDataset.create("run", hierarchy)
        assert isinstance(ds, BPDataset)
        ds.write("k", b"payload")
        ds.close()
        rd = BPDataset.open("run", hierarchy)
        assert rd.read("k") == b"payload"

    def test_open_is_read_mode(self, hierarchy):
        BPDataset.create("x", hierarchy).close()
        ds = BPDataset.open("x", hierarchy)
        assert ds.mode == "r"

    def test_bad_mode(self, hierarchy):
        with pytest.raises(BPFormatError):
            BPDataset("run", hierarchy, mode="a")

    def test_engine_knobs_forwarded(self, hierarchy):
        BPDataset.create("x", hierarchy).close()
        ds = BPDataset.open("x", hierarchy, cache_bytes=0)
        assert ds.engine.cache.budget == 0


class TestWriteCampaign:
    def test_mapping_and_iterable_inputs(self, hierarchy, mesh_and_field):
        mesh, field = mesh_and_field
        steps = {0: field, 1: field * 1.1}
        reports = write_campaign(
            hierarchy, "camp", "dpot", mesh, steps, LevelScheme(2),
            codec="zfp", codec_params={"tolerance": 1e-3},
        )
        assert [r.step for r in reports] == [0, 1]

        handle = Session(hierarchy, use_restored_cache=False).open("camp")
        assert handle.describe()["variables"]["dpot"]["steps"] == [0, 1]
        state = handle.restore("dpot", step=1, level=0)
        assert np.allclose(state.field, field * 1.1, atol=1e-2)
        with Session(hierarchy) as session:
            same = session.open("camp").restore("dpot", step=1, level=0)
        assert np.array_equal(same.field, state.field)

    def test_iterable_steps_enumerate(self, tmp_path, mesh_and_field):
        mesh, field = mesh_and_field
        h = two_tier_titan(tmp_path / "h")
        reports = write_campaign(
            h, "camp", "dpot", mesh, [field, field], LevelScheme(2),
            codec="zfp", codec_params={"tolerance": 1e-3},
        )
        assert [r.step for r in reports] == [0, 1]

    def test_original_bytes_is_the_callers_on_every_executor(
        self, tmp_path, mesh_and_field
    ):
        mesh, field = mesh_and_field
        steps = [field.astype(np.float32), (field * 1.1).astype(np.float32)]
        config = {"codec_params": {"tolerance": 1e-3}}
        inline = write_campaign(
            two_tier_titan(tmp_path / "inline"), "camp", "dpot", mesh, steps,
            LevelScheme(2), **config,
        )
        with CampaignWriter(
            two_tier_titan(tmp_path / "pooled"), "camp", "dpot", mesh,
            LevelScheme(2), workers=2, **config,
        ) as writer:
            pooled = [writer.write_step(s, data) for s, data in enumerate(steps)]
        for one, other in zip(inline, pooled, strict=True):
            assert one.original_bytes == steps[0].nbytes  # float32 bytes
            assert other.original_bytes == one.original_bytes
            assert other.compressed_bytes == one.compressed_bytes
            assert other.reduction == one.reduction

    def test_steps_are_consumed_one_at_a_time(
        self, hierarchy, mesh_and_field, monkeypatch
    ):
        """A generator of steps is never materialised: step ``k`` is
        written when exactly ``k + 1`` fields have been produced."""
        mesh, field = mesh_and_field
        produced = []

        def series():
            for k in range(4):
                produced.append(k)
                yield field * (1.0 + 0.1 * k)

        seen = []
        write_step = CampaignWriter.write_step

        def watched(self, step, data):
            seen.append((step, len(produced)))
            return write_step(self, step, data)

        monkeypatch.setattr(CampaignWriter, "write_step", watched)
        reports = write_campaign(
            hierarchy, "camp", "dpot", mesh, series(), LevelScheme(2),
            codec_params={"tolerance": 1e-3},
        )
        assert [r.step for r in reports] == [0, 1, 2, 3]
        assert seen == [(k, k + 1) for k in range(4)]

    def test_empty_steps_rejected(self, hierarchy, mesh_and_field):
        mesh, _ = mesh_and_field
        for steps in ([], {}, iter(())):
            with pytest.raises(CanopusError, match="at least one timestep"):
                write_campaign(
                    hierarchy, "camp", "dpot", mesh, steps, LevelScheme(2)
                )
        # Refused before the dataset was created.
        with pytest.raises(StorageError):
            BPDataset.open("camp", hierarchy)


class TestReadProgressive:
    def test_full_refinement_matches_encoder_input(
        self, hierarchy, mesh_and_field
    ):
        mesh, field = mesh_and_field
        from repro.api import CanopusEncoder

        enc = CanopusEncoder(
            hierarchy, codec="zfp", codec_params={"tolerance": 1e-4}
        )
        enc.encode("run", "dpot", mesh, field, LevelScheme(3))
        ds = BPDataset.open("run", hierarchy)
        state = CanopusDecoder(ds).restore_to("dpot", 0)
        assert state.level == 0
        assert np.allclose(state.field, field, atol=1e-3)
        assert ds.engine_stats().prefetch_issued > 0


class TestRemovedShims:
    def test_old_shims_are_gone(self):
        # repro.io.api, the PR 1/PR 6 helper functions and the
        # warn-once registry behind them are removed: the supported
        # import paths are repro.api and repro.io.dataset.
        for module in (
            "repro.io.api", "repro.deprecation", "repro.core.progressive"
        ):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        # CanopusDecoder.walk is the one level-by-level read loop.
        for helper in (
            "open_dataset", "read_progressive", "read_progressive_many",
            "ProgressiveReader",
        ):
            assert not hasattr(repro.api, helper)
            assert not hasattr(repro, helper)
        from repro.api import BPDataset as facade_bpd
        from repro.io.dataset import BPDataset as module_bpd

        assert facade_bpd is module_bpd is BPDataset

    def test_old_top_level_exports_still_work(self, hierarchy):
        # Pre-façade users imported these from the package root.
        ds = repro.BPDataset.create("run", hierarchy)
        ds.close()
        assert repro.CanopusDecoder is not None
        assert repro.CanopusEncoder is not None


class TestAPIConformance:
    def test_every_facade_symbol_importable(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name), f"repro.api.{name} missing"
            obj = getattr(repro.api, name)
            assert obj is not None

    def test_facade_all_sorted_within_sections(self):
        helpers = {"Session", "CampaignHandle", "write_campaign"}
        assert helpers <= set(repro.api.__all__)

    def test_every_module_all_matches_exports(self):
        """Every ``__all__`` across src/repro names real module attributes."""
        failures = []
        for info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                module = importlib.import_module(info.name)
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                if not hasattr(module, name):
                    failures.append(f"{info.name}.{name}")
        assert not failures, f"__all__ names without attributes: {failures}"

    def test_root_namespace_reexports_facade(self):
        assert repro.Session is Session
        assert repro.write_campaign is write_campaign
        assert "api" in repro.__all__
