"""Tests for the restore walker and the shared read-side caches.

Covers: batched chunk decode and multi-variable
``restore_many`` (:meth:`CanopusDecoder.restore_many` through a
session handle) are bit-identical to the serial seed path
(including region + min_significance filtered retrieval, whose chunk
scatter order must not matter), the process-wide restored-level and
geometry caches are correct and thread-safe under concurrent
``restore_many``, and the ``refine_until`` NaN-rms regression stays
fixed.
"""

import threading
import zlib

import numpy as np
import pytest

from repro.api import (
    Session,
    dataset_fingerprint,
    get_geometry_cache,
    get_restored_cache,
)
from repro.compress import decode_auto
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.core.campaign import CampaignWriter
from repro.core.decoder import PhaseTimings
from repro.core.progressive import ProgressiveReader
from repro.core.notation import chunk_key
from repro.errors import RestorationError, VariableNotFoundError
from repro.harness.experiment import stack_planes
from repro.io import BPDataset
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

TOL = 1e-5
CHUNKS = 16
VARS = ["dpot", "apar", "dden"]


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts and ends with empty process-wide caches."""
    get_restored_cache().clear()
    get_geometry_cache().clear()
    yield
    get_restored_cache().clear()
    get_geometry_cache().clear()


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    src = make_xgc1(scale=0.25)
    rng = np.random.default_rng(11)
    fields = {
        "dpot": src.field,
        "apar": 0.5 * src.field + 0.1 * rng.standard_normal(src.field.shape),
        "dden": np.abs(src.field),
    }
    h = two_tier_titan(
        tmp_path_factory.mktemp("engine"),
        fast_capacity=64 << 20,
        slow_capacity=1 << 36,
    )
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
        chunks=CHUNKS,
    )
    ds_w = BPDataset.create("run", h)
    for var, f in fields.items():
        enc.encode("run", var, src.mesh, f, LevelScheme(3),
                   dataset=ds_w, close=False)
    ds_w.close()
    return src, fields, h


def _handle(h):
    """A fresh session handle: pipelined, with the restored cache."""
    return Session(h).open("run")


def _serial_restore(h, var, level=0, *, region=None, min_significance=0.0):
    """The seed path: one decoder, no pipeline, no caches."""
    dec = CanopusDecoder(BPDataset.open("run", h))
    if region is None and min_significance == 0.0:
        return dec.restore_to(var, level, pipeline=False)
    state = dec.read_base(var)
    while state.level > level:
        state = dec.refine(
            state, region=region, min_significance=min_significance
        )
    return state


class TestBitIdentity:
    def test_restore_many_matches_serial(self, setup):
        _, fields, h = setup
        serial = {v: _serial_restore(h, v) for v in fields}
        out = _handle(h).restore_many(list(fields), level=0)
        for var in fields:
            assert np.array_equal(out[var].field, serial[var].field)

    @pytest.mark.parametrize("planes", [0, 3])
    @pytest.mark.parametrize(
        "use_region, use_significance",
        [(False, False), (True, False), (False, True), (True, True)],
    )
    def test_batched_read_delta_matches_per_chunk_loop(
        self, tmp_path, planes, use_region, use_significance
    ):
        """``_read_delta`` against the loop it replaced, written out here:
        filter chunk by chunk, ``decode_auto`` each survivor, scatter."""
        src = make_xgc1(scale=0.25)
        field = stack_planes(src, planes) if planes else src.field
        h = two_tier_titan(tmp_path)
        CanopusEncoder(
            h, codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
            chunks=CHUNKS,
        ).encode("one", "dpot", src.mesh, field, LevelScheme(3))
        ds = BPDataset.open("one", h)
        center = src.mesh.vertices[int(np.argmax(src.field))]
        region = (center - 0.4, center + 0.4) if use_region else None
        dec = CanopusDecoder(ds)
        meta = ds.catalog.attrs["variables"]["dpot"]

        for level in (1, 0):
            n_chunks = int(meta["chunks_per_level"][str(level)])
            # A threshold between the chunks' recorded maxima drops some.
            ms = float(np.median([
                ds.inq(chunk_key("dpot", level, c)).attrs["stats"]["vabs_max"]
                for c in range(n_chunks)
            ])) if use_significance else 0.0
            n_fine = dec._read_mapping(
                dec.chain("dpot"), level, PhaseTimings()
            ).n_fine
            shape = (planes, n_fine) if planes else (n_fine,)
            want = np.zeros(shape)
            want_applied = np.zeros(n_fine, dtype=bool)
            for c in range(n_chunks):
                rec = ds.inq(chunk_key("dpot", level, c))
                x0, y0, x1, y1 = rec.attrs["bbox"]
                if region is not None and (
                    x1 < region[0][0] or x0 > region[1][0]
                    or y1 < region[0][1] or y0 > region[1][1]
                ):
                    continue
                if ms and rec.attrs["stats"]["vabs_max"] < ms:
                    continue
                idx = np.frombuffer(
                    zlib.decompress(ds.read(rec.key + "/idx")), dtype="<i8"
                )
                piece = decode_auto(ds.read(rec.key))
                want[..., idx] = piece.reshape(planes, -1) if planes else piece
                want_applied[idx] = True

            got, applied = dec._read_delta(
                "dpot", level, n_fine, PhaseTimings(), region, ms
            )
            assert 0 < want_applied.sum()
            if use_region or use_significance:
                assert not want_applied.all()  # the filter dropped chunks
            assert np.array_equal(applied, want_applied)
            assert got.tobytes() == want.tobytes()

    def test_region_and_significance_parallel_vs_serial(self, setup):
        src, _, h = setup
        center = src.mesh.vertices[int(np.argmax(src.field))]
        region = (center - 0.4, center + 0.4)
        ms = 0.02 * float(np.abs(src.field).max())
        serial = _serial_restore(
            h, "dpot", region=region, min_significance=ms
        )
        out = _handle(h).restore_chain(
            "dpot", 0, region=region, min_significance=ms
        )
        # Chunk scatter order must not matter: disjoint vertex sets.
        assert np.array_equal(out.field, serial.field)
        assert np.array_equal(out.refined_mask, serial.refined_mask)

    def test_facade_matches_serial(self, setup):
        _, fields, h = setup
        serial = {v: _serial_restore(h, v, 1) for v in fields}
        out = _handle(h).restore_many(list(fields), level=1)
        for var in fields:
            assert out[var].level == 1
            assert np.array_equal(out[var].field, serial[var].field)


class TestRestoredLevelCache:
    def test_second_restore_reads_zero_bytes(self, setup):
        _, _, h = setup
        handle = _handle(h)
        first = handle.restore_chain("dpot", 0)
        before = h.clock.bytes_moved(op="read")
        second = handle.restore_chain("dpot", 0)
        assert h.clock.bytes_moved(op="read") == before  # geometry cached too
        assert np.array_equal(second.field, first.field)
        assert get_restored_cache().hits >= 1

    def test_repeat_sessions_restore_many_from_cache(self, setup):
        """Every session after the first is served from the process-wide
        restored-level cache: one hit per variable, same bits."""
        _, fields, h = setup
        sessions = 3
        first = _handle(h).restore_many(list(fields), level=0)
        hits = get_restored_cache().hits
        for _ in range(sessions - 1):
            out = _handle(h).restore_many(list(fields), level=0)
            for var in fields:
                assert np.array_equal(out[var].field, first[var].field)
        assert get_restored_cache().hits - hits >= (sessions - 1) * len(fields)

    def test_warm_start_from_coarser_level(self, setup):
        _, _, h = setup
        handle = _handle(h)
        handle.restore_chain("dpot", 1)
        serial = _serial_restore(h, "dpot", 0)
        bytes_before = h.clock.bytes_moved(op="read")
        full = handle.restore_chain("dpot", 0)
        warm_bytes = h.clock.bytes_moved(op="read") - bytes_before

        get_restored_cache().clear()
        bytes_before = h.clock.bytes_moved(op="read")
        cold = _handle(h).restore_chain("dpot", 0)
        cold_bytes = h.clock.bytes_moved(op="read") - bytes_before
        assert np.array_equal(full.field, serial.field)
        assert np.array_equal(cold.field, serial.field)
        # Warm start skips the base + upper delta payloads.
        assert warm_bytes < cold_bytes

    def test_filtered_entries_are_not_substituted(self, setup):
        src, _, h = setup
        handle = _handle(h)
        ms = 0.05 * float(np.abs(src.field).max())
        pruned = handle.restore_chain("dpot", 0, min_significance=ms)
        full = handle.restore_chain("dpot", 0)
        serial = _serial_restore(h, "dpot", 0)
        assert np.array_equal(full.field, serial.field)
        assert not np.array_equal(pruned.field, full.field)
        # The filtered result is cached under its own key and hits too.
        again = handle.restore_chain("dpot", 0, min_significance=ms)
        assert np.array_equal(again.field, pruned.field)

    def test_cached_field_is_immutable_snapshot(self, setup):
        _, _, h = setup
        handle = _handle(h)
        first = handle.restore_chain("dpot", 0)
        first.field[...] = -1.0  # callers own their copy
        second = handle.restore_chain("dpot", 0)
        assert not np.array_equal(second.field, first.field)

    def test_fingerprint_distinguishes_datasets(self, setup, tmp_path):
        src, _, h = setup
        h2 = two_tier_titan(
            tmp_path, fast_capacity=64 << 20, slow_capacity=1 << 36
        )
        enc = CanopusEncoder(
            h2, codec="zfp",
            codec_params={"tolerance": TOL, "mode": "relative"},
        )
        enc.encode("run", "dpot", src.mesh, 2.0 * src.field, LevelScheme(3))
        ds_a = BPDataset.open("run", h)
        ds_b = BPDataset.open("run", h2)
        assert dataset_fingerprint(ds_a) != dataset_fingerprint(ds_b)
        a = _handle(h).restore_chain("dpot", 0)
        b = _handle(h2).restore_chain("dpot", 0)
        assert not np.array_equal(a.field, b.field)

    def test_eviction_keeps_budget(self, setup):
        from repro.core.restored_cache import RestoredLevelCache

        _, _, h = setup
        ds = BPDataset.open("run", h)
        small = RestoredLevelCache(max_bytes=4096)
        for lvl in (2, 1):
            small.put(
                small.key_for(ds, "x", lvl), np.zeros(256, dtype=np.float64)
            )
        assert small.stats()["bytes"] <= 4096
        # An entry larger than the whole budget is never cached.
        small.put(small.key_for(ds, "y", 0), np.zeros(4096, dtype=np.float64))
        assert not small.has(small.key_for(ds, "y", 0))


class TestThreadSafety:
    def test_concurrent_restore_many_is_consistent(self, setup):
        _, fields, h = setup
        serial = {v: _serial_restore(h, v) for v in fields}
        results: list[dict] = []
        errors: list[Exception] = []

        def worker():
            try:
                results.append(_handle(h).restore_many(list(fields), level=0))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(results) == 4
        for out in results:
            for var in fields:
                assert np.array_equal(out[var].field, serial[var].field)

    def test_geometry_cache_shared_across_decoders(self, setup):
        _, _, h = setup
        _handle(h).restore_chain("dpot", 0)
        geo = get_geometry_cache()
        assert geo.stats()["entries"] > 0
        # A second handle over the same bytes decodes no new geometry.
        before = geo.misses
        _handle(h).restore_chain("dpot", 1)
        assert geo.misses == before


class TestGeometryContentKey:
    """The single-shot layout stores each level's mesh and mapping once
    per variable; the shared cache rebuilds each distinct payload once."""

    @staticmethod
    def _restore_all(h_root):
        hierarchy = two_tier_titan(
            h_root, fast_capacity=64 << 20, slow_capacity=1 << 36
        )
        with Session(hierarchy) as session:
            campaign = session.open("run")
            fields = {
                (var, level): campaign.restore(var, level=level).field
                for level in (2, 1, 0) for var in VARS
            }
            engine = campaign.dataset.engine_stats().snapshot()
        return fields, engine, hierarchy.clock

    def test_one_decode_per_level_and_unchanged_io(self, setup, monkeypatch):
        _, _, h = setup
        root = h.tier("lustre").root.parent
        geo = get_geometry_cache()
        before = geo.stats()
        fields, engine, clock = self._restore_all(root)
        after = geo.stats()
        # Three meshes (levels 2, 1, 0) and two mappings, not x3 variables.
        assert after["decodes"] - before["decodes"] == 5
        assert after["content_hits"] - before["content_hits"] == 10
        # Each variable still resolves its own keys to (shared) objects.
        ds = BPDataset.open("run", h)
        assert geo.get(ds, "dpot/mesh0") is geo.get(ds, "dden/mesh0")

        # The same run with every payload rebuilt (no content key): the
        # bytes read and the simulated seconds charged are identical.
        def always_decode(self, dataset, key, blob, decode):
            obj = decode(blob)
            self.put(dataset, key, obj)
            return obj

        monkeypatch.setattr(type(geo), "decoded", always_decode)
        get_restored_cache().clear()
        geo.clear()
        plain_fields, plain_engine, plain_clock = self._restore_all(root)
        assert engine == plain_engine
        assert clock.elapsed == plain_clock.elapsed
        assert clock.bytes_moved() == plain_clock.bytes_moved()
        for key, field in fields.items():
            assert np.array_equal(field, plain_fields[key])

    def test_different_content_never_shared(self, setup):
        _, _, h = setup
        geo = get_geometry_cache()
        ds = BPDataset.open("run", h)
        a = geo.decoded(ds, "k1", b"one", bytes.upper)
        b = geo.decoded(ds, "k2", b"two", bytes.upper)
        c = geo.decoded(ds, "k3", b"one", lambda blob: pytest.fail("decoded twice"))
        assert (a, b) == (b"ONE", b"TWO") and c is a
        assert geo.has(ds, "k3")


class TestRmsRegression:
    def test_full_refine_rms_equals_masked_formula(self, setup):
        # The all-chunks-applied shortcut must give the float the
        # boolean-mask expression gives, not merely a close one.
        _, _, h = setup
        dec = CanopusDecoder(BPDataset.open("run", h))
        base = dec.read_base("dpot")
        state = dec.refine(base)
        delta, applied = dec._read_delta(
            "dpot", state.level, len(state.field), PhaseTimings()
        )
        assert applied.all()
        masked = float(np.sqrt(np.mean(delta[..., applied] ** 2)))
        assert state.last_delta_rms == masked

    def test_refine_until_does_not_stop_on_empty_step(self, setup):
        src, _, h = setup
        ms = 1e12  # prunes every chunk: nothing applied per step
        reader = ProgressiveReader(
            CanopusDecoder(BPDataset.open("run", h)), "dpot",
            pipeline=True, min_significance=ms,
        )
        final = reader.refine_until(rms_tolerance=1e-9, max_level=0)
        # NaN rms on empty steps must not fake convergence: the loop
        # runs all the way down instead of stopping after one step.
        assert final.level == 0
        assert np.isnan(final.last_delta_rms)

    def test_empty_refine_reports_nan(self, setup):
        _, _, h = setup
        dec = CanopusDecoder(BPDataset.open("run", h))
        state = dec.refine(dec.read_base("dpot"), min_significance=1e12)
        assert not state.refined_mask.any()
        assert np.isnan(state.last_delta_rms)


def _open(hierarchy, name):
    """A handle that skips the restored cache, as the old views did."""
    return Session(hierarchy, use_restored_cache=False).open(name)


class TestCampaignRestoreMany:
    def test_matches_serial_restore(self, setup, tmp_path):
        src, _, h_unused = setup
        h = two_tier_titan(
            tmp_path, fast_capacity=64 << 20, slow_capacity=1 << 36
        )
        writer = CampaignWriter(
            h, "camp", "dpot", src.mesh, LevelScheme(3),
            codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
        )
        rng = np.random.default_rng(5)
        for step in range(4):
            writer.write_step(
                step, src.field + 0.01 * step * rng.standard_normal(src.field.shape)
            )
        writer.close()

        serial_handle = _open(h, "camp")
        serial = {
            s: serial_handle.restore("dpot", step=s, level=0)
            for s in range(4)
        }
        handle = _open(h, "camp")
        chains = [handle.chain("dpot", step=s) for s in range(4)]
        out = handle.restore_chains(chains)
        assert list(out) == chains
        for step, chain in enumerate(chains):
            assert np.array_equal(out[chain].field, serial[step].field)

    def test_repeated_step_keeps_every_step(self, setup, tmp_path):
        """Each requested step maps to its own chain's field, a step
        listed twice included, and no step is dropped."""
        src, _, _ = setup
        h = two_tier_titan(
            tmp_path, fast_capacity=64 << 20, slow_capacity=1 << 36
        )
        writer = CampaignWriter(
            h, "camp3", "dpot", src.mesh, LevelScheme(2),
            codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
        )
        for step in range(3):
            writer.write_step(step, src.field + step)
        writer.close()
        handle = _open(h, "camp3")
        out = handle.restore_chains(
            [handle.chain("dpot", step=s) for s in (1, 1, 2)], 0
        )
        assert list(out) == ["dpot/step1", "dpot/step2"]
        for step in (1, 2):
            one = handle.restore("dpot", step=step, level=0)
            assert out[one.var].var == one.var
            assert np.array_equal(out[one.var].field, one.field)

    def test_rejects_unknown_step(self, setup, tmp_path):
        src, _, _ = setup
        h = two_tier_titan(
            tmp_path, fast_capacity=64 << 20, slow_capacity=1 << 36
        )
        writer = CampaignWriter(
            h, "camp2", "dpot", src.mesh, LevelScheme(2),
            codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
        )
        writer.write_step(0, src.field)
        writer.close()
        handle = _open(h, "camp2")
        with pytest.raises(VariableNotFoundError):
            handle.restore_chains(
                [handle.chain("dpot", step=s) for s in (0, 99)]
            )
        with pytest.raises(RestorationError):
            handle.restore_chains(["dpot/step0", "dpot/step99"])


class TestEngineValidation:
    def test_empty_restore_many(self, setup):
        _, _, h = setup
        assert CanopusDecoder(BPDataset.open("run", h)).restore_many([]) == {}
