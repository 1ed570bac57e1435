"""Tests for the multiprocess streaming encode scheduler.

Covers the fused kernel's bit-identity against the staged path, the
shared-memory windowed streaming (bounded slots, in-order emit), plan
locality across process boundaries (fork inherits a warm cache, spawn
rebuilds once per plane), and the scheduler-backed partitioned encode.
"""

import os

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import (
    BufferArena,
    CampaignReader,
    CampaignWriter,
    CanopusEncoder,
    EncodeScheduler,
    LevelScheme,
    SchedPlane,
    build_plan,
    encode_campaign_scaleout,
    encode_partitioned,
    fused_step_products,
    get_plan_cache,
    mesh_fingerprint,
)
from repro.core.encode_scheduler import _SlotPool
from repro.core.parallel import PartitionedDecoder
from repro.errors import CanopusError
from repro.io import BPDataset
from repro.obs import context as obs_context
from repro.obs import trace_session
from repro.obs.metrics import get_registry
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

TOL = 1e-4
START_METHODS = ["fork", "spawn"]


@pytest.fixture(scope="module")
def ds():
    return make_xgc1(scale=0.12, seed=3)


@pytest.fixture(scope="module")
def fields(ds):
    rng = np.random.default_rng(11)
    out = {}
    for step in range(5):
        drift = 0.04 * step * np.cos(ds.mesh.vertices[:, 0] * 3 + step)
        out[step] = ds.field + drift + rng.normal(0, 1e-3, ds.mesh.num_vertices)
    return out


def _hier(tmp_path, tag):
    return two_tier_titan(
        tmp_path / tag, fast_capacity=16 << 20, slow_capacity=1 << 34
    )


class TestBufferArena:
    def test_reuse_by_shape(self):
        arena = BufferArena()
        a = arena.take((100,))
        arena.give(a)
        b = arena.take((100,))
        assert b is a
        assert arena.hits == 1 and arena.misses == 1
        assert arena.bytes_reused == a.nbytes

    def test_distinct_shapes_miss(self):
        arena = BufferArena()
        arena.give(arena.take((10,)))
        arena.take((20,))
        assert arena.misses == 2
        assert arena.pooled_bytes == 80

    def test_clear(self):
        arena = BufferArena()
        arena.give(arena.take((10,)))
        arena.clear()
        assert arena.pooled_bytes == 0


class TestFusedKernel:
    def test_bit_identical_to_staged_path(self, ds, fields):
        scheme = LevelScheme(3)
        plan = build_plan(ds.mesh, scheme)
        codec = get_codec("zfp", tolerance=TOL)
        products, stats = fused_step_products(plan, fields[0], codec)
        levels = plan.coarsen(fields[0])
        deltas = plan.deltas_for(levels)
        assert products["base"] == codec.encode(levels[-1].ravel())
        for lvl in scheme.delta_levels():
            assert products[f"delta{lvl}"] == codec.encode(deltas[lvl].ravel())
        assert stats["replay_seconds"] > 0
        assert stats["compress_seconds"] > 0

    def test_arena_warm_after_first_step(self, ds, fields):
        scheme = LevelScheme(3)
        plan = build_plan(ds.mesh, scheme)
        codec = get_codec("zfp", tolerance=TOL)
        arena = BufferArena()
        fused_step_products(plan, fields[0], codec, arena=arena)
        misses_after_first = arena.misses
        fused_step_products(plan, fields[1], codec, arena=arena)
        assert arena.misses == misses_after_first  # all buffers pooled
        assert arena.hits > 0


class TestEncodePool:
    """``workers``: one long-lived pool per writer, fed by the walk."""

    @staticmethod
    def _campaign(hier, ds, workers, name="run"):
        return CampaignWriter(
            hier, name, "dpot", ds.mesh, LevelScheme(3),
            codec_params={"tolerance": TOL}, workers=workers,
        )

    @pytest.mark.parametrize("workers", [None, 2])
    def test_at_most_one_pool_per_writer(
        self, ds, fields, tmp_path, monkeypatch, workers
    ):
        from concurrent.futures import ThreadPoolExecutor

        built = []
        init = ThreadPoolExecutor.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("thread_name_prefix"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "__init__", counted)
        with self._campaign(_hier(tmp_path, "c"), ds, workers) as writer:
            for step in range(8):
                writer.write_step(step, fields[step % len(fields)])
        encoder = CanopusEncoder(
            _hier(tmp_path, "e"), codec_params={"tolerance": TOL},
            chunks=4, workers=workers,
        )
        for var in ("a", "b", "c"):
            encoder.encode(f"d{var}", var, ds.mesh, fields[0], LevelScheme(3))
        assert built == (["repro-encode"] * 2 if workers else [])

    def test_pool_spans_stay_in_the_callers_trace(self, ds, fields, tmp_path):
        hier = _hier(tmp_path, "t")
        ctx = obs_context.TraceContext(trace_id=obs_context.new_trace_id())
        with trace_session(hier) as tracer:
            token = obs_context.activate(ctx)
            try:
                with self._campaign(hier, ds, 2) as writer:
                    writer.write_step(0, fields[0])
            finally:
                obs_context.deactivate(token)
        (step,) = [s for s in tracer.spans if s.name == "campaign.fused_encode"]
        encodes = [s for s in tracer.spans if s.name == "codec.zfp.encode"]
        assert len(encodes) == 3
        for span in encodes:
            assert span.thread.startswith("repro-encode")
            assert span.trace_id == ctx.trace_id
            assert span.parent_id == step.span_id

    def test_codec_error_on_a_pool_thread_surfaces_and_spares_the_arena(
        self, ds, fields, tmp_path
    ):
        from repro.errors import CompressionError

        poisoned = fields[1].copy()
        poisoned[7] = np.nan
        with self._campaign(_hier(tmp_path, "p"), ds, 2) as pooled:
            pooled.write_step(0, fields[0])
            with pytest.raises(CompressionError, match="non-finite"):
                pooled.write_step(1, poisoned)
            hits = pooled._arena.hits
            pooled.write_step(2, fields[2])
            assert pooled._arena.hits > hits
        with self._campaign(_hier(tmp_path, "i"), ds, None) as inline:
            inline.write_step(0, fields[0])
            inline.write_step(2, fields[2])
        got = BPDataset.open("run", _hier(tmp_path, "p"))
        want = BPDataset.open("run", _hier(tmp_path, "i"))
        assert sorted(got.keys()) == sorted(want.keys())
        for key in want.keys():
            assert got.read(key) == want.read(key), key


class TestSlotPool:
    def test_reuse_and_grow(self):
        pool = _SlotPool(window=2)
        try:
            a = pool.acquire(1000)
            pool.release(a.name)
            b = pool.acquire(500)  # fits in the freed slot
            assert b.name == a.name
            pool.release(b.name)
            c = pool.acquire(5000)  # grows: unlink + recreate
            assert c.size >= 5000
            assert pool.hwm_bytes >= 5000
        finally:
            pool.destroy_all()

    def test_hwm_tracks_total_allocation(self):
        pool = _SlotPool(window=3)
        try:
            pool.acquire(1000)
            pool.acquire(2000)
            assert pool.hwm_bytes >= 3000
            assert pool.in_use == 2
        finally:
            pool.destroy_all()


class _RecordingSink:
    def __init__(self):
        self.geoms = []
        self.order = []

    def geometry(self, plane_id, geom):
        self.geoms.append((plane_id, geom))

    def products(self, plane_id, step, products, stats):
        self.order.append((plane_id, step))


class TestSchedulerInline:
    def test_geometry_once_and_in_order(self, ds, fields):
        scheme = LevelScheme(3)
        sched = EncodeScheduler(codec="zfp", codec_params={"tolerance": TOL})
        sink = _RecordingSink()
        report = sched.run(
            [SchedPlane(0, ds.mesh, scheme)],
            ((0, s, f) for s, f in sorted(fields.items())),
            sink,
        )
        assert len(sink.geoms) == 1
        assert sink.order == [(0, s) for s in sorted(fields)]
        assert report.tasks == len(fields)
        assert report.plan_replays == len(fields)
        assert report.vertices_encoded == len(fields) * ds.mesh.num_vertices

    def test_validates_inputs(self, ds):
        sched = EncodeScheduler()
        with pytest.raises(CanopusError):
            sched.run([], iter(()), _RecordingSink())
        scheme = LevelScheme(3)
        dup = [SchedPlane(1, ds.mesh, scheme), SchedPlane(1, ds.mesh, scheme)]
        with pytest.raises(CanopusError):
            sched.run(dup, iter(()), _RecordingSink())
        with pytest.raises(CanopusError):
            EncodeScheduler(window=0)
        with pytest.raises(CanopusError):
            EncodeScheduler(processes=0)


class TestCampaignScaleout:
    @pytest.fixture(scope="class")
    def reference(self, ds, fields, tmp_path_factory):
        hier = _hier(tmp_path_factory.mktemp("ref"), "writer")
        writer = CampaignWriter(
            hier, "run", "dpot", ds.mesh, LevelScheme(3),
            codec="zfp", codec_params={"tolerance": TOL},
        )
        with writer:
            for s, f in sorted(fields.items()):
                writer.write_step(s, f)
        return hier

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_bit_identical_products(
        self, ds, fields, reference, tmp_path, start_method
    ):
        hier = _hier(tmp_path, "mp")
        report, _ = encode_campaign_scaleout(
            hier, "run", "dpot", ds.mesh, LevelScheme(3),
            ((s, f) for s, f in sorted(fields.items())),
            processes=2, window=2, start_method=start_method,
            codec="zfp", codec_params={"tolerance": TOL},
        )
        ref = BPDataset.open("run", reference)
        got = BPDataset.open("run", hier)
        assert set(ref.keys()) == set(got.keys())
        for key in ref.keys():
            assert ref.read(key) == got.read(key), key
        assert (
            ref.catalog.attrs["variables"] == got.catalog.attrs["variables"]
        )
        assert report.tasks == len(fields)
        assert report.start_method == start_method

    def test_window_bounds_shm(self, ds, fields, tmp_path):
        hier = _hier(tmp_path, "w")
        report, _ = encode_campaign_scaleout(
            hier, "run", "dpot", ds.mesh, LevelScheme(3),
            sorted(fields.items()),
            processes=2, window=2, start_method="fork",
            codec="zfp", codec_params={"tolerance": TOL},
        )
        per_task = ds.mesh.num_vertices * 8
        assert report.shm_hwm_bytes <= 2 * per_task
        assert report.shm_bytes == len(fields) * per_task
        # 5 tasks through a 2-slot window on slow workers must stall.
        assert report.window_stalls >= 1
        assert report.peak_rss_bytes > 0

    def test_restores_and_counters(self, ds, fields, tmp_path):
        before = get_registry().counter("encode.sched.tasks").value
        hier = _hier(tmp_path, "c")
        encode_campaign_scaleout(
            hier, "run", "dpot", ds.mesh, LevelScheme(3),
            sorted(fields.items()),
            processes=2, window=3, start_method="fork",
            codec="zfp", codec_params={"tolerance": TOL},
        )
        reader = CampaignReader(hier, "run")
        out = reader.restore(3, 0)
        assert np.allclose(out.field, fields[3], atol=5 * TOL)
        after = get_registry().counter("encode.sched.tasks").value
        assert after - before == len(fields)
        assert get_registry().gauge("encode.sched.shm_hwm_bytes").value > 0
        assert get_registry().gauge("encode.sched.peak_rss_bytes").value > 0

    def test_wrong_length_step_fails_the_same_on_every_executor(
        self, ds, fields, tmp_path, capfd
    ):
        from repro.errors import RefactoringError

        steps = [(0, fields[0]), (1, fields[1][:-3])]
        kwargs = {"codec_params": {"tolerance": TOL}}

        def in_process(hier):
            with CampaignWriter(
                hier, "run", "dpot", ds.mesh, LevelScheme(3), **kwargs
            ) as writer:
                for step, data in steps:
                    writer.write_step(step, data)

        def scheduled(processes):
            return lambda hier: encode_campaign_scaleout(
                hier, "run", "dpot", ds.mesh, LevelScheme(3), steps,
                processes=processes, start_method="fork", **kwargs,
            )

        n = ds.mesh.num_vertices
        messages = set()
        for tag, run in (
            ("w", in_process), ("i", scheduled(None)), ("p", scheduled(2)),
        ):
            with pytest.raises(RefactoringError) as raised:
                run(_hier(tmp_path, tag))
            messages.add(str(raised.value))
        (message,) = messages
        assert message.startswith(
            f"step 1: data of shape ({n - 3},) does not match plan's {n} "
        )
        assert capfd.readouterr().err == ""

    def test_worker_error_propagates(self, ds, tmp_path, capfd):
        hier = _hier(tmp_path, "err")
        poisoned = ds.field.copy()
        poisoned[5] = np.nan  # the codec refuses it, inside the worker
        with pytest.raises(CanopusError, match="(?s)worker 0 failed.*non-finite"):
            encode_campaign_scaleout(
                hier, "run", "dpot", ds.mesh, LevelScheme(3),
                [(0, poisoned)],
                processes=2, window=2, start_method="fork",
                codec="zfp", codec_params={"tolerance": TOL},
            )
        # The worker dropped its view of the slot before closing it.
        assert capfd.readouterr().err == ""


class TestPlanCacheAcrossProcesses:
    """Plan locality across the fork/spawn boundary.

    A forked worker inherits the parent's warm plan cache and must not
    re-decimate; a spawned worker starts cold and decimates exactly
    once per assigned plane. Either way the cache key (mesh content
    fingerprint + scheme + kernel config) survives the boundary — the
    same mesh hashes identically in parent and child.
    """

    def test_fork_inherits_warm_cache(self, ds, fields, tmp_path):
        scheme = LevelScheme(3)
        get_plan_cache().get_or_build(ds.mesh, scheme)  # warm the parent
        hier = _hier(tmp_path, "fork")
        report, _ = encode_campaign_scaleout(
            hier, "run", "dpot", ds.mesh, scheme,
            sorted(fields.items())[:2],
            processes=2, window=2, start_method="fork",
            codec="zfp", codec_params={"tolerance": TOL},
        )
        assert report.plan_builds == 0
        assert report.plan_replays == 2

    def test_spawn_builds_once_per_plane(self, ds, fields, tmp_path):
        scheme = LevelScheme(3)
        get_plan_cache().get_or_build(ds.mesh, scheme)  # parent warmth
        hier = _hier(tmp_path, "spawn")
        report, _ = encode_campaign_scaleout(
            hier, "run", "dpot", ds.mesh, scheme,
            sorted(fields.items())[:2],
            processes=2, window=2, start_method="spawn",
            codec="zfp", codec_params={"tolerance": TOL},
        )
        # does not reach the parent's cache: exactly one cold build
        assert report.plan_builds == 1
        assert report.plan_replays == 2

    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_fingerprint_survives_boundary(
        self, ds, fields, tmp_path, start_method
    ):
        scheme = LevelScheme(3)
        sched = EncodeScheduler(
            processes=2, window=2, start_method=start_method,
            codec="zfp", codec_params={"tolerance": TOL},
        )
        sink = _RecordingSink()
        sched.run(
            [SchedPlane(0, ds.mesh, scheme)],
            [(0, 0, fields[0])],
            sink,
        )
        [(plane_id, geom)] = sink.geoms
        assert plane_id == 0
        assert geom["fingerprint"] == mesh_fingerprint(ds.mesh)


class TestPartitionedOnScheduler:
    def test_serial_and_mp_byte_identical(self, ds, tmp_path):
        scheme = LevelScheme(3)
        r1, parts1 = encode_partitioned(
            _hier(tmp_path, "s"), "part", "dpot", ds.mesh, ds.field, scheme,
            parts=4, codec="zfp", codec_params={"tolerance": TOL},
        )
        h2 = _hier(tmp_path, "m")
        r2, parts2 = encode_partitioned(
            h2, "part", "dpot", ds.mesh, ds.field, scheme,
            parts=4, processes=2, window=2, start_method="fork",
            codec="zfp", codec_params={"tolerance": TOL},
        )
        d1 = BPDataset.open("part", _hier(tmp_path, "s"))
        d2 = BPDataset.open("part", h2)
        assert set(d1.keys()) == set(d2.keys())
        for key in d1.keys():
            assert d1.read(key) == d2.read(key), key
        assert r1.parts == r2.parts == 4
        assert len(r2.per_part_seconds) == 4
        assert r2.compressed_bytes == r1.compressed_bytes

    def test_gather_exact_after_mp_encode(self, ds, tmp_path):
        hier = _hier(tmp_path, "g")
        encode_partitioned(
            hier, "part", "dpot", ds.mesh, ds.field, LevelScheme(3),
            parts=3, processes=2, window=2, start_method="fork",
            codec="deflate", codec_params={},
        )
        dec = PartitionedDecoder(hier, "part")
        gathered = dec.gather_full_accuracy()
        # Lossless payloads: residual error is float re-association in
        # the delta round trip, far below any physical scale.
        atol = float(np.ptp(ds.field)) * 1e-12
        np.testing.assert_allclose(gathered, ds.field, atol=atol)

    def test_relative_tolerance_resolved_globally(self, ds, tmp_path):
        r1, _ = encode_partitioned(
            _hier(tmp_path, "ra"), "part", "dpot", ds.mesh, ds.field,
            LevelScheme(3), parts=2,
            codec="zfp", codec_params={"mode": "relative", "tolerance": 1e-6},
        )
        h2 = _hier(tmp_path, "rb")
        r2, _ = encode_partitioned(
            h2, "part", "dpot", ds.mesh, ds.field,
            LevelScheme(3), parts=2, processes=2, start_method="fork",
            codec="zfp", codec_params={"mode": "relative", "tolerance": 1e-6},
        )
        assert r1.compressed_bytes == r2.compressed_bytes


class TestWriteCampaignFacade:
    def test_processes_route_matches_serial(self, ds, fields, tmp_path):
        from repro.api import write_campaign

        scheme = LevelScheme(3)
        h1 = _hier(tmp_path, "a")
        rs = write_campaign(
            h1, "run", "dpot", ds.mesh, fields, scheme,
            codec_params={"tolerance": TOL},
        )
        h2 = _hier(tmp_path, "b")
        rm = write_campaign(
            h2, "run", "dpot", ds.mesh, fields, scheme,
            codec_params={"tolerance": TOL},
            processes=2, window=2, start_method="fork",
        )
        assert [r.step for r in rm] == [r.step for r in rs]
        assert [r.compressed_bytes for r in rm] == [
            r.compressed_bytes for r in rs
        ]
        d1 = BPDataset.open("run", h1)
        d2 = BPDataset.open("run", h2)
        for key in d1.keys():
            assert d1.read(key) == d2.read(key), key


@pytest.mark.skipif(os.cpu_count() is None, reason="no cpu info")
class TestSpans:
    def test_task_spans_fold_into_trace(self, ds, fields, tmp_path):
        from repro.obs.trace import trace_session

        with trace_session() as tracer:
            encode_campaign_scaleout(
                _hier(tmp_path, "t"), "run", "dpot", ds.mesh,
                LevelScheme(3), sorted(fields.items())[:3],
                processes=2, window=2, start_method="fork",
                codec="zfp", codec_params={"tolerance": TOL},
            )
        names = [s.name for s in tracer.spans]
        assert "encode.sched.run" in names
        task_spans = [s for s in tracer.spans if s.name == "encode.sched.task"]
        assert len(task_spans) == 3
        run = next(s for s in tracer.spans if s.name == "encode.sched.run")
        assert all(s.parent_id == run.span_id for s in task_spans)
        assert all(s.thread.startswith("repro-encw-") for s in task_spans)
