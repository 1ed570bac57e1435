"""Tests for the write side's one executor: ``workers`` threads.

Covers the walk → ``ProductWriter`` path's bit-identity against the
staged path on every executor, the scratch arena, the one pool per
writer (:func:`~repro.core.refactor.encode_pool`) and what must not
depend on it: error text, the resolved tolerance and the exact gather
of a partitioned encode.
"""

import numpy as np
import pytest

from repro.compress import get_codec
from repro.core import (
    BufferArena,
    CampaignWriter,
    CanopusEncoder,
    LevelScheme,
    build_plan,
    encode_partitioned,
    get_plan_cache,
    walk,
)
from repro.core.layout import ProductWriter, declare_variable
from repro.core.refactor import encode_pool
from repro.errors import RefactoringError
from repro.io import BPDataset
from repro.obs import context as obs_context
from repro.obs import trace_session
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

TOL = 1e-4
EXECUTORS = [None, 2]


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


def _write_chain(hier, plan, data, codec, *, arena=None, workers=None):
    """One chain the way every writer puts it: walk, then
    :meth:`ProductWriter.chain`, delta buffers back to the arena."""
    ds = BPDataset.create("chain", hier)
    declare_variable(ds, "dpot", plan.scheme, "zfp")
    pool = encode_pool(workers)
    stats: dict = {}
    walked = list(walk(plan, data, codec, arena=arena, pool=pool, stats=stats))
    if pool is not None:
        pool.shutdown()
    ProductWriter(ds, "dpot").chain("dpot", walked)
    if arena is not None:
        for level in walked[:-1]:
            arena.give(level.values)
    ds.close()
    return BPDataset.open("chain", hier), stats


class TestWalkToProductWriter:
    @pytest.mark.parametrize("workers", EXECUTORS)
    def test_bit_identical_to_staged_path(self, ds, fields, tmp_path, workers):
        scheme = LevelScheme(3)
        plan = build_plan(ds.mesh, scheme)
        codec = get_codec("zfp", tolerance=TOL)
        stored, stats = _write_chain(
            _hier(tmp_path, f"w{workers}"), plan, fields[0], codec,
            workers=workers,
        )
        levels = plan.coarsen(fields[0])
        deltas = plan.deltas_for(levels)
        assert stored.read("dpot/L2") == codec.encode(levels[-1].ravel())
        for lvl in scheme.delta_levels():
            assert stored.read(f"dpot/delta{lvl}-{lvl + 1}") == codec.encode(
                deltas[lvl].ravel()
            )
        assert stats["replay_seconds"] > 0
        assert stats["compress_seconds"] > 0

    def test_arena_warm_after_first_step(self, ds, fields, tmp_path):
        scheme = LevelScheme(3)
        plan = build_plan(ds.mesh, scheme)
        codec = get_codec("zfp", tolerance=TOL)
        arena = BufferArena()
        _write_chain(_hier(tmp_path, "a0"), plan, fields[0], codec, arena=arena)
        misses_after_first = arena.misses
        _write_chain(_hier(tmp_path, "a1"), plan, fields[1], codec, arena=arena)
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
        # One span per encode batch, not per level: the walk's three
        # levels hold fewer than ENCODE_BATCH_VALUES values, so one batch.
        assert [span.args["blobs"] for span in encodes] == [3]
        for span in encodes:
            assert span.thread.startswith("repro-encode")
            assert span.trace_id == ctx.trace_id
            assert span.parent_id == step.span_id

    @pytest.mark.parametrize("workers", EXECUTORS)
    def test_encode_counters_total_the_walked_values_and_payloads(
        self, ds, fields, tmp_path, workers
    ):
        hier = _hier(tmp_path, f"n{workers}")
        with trace_session(hier) as tracer:
            with self._campaign(hier, ds, workers) as writer:
                for step in range(3):
                    writer.write_step(step, fields[step])
        snap = tracer.metrics.snapshot()
        records = [
            r for r in BPDataset.open("run", hier).catalog.records.values()
            if r.kind in ("base", "delta")
        ]
        per_step = sum(mesh.num_vertices for mesh in writer.meshes)
        assert sum(r.count for r in records) == 3 * per_step
        assert snap["codec.bytes_in{codec=zfp,op=encode}"] == 3 * per_step * 8
        assert snap["codec.bytes_out{codec=zfp,op=encode}"] == sum(
            r.length for r in records
        )
        encodes = [s for s in tracer.spans if s.name == "codec.zfp.encode"]
        assert sum(span.args["blobs"] for span in encodes) == len(records)

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


class TestExecutorIndependence:
    """What ``workers`` must not change, beside the stored bytes
    (``tests/test_layout.py`` has those for every writer)."""

    def test_wrong_length_field_fails_the_same_on_every_executor(
        self, ds, fields, tmp_path, capfd
    ):
        n = ds.mesh.num_vertices
        kwargs = {"codec_params": {"tolerance": TOL}}

        def campaign(workers):
            def run(hier):
                with CampaignWriter(
                    hier, "run", "dpot", ds.mesh, LevelScheme(3),
                    workers=workers, **kwargs,
                ) as writer:
                    writer.write_step(0, fields[0])
                    writer.write_step(1, fields[1][:-3])
            return run

        def partitioned(workers):
            return lambda hier: encode_partitioned(
                hier, "part", "dpot", ds.mesh, ds.field[:-3], LevelScheme(3),
                parts=4, workers=workers, **kwargs,
            )

        for tag, writer, what in (
            ("c", campaign, "step 1: "), ("p", partitioned, ""),
        ):
            messages = set()
            for workers in EXECUTORS:
                with pytest.raises(RefactoringError) as raised:
                    writer(workers)(_hier(tmp_path, f"{tag}{workers}"))
                messages.add(str(raised.value))
            (message,) = messages
            assert message.startswith(
                f"{what}data of shape ({n - 3},) does not match plan's {n} "
            )
        assert capfd.readouterr().err == ""

    def test_relative_tolerance_resolved_globally(self, ds, tmp_path):
        """One absolute codec for every patch, whichever thread runs it:
        the tolerance is a fraction of the *global* range."""
        params = {"mode": "relative", "tolerance": 1e-6}
        absolute = {"tolerance": 1e-6 * float(np.ptp(ds.field))}
        stored = []
        for tag, workers, codec_params in (
            ("ra", None, params), ("rb", 2, params), ("rc", None, absolute),
        ):
            hier = _hier(tmp_path, tag)
            encode_partitioned(
                hier, "part", "dpot", ds.mesh, ds.field, LevelScheme(3),
                parts=2, workers=workers, codec="zfp",
                codec_params=codec_params,
            )
            part = BPDataset.open("part", hier)
            stored.append({key: part.read(key) for key in part.keys()})
        assert stored[0] == stored[1] == stored[2]

    def test_gather_exact_after_pooled_encode(self, ds, tmp_path):
        hier = _hier(tmp_path, "g")
        encode_partitioned(
            hier, "part", "dpot", ds.mesh, ds.field, LevelScheme(3),
            parts=3, workers=2, codec="deflate", codec_params={},
        )
        gathered = Session(hier, use_restored_cache=False).open("part").gather(
            "dpot"
        )
        # Lossless payloads: residual error is float re-association in
        # the delta round trip, far below any physical scale.
        atol = float(np.ptp(ds.field)) * 1e-12
        np.testing.assert_allclose(gathered, ds.field, atol=atol)

    def test_repeated_nine_patch_encode_replays_every_plan(self, ds, tmp_path):
        """``parts=5..9`` bins on a 3 x 3 grid; the plan cache is bounded
        by the vertices it holds, so a sequential scan of nine patches
        finds all nine on the second pass."""
        cache = get_plan_cache()
        cache.clear()
        for tag in ("first", "second"):
            before = cache.stats
            report, _ = encode_partitioned(
                _hier(tmp_path, tag), "part", "dpot", ds.mesh, ds.field,
                LevelScheme(3), parts=8, codec_params={"tolerance": TOL},
            )
            hits = cache.stats["hits"] - before["hits"]
            misses = cache.stats["misses"] - before["misses"]
            expected = (0, 9) if tag == "first" else (9, 0)
            assert report.parts == 9 and (hits, misses) == expected
