"""The one Algorithm-3 walk: ``CanopusDecoder.walk`` and its consumers.

``walk`` yields every state from the base (or a cached coarser state)
down to a level; ``restore_to`` is its last state, and the tolerance
fallback of ``Session.restore`` stops it at the first state whose
applied delta is within the tolerance. The reference for what each
state holds is the measure-as-you-go loop over ``read_base`` /
``refine`` in ``tests/oracle/progressive.py``. Also here: the batch
charge of ``restore_chains`` lands in its results, and every restore
(by level, by tolerance, the summary-less fallback, ``restore_chains``)
reports in its timings what the clock charged.
"""

import numpy as np
import pytest

from repro.api import Session, write_campaign
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.io import BPDataset
from repro.obs import trace, trace_session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan

from tests.oracle.progressive import measured_restore, reference_states

LEVELS = 4
CHUNKS = 8
STEPS = 4


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """A chunked single-shot variable ("w") and a 4-step campaign."""
    ds = make_xgc1(scale=0.3)
    h = two_tier_titan(
        tmp_path_factory.mktemp("walk"), fast_capacity=32 << 20,
        slow_capacity=1 << 34,
    )
    CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"},
        chunks=CHUNKS,
    ).encode("w", "dpot", ds.mesh, ds.field, LevelScheme(LEVELS))
    write_campaign(
        h, "series", "dpot", ds.mesh,
        [ds.field * (1 + 0.01 * s) for s in range(STEPS)], LevelScheme(3),
    )
    return ds, h


@pytest.fixture(autouse=True)
def cold_caches():
    """Every restore below starts from empty process-wide caches, so
    charges compare across fresh datasets."""
    get_restored_cache().clear()
    get_geometry_cache().clear()
    yield
    get_restored_cache().clear()
    get_geometry_cache().clear()


def _decoder(h):
    return CanopusDecoder(BPDataset.open("w", h))


def _roi(ds, half=0.3):
    center = ds.mesh.vertices[int(np.argmax(ds.field))]
    return center - half, center + half


def _strip_summaries(handle, keep=lambda rec: False):
    for key in handle.dataset.keys():
        rec = handle.dataset.inq(key)
        if not keep(rec):
            rec.attrs.pop("stats", None)


def _charged(h, fn):
    """``(result, sim seconds, tier bytes read)`` of one call."""
    elapsed, moved = h.clock.elapsed, h.clock.bytes_moved(op="read")
    result = fn()
    return (
        result,
        h.clock.elapsed - elapsed,
        h.clock.bytes_moved(op="read") - moved,
    )


class TestWalk:
    def test_levels_run_from_the_base_to_the_target(self, store):
        _, h = store
        assert [s.level for s in _decoder(h).walk("dpot")] == [3, 2, 1, 0]
        assert [s.level for s in _decoder(h).walk("dpot", 2)] == [3, 2]

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_states_equal_the_reference_loop(self, store, pipeline):
        ds, h = store
        for filters in ({}, {"region": _roi(ds)}, {"min_significance": 1e-3}):
            walked = list(_decoder(h).walk("dpot", pipeline=pipeline, **filters))
            reference = reference_states(_decoder(h), "dpot", **filters)
            assert [s.level for s in walked] == [s.level for s in reference]
            for a, b in zip(walked, reference):
                assert a.field.tobytes() == b.field.tobytes()
                assert a.mesh.num_vertices == b.mesh.num_vertices
                np.testing.assert_array_equal(
                    a.last_delta_rms, b.last_delta_rms
                )
            last = _decoder(h).restore_to("dpot", 0, pipeline=pipeline, **filters)
            assert last.field.tobytes() == walked[-1].field.tobytes()

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_each_state_carries_what_the_clock_charged(self, store, pipeline):
        _, h = store
        decoder = _decoder(h)
        start = h.clock.elapsed
        for state in decoder.walk("dpot", pipeline=pipeline):
            assert state.timings.io_seconds == pytest.approx(
                h.clock.elapsed - start, rel=1e-12
            )

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_breaking_early_charges_nothing_past_the_last_state(
        self, store, pipeline
    ):
        _, h = store
        walk = _decoder(h).walk("dpot", pipeline=pipeline)
        elapsed = h.clock.elapsed
        for state in walk:
            if state.level == 2:
                break
        charged = h.clock.elapsed - elapsed
        walk.close()
        assert h.clock.elapsed - elapsed == charged
        assert state.timings.io_seconds == pytest.approx(charged, rel=1e-12)
        if not pipeline:
            # Serial, the walk to 0 stopped at 2 is the restore to 2.
            decoder = _decoder(h)
            _, direct, _ = _charged(
                h, lambda: decoder.restore_to("dpot", 2, pipeline=False)
            )
            assert direct == charged

    def test_an_abandoned_traced_walk_leaves_no_open_span(self, store):
        _, h = store
        with trace_session(h) as tracer:
            walk = _decoder(h).walk("dpot")
            next(walk)
            next(walk)
            with trace.span("after", "test"):
                pass
            del walk
        (after,) = [s for s in tracer.spans if s.name == "after"]
        assert after.parent_id is None
        names = {s.name for s in tracer.spans}
        assert {"decode.read_base", "decode.refine", "decode.prefetch"} <= names

    def test_stepping_a_session_reads_one_level_per_step(self, store):
        _, h = store
        with Session(h) as session:
            handle = session.open("w")
            coarse = handle.restore("dpot", level=2)
            chain = handle.decoder
            step = set(chain.chain_keys("dpot", 1)) - set(
                chain.chain_keys("dpot", 2)
            )
            finer, _, moved = _charged(
                h, lambda: handle.restore("dpot", level=1)
            )
            assert moved == sum(handle.dataset.inq(k).length for k in step)
            assert moved > 0 and finer.level == coarse.level - 1
            reference = reference_states(_decoder(h), "dpot", 1)[-1]
            assert finer.field.tobytes() == reference.field.tobytes()


class TestToleranceFallback:
    @pytest.mark.parametrize("region", [False, True])
    def test_fallback_equals_the_measured_loop(self, store, region):
        ds, h = store
        filters = {"region": _roi(ds)} if region else {}
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            _strip_summaries(handle)
            assert not handle.plan("dpot", tolerance=1e-3, **filters).complete
            state = handle.restore("dpot", tolerance=1e-3, **filters)
        reference = measured_restore(_decoder(h), "dpot", 1e-3, **filters)
        assert state.level == reference.level
        assert state.field.tobytes() == reference.field.tobytes()
        assert state.last_delta_rms == reference.last_delta_rms

    def test_filtered_fallback_reads_what_the_level_restore_reads(self, store):
        ds, h = store
        region = _roi(ds)
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            # The first refinement meets this tolerance: the walk stops
            # above level 0, where a pipelined hint would overshoot.
            base = handle.scheme("dpot").base_level
            rms = handle.plan("dpot", tolerance=1e-12, region=region).level_rms
            tolerance = rms[base - 1] * 1.01
            _strip_summaries(handle)
            state, seconds, moved = _charged(
                h, lambda: handle.restore(
                    "dpot", tolerance=tolerance, region=region
                ),
            )
        assert state.level == base - 1
        get_geometry_cache().clear()
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            direct, direct_seconds, direct_moved = _charged(
                h, lambda: handle.restore(
                    "dpot", level=state.level, region=region
                ),
            )
        assert direct.field.tobytes() == state.field.tobytes()
        assert (moved, seconds) == (direct_moved, direct_seconds)

    def test_pipelined_fallback_reads_what_the_level_restore_reads(
        self, store
    ):
        _, h = store
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            # Met by the first refinement: a walk with lookahead toward
            # level 0 would already have fetched the deltas below it.
            base = handle.scheme("dpot").base_level
            rms = handle.plan("dpot", tolerance=1e-12).level_rms
            tolerance = rms[base - 1] * 1.01
            _strip_summaries(handle)
            state, _, moved = _charged(
                h, lambda: handle.restore("dpot", tolerance=tolerance)
            )
        assert state.level == base - 1 > 0
        get_geometry_cache().clear()
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            direct, _, direct_moved = _charged(
                h, lambda: handle.restore("dpot", level=state.level)
            )
        assert direct.field.tobytes() == state.field.tobytes()
        assert moved == direct_moved

    def test_a_step_that_applies_nothing_never_stops(self, store):
        _, h = store
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            # Level-1 summaries prune every chunk (nothing applied, NaN
            # rms); level-0 chunks have none, so the plan is incomplete.
            _strip_summaries(
                handle, keep=lambda rec: rec.kind == "delta" and rec.level > 0
            )
            assert not handle.plan(
                "dpot", tolerance=1e9, min_significance=1e12
            ).complete
            state = handle.restore(
                "dpot", tolerance=1e9, min_significance=1e12
            )
        # A NaN rms on the empty steps must not look like convergence:
        # the walk stops only at level 0, where the chunks apply.
        assert state.level == 0
        assert state.refined_mask.all() and state.last_delta_rms <= 1e9


class TestRestoreManyTimings:
    def test_the_batch_charge_lands_in_the_results(self, store):
        _, h = store
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("series")
            chains = [handle.chain("dpot", step=s) for s in range(STEPS)]
            restored, charged, _ = _charged(
                h, lambda: handle.restore_chains(chains, 0)
            )
        io = [restored[c].timings.io_seconds for c in chains]
        assert charged > 0
        assert sum(io) == pytest.approx(charged, rel=1e-12)
        # The shared geometry counts once, for the first step.
        assert all(x > 0 for x in io) and io[0] > max(io[1:])

    def test_a_warm_start_reads_what_restore_chain_reads(self, store):
        """A chain whose walk starts from a cached coarser state fetches
        only the steps below it: the batch reads no base bytes."""
        _, h = store
        read = []
        for restore in (
            lambda handle: handle.restore_chain("dpot", 0),
            lambda handle: handle.restore_chains(["dpot"], 0)["dpot"],
        ):
            get_restored_cache().clear()
            get_geometry_cache().clear()
            with Session(h) as session:
                session.open("w").restore("dpot", level=2)
            with Session(h) as session:
                handle = session.open("w")
                state, _, moved = _charged(h, lambda: restore(handle))
            read.append((moved, state.field.tobytes()))
        single, batch = read
        assert batch == single and single[0] > 0


class TestOneReadSchedule:
    """Every restore fetches through the walk's per-step batches (or one
    ``restore_chains`` batch), and the returned timings carry every
    simulated second the clock moved."""

    FILTERS = [
        {},
        {"region": True},
        {"min_significance": 1e-3},
        {"region": True, "min_significance": 1e-3},
    ]
    SELECTIONS = [
        {"level": 0},
        {"level": 1},
        {"tolerance": 1e-3},
        {"tolerance": 1e-3, "stripped": True},
        {"chains": True},
    ]

    @staticmethod
    def _id(spec: dict) -> str:
        return ",".join(f"{k}={v}" for k, v in spec.items()) or "none"

    @staticmethod
    def _restore(handle, selection, filters):
        """Run one restore; the list of states it returned."""
        if selection.get("chains"):
            chains = [handle.chain("dpot", step=s) for s in range(STEPS)]
            return list(handle.restore_chains(chains, 0, **filters).values())
        if selection.get("stripped"):
            _strip_summaries(handle)
        kwargs = {k: v for k, v in selection.items() if k != "stripped"}
        return [handle.restore("dpot", **kwargs, **filters)]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("filters", FILTERS, ids=_id)
    @pytest.mark.parametrize("selection", SELECTIONS, ids=_id)
    def test_timings_sum_to_the_clock(self, store, selection, filters, warm):
        ds, h = store
        filters = dict(filters)
        if filters.get("region"):
            filters["region"] = _roi(ds)
        name = "series" if selection.get("chains") else "w"
        with Session(h) as session:
            handle = session.open(name)
            if warm:
                # A coarser restore first: the range, geometry and
                # restored caches then hold part of what the next reads.
                coarse = (
                    {"chains": True} if selection.get("chains") else {"level": 2}
                )
                self._restore(handle, coarse, filters)
            states, charged, _ = _charged(
                h, lambda: self._restore(handle, selection, filters)
            )
            again, recharged, _ = _charged(
                h, lambda: self._restore(handle, selection, filters)
            )
        reported = sum(s.timings.io_seconds for s in states)
        assert reported == pytest.approx(charged, rel=1e-12, abs=1e-15)
        assert sum(s.timings.io_seconds for s in again) == pytest.approx(
            recharged, rel=1e-12, abs=1e-15
        )
        if not warm:
            assert charged > 0

    @pytest.mark.parametrize("level, bound", [(1, 2.0e-3), (0, 2.5e-3)])
    def test_a_filtered_level_restore_fetches_by_step(
        self, store, level, bound
    ):
        ds, h = store
        region = _roi(ds)
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            state, seconds, moved = _charged(
                h, lambda: handle.restore("dpot", level=level, region=region)
            )
        get_geometry_cache().clear()
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            plan = handle.plan("dpot", level=level, region=region)
            _, _, planned = _charged(h, lambda: handle.planner.execute(plan))
        get_geometry_cache().clear()
        decoder = _decoder(h)
        states, loop_seconds, loop_moved = _charged(
            h, lambda: reference_states(decoder, "dpot", level, region=region)
        )
        assert state.field.tobytes() == states[-1].field.tobytes()
        assert seconds <= bound < loop_seconds
        # The batches read the same records as the product-at-a-time
        # loop, plus the gaps the engine coalesces between them: never
        # more than the plan's one batch reads.
        rise = moved - loop_moved
        print(
            f"level {level}: {seconds * 1e3:.3f} ms (loop "
            f"{loop_seconds * 1e3:.3f} ms), {moved} B (loop {loop_moved} B, "
            f"+{rise} B = {100 * rise / loop_moved:.2f} %)"
        )
        assert 0 <= rise <= 0.04 * loop_moved
        assert moved <= planned

    def test_the_fallback_fetches_each_step_as_one_batch(self, store):
        _, h = store
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("w")
            _strip_summaries(handle)
            state, seconds, moved = _charged(
                h, lambda: handle.restore("dpot", tolerance=1e-30)
            )
        get_geometry_cache().clear()
        decoder = _decoder(h)
        states, loop_seconds, loop_moved = _charged(
            h, lambda: reference_states(decoder, "dpot")
        )
        assert state.level == 0
        assert state.field.tobytes() == states[-1].field.tobytes()
        assert moved == loop_moved and seconds < loop_seconds
