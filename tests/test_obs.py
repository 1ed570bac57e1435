"""Unit tests for the observability layer (repro.obs).

Covers: span nesting and exception safety, dual-clock attribution
against a SimClock, Chrome trace-event export round-trip, metrics
registry semantics + concurrency, EngineStats as a registry view, and
the allocation-free disabled fast path.
"""

from __future__ import annotations

import gc
import json
import sys
import threading

import pytest

from repro.io.engine import EngineStats
from repro.obs import (
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    Tracer,
    chrome_trace_events,
    trace,
    trace_session,
)
from repro.storage.simclock import SimClock


@pytest.fixture(autouse=True)
def no_leaked_tracer():
    assert trace.get_tracer() is None
    yield
    assert trace.get_tracer() is None


class TestSpanBasics:
    def test_nesting_records_parent_ids(self):
        with trace_session() as tracer:
            with trace.span("outer", "a"):
                with trace.span("inner", "b"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None
        # Children finish first.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_wall_times_are_ordered(self):
        with trace_session() as tracer:
            with trace.span("s"):
                pass
        (rec,) = tracer.spans
        assert rec.wall_end >= rec.wall_start >= 0.0
        assert rec.wall_seconds == rec.wall_end - rec.wall_start

    def test_exception_propagates_and_is_recorded(self):
        with trace_session() as tracer:
            with pytest.raises(ValueError):
                with trace.span("boom"):
                    raise ValueError("no")
        (rec,) = tracer.spans
        assert rec.error == "ValueError"

    def test_note_merges_args(self):
        with trace_session() as tracer:
            with trace.span("s", "c", {"a": 1}) as sp:
                sp.note(b=2)
        (rec,) = tracer.spans
        assert rec.args == {"a": 1, "b": 2}

    def test_sessions_nest_inner_wins(self):
        with trace_session() as outer:
            with trace_session() as inner:
                assert trace.get_tracer() is inner
                with trace.span("x"):
                    pass
            assert trace.get_tracer() is outer
        assert [s.name for s in inner.spans] == ["x"]
        assert outer.spans == []

    def test_per_thread_stacks(self):
        with trace_session() as tracer:
            def worker():
                with trace.span("child-thread"):
                    pass

            with trace.span("main"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        by_name = {s.name: s for s in tracer.spans}
        # A thread's root span has no parent, even if main has one open.
        assert by_name["child-thread"].parent_id is None


class TestDualClock:
    def test_charge_attributed_to_innermost_span(self):
        clock = SimClock()
        with trace_session(clock) as tracer:
            with trace.span("outer"):
                clock.charge("t", "read", 10, 0.5)
                with trace.span("inner"):
                    clock.charge("t", "read", 10, 1.5)
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].sim_charged == pytest.approx(0.5)
        assert by_name["inner"].sim_charged == pytest.approx(1.5)
        # The outer span observes the full simulated advance inclusively.
        assert by_name["outer"].sim_seconds == pytest.approx(2.0)
        assert by_name["inner"].sim_seconds == pytest.approx(1.5)

    def test_concurrent_charge_busy_exceeds_advance(self):
        clock = SimClock()
        with trace_session(clock) as tracer:
            with trace.span("batch"):
                clock.charge_concurrent(
                    [("a", "read", 10, 1.0), ("b", "read", 10, 0.25)]
                )
        (rec,) = tracer.spans
        assert rec.sim_charged == pytest.approx(1.0)  # max-per-tier
        assert rec.sim_busy == pytest.approx(1.25)  # busy sums

    def test_io_records_queue_per_tier(self):
        clock = SimClock()
        with trace_session(clock) as tracer:
            clock.charge_concurrent(
                [("a", "read", 1, 1.0), ("a", "read", 1, 0.5),
                 ("b", "read", 1, 0.25)]
            )
        a = [r for r in tracer.io_records if r.tier == "a"]
        b = [r for r in tracer.io_records if r.tier == "b"]
        assert a[0].sim_start == pytest.approx(0.0)
        assert a[1].sim_start == pytest.approx(1.0)  # queued behind a[0]
        assert b[0].sim_start == pytest.approx(0.0)  # overlaps tier a

    def test_listener_detached_on_exit(self):
        clock = SimClock()
        with trace_session(clock) as tracer:
            clock.charge("t", "read", 1, 0.1)
        n = len(tracer.io_records)
        clock.charge("t", "read", 1, 0.1)  # after the session
        assert len(tracer.io_records) == n

    def test_resolve_clock_rejects_clockless_target(self):
        with pytest.raises(TypeError):
            with trace_session(object()):
                pass


class TestChromeExport:
    def _traced(self):
        clock = SimClock()
        with trace_session(clock) as tracer:
            with trace.span("work", "compute"):
                clock.charge("tmpfs", "read", 64, 0.25)
        return tracer

    def test_round_trip_shape(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        tracer.export_chrome(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert doc["displayTimeUnit"] == "ms"
        xs = [e for e in events if e["ph"] == "X"]
        ms = [e for e in events if e["ph"] == "M"]
        assert xs and ms
        for e in xs:
            assert e["dur"] >= 0 and e["ts"] >= 0
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)

    def test_wall_and_sim_processes(self):
        tracer = self._traced()
        events = chrome_trace_events(tracer.spans, tracer.io_records)
        x_pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert x_pids == {1, 2}
        # Process names announce the two clocks.
        pnames = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert pnames == {"wall clock", "simulated I/O"}
        # The tier transfer landed on a named per-tier track.
        tier_tracks = [
            e for e in events
            if e["ph"] == "M" and e["args"]["name"] == "tier tmpfs"
        ]
        assert len(tier_tracks) == 1
        tier_tid = tier_tracks[0]["tid"]
        transfers = [
            e for e in events
            if e["ph"] == "X" and e["pid"] == 2 and e["tid"] == tier_tid
        ]
        assert transfers and transfers[0]["args"]["nbytes"] == 64

    def test_span_args_carry_both_durations(self):
        tracer = self._traced()
        events = chrome_trace_events(tracer.spans)
        x = next(e for e in events if e["ph"] == "X")
        assert "wall_seconds" in x["args"]
        assert "sim_seconds" in x["args"]

    def test_sim_event_duration_matches_charge(self):
        tracer = self._traced()
        events = chrome_trace_events(tracer.spans, tracer.io_records)
        sim = [
            e for e in events
            if e["ph"] == "X" and e["pid"] == 2 and e["name"] == "work"
        ]
        assert len(sim) == 1
        assert sim[0]["dur"] == pytest.approx(0.25e6)


class TestSinks:
    def test_in_memory_sink_sees_each_span(self):
        sink = InMemorySink()
        with trace_session(sinks=[sink]):
            with trace.span("a"):
                pass
            with trace.span("b"):
                pass
        assert [r.name for r in sink.records] == ["a", "b"]

    def test_jsonl_sink_streams_parseable_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with trace_session(sinks=[JsonlSink(path)]):
            with trace.span("a", "cat", {"k": 1}):
                pass
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert len(lines) == 1
        assert lines[0]["name"] == "a" and lines[0]["args"] == {"k": 1}

    def test_export_jsonl_includes_io(self, tmp_path):
        clock = SimClock()
        with trace_session(clock) as tracer:
            clock.charge("t", "read", 8, 0.1)
        out = tmp_path / "all.jsonl"
        tracer.export_jsonl(out)
        kinds = [json.loads(x)["kind"] for x in out.read_text().splitlines()]
        assert "io" in kinds


class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.counter("c", tier="a") is not reg.counter("c", tier="b")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.counter("by_tier", tier="fast").inc(2)
        reg.gauge("occ").set(0.5)
        reg.histogram("lat").observe(1.0)
        snap = reg.snapshot()
        assert snap["hits"] == 3
        assert snap["by_tier{tier=fast}"] == 2
        assert snap["occ"] == 0.5
        assert snap["lat"]["count"] == 1
        assert reg.label_values("by_tier", "tier") == {"fast": 2}
        assert reg.value("missing", default=-1) == -1

    def test_reset_keeps_references_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc(5)
        reg.reset()
        assert c.value == 0
        c.inc()
        assert reg.value("n") == 1

    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()
        threads = 8
        per_thread = 5000

        def worker():
            for _ in range(per_thread):
                reg.counter("n").inc()
                reg.counter("labeled", t="x").inc()

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert reg.value("n") == threads * per_thread
        assert reg.value("labeled", t="x") == threads * per_thread


class TestEngineStatsView:
    def test_legacy_attributes_route_through_registry(self):
        stats = EngineStats()
        stats.record_hit("tmpfs", 100)
        stats.record_miss("lustre", 400)
        stats.incr("prefetch_issued", 3)
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.bytes_from_cache == 100
        assert stats.prefetch_issued == 3
        assert stats.hits_by_tier == {"tmpfs": 1}
        assert stats.misses_by_tier == {"lustre": 1}
        assert stats.bytes_from_tier == {"lustre": 400}

    def test_counter_handles_resolved_once_and_survive_reset(self):
        stats = EngineStats()
        stats.record_hit("tmpfs", 1)
        stats.record_miss("lustre", 1)

        def no_lookup(*args, **labels):
            raise AssertionError("registry lookup on the increment path")

        stats.registry.counter = no_lookup
        stats.record_hit("tmpfs", 10)
        stats.record_miss("lustre", 20)
        stats.incr("batches")
        assert (stats.hits, stats.misses, stats.batches) == (2, 2, 1)
        assert stats.bytes_from_tier == {"lustre": 21}
        stats.reset()
        stats.record_hit("tmpfs", 5)
        assert stats.snapshot()["hits"] == 1
        assert stats.hits_by_tier == {"tmpfs": 1}

    def test_snapshot_reset(self):
        stats = EngineStats()
        stats.incr("hits", 2)
        snap = stats.snapshot()
        assert snap["hits"] == 2
        stats.reset()
        assert stats.hits == 0
        assert snap["hits"] == 2  # snapshot is a copy

    def test_as_dict_is_plain_data(self):
        stats = EngineStats()
        stats.record_hit("t", 1)
        d = stats.as_dict()
        assert isinstance(d, dict)
        json.dumps(d)  # JSON-ready

    def test_thread_safe_counting(self):
        stats = EngineStats()

        def worker():
            for _ in range(2000):
                stats.record_hit("t", 1)

        ts = [threading.Thread(target=worker) for _ in range(8)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert stats.hits == 16000
        assert stats.bytes_from_cache == 16000


class TestDisabledFastPath:
    def test_span_returns_shared_singleton(self):
        assert trace.span("a") is trace.span("b")
        assert trace.enabled() is False

    def test_noop_span_contextmanager(self):
        with trace.span("a") as sp:
            sp.note(anything=1)  # swallowed

    def test_disabled_span_allocates_nothing(self):
        # Warm up, then measure allocated blocks across many iterations.
        for _ in range(100):
            with trace.span("warm"):
                pass
        gc.collect()
        before = sys.getallocatedblocks()
        for _ in range(1000):
            with trace.span("hot"):
                pass
        gc.collect()
        after = sys.getallocatedblocks()
        assert after - before < 50, f"allocated {after - before} blocks"


class TestSummary:
    def test_summary_groups_by_category(self):
        clock = SimClock()
        with trace_session(clock) as tracer:
            with trace.span("a", "io"):
                clock.charge("t", "read", 1, 0.5)
            with trace.span("b", "io"):
                pass
            with trace.span("c", "compute"):
                pass
        summary = tracer.summary()
        assert summary["io"]["spans"] == 2
        assert summary["io"]["sim_charged"] == pytest.approx(0.5)
        assert summary["compute"]["spans"] == 1

    def test_tracer_repr_mentions_counts(self):
        tracer = Tracer()
        assert "spans=0" in repr(tracer)


class TestTeardownHardening:
    """trace_session must fully detach even when everything raises."""

    def test_failed_session_detaches_clock_listener(self):
        clock = SimClock()
        with pytest.raises(RuntimeError):
            with trace_session(clock):
                raise RuntimeError("boom")
        assert trace.get_tracer() is None
        assert clock._listeners == []

    def test_two_failed_sessions_do_not_double_attribute(self):
        """Charges after two crashed sessions land on exactly one tracer."""
        clock = SimClock()
        for _ in range(2):
            with pytest.raises(RuntimeError):
                with trace_session(clock):
                    clock.charge("t", "read", 1, 0.5)
                    raise RuntimeError("boom")
        with trace_session(clock) as tracer:
            with trace.span("after"):
                clock.charge("t", "read", 1, 0.25)
        (rec,) = tracer.spans
        # One listener, one attribution: not doubled by dead tracers.
        assert rec.sim_charged == pytest.approx(0.25)
        assert len(tracer.io_records) == 1
        assert clock._listeners == []

    def test_raising_sink_close_does_not_skip_detach(self, tmp_path):
        class BadSink(InMemorySink):
            def close(self):
                raise OSError("disk full")

        clock = SimClock()
        with pytest.raises(OSError, match="disk full"):
            with trace_session(clock, sinks=[BadSink()]):
                pass
        assert trace.get_tracer() is None
        assert clock._listeners == []

    def test_raising_sink_close_still_exports(self, tmp_path):
        """Every sink is closed and exports run before the close error."""
        closed = []

        class BadSink(InMemorySink):
            def close(self):
                closed.append(self)
                raise OSError("close failed")

        out = tmp_path / "trace.json"
        clock = SimClock()
        with pytest.raises(OSError, match="close failed"):
            with trace_session(
                clock, sinks=[BadSink(), BadSink()], chrome_path=out
            ):
                with trace.span("work"):
                    pass
        assert len(closed) == 2  # the first failure didn't skip the second
        assert out.exists()  # the chrome export still ran
        assert trace.get_tracer() is None

    def test_body_and_close_both_raise_body_error_wins(self):
        class BadSink(InMemorySink):
            def close(self):
                raise OSError("close failed")

        with pytest.raises(ValueError, match="body"):
            with trace_session(sinks=[BadSink()]):
                raise ValueError("body")
        assert trace.get_tracer() is None
