"""Unit tests for the request-scoped observability primitives (PR 7).

Covers: the contextvars :class:`TraceContext` lifecycle, W3C
``traceparent`` parsing/formatting, :func:`propagate` across thread
pools, bucketed-histogram quantiles, the Prometheus text exposition,
:class:`SLO` burn-rate math, :class:`JsonlLogger` correlation, and the
:class:`TraceBuffer` sampling policy.
"""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.obs import context as obs_context
from repro.obs.context import (
    TraceContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    propagate,
)
from repro.obs.logs import JsonlLogger
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.prom import render_prometheus
from repro.obs.slo import SLO
from repro.obs.trace import SpanRecord, TraceBuffer


@pytest.fixture(autouse=True)
def clean_context():
    assert obs_context.current() is None
    yield
    assert obs_context.current() is None


class TestTraceContext:
    def test_activate_deactivate_roundtrip(self):
        ctx = TraceContext(trace_id=new_trace_id(), tenant="alice")
        token = obs_context.activate(ctx)
        assert obs_context.current() is ctx
        obs_context.deactivate(token)
        assert obs_context.current() is None

    def test_bind_tenant_creates_requestless_context(self):
        token = obs_context.bind_tenant("bob")
        ctx = obs_context.current()
        assert ctx is not None
        assert ctx.tenant == "bob"
        assert ctx.trace_id == ""
        obs_context.deactivate(token)

    def test_bind_tenant_preserves_trace_identity(self):
        outer = obs_context.activate(
            TraceContext(trace_id="ab" * 16, sampled=False)
        )
        inner = obs_context.bind_tenant("carol")
        ctx = obs_context.current()
        assert ctx.trace_id == "ab" * 16
        assert ctx.tenant == "carol"
        assert ctx.sampled is False
        obs_context.deactivate(inner)
        assert obs_context.current().tenant == ""
        obs_context.deactivate(outer)

    def test_ids_are_well_formed(self):
        tid, sid = new_trace_id(), new_span_id()
        assert len(tid) == 32 and int(tid, 16) != 0
        assert len(sid) == 16 and int(sid, 16) != 0


class TestTraceparent:
    def test_roundtrip(self):
        tid, sid = new_trace_id(), new_span_id()
        header = format_traceparent(tid, sid, sampled=True)
        ctx = parse_traceparent(header)
        assert ctx.trace_id == tid
        assert ctx.parent_span == sid
        assert ctx.sampled is True

    def test_unsampled_flag(self):
        header = format_traceparent("ab" * 16, "cd" * 8, sampled=False)
        assert header.endswith("-00")
        assert parse_traceparent(header).sampled is False

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            "00-xyz-abc-01",
            f"00-{'0' * 32}-{'ab' * 8}-01",  # all-zero trace id
            f"00-{'ab' * 16}-{'0' * 16}-01",  # all-zero span id
            f"ff-{'ab' * 16}-{'cd' * 8}-01",  # forbidden version
            f"00-{'ab' * 16}-{'cd' * 8}",  # missing flags
        ],
    )
    def test_invalid_headers_are_treated_as_absent(self, bad):
        assert parse_traceparent(bad) is None

    def test_whitespace_and_case_tolerated(self):
        header = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
        ctx = parse_traceparent(header)
        assert ctx is not None
        assert ctx.trace_id == "ab" * 16

    def test_context_renders_traceparent(self):
        ctx = TraceContext(trace_id="ab" * 16, parent_span="cd" * 8)
        assert ctx.traceparent() == f"00-{'ab' * 16}-{'cd' * 8}-01"


class TestPropagate:
    def test_noop_outside_request(self):
        def fn():
            return obs_context.current()

        assert propagate(fn) is fn  # unchanged — zero-cost when unused

    def test_carries_context_into_pool_thread(self):
        ctx = TraceContext(trace_id=new_trace_id(), tenant="alice")
        token = obs_context.activate(ctx)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                naked = pool.submit(obs_context.current).result()
                carried = pool.submit(
                    propagate(obs_context.current)
                ).result()
        finally:
            obs_context.deactivate(token)
        assert naked is None  # pools do NOT inherit context
        assert carried is not None and carried.trace_id == ctx.trace_id

    def test_no_leak_between_concurrent_requests(self):
        """Two contexts through one worker never see each other."""
        barrier = threading.Barrier(2)
        seen = {}

        def _request(name: str):
            token = obs_context.activate(
                TraceContext(trace_id=new_trace_id(), tenant=name)
            )
            try:
                def _work():
                    barrier.wait(timeout=5)
                    return obs_context.current().tenant

                with ThreadPoolExecutor(max_workers=1) as pool:
                    seen[name] = pool.submit(propagate(_work)).result()
            finally:
                obs_context.deactivate(token)

        t1 = threading.Thread(target=_request, args=("alice",))
        t2 = threading.Thread(target=_request, args=("bob",))
        t1.start(), t2.start()
        t1.join(), t2.join()
        assert seen == {"alice": "alice", "bob": "bob"}

    def test_propagated_fn_reusable_concurrently(self):
        """One wrapped fn can run on many workers at once (ctx.copy())."""
        token = obs_context.activate(
            TraceContext(trace_id=new_trace_id(), tenant="alice")
        )
        try:
            fn = propagate(lambda: obs_context.current().tenant)
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda _: fn(), range(16)))
        finally:
            obs_context.deactivate(token)
        assert results == ["alice"] * 16


class TestHistogramQuantiles:
    def test_quantiles_bounded_by_buckets(self):
        hist = Histogram("t")
        for v in [0.001, 0.002, 0.004, 0.1, 0.2, 0.5, 1.0, 2.0]:
            hist.observe(v)
        p50, p95 = hist.quantile(0.5), hist.quantile(0.95)
        assert 0.002 <= p50 <= 0.2
        assert p95 <= hist.max
        assert hist.quantile(0.0) == pytest.approx(hist.min)
        assert hist.quantile(1.0) == pytest.approx(hist.max)

    def test_quantile_relative_error_within_bucket_width(self):
        """Log-spaced buckets (3/decade) bound the p-estimate error."""
        values = [0.01 * (1.01**i) for i in range(500)]
        hist = Histogram("t")
        for v in values:
            hist.observe(v)
        exact = sorted(values)[int(0.95 * (len(values) - 1))]
        est = hist.quantile(0.95)
        # One bucket spans 10^(1/3) ≈ 2.15x; the estimate must stay
        # within that factor of the exact quantile.
        assert exact / 2.2 <= est <= exact * 2.2

    def test_tail_quantiles_sharing_the_top_bucket_stay_distinct(self):
        """Uniform on [0.3, 0.9]: p95 and p99 both sit in the top
        occupied bucket (0.464, 1.0], which used to interpolate to 1.0
        and then clamp both to ``max``."""
        values = np.random.default_rng(5).uniform(0.3, 0.9, 1000)
        hist = Histogram("t")
        for v in values:
            hist.observe(float(v))
        p50, p95, p99 = (hist.quantile(q) for q in (0.50, 0.95, 0.99))
        assert p50 < p95 < p99 <= hist.max
        assert hist.quantile(0.0) == hist.min
        assert hist.quantile(1.0) == hist.max
        ratio = 10 ** (1 / 3)  # one bucket
        for q, est in ((0.50, p50), (0.95, p95), (0.99, p99)):
            exact = float(np.quantile(values, q))
            assert exact / ratio <= est <= exact * ratio

    def test_empty_and_invalid(self):
        hist = Histogram("t")
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_cumulative_buckets_end_at_inf_total(self):
        hist = Histogram("t")
        for v in [1e-9, 0.5, 1e9]:  # underflow + middle + overflow
            hist.observe(v)
        cumulative = hist.cumulative_buckets()
        assert cumulative[-1][0] == math.inf
        assert cumulative[-1][1] == 3
        bounds = [b for b, _ in cumulative[:-1]]
        assert bounds == sorted(bounds)
        assert tuple(bounds) == DEFAULT_BUCKETS


class TestPrometheusRendering:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("service.requests", tenant="alice").inc(3)
        reg.counter("service.requests", tenant='we"ird\\x').inc()
        reg.gauge("service.slo.burn_rate", slo="/v1/metrics").set(0.25)
        reg.histogram("service.request_seconds", route="/r").observe(0.1)
        return reg

    def test_lines_parse_under_promtool_rules(self):
        text = render_prometheus(self._registry())
        assert text.endswith("\n")
        name_re = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
        import re

        for line in text.splitlines():
            assert line, "no blank lines in exposition"
            if line.startswith("#"):
                assert re.match(
                    rf"^# (HELP|TYPE) {name_re}( .*)?$", line
                ), line
                continue
            assert re.match(
                rf"^{name_re}(\{{.*\}})? [^ ]+$", line
            ), line

    def test_histogram_family_is_complete(self):
        text = render_prometheus(self._registry())
        assert '# TYPE service_request_seconds histogram' in text
        assert 'le="+Inf"' in text
        assert "service_request_seconds_sum" in text
        assert "service_request_seconds_count" in text
        # Cumulative counts are monotone.
        counts = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("service_request_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 1.0

    def test_label_values_escaped(self):
        text = render_prometheus(self._registry())
        assert 'tenant="we\\"ird\\\\x"' in text

    def test_counter_and_gauge_types_present(self):
        text = render_prometheus(self._registry())
        assert "# TYPE service_requests counter" in text
        assert "# TYPE service_slo_burn_rate gauge" in text
        assert 'service_requests{tenant="alice"} 3' in text


class TestSLO:
    def test_burn_rate_math(self):
        slo = SLO(
            "r", target_seconds=0.1, objective=0.9,
            window=10, registry=MetricsRegistry(),
        )
        assert slo.compliance == 1.0  # empty window is healthy
        for _ in range(9):
            slo.observe(0.05)
        slo.observe(0.5)  # one breach in ten
        assert slo.compliance == pytest.approx(0.9)
        assert slo.burn_rate == pytest.approx(1.0)
        assert slo.healthy

    def test_errors_count_as_bad_even_when_fast(self):
        slo = SLO(
            "r", target_seconds=1.0, objective=0.5,
            window=4, registry=MetricsRegistry(),
        )
        assert slo.observe(0.01, error=True) is False
        assert slo.compliance == 0.0
        assert not slo.healthy

    def test_window_rolls(self):
        slo = SLO(
            "r", target_seconds=0.1, objective=0.5,
            window=2, registry=MetricsRegistry(),
        )
        slo.observe(9.0)
        slo.observe(0.01)
        slo.observe(0.01)  # the breach rolled out of the window
        assert slo.compliance == 1.0
        assert slo.snapshot()["total_breaches"] == 1

    def test_running_count_equals_the_window_sum(self):
        reg = MetricsRegistry()
        slo = SLO(
            "r", target_seconds=0.1, objective=0.5, window=5, registry=reg
        )
        outcomes = [True, False, False, True, True, True, False, True,
                    False, False, False, True, True]
        for i, good in enumerate(outcomes):
            slo.observe(0.01 if good else 9.0)
            recent = outcomes[max(0, i - 4): i + 1]
            assert slo.compliance == sum(recent) / len(recent)
            assert reg.value("service.slo.compliance", slo="r") == (
                slo.compliance
            )
            assert reg.value("service.slo.window_requests", slo="r") == len(
                recent
            )

    def test_gauges_published(self):
        reg = MetricsRegistry()
        slo = SLO("/r", target_seconds=0.5, registry=reg)
        slo.observe(0.1)
        assert reg.value("service.slo.compliance", slo="/r") == 1.0
        assert reg.value("service.slo.target_seconds", slo="/r") == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SLO("r", target_seconds=0.0, registry=MetricsRegistry())
        with pytest.raises(ValueError):
            SLO(
                "r", target_seconds=1.0, objective=1.0,
                registry=MetricsRegistry(),
            )


class TestJsonlLogger:
    def test_stamps_active_trace_context(self):
        log = JsonlLogger()
        token = obs_context.activate(
            TraceContext(trace_id="ab" * 16, tenant="alice")
        )
        try:
            rec = log.log("unit.test", value=1)
        finally:
            obs_context.deactivate(token)
        assert rec["trace_id"] == "ab" * 16
        assert rec["tenant"] == "alice"
        assert log.for_trace("ab" * 16) == [rec]

    def test_explicit_fields_win_over_context(self):
        log = JsonlLogger()
        token = obs_context.activate(TraceContext(trace_id="ab" * 16))
        try:
            rec = log.log("unit.test", trace_id="cd" * 16)
        finally:
            obs_context.deactivate(token)
        assert rec["trace_id"] == "cd" * 16

    def test_file_append_and_ring(self, tmp_path):
        path = tmp_path / "logs" / "access.jsonl"
        log = JsonlLogger(path, capacity=2)
        for i in range(3):
            log.access(
                method="GET", path=f"/{i}", status=200, wall_seconds=0.01
            )
        log.close()
        lines = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert len(lines) == 3  # the file keeps everything
        assert len(log) == 2  # the ring is bounded
        assert lines[0]["event"] == "service.request"

    def test_access_level_tracks_status(self):
        log = JsonlLogger()
        ok = log.access(method="GET", path="/", status=200, wall_seconds=0.0)
        bad = log.access(method="GET", path="/", status=503, wall_seconds=0.0)
        assert ok["level"] == "info"
        assert bad["level"] == "error"
        assert log.tail(10, event="service.request") == [ok, bad]


class TestTraceBufferSampling:
    def _span(self, trace_id: str) -> SpanRecord:
        return SpanRecord(
            name="s", category="c", span_id=1, parent_id=None,
            thread="t", wall_start=0.0, wall_end=0.1, trace_id=trace_id,
        )

    def test_errors_always_kept_at_zero_sample_rate(self):
        buf = TraceBuffer(8, sample_rate=0.0)
        buf.on_span(self._span("ab" * 16))
        kept = buf.finish("ab" * 16, status=500, wall_seconds=0.01)
        assert kept is not None and kept.kept == "error"
        assert len(kept.spans) == 1

    def test_slow_always_kept_at_zero_sample_rate(self):
        buf = TraceBuffer(8, sample_rate=0.0, slow_seconds=0.5)
        kept = buf.finish("cd" * 16, status=200, wall_seconds=0.75)
        assert kept is not None and kept.kept == "slow"

    def test_fast_success_dropped_at_zero_sample_rate(self):
        buf = TraceBuffer(8, sample_rate=0.0)
        assert buf.finish("ab" * 16, status=200, wall_seconds=0.01) is None
        assert buf.stats()["dropped"] == 1

    def test_head_decision_is_deterministic_hash(self):
        buf = TraceBuffer(8, sample_rate=0.5)
        low = "00000001" + "ab" * 12  # hashes under 0.5
        high = "ffffffff" + "ab" * 12  # hashes over 0.5
        assert buf.head_decision(low) is True
        assert buf.head_decision(high) is False

    def test_upstream_sampled_flag_overrides_hash(self):
        buf = TraceBuffer(8, sample_rate=0.0)
        kept = buf.finish(
            "ab" * 16, status=200, wall_seconds=0.01, sampled=True
        )
        assert kept is not None and kept.kept == "sampled"

    def test_ring_evicts_oldest(self):
        buf = TraceBuffer(2, sample_rate=1.0)
        ids = [f"{i:08x}" + "ab" * 12 for i in range(3)]
        for tid in ids:
            buf.finish(tid, status=200, wall_seconds=0.01)
        assert buf.get(ids[0]) is None
        assert buf.get(ids[1]) is not None
        assert [t.trace_id for t in buf.list()] == [ids[2], ids[1]]
