"""Accuracy-aware retrieval planner + summary pushdown (repro.query).

Everything here runs against a *cold-opened* dataset: the campaign is
encoded, closed, and re-opened from the catalog, so every summary the
planner consumes must have survived the catalog round-trip (the
sidecar-metadata contract of the paper's §III-C). Covers:

* :class:`ChunkStats` NaN safety and exact chunk merging;
* summary pruning (blob screen, significance) over the persisted
  summaries;
* :class:`QueryPlanner` — certified stopping levels, bit-identity with
  the measure-as-you-go loop (``tests/oracle/progressive.py``), chunk
  pruning, explainable
  plans, and the no-summaries fallback;
* query-shape validation (:class:`QueryError` for bad tolerance/region);
* pushdown statistics/blob queries with zero restores on pruned paths;
* a plan's fetched subfiles, noted in an ``AccessTracker``, weigh in
  ``PlacementEngine.plan_replacement``.
"""

import json
import math

import numpy as np
import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.core.decimation_plan import _spatial_chunks
from repro.core.decoder import CanopusDecoder
from repro.core.restored_cache import get_geometry_cache, get_restored_cache
from repro.errors import QueryError, RestorationError
from repro.io import BPDataset
from repro.io.query import ChunkStats
from repro.query import (
    blob_query,
    normalize_region,
    parse_region,
    parse_shape,
    stats_query,
)
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan
from repro.storage.placement import PlacementEngine
from repro.storage.policy import AccessTracker

from tests.oracle.progressive import measured_restore

CHUNKS = 16
LEVELS = 3


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Encoded + closed + cold-reopened XGC1 campaign."""
    ds = make_xgc1(scale=0.4)
    h = two_tier_titan(
        tmp_path_factory.mktemp("planner"), fast_capacity=32 << 20,
        slow_capacity=1 << 34,
    )
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"},
        chunks=CHUNKS,
    )
    enc.encode("q", "dpot", ds.mesh, ds.field, LevelScheme(LEVELS))
    get_restored_cache().clear()
    get_geometry_cache().clear()
    yield ds, h
    get_restored_cache().clear()
    get_geometry_cache().clear()


@pytest.fixture()
def handle(campaign):
    _, h = campaign
    with Session(h, use_restored_cache=False) as session:
        yield session.open("q")


def _fresh(handle):
    """A decoder sharing no instance state with ``handle``'s."""
    return CanopusDecoder(handle.dataset, share_geometry=True)


def _roi(ds, half):
    center = ds.mesh.vertices[int(np.argmax(ds.field))]
    return center - half, center + half


# ---------------------------------------------------------------------------
class TestChunkStats:
    def test_nan_values_are_excluded(self):
        values = np.array([1.0, np.nan, -3.0, np.inf, 2.0, -np.inf])
        stats = ChunkStats.of(values)
        assert stats.vmin == -3.0
        assert stats.vmax == 2.0
        assert stats.vabs_max == 3.0
        assert stats.count == 3
        assert stats.mean == pytest.approx(0.0)
        assert stats.rms == pytest.approx(math.sqrt(14.0 / 3.0))

    def test_all_nan_chunk_reports_empty(self):
        stats = ChunkStats.of(np.full(8, np.nan))
        assert stats.count == 0
        assert stats.vmin == stats.vmax == stats.vabs_max == 0.0
        assert stats.mean == 0.0 and stats.rms == 0.0

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(100), rng.standard_normal(37) * 5
        merged = ChunkStats.merge([ChunkStats.of(a), ChunkStats.of(b)])
        whole = ChunkStats.of(np.concatenate([a, b]))
        for field in ("vmin", "vmax", "vabs_max", "count"):
            assert getattr(merged, field) == getattr(whole, field)
        assert merged.rms == pytest.approx(whole.rms)
        assert merged.mean == pytest.approx(whole.mean)

    def test_merge_ignores_empty_parts(self):
        a = ChunkStats.of(np.array([1.0, 2.0]))
        empty = ChunkStats.of(np.full(4, np.nan))
        merged = ChunkStats.merge([a, empty])
        assert merged.count == 2 and merged.vmax == 2.0

    def test_legacy_three_field_summaries_deserialize(self):
        raw = {"vmin": -1.0, "vmax": 2.0, "vabs_max": 2.0}
        stats = ChunkStats(**raw)
        assert stats.count == 0
        assert stats.rms == 0.0


# ---------------------------------------------------------------------------
class TestSummariesCold:
    """Summary pruning over the cold-opened catalog (no payload I/O)."""

    def test_blob_pruned_chunks_cannot_hold_a_value_above_threshold(
        self, campaign, handle
    ):
        ds, h = campaign
        chunks = _spatial_chunks(ds.mesh.vertices, CHUNKS)
        assert len(chunks) == CHUNKS
        before = h.clock.bytes_moved(op="read")
        assert blob_query(handle, "dpot", threshold=np.inf)["pruned_chunks"] == (
            CHUNKS
        )
        assert h.clock.bytes_moved(op="read") == before
        with pytest.raises(QueryError):  # NaN compares false to every bound
            blob_query(handle, "dpot", threshold=np.nan)
        threshold = float(np.quantile(ds.field, 0.75))
        result = blob_query(handle, "dpot", threshold=threshold, shape=(32, 32))
        # Pruned exactly where no original value reaches the threshold.
        below = sum(1 for idx in chunks if ds.field[idx].max() < threshold)
        assert result["pruned_chunks"] == below > 0
        assert result["candidate_chunks"] == CHUNKS - below > 0

    def test_significance_skips_chunks_monotonically(self, handle):
        planner = handle.planner
        pruned = [
            planner.plan_restore(
                "dpot", level=0, min_significance=m
            ).pruned_chunks
            for m in (0.0, 1e-3, 1e-2, 1e-1)
        ]
        assert pruned == sorted(pruned)
        assert pruned[0] == 0 < pruned[-1]

    def test_plan_accounts_bytes(self, campaign, handle):
        ds, _ = campaign
        planner = handle.planner
        full = planner.plan_restore("dpot", level=0)
        pruned = planner.plan_restore(
            "dpot", level=0, min_significance=float(ds.field.max()) * 2
        )
        assert full.skipped_bytes == 0 < pruned.skipped_bytes
        assert pruned.planned_bytes < full.planned_bytes
        assert pruned.planned_bytes + pruned.skipped_bytes == full.planned_bytes

    def test_every_payload_product_has_a_summary(self, campaign):
        _, h = campaign
        dataset = BPDataset.open("q", h)
        for key in dataset.keys():
            rec = dataset.inq(key)
            if rec.kind in ("base", "delta", "chunk"):
                stats = rec.attrs.get("stats")
                assert stats is not None, key
                assert stats["count"] > 0


# ---------------------------------------------------------------------------
class TestPlanner:
    def test_certified_target_matches_progressive_loop(self, campaign, handle):
        planner = handle.planner
        plan = planner.plan_restore("dpot", tolerance=1e-3)
        assert plan.complete and plan.mode == "tolerance"
        legacy = measured_restore(handle.decoder, "dpot", 1e-3)
        assert plan.target_level == legacy.level

    def test_bit_identity_unfiltered(self, campaign, handle):
        state, plan = handle.planner.restore("dpot", tolerance=1e-3)
        legacy = measured_restore(_fresh(handle), "dpot", 1e-3)
        assert state.level == legacy.level
        assert np.array_equal(state.field, legacy.field)
        assert state.last_delta_rms == legacy.last_delta_rms

    def test_met_tolerance_stops_early_within_bound(self, campaign, handle):
        planner = handle.planner
        # Pick a tolerance the coarsest refinement provably satisfies.
        coarse = planner.plan_restore("dpot", tolerance=1e-6)
        base_level = handle.decoder.scheme("dpot").base_level
        tol = coarse.level_rms[base_level - 1] * 1.01
        state, plan = planner.restore("dpot", tolerance=tol)
        assert plan.target_level == base_level - 1
        assert state.level == base_level - 1
        assert state.last_delta_rms <= tol
        legacy = measured_restore(_fresh(handle), "dpot", tol)
        assert np.array_equal(state.field, legacy.field)

    def test_bit_identity_with_region(self, campaign, handle):
        ds, _ = campaign
        region = _roi(ds, 0.3)
        state, plan = handle.planner.restore(
            "dpot", tolerance=1e-3, region=region
        )
        legacy = measured_restore(_fresh(handle), "dpot", 1e-3, region=region)
        assert np.array_equal(state.field, legacy.field)
        assert plan.pruned_chunks > 0

    def test_exact_level_plan_is_bit_identical(self, campaign, handle):
        planner = handle.planner
        state, plan = planner.restore("dpot", level=0)
        full = _fresh(handle).restore_to("dpot", 0)
        assert np.array_equal(state.field, full.field)
        assert plan.mode == "level" and plan.skipped_bytes == 0

    def test_loose_tolerance_skips_finer_levels(self, campaign, handle):
        planner = handle.planner
        loose = planner.plan_restore("dpot", tolerance=10.0)
        tight = planner.plan_restore("dpot", tolerance=1e-6)
        assert loose.target_level > 0
        assert loose.skipped_levels
        assert loose.planned_bytes < tight.planned_bytes
        skipped_keys = {
            d.key for d in loose.decisions if not d.fetched
        }
        assert not skipped_keys & set(loose.fetch_keys())

    def test_plan_is_explainable_and_serializable(self, campaign, handle):
        ds, _ = campaign
        plan = handle.planner.plan_restore(
            "dpot", tolerance=1e-3, region=_roi(ds, 0.2)
        )
        text = plan.explain()
        assert "retrieval plan for 'dpot'" in text
        assert "bbox outside region" in text
        doc = json.loads(json.dumps(plan.to_dict()))
        assert doc["pruned_chunks"] == plan.pruned_chunks
        assert doc["planned_bytes"] == plan.planned_bytes
        assert len(doc["decisions"]) == len(plan.decisions)

    def test_missing_summaries_fall_back(self, handle):
        for key in handle.dataset.keys():
            handle.dataset.inq(key).attrs.pop("stats", None)
        plan = handle.planner.plan_restore("dpot", tolerance=1e-3)
        assert not plan.complete

    def test_session_restore_uses_planner_and_falls_back(self, campaign):
        _, h = campaign
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("q")
            planned = handle.restore("dpot", tolerance=1e-3)
            # Strip the summaries: the same call must route through the
            # measure-as-you-go loop and produce the same field.
            for key in handle.dataset.keys():
                handle.dataset.inq(key).attrs.pop("stats", None)
            assert not handle.plan("dpot", tolerance=1e-3).complete
            legacy = handle.restore("dpot", tolerance=1e-3)
            assert np.array_equal(planned.field, legacy.field)

    def test_resident_result_prefetches_nothing(self, campaign):
        """A plan whose result is in the restored cache reads no bytes,
        so it must not prefetch any either on a cold range cache."""
        ds, h = campaign
        request = {"tolerance": 1e-3, "region": _roi(ds, 0.3)}
        try:
            with Session(h) as session:
                handle = session.open("q")
                first = handle.restore("dpot", **request)
                handle.dataset.engine.cache.clear()
                elapsed = h.clock.elapsed
                stats = handle.dataset.engine_stats().snapshot()
                again = handle.restore("dpot", **request)
                assert again.field.tobytes() == first.field.tobytes()
                assert h.clock.elapsed == elapsed
                after = handle.dataset.engine_stats().snapshot()
                assert after["bytes_from_tier"] == stats["bytes_from_tier"]
        finally:
            get_restored_cache().clear()


# ---------------------------------------------------------------------------
def _same_signature_boxes(handle):
    """Two boxes that keep the same chunks at every level, and a third
    that keeps others (all three prune something)."""
    chain = handle.decoder.chain("dpot")
    by_signature = {}
    for cx in np.linspace(-0.9, 0.9, 13):
        for cy in np.linspace(-0.9, 0.9, 13):
            box = ((cx - 0.05, cy - 0.05), (cx + 0.05, cy + 0.05))
            signature = chain.filter_signature(handle.dataset.catalog, 0, box)
            if signature:
                by_signature.setdefault(signature, []).append(box)
    shared = max(by_signature.values(), key=len)
    other = next(b for b in by_signature.values() if b is not shared)
    return shared[0], shared[1], other[0]


@pytest.fixture()
def counted_plans(handle, monkeypatch):
    """A planner whose every ``_plan`` call is recorded."""
    planner = handle.planner
    calls = []
    plan = planner._plan

    def counted(*args):
        calls.append(args)
        return plan(*args)

    monkeypatch.setattr(planner, "_plan", counted)
    return planner, calls


class TestResolutionMemo:
    def test_one_plan_per_tolerance_and_signature(self, counted_plans, handle):
        planner, calls = counted_plans
        box, twin, _ = _same_signature_boxes(handle)
        assert planner.resolved("dpot", tolerance=1e-3, region=box) is None
        first = planner.plan_restore("dpot", tolerance=1e-3, region=box)
        assert len(calls) == 1
        # The twin box keeps the same chunks: its level is already known.
        for region in (box, twin):
            assert planner.resolved(
                "dpot", tolerance=1e-3, region=region
            ) == first.target_level
        assert len(calls) == 1
        assert (planner.resolutions.hits, planner.resolutions.misses) == (2, 1)
        # Plans are never memoised: each explains the box it was asked.
        plan = planner.plan_restore("dpot", tolerance=1e-3, region=twin)
        assert len(calls) == 2
        assert plan.region == tuple(list(map(float, b)) for b in twin)
        assert plan.target_level == first.target_level

    def test_tolerance_significance_and_signature_are_separate_entries(
        self, counted_plans, handle
    ):
        planner, calls = counted_plans
        box, _, other = _same_signature_boxes(handle)
        selections = [
            {"tolerance": 1e-3, "region": box},
            {"tolerance": 1e-2, "region": box},
            {"tolerance": 1e-3, "region": box, "min_significance": 1e-3},
            {"tolerance": 1e-3, "region": other},
        ]
        for selection in selections * 2:
            if planner.resolved("dpot", **selection) is None:
                planner.plan_restore("dpot", **selection)
        assert len(calls) == len(planner.resolutions) == len(selections)

    def test_a_level_plan_is_not_memoised(self, counted_plans, handle):
        # A level is its own target: nothing reads a memoised one.
        planner, calls = counted_plans
        for level in (0, 1, 2):
            assert handle.plan("dpot", level=level).complete
        assert len(calls) == 3
        assert len(planner.resolutions) == 0

    def test_memo_is_bounded_and_counts_evictions(self, counted_plans):
        planner, calls = counted_plans
        planner.resolutions.budget = 2
        for tolerance in (1e-1, 1e-2, 1e-3):
            planner.plan_restore("dpot", tolerance=tolerance)
        assert len(planner.resolutions) == 2
        assert planner.resolutions.evictions == 1
        # The least recent went first: asking for it plans again.
        assert planner.resolved("dpot", tolerance=1e-1) is None
        assert planner.resolved("dpot", tolerance=1e-3) is not None
        planner.plan_restore("dpot", tolerance=1e-1)
        assert len(calls) == 4

    def test_an_incomplete_plan_is_not_memoised(self, handle):
        for key in handle.dataset.keys():
            handle.dataset.inq(key).attrs.pop("stats", None)
        planner = handle.planner
        assert not planner.plan_restore("dpot", tolerance=1e-3).complete
        assert len(planner.resolutions) == 0
        assert planner.resolved("dpot", tolerance=1e-3) is None


# ---------------------------------------------------------------------------
class TestValidation:
    def test_non_positive_tolerance_rejected(self, campaign):
        _, h = campaign
        with Session(h) as session:
            handle = session.open("q")
            for bad in (0.0, -1.0):
                with pytest.raises(QueryError):
                    handle.restore("dpot", tolerance=bad)

    @pytest.mark.parametrize("selection", [
        {"tolerance": math.nan},
        {"min_significance": -1.0},
        {"min_significance": math.nan},
        {"level": 0, "min_significance": math.nan},
    ])
    def test_nan_tolerance_and_bad_significance_rejected(
        self, campaign, selection
    ):
        """A NaN compares false against every bound: it must be refused,
        not restored at full accuracy, and must leave no memo entry."""
        _, h = campaign
        with Session(h) as session:
            handle = session.open("q")
            for _ in range(4):
                with pytest.raises(QueryError):
                    handle.restore("dpot", **selection)
                with pytest.raises(QueryError):
                    handle.plan("dpot", **selection)
            assert len(handle.planner.resolutions) == 0

    def test_infinite_tolerance_is_accepted(self, campaign):
        """``tolerance=inf`` stops at the first certified level."""
        _, h = campaign
        with Session(h, use_restored_cache=False) as session:
            handle = session.open("q")
            plan = handle.plan("dpot", tolerance=math.inf)
            assert plan.complete and plan.target_level > 0
            state = handle.restore("dpot", tolerance=math.inf)
            assert state.level == plan.target_level

    def test_query_error_is_a_value_error_with_400_code(self):
        from repro.errors import error_code, http_status

        exc = QueryError("nope")
        assert isinstance(exc, ValueError)
        assert error_code(exc) == "bad-request"
        assert http_status(exc) == 400

    def test_empty_region_rejected(self, campaign):
        _, h = campaign
        with Session(h) as session:
            handle = session.open("q")
            with pytest.raises(QueryError):
                handle.restore("dpot", region=((5.0, 5.0), (1.0, 1.0)))
            with pytest.raises(QueryError):
                handle.restore("dpot", region=((0.0,), (1.0,)))
            with pytest.raises(QueryError):
                handle.restore(
                    "dpot", region=((np.nan, 0.0), (1.0, 1.0))
                )

    def test_normalize_region_passthrough(self):
        assert normalize_region(None) is None
        lo, hi = normalize_region(((0, 0), (1, 1)))
        assert lo.dtype == np.float64 and hi.shape == (2,)

    def test_text_region_and_shape(self):
        """One syntax for ``region=``/``shape=``, on the CLI and the wire."""
        assert parse_region(None) is None and parse_region("") is None
        lo, hi = parse_region("-1,0.5:2,3")
        assert lo.tolist() == [-1.0, 0.5] and hi.tolist() == [2.0, 3.0]
        for bad in ("0,0", "a,0:1,1", "0,0,0:1,1,1", "1,1:0,0", "0,0:inf,1"):
            with pytest.raises(QueryError):
                parse_region(bad)
        assert parse_shape(None) == parse_shape("") == (128, 128)
        assert parse_shape("32,64") == (32, 64)
        assert parse_shape("1024,1024") == (1024, 1024)
        for bad in ("32", "32,x", "0,32", "1,2,3", "1025,1024", "99999,99999"):
            with pytest.raises(QueryError):
                parse_shape(bad)

    def test_level_and_tolerance_conflict(self, campaign, handle):
        with pytest.raises(RestorationError):
            handle.planner.plan_restore("dpot", level=1, tolerance=0.1)


# ---------------------------------------------------------------------------
class TestPushdown:
    def test_whole_variable_stats_zero_restores(self, campaign, handle):
        ds, h = campaign
        before = h.clock.bytes_moved(op="read")
        result = stats_query(handle, "dpot")
        assert result["pushdown"] is True and result["restores"] == 0
        assert h.clock.bytes_moved(op="read") == before
        assert result["stats"]["vmax"] == pytest.approx(float(ds.field.max()))
        assert result["stats"]["vmin"] == pytest.approx(float(ds.field.min()))
        assert result["stats"]["mean"] == pytest.approx(float(ds.field.mean()))
        assert result["stats"]["count"] == ds.field.size

    def test_windowed_stats_prune_without_restores(self, campaign, handle):
        ds, h = campaign
        region = _roi(ds, 0.3)
        before = h.clock.bytes_moved(op="read")
        result = stats_query(handle, "dpot", region=region)
        assert result["pushdown"] is True and result["restores"] == 0
        assert h.clock.bytes_moved(op="read") == before
        assert result["pruned_chunks"] > 0
        assert result["granularity"] == "chunk"
        # Chunk-granular window covers at least the exact window max.
        lo, hi = region
        v = ds.mesh.vertices
        mask = (
            (v[:, 0] >= lo[0]) & (v[:, 0] <= hi[0])
            & (v[:, 1] >= lo[1]) & (v[:, 1] <= hi[1])
        )
        assert result["stats"]["vmax"] >= float(ds.field[mask].max()) - 1e-12

    def test_stats_fallback_without_summaries(self, handle):
        for key in handle.dataset.keys():
            handle.dataset.inq(key).attrs.pop("stats", None)
        meta = handle.dataset.catalog.attrs["variables"]["dpot"]
        meta.pop("field_stats", None)
        result = stats_query(handle, "dpot")
        assert result["pushdown"] is False and result["restores"] == 1

    def test_blob_query_above_max_restores_nothing(self, campaign, handle):
        ds, h = campaign
        before = h.clock.bytes_moved(op="read")
        result = blob_query(
            handle, "dpot", threshold=float(ds.field.max()) * 2 + 1
        )
        assert result["count"] == 0 and result["restores"] == 0
        assert result["pruned_chunks"] == CHUNKS
        assert h.clock.bytes_moved(op="read") == before

    def test_blob_query_survivors_one_focused_restore(self, campaign, handle):
        ds, _ = campaign
        threshold = float(np.quantile(ds.field, 0.995))
        result = blob_query(handle, "dpot", threshold=threshold)
        assert result["restores"] == 1
        assert result["count"] >= 1
        lo, hi = ds.mesh.bounding_box()
        for blob in result["blobs"]:
            x, y = blob["center"]
            assert lo[0] <= x <= hi[0] and lo[1] <= y <= hi[1]


# ---------------------------------------------------------------------------
class TestElasticFeedback:
    def test_query_workload_shifts_plan_replacement(self, campaign, handle):
        _, h = campaign
        planner = handle.planner
        cold = PlacementEngine(h).plan_replacement(AccessTracker())
        assert all(d.weight == 0.0 for d in cold.decisions)

        plan = planner.plan_restore("dpot", tolerance=1e-3)
        touched = {
            handle.dataset.inq(k).subfile for k in plan.fetch_keys()
        } - {None, ""}
        assert touched
        tracker = AccessTracker()
        for _ in range(5):
            for subfile in touched:
                tracker.note(subfile, h.clock.elapsed)
        hot = PlacementEngine(h).plan_replacement(tracker)
        hot_weights = {d.key: d.weight for d in hot.decisions}
        assert all(hot_weights[s] > 0 for s in touched)
        assert max(hot_weights.values()) > 0
