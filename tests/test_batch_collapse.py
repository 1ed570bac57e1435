"""Tests for the round-based batched collapse kernel and lineage replay."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics import cross_level_errors
from repro.errors import DecimationError
from repro.mesh import (
    KERNELS,
    TriangleMesh,
    batch_collapse,
    decimate,
    decimate_batched,
)
from repro.mesh.generators import annulus, disk, structured_rectangle
from repro.obs import trace_session
from repro.simulations import make_xgc1

_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestBatchedKernel:
    def test_registered_kernel_names(self):
        assert KERNELS == ("serial", "batched")

    def test_reaches_target_ratio(self):
        mesh = structured_rectangle(30, 30, jitter=0.2, seed=7)
        result = decimate_batched(mesh, None, ratio=4.0)
        assert result.achieved_ratio == pytest.approx(4.0, rel=0.05)
        assert not result.exhausted

    def test_dispatch_through_decimate(self):
        mesh = structured_rectangle(15, 15)
        direct = decimate_batched(mesh, None, ratio=2.0)
        routed = decimate(mesh, None, ratio=2.0, method="batched")
        assert np.array_equal(direct.mesh.vertices, routed.mesh.vertices)
        assert np.array_equal(direct.mesh.triangles, routed.mesh.triangles)

    def test_unknown_method_rejected(self):
        mesh = structured_rectangle(5, 5)
        with pytest.raises(DecimationError, match="unknown decimation method"):
            decimate(mesh, None, ratio=2.0, method="bogus")

    def test_output_mesh_is_valid(self):
        mesh = disk(500, seed=3, jitter=0.3)
        result = decimate_batched(mesh, None, ratio=4.0)
        # Full validation: consistent indices, no degenerate/duplicate
        # triangles, positive areas after canonical orientation.
        TriangleMesh(result.mesh.vertices, result.mesh.triangles)

    def test_fields_follow_the_mesh(self):
        mesh = structured_rectangle(20, 20, jitter=0.1, seed=1)
        field = np.sin(mesh.vertices[:, 0] * 5) * np.cos(mesh.vertices[:, 1])
        result = decimate_batched(mesh, {"f": field}, ratio=2.0)
        assert set(result.fields) == {"f"}
        assert len(result.fields["f"]) == result.mesh.num_vertices
        # Midpoint averaging keeps values inside the fine field's range.
        assert result.fields["f"].min() >= field.min() - 1e-12
        assert result.fields["f"].max() <= field.max() + 1e-12

    def test_boundary_disk_stays_disk(self):
        """Collapses touching boundary edges must not tear the hull open."""
        mesh = disk(400, seed=1)
        assert mesh.euler_characteristic() == 1
        result = decimate_batched(mesh, None, ratio=4.0)
        out = result.mesh
        TriangleMesh(out.vertices, out.triangles)
        assert out.euler_characteristic() == 1
        assert len(out.boundary_vertices) >= 3
        # The coarse hull stays inside the fine bounding box (midpoint
        # placement never extrapolates).
        lo, hi = mesh.bounding_box()
        clo, chi = out.bounding_box()
        assert np.all(clo >= lo - 1e-12) and np.all(chi <= hi + 1e-12)

    def test_link_condition_retries_eventually_collapse(self):
        """Blocked edges are penalized and retried, not dropped: the
        kernel still reaches the target ratio after skipping."""
        mesh = structured_rectangle(20, 20)
        result = decimate_batched(mesh, None, ratio=8.0)
        assert result.queue_stats["link_skips"] > 0
        assert not result.exhausted
        assert result.achieved_ratio == pytest.approx(8.0, rel=0.1)

    def test_rounds_are_few(self):
        """The whole point of batching: rounds ≪ collapses."""
        mesh = structured_rectangle(40, 40, jitter=0.2, seed=2)
        result = decimate_batched(mesh, None, ratio=2.0)
        assert result.queue_stats["rounds"] <= 15
        assert result.collapses > 30 * result.queue_stats["rounds"] / 15

    def test_annulus_decimates_validly(self):
        mesh = annulus(10, 36)
        result = decimate_batched(mesh, None, ratio=4.0)
        TriangleMesh(result.mesh.vertices, result.mesh.triangles)
        assert result.achieved_ratio == pytest.approx(4.0, rel=0.1)

    def test_bad_ratio_rejected(self):
        with pytest.raises(DecimationError):
            decimate_batched(structured_rectangle(5, 5), None, ratio=0.5)

    @pytest.mark.parametrize("method", KERNELS)
    @pytest.mark.parametrize("ratio", [np.nan, np.inf])
    def test_non_finite_ratio_rejected(self, method, ratio):
        # NaN used to fail in int() with a bare ValueError; inf decimated
        # silently to 3 vertices.
        with pytest.raises(DecimationError, match="finite"):
            decimate(structured_rectangle(5, 5), None, ratio=ratio, method=method)

    def test_field_length_mismatch_rejected(self):
        mesh = structured_rectangle(5, 5)
        with pytest.raises(DecimationError, match="values for"):
            decimate_batched(mesh, {"f": np.zeros(7)}, ratio=2.0)

    def test_deterministic_across_runs(self):
        """Hash-based ranks are seedless: two runs are bit-identical."""
        mesh = disk(600, seed=9, jitter=0.4)
        a = decimate_batched(mesh, None, ratio=4.0)
        b = decimate_batched(mesh, None, ratio=4.0)
        assert np.array_equal(a.mesh.vertices, b.mesh.vertices)
        assert np.array_equal(a.mesh.triangles, b.mesh.triangles)


class TestLineageReplay:
    @settings(**_SETTINGS)
    @given(
        nx=st.integers(8, 20),
        ny=st.integers(8, 20),
        seed=st.integers(0, 1000),
        method=st.sampled_from(KERNELS),
    )
    def test_replay_bit_identical_to_direct(self, nx, ny, seed, method):
        """Replaying the recorded collapse sequence on a field produces
        exactly the bytes direct decimation-with-fields produces."""
        mesh = structured_rectangle(nx, ny, jitter=0.3, seed=seed)
        rng = np.random.default_rng(seed)
        field = rng.normal(size=mesh.num_vertices)

        direct = decimate(
            mesh, {"f": field}, ratio=2.0, method=method,
            record_lineage=True,
        )
        replayed = direct.lineage.replay(field)
        assert replayed.dtype == np.float64
        assert np.array_equal(replayed, direct.fields["f"])

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 1000), method=st.sampled_from(KERNELS))
    def test_replay_stacked_planes(self, seed, method):
        mesh = structured_rectangle(12, 12, jitter=0.2, seed=seed)
        rng = np.random.default_rng(seed)
        planes = rng.normal(size=(3, mesh.num_vertices))

        geom = decimate(mesh, None, ratio=2.0, method=method,
                        record_lineage=True)
        stacked = geom.lineage.replay(planes)
        assert stacked.shape == (3, geom.mesh.num_vertices)
        for p in range(3):
            assert np.array_equal(stacked[p], geom.lineage.replay(planes[p]))

    def test_geometry_free_lineage_matches_with_fields(self):
        """decimate(fields=None) records the same sequence as
        decimate(fields=...) for the length priority."""
        mesh = disk(300, seed=5)
        field = mesh.vertices[:, 0] ** 2
        for method in KERNELS:
            geom = decimate(mesh, None, ratio=2.0, method=method,
                            record_lineage=True)
            with_f = decimate(mesh, {"f": field}, ratio=2.0, method=method)
            assert np.array_equal(
                geom.lineage.replay(field), with_f.fields["f"]
            )

    def test_lineage_absent_without_flag(self):
        result = decimate_batched(structured_rectangle(8, 8), None, ratio=2.0)
        assert result.lineage is None


class TestQueueObservability:
    def test_serial_queue_counters_on_tracer(self):
        with trace_session(None) as tracer:
            decimate(
                structured_rectangle(15, 15), None, ratio=2.0, method="serial"
            )
        snap = tracer.metrics.snapshot()
        assert snap["decimate.queue.pushes"] > 0
        assert snap["decimate.queue.stale_pops"] >= 0
        assert "decimate.queue.heap_size" in snap

    def test_batched_round_counters_on_tracer(self):
        with trace_session(None) as tracer:
            decimate(
                structured_rectangle(15, 15), None, ratio=2.0,
                method="batched",
            )
        snap = tracer.metrics.snapshot()
        assert snap["decimate.batched.rounds"] > 0
        assert snap["decimate.batched.collapses"] > 0

    def test_no_tracer_no_error(self):
        # The metrics hook must be a no-op outside a trace session.
        decimate(structured_rectangle(8, 8), None, ratio=2.0)
        decimate(structured_rectangle(8, 8), None, ratio=2.0, method="batched")


def _area2(vertices, triangles):
    """Twice the signed area of each triangle, in the order given."""
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    return (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
        b[:, 1] - a[:, 1]
    ) * (c[:, 0] - a[:, 0])


def _thin_strip():
    """Jittered grid whose last column of cells is 2 % of a cell wide:
    the shortest edges of the mesh all sit on the boundary."""
    nx, ny = 31, 30
    grid = structured_rectangle(nx, ny, jitter=0.25, seed=5)
    x, y = grid.vertices[:, 0].copy(), grid.vertices[:, 1]
    dx = 1.0 / (nx - 1)
    kink = 1.0 - 0.87 * dx  # right of every jittered interior vertex
    x[x > kink] = kink + 0.02 * (x[x > kink] - kink)
    vertices = np.column_stack([x, y])
    assert (_area2(vertices, grid.triangles) > 0).all()
    mesh = TriangleMesh(vertices, grid.triangles)
    return mesh, np.sin(3 * x) * np.cos(2 * y)


def _smooth_disk():
    mesh = disk(2000, seed=0)
    return mesh, np.sin(mesh.vertices[:, 0] * 2)


def _xgc1_annulus():
    plane = make_xgc1(scale=0.15)
    return plane.mesh, plane.field


_FIXTURES = {"disk": _smooth_disk, "xgc1": _xgc1_annulus, "strip": _thin_strip}


@pytest.fixture(scope="module", params=sorted(_FIXTURES))
def guarded(request):
    return _FIXTURES[request.param]()


class TestFlipGuard:
    """The batched kernel's third guard: no flips, no slivers."""

    @pytest.mark.parametrize("ratio", [2.0, 4.0])
    @pytest.mark.parametrize("placement", ["midpoint", "endpoint"])
    def test_raw_triangles_keep_their_orientation(
        self, guarded, ratio, placement, monkeypatch
    ):
        """Checked on the kernel's own ``tris``: the mesh constructor's
        CCW pass would re-orient a flipped triangle and hide it."""
        mesh, _ = guarded
        monkeypatch.setattr(
            TriangleMesh, "_orient_ccw", staticmethod(lambda v, t: t)
        )
        out = decimate_batched(mesh, None, ratio=ratio, placement=placement).mesh
        assert (_area2(out.vertices, out.triangles) > 0).all()

    def test_one_round_keeps_the_area_fraction(self, guarded):
        """The invariant the guard enforces, where it is exact: within
        one round every surviving triangle keeps at least the constant's
        share of its area (across rounds the factor may compound)."""
        mesh, _ = guarded
        result = decimate_batched(mesh, None, ratio=1.04, record_lineage=True)
        lineage = result.lineage
        assert result.queue_stats["rounds"] == 1 and lineage.num_groups == 1
        final = np.arange(lineage.n_fine + lineage.num_merges)
        final[lineage.src_u] = final[lineage.src_v] = lineage.dst
        coarse = np.full(len(final), -1)
        coarse[lineage.alive_ids] = np.arange(lineage.n_coarse)
        moved = coarse[final[mesh.triangles]]
        assert (moved >= 0).all()
        alive = (
            (moved[:, 0] != moved[:, 1])
            & (moved[:, 1] != moved[:, 2])
            & (moved[:, 0] != moved[:, 2])
        )
        assert alive.sum() == result.mesh.num_triangles
        before = _area2(mesh.vertices, mesh.triangles)[alive]
        after = _area2(result.mesh.vertices, moved[alive])
        assert (after >= batch_collapse._MIN_AREA_FRACTION * before).all()

    def test_rejections_are_counted(self, guarded):
        mesh, _ = guarded
        with trace_session(None) as tracer:
            result = decimate_batched(mesh, None, ratio=4.0)
        rejects = result.queue_stats["flip_rejects"]
        assert rejects > 0  # every fixture needs the guard
        assert (
            tracer.metrics.snapshot()["decimate.batched.flip_rejects"]
            == rejects
        )
        assert not result.exhausted
        assert result.achieved_ratio == pytest.approx(4.0, rel=0.05)

    def test_guard_is_what_keeps_orientation(self, monkeypatch):
        """Without the guard the same pass does flip: the test above
        would not pass by construction."""
        mesh, _ = _smooth_disk()
        monkeypatch.setattr(
            TriangleMesh, "_orient_ccw", staticmethod(lambda v, t: t)
        )
        monkeypatch.setattr(
            batch_collapse, "_flip_rejects",
            lambda pos, tris, su, sv, merged: np.zeros(len(su), dtype=bool),
        )
        out = decimate_batched(mesh, None, ratio=4.0).mesh
        assert (_area2(out.vertices, out.triangles) <= 0).any()

    def test_lineage_replay_matches_guarded_coarsening(self, guarded):
        mesh, field = guarded
        result = decimate_batched(
            mesh, {"f": field}, ratio=4.0, record_lineage=True
        )
        assert result.queue_stats["flip_rejects"] > 0
        assert np.array_equal(result.lineage.replay(field), result.fields["f"])

    @pytest.mark.parametrize("ratio", [2.0, 4.0])
    def test_error_within_twice_the_reference_kernel(self, guarded, ratio):
        mesh, field = guarded
        nrmse = {}
        for method in KERNELS:
            res = decimate(mesh, field, ratio=ratio, method=method)
            nrmse[method] = cross_level_errors(
                res.mesh, res.fields["data"], mesh, field
            ).nrmse
        assert nrmse["batched"] <= 2.0 * nrmse["serial"]

    def test_output_order_follows_the_fine_mesh(self, guarded):
        """Survivors are numbered by their smallest fine descendant, so
        the stored index arrays keep the input's locality."""
        mesh, _ = guarded
        lineage = decimate_batched(
            mesh, None, ratio=2.0, record_lineage=True
        ).lineage
        root = np.arange(lineage.n_fine + lineage.num_merges)
        for g in range(lineage.num_groups):
            sl = slice(lineage.group_offsets[g], lineage.group_offsets[g + 1])
            root[lineage.dst[sl]] = np.minimum(
                root[lineage.src_u[sl]], root[lineage.src_v[sl]]
            )
        assert (np.diff(root[lineage.alive_ids]) > 0).all()


class TestTriangleDedupe:
    """``_dedupe_triangles``: the round's duplicate-face filter, which
    returns the rows to keep."""

    def test_faces_whose_packed_keys_wrap_stay_distinct(self):
        n = 2**22
        t = np.array(
            [[1, 2**21 + 5, 2**21 + 6], [1 + 2**20, 2**21 + 5, 2**21 + 6]]
        )
        # (c0*n + c1)*n + c2 differs by 2**20 * n * n = 2**64 between the
        # two faces, so in int64 the two keys are equal.
        packed = (t[:, 0] * n + t[:, 1]) * n + t[:, 2]
        assert packed[0] == packed[1]
        np.testing.assert_array_equal(batch_collapse._dedupe_triangles(t, n), [0, 1])

    @pytest.mark.parametrize("n", [7, 2**22])
    def test_first_occurrence_kept_in_order(self, n):
        t = np.array([[3, 1, 2], [4, 5, 6], [2, 3, 1], [6, 4, 5], [0, 1, 2]])
        np.testing.assert_array_equal(
            batch_collapse._dedupe_triangles(t, n), [0, 1, 4]
        )

    def test_no_faces(self):
        t = np.empty((0, 3), dtype=np.int32)
        assert batch_collapse._dedupe_triangles(t, 7).shape == (0,)
