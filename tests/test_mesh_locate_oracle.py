"""Blocked, prefiltered point location against the unblocked reference.

``TriangleLocator.locate`` runs in fixed-size point blocks and drops
(point, candidate) pairs whose point lies outside the candidate's
widened bounding box before the barycentric solve. Both are meant to be
invisible: every triangle id and every barycentric bit must equal
``tests/oracle/locate.py``, which pairs all points with all candidates
at once. The memory tests pin what the blocking buys.
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PointLocationError
from repro.mesh import TriangleLocator, TriangleMesh, decimate_batched, locate
from repro.mesh.generators import annulus, structured_rectangle
from repro.simulations import make_xgc1

from tests.oracle.locate import reference_buckets, reference_locate

_MB = 2**20


@functools.lru_cache(maxsize=None)
def _xgc1_levels(scale: float, seed: int):
    """XGC1 plane and its once-decimated level, as a plan builds them
    (the seed moves the field, and through it the collapses)."""
    ds = make_xgc1(scale=scale, seed=seed)
    coarse = decimate_batched(
        ds.mesh, {"f": ds.field}, ratio=2.0, priority="data_aware"
    ).mesh
    return ds.mesh, coarse


def _degenerate_mesh() -> TriangleMesh:
    """A grid plus four bad triangles, unvalidated: one exactly collinear
    (its solve takes the ``w = 1/3`` branch, so it "contains" every point
    of its cells), one needle sliver, one tiny triangle whose squared
    area underflows, and one thin triangle just under the aspect limit."""
    grid = structured_rectangle(8, 8)
    extra = np.array([
        [0.0, 0.0], [0.25, 0.25], [0.5, 0.5],          # collinear
        [0.2, 0.6], [0.8, 0.6], [0.5, 0.6 + 1e-9],     # sliver
        [0.5, 0.5], [0.5 + 1e-160, 0.5], [0.5, 0.5 + 1e-160],  # tiny
        [0.1, 0.3], [0.9, 0.3], [0.5, 0.3016],         # thin
    ])
    n = grid.num_vertices
    tris = np.vstack([grid.triangles, n + np.arange(12).reshape(4, 3)])
    return TriangleMesh(np.vstack([grid.vertices, extra]), tris, validate=False)


_MESHES = {
    **{
        f"xgc1-{scale}-s{seed}": functools.partial(_xgc1_levels, scale, seed)
        for scale in (0.25, 1.0, 4.0)
        for seed in (1, 2)
    },
    "rectangle": lambda: (None, structured_rectangle(12, 12)),
    "annulus": lambda: (None, annulus(10, 40, r_inner=0.5)),
    "degenerate": lambda: (None, _degenerate_mesh()),
}


def _assert_same(mesh, points, **kw):
    ids, bary = TriangleLocator(mesh, **kw).locate(points)
    ref_ids, ref_bary = reference_locate(mesh, points, **kw)
    assert ids.dtype == ref_ids.dtype and bary.dtype == ref_bary.dtype
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(bary.view(np.uint64), ref_bary.view(np.uint64))


def _points(mesh: TriangleMesh, rng: np.random.Generator, n: int, kinds):
    """``n`` query points of the chosen kinds, shuffled together."""
    lo, hi = mesh.bounding_box()
    span = hi - lo
    v, t = mesh.vertices, mesh.triangles
    parts = []
    for kind in kinds:
        if kind == "box":  # inside the hull, and in holes and corners
            parts.append(rng.uniform(lo, hi, (n, 2)))
        elif kind == "outside":
            parts.append(rng.uniform(lo - span, hi + span, (n, 2)))
        elif kind == "vertex":
            parts.append(v[rng.integers(0, len(v), n)])
        elif kind == "edge":  # on an edge two triangles share, up to rounding
            tri = t[rng.integers(0, len(t), n)]
            k = rng.integers(0, 3, n)
            a, b = v[tri[np.arange(n), k]], v[tri[np.arange(n), (k + 1) % 3]]
            s = rng.choice([0.5, 0.25, rng.uniform()], n)[:, None]
            parts.append(a + s * (b - a))
    pts = np.concatenate(parts)
    return pts[rng.permutation(len(pts))]


class TestOracle:
    @pytest.mark.parametrize("name", [k for k in _MESHES if k.startswith("xgc1")])
    def test_fine_vertices_in_the_coarse_level(self, name):
        """The plan's own query: every fine vertex in the next level, with
        ~200 of them outside the coarse hull (the KD fallback)."""
        fine, coarse = _MESHES[name]()
        _assert_same(coarse, fine.vertices)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        name=st.sampled_from(sorted(_MESHES)),
        seed=st.integers(0, 2**32 - 1),
        # Past one block, so block boundaries fall inside the query.
        n=st.sampled_from([1, 7, 900, locate._BLOCK + 3]),
        kinds=st.sets(
            st.sampled_from(["box", "outside", "vertex", "edge"]), min_size=1
        ),
    )
    def test_random_points(self, name, seed, n, kinds):
        _, mesh = _MESHES[name]()
        _assert_same(mesh, _points(mesh, np.random.default_rng(seed), n, kinds))

    @pytest.mark.parametrize("cpt", [0.25, 4.0])
    def test_cells_per_triangle(self, cpt):
        _, mesh = _MESHES["xgc1-0.25-s1"]()
        pts = _points(mesh, np.random.default_rng(3), 2000, ["box", "edge"])
        _assert_same(mesh, pts, cells_per_triangle=cpt)

    @pytest.mark.parametrize("name", sorted(_MESHES))
    def test_buckets_match_a_stable_argsort(self, name):
        """The packed-key sort puts every (cell, triangle) entry where a
        stable argsort by cell does, with triangles spanning many cells."""
        _, mesh = _MESHES[name]()
        loc = TriangleLocator(mesh, cells_per_triangle=4.0)
        ref_tris, ref_indptr = reference_buckets(mesh, cells_per_triangle=4.0)
        assert len(loc._bucket_tris) > 2 * mesh.num_triangles
        np.testing.assert_array_equal(loc._bucket_tris, ref_tris)
        np.testing.assert_array_equal(loc._bucket_indptr, ref_indptr)

    def test_degenerate_triangles_bypass_the_prefilter(self):
        mesh = _degenerate_mesh()
        loc = TriangleLocator(mesh)
        bypass = np.flatnonzero(loc._exact)
        m = mesh.num_triangles
        assert list(bypass) == [m - 4, m - 3, m - 2]
        # Outside the mesh, or not a point at all, yet in a cell of the
        # collinear triangle's bbox: its w = 1/3 "contains" both, so the
        # prefilter must not drop it in favour of the KD fallback.
        pts = np.array([[-0.5, -0.5], [np.nan, 0.5]])
        with np.errstate(invalid="ignore"):
            ids, _ = loc.locate(pts)
            _assert_same(mesh, pts)
        assert list(ids) == [m - 4, m - 4]

    def test_strict_mode_raises_the_same_count(self):
        _, mesh = _MESHES["annulus"]()
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.8, 0.0]])
        with pytest.raises(PointLocationError, match="^2 point"):
            TriangleLocator(mesh).locate(pts, allow_fallback=False)
        with pytest.raises(PointLocationError, match="^2 point"):
            reference_locate(mesh, pts, allow_fallback=False)


def _traced_peak(fn) -> float:
    """MB allocated by ``fn`` at its peak, beyond what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / _MB
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Before blocking, locate held 2.65 KiB per fine vertex (53.5 MB at
    scale 1, 215 MB at scale 4) and the build 47.8 MB at scale 4."""

    @pytest.fixture(scope="class")
    def locate_peaks(self):
        peaks = {}
        for scale in (1.0, 4.0):
            fine, coarse = _xgc1_levels(scale, 1)
            loc = TriangleLocator(coarse)
            peaks[scale] = _traced_peak(lambda: loc.locate(fine.vertices))
        return peaks

    def test_locate_peak_at_scale_4(self, locate_peaks):
        assert locate_peaks[4.0] <= 16.0

    def test_locate_peak_grows_slower_than_the_query(self, locate_peaks):
        # 4x the points; only the (n,) outputs and the fallback's KD tree
        # grow with them.
        assert locate_peaks[4.0] <= 1.5 * locate_peaks[1.0]

    def test_build_peak_at_scale_4(self):
        _, coarse = _xgc1_levels(4.0, 1)
        assert _traced_peak(lambda: TriangleLocator(coarse)) <= 20.0

    def test_decimation_working_set_at_scale_1(self):
        # Was 17.9 MB while each round's per-edge arrays lived into the next.
        mesh = make_xgc1(scale=1.0).mesh
        assert _traced_peak(lambda: decimate_batched(mesh, ratio=2.0)) <= 12.0
