"""Tests for rasterization and the blob detector."""

import numpy as np
import pytest

from repro.analytics import (
    Blob,
    BlobDetectorParams,
    RasterSpec,
    blob_stats,
    detect_blobs,
    overlap_ratio,
    rasterize,
)
from repro.errors import AnalyticsError
from repro.mesh.generators import structured_rectangle


def synthetic_image(blobs, shape=(128, 128), background=30):
    """Render Gaussian bumps directly to an image (no mesh involved)."""
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    img = np.full(shape, float(background))
    for (cx, cy), amp, sigma in blobs:
        img += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))
    return np.clip(img, 0, 255).astype(np.uint8)


class TestRasterSpec:
    def test_from_reference(self):
        mesh = structured_rectangle(8, 8)
        field = mesh.vertices[:, 0]
        spec = RasterSpec.from_reference(mesh, field, (32, 32))
        assert spec.vmin == 0.0 and spec.vmax == 1.0
        assert spec.shape == (32, 32)

    def test_constant_field_spec(self):
        mesh = structured_rectangle(4, 4)
        spec = RasterSpec.from_reference(mesh, np.full(16, 2.0))
        assert spec.vmax > spec.vmin

    def test_empty_field_rejected(self):
        mesh = structured_rectangle(4, 4)
        with pytest.raises(AnalyticsError):
            RasterSpec.from_reference(mesh, np.zeros(0))

    def test_margin(self):
        mesh = structured_rectangle(4, 4)
        spec = RasterSpec.from_reference(mesh, np.zeros(16), margin=0.1)
        assert spec.bounds[0][0] == pytest.approx(-0.1)
        assert spec.bounds[1][0] == pytest.approx(1.1)


class TestRasterize:
    def test_ramp_image(self):
        mesh = structured_rectangle(16, 16)
        field = mesh.vertices[:, 0]
        spec = RasterSpec.from_reference(mesh, field, (32, 32))
        img = rasterize(mesh, field, spec)
        assert img.dtype == np.uint8
        assert img[:, 0].max() == 0
        assert img[:, -1].min() == 255
        # Monotone left → right.
        assert (np.diff(img.astype(int), axis=1) >= 0).all()

    def test_clipping_under_fixed_spec(self):
        """Values beyond the reference range clip instead of rescaling."""
        mesh = structured_rectangle(8, 8)
        field = mesh.vertices[:, 0]
        spec = RasterSpec.from_reference(mesh, field, (16, 16))
        img = rasterize(mesh, field * 10.0, spec)
        assert img.max() == 255

    def test_same_spec_comparable_across_meshes(self):
        coarse = structured_rectangle(6, 6)
        fine = structured_rectangle(24, 24)
        f_fine = fine.vertices[:, 0]
        f_coarse = coarse.vertices[:, 0]
        spec = RasterSpec.from_reference(fine, f_fine, (32, 32))
        a = rasterize(fine, f_fine, spec)
        b = rasterize(coarse, f_coarse, spec)
        # A linear field rasterizes identically from either mesh.
        assert np.abs(a.astype(int) - b.astype(int)).max() <= 1


class TestBlobDetectorParams:
    def test_paper_configs_valid(self):
        BlobDetectorParams(10, 200, min_area=100)
        BlobDetectorParams(150, 200, min_area=100)
        BlobDetectorParams(10, 200, min_area=200)

    def test_validation(self):
        with pytest.raises(AnalyticsError):
            BlobDetectorParams(min_threshold=200, max_threshold=100)
        with pytest.raises(AnalyticsError):
            BlobDetectorParams(threshold_step=0)
        with pytest.raises(AnalyticsError):
            BlobDetectorParams(min_area=-1)
        with pytest.raises(AnalyticsError):
            BlobDetectorParams(min_area=100, max_area=50)
        with pytest.raises(AnalyticsError):
            BlobDetectorParams(min_repeatability=0)
        with pytest.raises(AnalyticsError):
            BlobDetectorParams(blob_color=128)


class TestDetectBlobs:
    def test_finds_isolated_bright_blobs(self):
        img = synthetic_image(
            [((30, 30), 200, 6), ((90, 90), 200, 6), ((30, 96), 180, 7)]
        )
        blobs = detect_blobs(img, BlobDetectorParams(min_area=20))
        assert len(blobs) == 3
        centers = sorted((round(b.center[0]), round(b.center[1])) for b in blobs)
        assert centers == [(30, 30), (30, 96), (90, 90)]

    def test_empty_image_no_blobs(self):
        img = np.zeros((64, 64), dtype=np.uint8)
        assert detect_blobs(img) == []

    def test_min_area_filters_small(self):
        img = synthetic_image([((32, 32), 220, 2), ((90, 90), 220, 8)])
        blobs = detect_blobs(img, BlobDetectorParams(min_area=100, min_dist_between_blobs=5))
        assert len(blobs) == 1
        assert round(blobs[0].center[0]) == 90

    def test_max_area_filters_giant_component(self):
        img = np.full((64, 64), 200, dtype=np.uint8)  # everything bright
        blobs = detect_blobs(img, BlobDetectorParams(min_area=10, max_area=500))
        assert blobs == []

    def test_high_threshold_misses_faint_blob(self):
        img = synthetic_image([((32, 32), 100, 8)])  # peak ≈ 130
        low = detect_blobs(img, BlobDetectorParams(10, 120, min_area=20))
        high = detect_blobs(img, BlobDetectorParams(150, 200, min_area=20))
        assert len(low) == 1
        assert high == []

    def test_dark_blob_mode(self):
        img = 255 - synthetic_image([((40, 40), 220, 8)], background=0)
        blobs = detect_blobs(
            img, BlobDetectorParams(min_area=20, blob_color=0, max_area=2000)
        )
        assert len(blobs) == 1

    def test_diameter_tracks_size(self):
        small = synthetic_image([((64, 64), 220, 4)])
        large = synthetic_image([((64, 64), 220, 10)])
        p = BlobDetectorParams(min_area=10)
        d_small = detect_blobs(small, p)[0].diameter
        d_large = detect_blobs(large, p)[0].diameter
        assert d_large > d_small

    def test_repeatability_counted(self):
        img = synthetic_image([((64, 64), 220, 8)])
        blobs = detect_blobs(img, BlobDetectorParams(min_area=20))
        assert blobs[0].repeatability >= 2

    def test_min_repeatability_filter(self):
        img = synthetic_image([((64, 64), 220, 8)])
        none = detect_blobs(
            img, BlobDetectorParams(min_area=20, min_repeatability=100)
        )
        assert none == []

    def test_circularity_filter(self):
        img = np.zeros((64, 64), dtype=np.uint8)
        img[30:34, 5:60] = 200  # long thin bar: low circularity
        p_loose = BlobDetectorParams(min_area=20, min_circularity=None)
        p_strict = BlobDetectorParams(min_area=20, min_circularity=0.7)
        assert len(detect_blobs(img, p_loose)) == 1
        assert detect_blobs(img, p_strict) == []

    def test_non_2d_rejected(self):
        with pytest.raises(AnalyticsError):
            detect_blobs(np.zeros((4, 4, 3), dtype=np.uint8))

    def test_deterministic_order(self):
        img = synthetic_image([((30, 30), 200, 6), ((90, 90), 200, 9)])
        a = detect_blobs(img, BlobDetectorParams(min_area=20))
        b = detect_blobs(img, BlobDetectorParams(min_area=20))
        assert [x.center for x in a] == [x.center for x in b]
        assert a[0].area >= a[1].area


class TestBlobMetrics:
    def mk(self, x, y, d):
        return Blob(center=(x, y), diameter=d, area=np.pi * (d / 2) ** 2, repeatability=3)

    def test_stats_empty(self):
        s = blob_stats([])
        assert s.count == 0 and s.avg_diameter == 0 and s.aggregate_area == 0

    def test_stats_values(self):
        s = blob_stats([self.mk(0, 0, 10), self.mk(5, 5, 20)])
        assert s.count == 2
        assert s.avg_diameter == pytest.approx(15.0)
        assert s.aggregate_area == pytest.approx(np.pi * (25 + 100))

    def test_overlap_identity(self):
        blobs = [self.mk(10, 10, 8), self.mk(40, 40, 6)]
        assert overlap_ratio(blobs, blobs) == 1.0

    def test_overlap_partial(self):
        ref = [self.mk(10, 10, 8), self.mk(40, 40, 6)]
        det = [self.mk(11, 11, 8), self.mk(100, 100, 6)]
        assert overlap_ratio(det, ref) == pytest.approx(0.5)

    def test_overlap_uses_radius_sum(self):
        ref = [self.mk(0, 0, 10)]  # radius 5
        near = [self.mk(8.9, 0, 8)]  # radius 4; dist 8.9 < 5+4 ⇒ overlap
        far = [self.mk(9.5, 0, 8)]  # dist 9.5 > 9 ⇒ no overlap
        assert overlap_ratio(near, ref) == 1.0
        assert overlap_ratio(far, ref) == 0.0

    def test_overlap_empty_conventions(self):
        blobs = [self.mk(0, 0, 10)]
        assert overlap_ratio([], blobs) == 1.0
        assert overlap_ratio(blobs, []) == 0.0
