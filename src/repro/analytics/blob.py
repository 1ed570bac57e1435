"""Blob detection — an OpenCV ``SimpleBlobDetector`` reproduction.

The paper (§IV-D) uses "the blob detection function in OpenCV … It uses
simple thresholding, grouping, and merging techniques to locate blobs",
parameterized by ``<minThreshold, maxThreshold, minArea>``. This module
re-implements that algorithm:

1. binarize the grayscale image at every threshold in
   ``[min_threshold, max_threshold)`` stepped by ``threshold_step``;
2. find connected components per binary image (8-connectivity) and
   compute per-component centroid / area / circularity;
3. filter components by area and (optionally) circularity;
4. group centers across thresholds: a center joins an existing group if
   it lies within ``min_dist_between_blobs`` of the group's running
   center; groups seen in at least ``min_repeatability`` thresholds
   become blobs;
5. a blob's center/diameter are the means over its group.

The paper studies *bright* blobs (high electric potential), so the
default ``blob_color=255`` selects pixels ``>= threshold`` (OpenCV's
convention inverted from its dark default).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import AnalyticsError

__all__ = ["Blob", "BlobDetectorParams", "detect_blobs"]


@dataclass(frozen=True)
class Blob:
    """One detected blob, in pixel coordinates."""

    center: tuple[float, float]  # (x=col, y=row)
    diameter: float
    area: float
    repeatability: int  # number of thresholds the blob appeared at

    @property
    def radius(self) -> float:
        return self.diameter / 2.0


@dataclass(frozen=True)
class BlobDetectorParams:
    """Detector parameters, mirroring OpenCV's SimpleBlobDetector_Params.

    The paper's configurations map directly::

        Config1 = BlobDetectorParams(min_threshold=10,  max_threshold=200, min_area=100)
        Config2 = BlobDetectorParams(min_threshold=150, max_threshold=200, min_area=100)
        Config3 = BlobDetectorParams(min_threshold=10,  max_threshold=200, min_area=200)
    """

    min_threshold: float = 10.0
    max_threshold: float = 200.0
    threshold_step: float = 10.0
    min_area: float = 100.0
    # OpenCV's SimpleBlobDetector default; rejects the giant low-threshold
    # component that covers most of the domain.
    max_area: float = 5000.0
    min_dist_between_blobs: float = 10.0
    min_repeatability: int = 2
    blob_color: int = 255  # 255 = bright blobs, 0 = dark blobs
    min_circularity: float | None = None

    def __post_init__(self) -> None:
        if self.min_threshold >= self.max_threshold:
            raise AnalyticsError("min_threshold must be < max_threshold")
        if self.threshold_step <= 0:
            raise AnalyticsError("threshold_step must be positive")
        if self.min_area < 0 or self.max_area < self.min_area:
            raise AnalyticsError("invalid area filter")
        if self.min_repeatability < 1:
            raise AnalyticsError("min_repeatability must be >= 1")
        if self.blob_color not in (0, 255):
            raise AnalyticsError("blob_color must be 0 or 255")


@dataclass
class _Group:
    centers: list[tuple[float, float]] = field(default_factory=list)
    radii: list[float] = field(default_factory=list)
    areas: list[float] = field(default_factory=list)

    @property
    def center(self) -> tuple[float, float]:
        c = np.mean(np.asarray(self.centers), axis=0)
        return float(c[0]), float(c[1])


_EIGHT_CONN = np.ones((3, 3), dtype=bool)


def _threshold_centers(
    image: np.ndarray, threshold: float, params: BlobDetectorParams
) -> list[tuple[float, float, float, float]]:
    """Per-threshold candidates: (x, y, radius, area)."""
    from scipy import ndimage

    if params.blob_color == 255:
        binary = image >= threshold
    else:
        binary = image < threshold
    labels, n = ndimage.label(binary, structure=_EIGHT_CONN)
    if n == 0:
        return []
    idx = np.arange(1, n + 1)
    areas = ndimage.sum_labels(np.ones_like(labels), labels, idx)
    keep = (areas >= params.min_area) & (areas <= params.max_area)
    if params.min_circularity is not None and keep.any():
        # Perimeter ≈ count of component pixels adjacent to the outside.
        eroded = ndimage.binary_erosion(binary, structure=_EIGHT_CONN)
        boundary = binary & ~eroded
        perimeters = ndimage.sum_labels(
            boundary.astype(np.float64), labels, idx
        )
        circ = 4.0 * np.pi * areas / np.maximum(perimeters, 1.0) ** 2
        keep &= circ >= params.min_circularity
    if not keep.any():
        return []
    centroids = ndimage.center_of_mass(binary, labels, idx[keep])
    out = []
    for (row, col), area in zip(centroids, areas[keep]):
        out.append((float(col), float(row), float(np.sqrt(area / np.pi)), float(area)))
    return out


def detect_blobs(
    image: np.ndarray, params: BlobDetectorParams | None = None
) -> list[Blob]:
    """Detect blobs in a uint8 grayscale image."""
    params = params or BlobDetectorParams()
    image = np.asarray(image)
    if image.ndim != 2:
        raise AnalyticsError(f"expected a 2-D grayscale image, got {image.shape}")

    groups: list[_Group] = []
    thresholds = np.arange(
        params.min_threshold, params.max_threshold, params.threshold_step
    )
    for t in thresholds:
        for x, y, radius, area in _threshold_centers(image, t, params):
            for group in groups:
                gx, gy = group.center
                if (x - gx) ** 2 + (y - gy) ** 2 < params.min_dist_between_blobs**2:
                    group.centers.append((x, y))
                    group.radii.append(radius)
                    group.areas.append(area)
                    break
            else:
                groups.append(
                    _Group(centers=[(x, y)], radii=[radius], areas=[area])
                )

    blobs = []
    for group in groups:
        if len(group.centers) < params.min_repeatability:
            continue
        blobs.append(
            Blob(
                center=group.center,
                diameter=2.0 * float(np.mean(group.radii)),
                area=float(np.mean(group.areas)),
                repeatability=len(group.centers),
            )
        )
    # Deterministic order: by descending area then position.
    blobs.sort(key=lambda b: (-b.area, b.center))
    return blobs
