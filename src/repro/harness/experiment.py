"""Shared experiment scaffolding for the per-figure benchmarks.

Each bench needs the same setup: build a synthetic dataset, a two-tier
hierarchy in a temp directory, encode with Canopus, and (for the
baselines) write the unreduced full-accuracy data to the slowest tier.
Centralizing it keeps each ``benchmarks/test_fig*.py`` focused on the
figure it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.compress import get_codec
from repro.core import (
    CanopusDecoder,
    CanopusEncoder,
    EncodeReport,
    LevelScheme,
    RefactorResult,
)
from repro.core.notation import level_key, mesh_key
from repro.io.dataset import BPDataset
from repro.mesh.io import mesh_to_bytes
from repro.simulations import SyntheticDataset, make_dataset
from repro.storage import StorageHierarchy, two_tier_titan

__all__ = ["ExperimentSetup", "setup_experiment", "write_baseline_dataset"]

DEFAULT_TOLERANCE = 1e-4


@dataclass
class ExperimentSetup:
    """Everything a figure bench needs, pre-wired."""

    dataset: SyntheticDataset
    hierarchy: StorageHierarchy
    scheme: LevelScheme
    report: EncodeReport
    refactored: RefactorResult
    canopus_name: str
    baseline_name: str

    def decoder(self) -> CanopusDecoder:
        return CanopusDecoder(BPDataset.open(self.canopus_name, self.hierarchy))

    def json_report(self) -> dict:
        """Machine-readable summary of the encode run (write path)."""
        from repro.harness.report import json_report

        rows = [
            {
                "key": key,
                "bytes": self.report.compressed_bytes[key],
                "tier": self.report.placed_tiers.get(key, ""),
            }
            for key in sorted(self.report.compressed_bytes)
        ]
        return json_report(
            f"encode:{self.canopus_name}",
            rows,
            meta={
                "dataset": self.dataset.name,
                "variable": self.dataset.variable,
                "vertices": self.dataset.mesh.num_vertices,
                "num_levels": self.scheme.num_levels,
                "baseline": self.baseline_name,
            },
            metrics={
                "original_bytes": self.report.original_bytes,
                "payload_bytes": self.report.payload_bytes,
                "total_compressed_bytes": self.report.total_compressed_bytes,
                "decimation_seconds": self.report.decimation_seconds,
                "delta_seconds": self.report.delta_seconds,
                "compress_seconds": self.report.compress_seconds,
                "io_seconds": self.report.io_seconds,
            },
        )

    def save_json_report(self, path: str | Path) -> Path:
        """Write :meth:`json_report` to ``path`` (parents created)."""
        from repro.harness.report import write_json_report

        return write_json_report(path, self.json_report())


def stack_planes(dataset: SyntheticDataset, planes: int, seed: int = 0):
    """Stack a dataset's field into a 3-D variable of ``planes`` planes.

    XGC1's dpot is "a 3D scalar field, organized into a discrete set of
    2D planes"; planes share the mesh and are strongly correlated but not
    identical. Each synthetic plane gets a small smooth per-plane
    modulation on top of the reference field.
    """
    if planes <= 1:
        return dataset.field
    import numpy as np

    rng = np.random.default_rng(seed)
    v = dataset.mesh.vertices
    span = np.ptp(dataset.field)
    stack = np.empty((planes, len(dataset.field)))
    for p in range(planes):
        phase = 2 * np.pi * p / planes
        wobble = 0.03 * span * np.sin(
            2 * v[:, 0] + phase + rng.uniform(0, 0.3)
        ) * np.cos(2 * v[:, 1] - phase)
        stack[p] = dataset.field + wobble
    return stack


def write_baseline_dataset(
    name: str,
    hierarchy: StorageHierarchy,
    dataset: SyntheticDataset,
    *,
    codec: str = "raw",
    field=None,
) -> None:
    """Write unreduced full-accuracy data to the slowest tier.

    This is the paper's "None" comparison: a conventional writer puts
    ``L0`` (and the mesh) on the parallel file system.
    """
    import numpy as np

    data = dataset.field if field is None else np.asarray(field)
    planes = data.shape[0] if data.ndim == 2 else 0
    ds = BPDataset.create(name, hierarchy)
    slow_index = len(hierarchy) - 1
    blob = get_codec(codec).encode(data.ravel())
    ds.catalog.attrs.setdefault("variables", {})[dataset.variable] = {
        "planes": planes
    }
    ds.write(
        level_key(dataset.variable, 0), blob,
        kind="base", level=0, count=data.size,
        codec=codec, preferred_tier=slow_index,
    )
    ds.write(
        mesh_key(dataset.variable, 0), mesh_to_bytes(dataset.mesh),
        kind="mesh", level=0, preferred_tier=slow_index,
    )
    ds.close()


def setup_experiment(
    dataset_name: str,
    workdir: str | Path,
    *,
    scale: float = 0.3,
    num_levels: int = 3,
    tolerance: float = DEFAULT_TOLERANCE,
    codec: str = "zfp",
    codec_mode: str = "relative",
    fast_capacity: int = 8 << 20,
    planes: int = 1,
    **encoder_kwargs,
) -> ExperimentSetup:
    """Build dataset + hierarchy, Canopus-encode, and write the baseline.

    ``codec_mode="relative"`` scales the error bound to each product's
    value range, which is what makes one tolerance sensible across
    fields as different as dpot (≈1) and pressure (≈1e5).
    ``planes > 1`` stacks the field into a 3-D multi-plane variable
    (paper-realistic data volumes: XGC1's dpot is a plane stack).
    """
    dataset = make_dataset(dataset_name, scale=scale)
    field = stack_planes(dataset, planes)
    hierarchy = two_tier_titan(
        Path(workdir), fast_capacity=fast_capacity, slow_capacity=1 << 36
    )
    scheme = LevelScheme(num_levels)
    params: dict = {"tolerance": tolerance}
    if codec == "zfp":
        params["mode"] = codec_mode
    # Paper figures are about the paper's Algorithm 1, not the library default.
    encoder_kwargs.setdefault("method", "serial")
    encoder = CanopusEncoder(
        hierarchy, codec=codec, codec_params=params, **encoder_kwargs
    )
    canopus_name = f"{dataset_name}-canopus"
    report, refactored = encoder.encode(
        canopus_name, dataset.variable, dataset.mesh, field, scheme
    )
    baseline_name = f"{dataset_name}-baseline"
    write_baseline_dataset(baseline_name, hierarchy, dataset, field=field)
    return ExperimentSetup(
        dataset=dataset,
        hierarchy=hierarchy,
        scheme=scheme,
        report=report,
        refactored=refactored,
        canopus_name=canopus_name,
        baseline_name=baseline_name,
    )
