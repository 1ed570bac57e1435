"""Unstructured triangular mesh substrate.

Canopus (paper §III-C) builds on a data model of unstructured triangular
meshes carrying per-vertex floating-point fields. This subpackage provides:

* :class:`~repro.mesh.triangle_mesh.TriangleMesh` — the immutable mesh
  container (vertices, triangles, derived adjacency);
* :func:`~repro.mesh.edge_collapse.decimate` — Algorithm 1 of the paper
  (shortest-edge-first collapse with a priority queue);
* :class:`~repro.mesh.locate.TriangleLocator` — uniform-grid point location
  with barycentric coordinates (used for delta calculation/restoration;
  only its outside-point fallback loads scipy, on first use);
* :mod:`~repro.mesh.generators` — synthetic mesh builders used by the
  three evaluation datasets (scipy Delaunay; not imported with this
  package, ask for it with ``from repro.mesh import generators``);
* :mod:`~repro.mesh.metrics`, :mod:`~repro.mesh.interpolation`,
  :mod:`~repro.mesh.io` — quality metrics, field interpolation, and
  (de)serialization.
"""

from repro.mesh.triangle_mesh import TriangleMesh
from repro.mesh.edge_collapse import DEFAULT_METHOD, KERNELS, DecimationResult, decimate
from repro.mesh.batch_collapse import decimate_batched
from repro.mesh.lineage import CollapseLineage
from repro.mesh.locate import TriangleLocator, barycentric_coordinates
from repro.mesh.interpolation import interpolate_at_points, interpolate_to_grid
from repro.mesh import metrics
from repro.mesh.io import load_mesh, save_mesh
from repro.mesh.ordering import inverse_permutation, vertex_ordering
from repro.mesh.partition import MeshPartition, gather_field, partition_mesh

__all__ = [
    "TriangleMesh",
    "DecimationResult",
    "KERNELS",
    "DEFAULT_METHOD",
    "decimate",
    "decimate_batched",
    "CollapseLineage",
    "TriangleLocator",
    "barycentric_coordinates",
    "interpolate_at_points",
    "interpolate_to_grid",
    "generators",
    "metrics",
    "load_mesh",
    "save_mesh",
    "MeshPartition",
    "partition_mesh",
    "gather_field",
    "vertex_ordering",
    "inverse_permutation",
]
