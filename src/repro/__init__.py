"""Canopus reproduction: progressive refactoring for HPC data analytics.

See README.md for the architecture overview and DESIGN.md for the
per-figure experiment index. The top-level namespace re-exports the
user-facing API; subsystems live in their own subpackages:

* :mod:`repro.core` -- the Canopus contribution (refactor/delta/restore,
  encoder/decoder and its level-by-level walk);
* :mod:`repro.mesh` -- unstructured triangular meshes + decimation;
* :mod:`repro.compress` -- ZFP-, SZ-, FPC-style floating-point codecs;
* :mod:`repro.io` -- ADIOS-like BP container, transports, XML config;
* :mod:`repro.storage` -- simulated storage hierarchy;
* :mod:`repro.analytics` -- blob detection and the timed analysis pipeline;
* :mod:`repro.simulations` -- synthetic XGC1/GenASiS/CFD datasets;
* :mod:`repro.perfmodel` -- storage-to-compute scenario models.
"""

__version__ = "1.0.0"

from repro import api, errors
from repro.api import Session, write_campaign
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.io import BPDataset, parse_config
from repro.storage import StorageHierarchy, StorageTier, two_tier_titan

__all__ = [
    "api",
    "errors",
    "__version__",
    "Session",
    "write_campaign",
    "LevelScheme",
    "CanopusEncoder",
    "CanopusDecoder",
    "BPDataset",
    "parse_config",
    "StorageHierarchy",
    "StorageTier",
    "two_tier_titan",
]
