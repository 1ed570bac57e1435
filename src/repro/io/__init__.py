"""ADIOS-like I/O substrate: BP container, catalogs, transports, XML config.

Canopus is "implemented as a super I/O transport method in ADIOS and is
plugged into the simulation and analytics via the ADIOS write and query
interface" (paper §III-A). This subpackage reproduces the layers Canopus
relies on: a metadata-rich binary-packed container
(:mod:`~repro.io.bp`), a global catalog (:mod:`~repro.io.metadata`),
per-tier transport methods (:mod:`~repro.io.transports`), the dataset
write/query/read API (:mod:`~repro.io.dataset`), the concurrent
retrieval engine (:mod:`~repro.io.engine`) with its range cache, and
ADIOS-style XML configuration (:mod:`~repro.io.xmlconfig`).
"""

from repro.io.bp import BPReader, BPWriter, LazyBPReader
from repro.io.dataset import BPDataset
from repro.io.engine import EngineStats, RetrievalEngine
from repro.io.metadata import Catalog, VariableRecord
from repro.io.fsck import (
    CheckResult,
    check_backends,
    check_dataset,
    repair_backends,
    repair_dataset,
)
from repro.io.query import ChunkStats, attach_stats
from repro.io.transports import (
    AggregatingTransport,
    PosixTransport,
    StagingTransport,
    Transport,
    make_transport,
)
from repro.io.xmlconfig import CanopusConfig, parse_config, parse_size

__all__ = [
    "BPDataset",
    "RetrievalEngine",
    "EngineStats",
    "BPReader",
    "BPWriter",
    "LazyBPReader",
    "Catalog",
    "VariableRecord",
    "ChunkStats",
    "attach_stats",
    "CheckResult",
    "check_backends",
    "check_dataset",
    "repair_backends",
    "repair_dataset",
    "Transport",
    "PosixTransport",
    "AggregatingTransport",
    "StagingTransport",
    "make_transport",
    "CanopusConfig",
    "parse_config",
    "parse_size",
]
