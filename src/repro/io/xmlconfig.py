"""ADIOS-style XML configuration.

The paper configures I/O transports "in an external XML configuration
file (e.g., using ADIOS MPI AGGREGATE transport for writing data on
Lustre, and using ADIOS POSIX for writing data on a local storage)".
This module parses an equivalent document into a ready-to-use storage
hierarchy, per-tier transports, and Canopus pipeline parameters::

    <canopus-config>
      <storage root="/tmp/run" backend="filesystem">
        <tier name="tmpfs"  device="dram_tmpfs" capacity="64MiB"
              backend="memory"/>
        <tier name="lustre" device="lustre"     capacity="10GiB"
              backend="sharded" shards="8" chunk="256KiB"/>
      </storage>
      <transport tier="tmpfs"  method="POSIX"/>
      <transport tier="lustre" method="MPI_AGGREGATE" writers="128"
                 aggregators="4" network_bandwidth="5GiB"
                 network_latency="2e-6"/>
      <placement policy="cost"/>
      <canopus levels="3" codec="zfp" tolerance="1e-4" decimation="2"/>
    </canopus-config>

Each tier's bytes live in a pluggable object-store backend
(``filesystem`` default, ``memory``, ``sharded``, ``remote``, or
``replicated``; set a store-wide default on ``<storage backend=...>``
and override per ``<tier>``). ``replicas="2"`` on ``<storage>`` or a
``<tier>`` mirrors sharded/replicated leaves N ways;
``network_bandwidth``/``network_latency`` on a ``remote`` tier
parameterize its simulated S3 hop (same defaults as transports).
``<placement policy="cost"/>`` switches datasets from the fastest-first
capacity walk to the cost-based placement engine.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError, ReproError
from repro.io.dataset import DEFAULT_PLACEMENT, PLACEMENTS
from repro.io.transports import Transport, make_transport
from repro.storage.backend import make_backend
from repro.storage.hierarchy import StorageHierarchy
from repro.storage.simclock import SimClock
from repro.storage.tier import StorageTier

__all__ = ["CanopusConfig", "parse_config", "parse_size"]

_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*([KMGT]i?B|B)?\s*$", re.I)
_UNITS = {
    "b": 1,
    "kb": 10**3, "mb": 10**6, "gb": 10**9, "tb": 10**12,
    "kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30, "tib": 1 << 40,
}


def parse_size(text: str) -> int:
    """Parse ``"64MiB"``-style capacity strings to bytes."""
    m = _SIZE_RE.match(str(text))
    if not m:
        raise ConfigError(f"cannot parse size {text!r}")
    value = float(m.group(1))
    unit = (m.group(2) or "B").lower()
    return int(value * _UNITS[unit])


@dataclass
class CanopusConfig:
    """Parsed configuration: storage, transports, pipeline parameters."""

    hierarchy: StorageHierarchy
    transports: dict[str, Transport]
    levels: int = 3
    codec: str = "zfp"
    tolerance: float = 1e-6
    decimation: float = 2.0
    placement: str = DEFAULT_PLACEMENT
    extra: dict = field(default_factory=dict)

    def transport_for(self, tier_name: str) -> Transport:
        try:
            return self.transports[tier_name]
        except KeyError:
            raise ConfigError(f"no transport configured for tier {tier_name!r}") from None


def parse_config(
    source: str | Path, *, clock: SimClock | None = None
) -> CanopusConfig:
    """Parse an XML document (string or file path) into a config.

    A shared :class:`SimClock` may be injected so several configs charge
    one timeline.
    """
    text = str(source)
    if "\n" not in text and Path(text).exists():
        text = Path(text).read_text(encoding="utf-8")
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ConfigError(f"invalid XML: {exc}") from exc
    if root.tag != "canopus-config":
        raise ConfigError(f"expected <canopus-config>, got <{root.tag}>")

    storage_el = root.find("storage")
    if storage_el is None:
        raise ConfigError("missing <storage> section")
    storage_root = Path(storage_el.get("root", "."))
    clock = clock if clock is not None else SimClock()

    default_backend = storage_el.get("backend", "filesystem")
    default_shards = int(storage_el.get("shards", "4"))
    default_chunk = parse_size(storage_el.get("chunk", "256KiB"))
    default_replicas = storage_el.get("replicas")

    tiers: list[StorageTier] = []
    for tier_el in storage_el.findall("tier"):
        name = tier_el.get("name")
        device = tier_el.get("device")
        capacity = tier_el.get("capacity")
        if not (name and device and capacity):
            raise ConfigError("<tier> needs name, device, and capacity")
        backend_kind = tier_el.get("backend", default_backend)
        replicas = tier_el.get("replicas", default_replicas)
        net_bw = tier_el.get("network_bandwidth")
        net_lat = tier_el.get("network_latency")
        try:
            backend = make_backend(
                backend_kind,
                storage_root / name,
                shards=int(tier_el.get("shards", default_shards)),
                chunk_size=parse_size(tier_el.get("chunk", default_chunk)),
                replicas=int(replicas) if replicas is not None else None,
                network_bandwidth=(
                    parse_size(net_bw) if net_bw is not None else None
                ),
                network_latency=float(net_lat) if net_lat is not None else None,
            )
        except ReproError as exc:
            raise ConfigError(f"tier {name!r}: {exc}") from exc
        tiers.append(
            StorageTier(
                name, device, parse_size(capacity), storage_root / name,
                clock, backend=backend,
            )
        )
    if not tiers:
        raise ConfigError("<storage> declares no tiers")
    hierarchy = StorageHierarchy(tiers)

    transports: dict[str, Transport] = {}
    for tr_el in root.findall("transport"):
        tier_name = tr_el.get("tier")
        method = tr_el.get("method", "POSIX")
        if tier_name is None:
            raise ConfigError("<transport> needs a tier attribute")
        params = {}
        for k, v in tr_el.attrib.items():
            if k in ("tier", "method"):
                continue
            # Network parameters take size strings / floats; everything
            # else (writers, aggregators, ...) is an integer count.
            if k == "network_bandwidth":
                params[k] = parse_size(v)
            elif k == "network_latency":
                params[k] = float(v)
            else:
                params[k] = int(v)
        transports[tier_name] = make_transport(
            method, hierarchy.tier(tier_name), **params
        )
    # Tiers without an explicit transport default to POSIX.
    for tier in hierarchy:
        transports.setdefault(tier.name, make_transport("POSIX", tier))

    cfg = CanopusConfig(hierarchy=hierarchy, transports=transports)
    placement_el = root.find("placement")
    if placement_el is not None:
        policy = placement_el.get("policy", DEFAULT_PLACEMENT)
        if policy not in PLACEMENTS:
            raise ConfigError(f"<placement> policy {policy!r} not in {PLACEMENTS}")
        cfg.placement = policy
    can_el = root.find("canopus")
    if can_el is not None:
        attrs = dict(can_el.attrib)
        if "levels" in attrs:
            cfg.levels = int(attrs.pop("levels"))
        if "codec" in attrs:
            cfg.codec = attrs.pop("codec")
        if "tolerance" in attrs:
            cfg.tolerance = float(attrs.pop("tolerance"))
        if "decimation" in attrs:
            cfg.decimation = float(attrs.pop("decimation"))
        cfg.extra = attrs
    return cfg
