"""Canopus-as-a-service: an asyncio multi-tenant HTTP read tier.

HSDS-style split in one process (and one import surface):

* **service node** (:mod:`repro.service.servicenode`) — stateless
  request handling: HTTP parsing, per-tenant bearer-token auth +
  quota/rate accounting, routing, response assembly, ETag/cursor
  negotiation;
* **data node** (:mod:`repro.service.datanode`) — owns the storage
  hierarchy/backends and runs the
  :class:`~repro.core.decoder.CanopusDecoder` near the bytes on a
  bounded executor, so blocking decode work never stalls the event
  loop. All tenants share the process-wide restored-level/geometry
  caches and each dataset's retrieval-engine prefetch pipeline;
* **client** (:mod:`repro.service.client`) — a stdlib asyncio client
  used by the test suite and as the reference for external consumers.

:class:`~repro.service.servicenode.ServiceThread` hosts a service on its
own thread + event loop, so in-process clients and handlers run on
different OS threads.

Quick start::

    from repro.service import CanopusService, ServiceClient, TenantConfig

    service = CanopusService(hierarchy, tenants=[TenantConfig("alice", token="s3cret")])
    host, port = await service.start()
    async with ServiceClient(host, port, token="s3cret") as client:
        info = await client.open_campaign("fig9-multi")
        field, meta = await client.restore("fig9-multi", "dpot", level=0)

or from the shell: ``repro serve --root /path/to/store --port 8080``
(add ``--tracing`` for the ``/v1/trace*`` endpoints and ``traceparent``
propagation, then ``repro obs report --url ...`` for a live view of the
slowest requests and SLO burn rates).
"""

from repro.service.client import ServiceClient
from repro.service.datanode import DataNode
from repro.service.http import Request, Response
from repro.service.servicenode import CanopusService, ServiceNode, ServiceThread
from repro.service.tenants import TenantConfig, TenantRegistry

__all__ = [
    "CanopusService",
    "DataNode",
    "Request",
    "Response",
    "ServiceClient",
    "ServiceNode",
    "ServiceThread",
    "TenantConfig",
    "TenantRegistry",
]
