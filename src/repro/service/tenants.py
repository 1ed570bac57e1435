"""Per-tenant authentication, quotas, and usage accounting.

Every request to the read tier carries a bearer token; the registry
resolves it to a :class:`TenantConfig` and enforces three independent
budgets before any bytes move:

* **rate** — at most ``max_requests`` requests per rolling
  ``window_seconds`` window;
* **bytes** — at most ``max_bytes`` response bytes per window (charged
  as responses are assembled, checked at admission);
* **concurrency** — at most ``max_inflight`` requests simultaneously
  inside the data node (protects the bounded executor from one tenant
  queueing out everyone else).

Violations raise :class:`~repro.errors.QuotaError` (wire code
``quota-exceeded`` → 429 with ``Retry-After``); unknown/missing tokens
raise :class:`~repro.errors.AuthError` (``unauthorized`` → 401).
Accounting is mirrored into :mod:`repro.obs` counters labeled by
tenant (``service.requests{tenant=...}``, ``service.bytes_served``,
``service.quota_rejections``, ``service.sim_read_seconds``), so one
``registry.snapshot()`` shows who is using the tier and how much.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import AuthError, ConfigError, QuotaError
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["TenantConfig", "TenantRegistry", "TenantUsage"]


@dataclass(frozen=True)
class TenantConfig:
    """Static description of one tenant (name, credential, budgets)."""

    name: str
    token: str
    #: Requests allowed per window (None = unlimited).
    max_requests: int | None = None
    #: Response bytes allowed per window (None = unlimited).
    max_bytes: int | None = None
    #: Concurrent in-flight requests (None = unlimited).
    max_inflight: int | None = None
    #: Length of the rolling accounting window, in seconds.
    window_seconds: float = 1.0

    @classmethod
    def from_dict(cls, raw: dict) -> "TenantConfig":
        try:
            return cls(
                name=str(raw["name"]),
                token=str(raw["token"]),
                max_requests=raw.get("max_requests"),
                max_bytes=raw.get("max_bytes"),
                max_inflight=raw.get("max_inflight"),
                window_seconds=float(raw.get("window_seconds", 1.0)),
            )
        except KeyError as exc:
            raise ConfigError(f"tenant config missing {exc.args[0]!r}") from exc


@dataclass
class TenantUsage:
    """Mutable per-tenant accounting state (registry-internal)."""

    window_start: float = 0.0
    window_requests: int = 0
    window_bytes: int = 0
    inflight: int = 0
    total_requests: int = 0
    total_bytes: int = 0
    total_sim_read_seconds: float = 0.0
    rejected: int = 0

    def snapshot(self) -> dict:
        return {
            "inflight": self.inflight,
            "window_requests": self.window_requests,
            "window_bytes": self.window_bytes,
            "total_requests": self.total_requests,
            "total_bytes": self.total_bytes,
            "total_sim_read_seconds": self.total_sim_read_seconds,
            "rejected": self.rejected,
        }


class TenantRegistry:
    """Token → tenant resolution plus thread-safe quota accounting.

    The registry is shared between the event loop (admission) and the
    data-node executor threads (sim-read attribution), so every state
    change happens under one lock. ``clock`` is injectable for
    deterministic window tests.
    """

    def __init__(
        self,
        tenants: list[TenantConfig] | None = None,
        *,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        self._by_token: dict[str, TenantConfig] = {}
        self._by_name: dict[str, TenantConfig] = {}
        self._usage: dict[str, TenantUsage] = {}
        self._clock = clock
        self.metrics = metrics if metrics is not None else get_registry()
        for tenant in tenants or []:
            self.add(tenant)

    # -- construction ---------------------------------------------------
    def add(self, tenant: TenantConfig) -> None:
        with self._lock:
            if tenant.token in self._by_token:
                raise ConfigError(
                    f"duplicate tenant token for {tenant.name!r}"
                )
            if any(t.name == tenant.name for t in self._by_token.values()):
                raise ConfigError(f"duplicate tenant name {tenant.name!r}")
            self._by_token[tenant.token] = tenant
            self._by_name[tenant.name] = tenant
            self._usage[tenant.name] = TenantUsage()

    @classmethod
    def from_file(cls, path: str | Path, **kwargs) -> "TenantRegistry":
        """Load ``[{"name":..., "token":..., ...}, ...]`` from JSON."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read tenants file {path}: {exc}") from exc
        if not isinstance(raw, list):
            raise ConfigError("tenants file must hold a JSON list")
        return cls([TenantConfig.from_dict(item) for item in raw], **kwargs)

    @classmethod
    def open_access(cls, **kwargs) -> "TenantRegistry":
        """Single anonymous tenant with no budgets (dev mode)."""
        return cls([TenantConfig(name="anonymous", token="")], **kwargs)

    def tenants(self) -> list[TenantConfig]:
        with self._lock:
            return sorted(self._by_token.values(), key=lambda t: t.name)

    def find(self, name: str) -> TenantConfig | None:
        """Tenant by name (used for context-based charge attribution)."""
        with self._lock:
            return self._by_name.get(name)

    # -- authentication -------------------------------------------------
    def authenticate(self, authorization: str | None) -> TenantConfig:
        """Resolve an ``Authorization`` header value to a tenant."""
        token = ""
        if authorization:
            scheme, _, credential = authorization.partition(" ")
            if scheme.lower() != "bearer" or not credential.strip():
                raise AuthError("expected 'Authorization: Bearer <token>'")
            token = credential.strip()
        with self._lock:
            tenant = self._by_token.get(token)
        if tenant is None:
            raise AuthError("unknown or missing bearer token")
        return tenant

    # -- admission / accounting ----------------------------------------
    def _roll_window(self, tenant: TenantConfig, usage: TenantUsage) -> None:
        now = self._clock()
        if now - usage.window_start >= tenant.window_seconds:
            usage.window_start = now
            usage.window_requests = 0
            usage.window_bytes = 0

    def admit(self, tenant: TenantConfig) -> None:
        """Admit one request or raise :class:`QuotaError` (429)."""
        with self._lock:
            usage = self._usage[tenant.name]
            self._roll_window(tenant, usage)
            retry = max(
                0.0,
                tenant.window_seconds - (self._clock() - usage.window_start),
            )
            if (
                tenant.max_inflight is not None
                and usage.inflight >= tenant.max_inflight
            ):
                usage.rejected += 1
                self._count("service.quota_rejections", tenant, 1)
                raise QuotaError(
                    f"tenant {tenant.name!r} has {usage.inflight} requests "
                    f"in flight (limit {tenant.max_inflight})",
                    retry_after=retry or tenant.window_seconds,
                )
            if (
                tenant.max_requests is not None
                and usage.window_requests >= tenant.max_requests
            ):
                usage.rejected += 1
                self._count("service.quota_rejections", tenant, 1)
                raise QuotaError(
                    f"tenant {tenant.name!r} exceeded {tenant.max_requests} "
                    f"requests / {tenant.window_seconds}s",
                    retry_after=retry or tenant.window_seconds,
                )
            if (
                tenant.max_bytes is not None
                and usage.window_bytes >= tenant.max_bytes
            ):
                usage.rejected += 1
                self._count("service.quota_rejections", tenant, 1)
                raise QuotaError(
                    f"tenant {tenant.name!r} exceeded {tenant.max_bytes} "
                    f"bytes / {tenant.window_seconds}s",
                    retry_after=retry or tenant.window_seconds,
                )
            usage.inflight += 1
            usage.window_requests += 1
            usage.total_requests += 1
        self._count("service.requests", tenant, 1)

    def release(self, tenant: TenantConfig) -> None:
        with self._lock:
            usage = self._usage[tenant.name]
            usage.inflight = max(0, usage.inflight - 1)

    def charge_bytes(self, tenant: TenantConfig, nbytes: int) -> None:
        """Account response bytes (debited against the window budget)."""
        with self._lock:
            usage = self._usage[tenant.name]
            usage.window_bytes += nbytes
            usage.total_bytes += nbytes
        self._count("service.bytes_served", tenant, nbytes)

    def charge_sim_read(self, tenant: TenantConfig, seconds: float) -> None:
        """Attribute simulated tier-read seconds to a tenant."""
        with self._lock:
            self._usage[tenant.name].total_sim_read_seconds += seconds
        self._count("service.sim_read_seconds", tenant, seconds)

    def _count(self, name: str, tenant: TenantConfig, n) -> None:
        self.metrics.counter(name, tenant=tenant.name).inc(n)

    # -- reporting ------------------------------------------------------
    def usage(self, name: str | None = None) -> dict:
        """Per-tenant usage snapshot (all tenants, or one by name)."""
        with self._lock:
            if name is not None:
                return self._usage[name].snapshot()
            return {
                tenant: usage.snapshot()
                for tenant, usage in sorted(self._usage.items())
            }
