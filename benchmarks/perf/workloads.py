"""The five workloads: set-up, one timed op, output checks.

Every workload is a closed loop. ``op`` is the timed region; ``account``
runs after the latency sample is taken and holds only cheap checks;
``finish`` runs the checks that need a second restore. Anything wrong
(an exception, a non-200, a body or product that differs) is one failed
op, so ``fail_ratio`` is failed / attempted.
"""

from __future__ import annotations

import io
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import (
    BPDataset,
    CampaignReader,
    CanopusEncoder,
    LevelScheme,
    Session,
    get_geometry_cache,
    get_restored_cache,
    two_tier_titan,
    write_campaign,
)
from repro.core.decimation_plan import get_plan_cache

import inputs
from server import Server, vm_hwm_mb
from spec import (
    CAMPAIGN,
    CHUNKS,
    CODEC,
    CODEC_PARAMS,
    DATASET,
    LEVELS,
    REQUEST_LEVELS,
    VARIABLES,
    WORKLOADS,
)
from stats import percentile

SCHEME = LevelScheme(LEVELS)
TIERS = ("tmpfs", "lustre")


def write_dataset(hierarchy, mesh, fields) -> None:
    """The single-shot three-variable dataset (the write_cold op body)."""
    encoder = CanopusEncoder(
        hierarchy, codec=CODEC, codec_params=CODEC_PARAMS, chunks=CHUNKS
    )
    dataset = BPDataset.create(DATASET, hierarchy)
    for var, data in fields.items():
        encoder.encode(
            DATASET, var, mesh, data, SCHEME, dataset=dataset, close=False
        )
    dataset.close()


def clock_ledger(clock) -> dict[str, float]:
    """One SimClock as the storage.* layer metrics plus the two totals."""
    out = {
        "sim_io_s_per_op": clock.elapsed,
        "tier_bytes_per_op": clock.bytes_moved(),
        "storage.put_calls": sum(e.op == "write" for e in clock.events),
        "storage.get_calls": sum(e.op == "read" for e in clock.events),
    }
    for tier in TIERS:
        out[f"storage.sim_write_s.{tier}"] = clock.total("write", tier)
        out[f"storage.sim_read_s.{tier}"] = clock.total("read", tier)
        out[f"storage.bytes.{tier}"] = clock.bytes_moved(tier=tier)
    return out


def product_crcs(root: Path, name: str) -> dict[str, tuple[int, int]]:
    """``{key: (crc32, length)}`` of every product a dataset holds."""
    records = BPDataset.open(name, two_tier_titan(root)).catalog.records
    return {k: (r.checksum, r.length) for k, r in records.items()}


def within_bound(restored, original) -> bool:
    """Level-0 error within one codec bound per applied product."""
    bound = LEVELS * CODEC_PARAMS["tolerance"] * float(np.ptp(original))
    return float(np.max(np.abs(restored - original))) <= bound


def npy_bytes(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


@dataclass
class LoopResult:
    samples: list[float]  # op latencies in seconds, all callers
    wall: float
    attempted: int


def closed_loop(workload, seconds, *, op=None, account=None, first=0):
    """Run ``workload.connections`` callers, each waiting for its reply.

    Every caller issues op ``first``, ``first + 1``, ... until the
    deadline; the op in flight at the deadline completes. ``op`` and
    ``account`` default to the workload's own (the traced pass passes
    staged ones). A raise from either is one failed op.
    """
    op = op or workload.op
    account = account or workload.account
    callers = workload.connections
    samples: list[list[float]] = [[] for _ in range(callers)]
    attempted = [0] * callers

    def caller(conn: int) -> None:
        streak = 0
        while streak < 20:  # a dead server must not spin out the clock
            i = first + attempted[conn]
            attempted[conn] += 1
            began = time.perf_counter()
            try:
                result = op(conn, i)
                samples[conn].append(time.perf_counter() - began)
                account(conn, i, result)
                streak = 0
            except Exception as exc:  # noqa: BLE001 - counted, not hidden
                workload.fail(f"op {i}: {type(exc).__name__}: {exc}")
                streak += 1
            if time.perf_counter() >= deadline:
                break

    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=caller, args=(c,)) for c in range(1, callers)
    ]
    for thread in threads:
        thread.start()
    caller(0)
    for thread in threads:
        thread.join()
    return LoopResult(
        samples=[s for per in samples for s in per],
        wall=time.perf_counter() - start,
        attempted=sum(attempted),
    )


class Workload:
    """Shared bookkeeping; subclasses fill in setup / op / account."""

    name = ""

    def __init__(self, seed: int, workdir: Path, traced=False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.traced = traced
        self.connections = WORKLOADS[self.name]["connections"]
        self.failed = 0
        self.notes: list[str] = []
        self.ledger: dict[str, float] = {}
        self._lock = threading.Lock()

    def fail(self, why: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(why)

    def fresh_root(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.workdir, prefix="root-"))

    def setup(self) -> None:
        raise NotImplementedError

    def begin(self) -> None:
        """Last step before the timed loop (counter snapshots)."""

    def op(self, conn: int, i: int):
        raise NotImplementedError

    def account(self, conn: int, i: int, result) -> None:
        """Cheap per-op checks and ledger; outside the latency sample."""

    def finish(self, ops: int) -> dict[str, float]:
        """Post-loop checks; returns the workload's extra metrics."""
        return {}

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def teardown(self) -> None:
        for root in self.workdir.glob("root-*"):
            shutil.rmtree(root, ignore_errors=True)


class _WriteWorkload(Workload):
    """Write loops: a fresh hierarchy per op, products compared by CRC."""

    dataset = ""

    def setup(self) -> None:
        self.roots: list[Path] = []
        self.stored = 0

    def begin(self) -> None:
        self.roots.clear()
        cache = get_plan_cache().stats
        self._plan_before = (cache["hits"], cache["misses"])

    def account(self, conn, i, result) -> None:
        root, hierarchy = result
        self.ledger = clock_ledger(hierarchy.clock)
        self.stored = sum(t.used_bytes for t in hierarchy.tiers)
        self.roots.append(root)

    def restores_within_bound(self, root: Path) -> bool:
        raise NotImplementedError

    def finish(self, ops: int) -> dict[str, float]:
        cache = get_plan_cache().stats
        hits = cache["hits"] - self._plan_before[0]
        misses = cache["misses"] - self._plan_before[1]
        first = product_crcs(self.roots[0], self.dataset)
        for root in self.roots[1:]:
            if product_crcs(root, self.dataset) != first:
                self.fail(f"product CRCs of {root.name} differ from op 0")
        # Identical CRCs mean identical products, so restoring the first
        # and the last op's datasets checks every op's.
        for root in {self.roots[0], self.roots[-1]}:
            if not self.restores_within_bound(root):
                self.fail(f"{root.name}: level 0 outside the codec bound")
        catalog = self.roots[0] / "lustre" / f"{self.dataset}.catalog.json"
        return {
            **self.ledger,
            "stored_bytes_per_user_byte": self.stored / self.raw_bytes,
            "core.plan_cache_hit_ratio": hits / max(1, hits + misses),
            "io.catalog_bytes": catalog.stat().st_size,
        }


class WriteCold(_WriteWorkload):
    name = "write_cold"
    dataset = DATASET

    def setup(self) -> None:
        super().setup()
        self.mesh, self.fields = inputs.make_fields(self.seed)
        self.raw_bytes = sum(f.nbytes for f in self.fields.values())

    def begin(self) -> None:
        super().begin()
        # Every op clears the plan cache and its counters with it, so
        # after the loop they hold exactly the last op's hits and misses.
        self._plan_before = (0, 0)

    def op(self, conn, i):
        root = self.fresh_root()
        hierarchy = two_tier_titan(root)
        get_plan_cache().clear()
        write_dataset(hierarchy, self.mesh, self.fields)
        return root, hierarchy

    def restores_within_bound(self, root: Path) -> bool:
        with Session(two_tier_titan(root)) as session:
            campaign = session.open(DATASET)
            return all(
                within_bound(campaign.restore(var, level=0).field, original)
                for var, original in self.fields.items()
            )


class WriteSteady(_WriteWorkload):
    name = "write_steady"
    dataset = CAMPAIGN

    def setup(self) -> None:
        super().setup()
        self.mesh, self.steps = inputs.make_steps(self.seed)
        self.raw_bytes = sum(s.nbytes for s in self.steps)
        # Plan warm-up through the entry point itself, so whatever plan
        # key write_campaign's defaults produce is the one that is warm.
        get_plan_cache().clear()
        self.op(0, -1)

    def op(self, conn, i):
        root = self.fresh_root()
        hierarchy = two_tier_titan(root)
        write_campaign(
            hierarchy, CAMPAIGN, "dpot", self.mesh, self.steps, SCHEME,
            codec=CODEC, codec_params=CODEC_PARAMS,
        )
        return root, hierarchy

    def restores_within_bound(self, root: Path) -> bool:
        reader = CampaignReader(two_tier_titan(root), CAMPAIGN)
        return all(
            within_bound(reader.restore(step, 0).field, original)
            for step, original in enumerate(self.steps)
        )


class _ReadWorkload(Workload):
    """Workloads that consume the dataset write_cold produces."""

    def build_dataset(self) -> None:
        self.mesh, self.fields = inputs.make_fields(self.seed)
        self.root = self.fresh_root()
        get_plan_cache().clear()
        write_dataset(two_tier_titan(self.root), self.mesh, self.fields)

    def oracle(self):
        """An in-process ``CampaignHandle`` on the same bytes."""
        if not hasattr(self, "_session"):
            self._session = Session(two_tier_titan(self.root))
        return self._session.open(DATASET)

    def reference(self, var: str, **request) -> np.ndarray:
        """In-process ``Session.restore`` of one request."""
        return self.oracle().restore(var, **request).field

    def teardown(self) -> None:
        if hasattr(self, "_session"):
            self._session.close()
            del self._session
        super().teardown()


class ReadCold(_ReadWorkload):
    name = "read_cold"

    def setup(self) -> None:
        self.build_dataset()
        self.refs = {
            (var, level): self.reference(var, level=level).copy()
            for var in VARIABLES for level in REQUEST_LEVELS
        }
        for var, original in self.fields.items():
            if not within_bound(self.refs[var, 0], original):
                self.fail(f"{var}: level 0 outside the codec bound")
        self.per_level: dict[int, list[float]] = {
            lv: [] for lv in REQUEST_LEVELS
        }

    def begin(self) -> None:
        for samples in self.per_level.values():
            samples.clear()
        cache = get_restored_cache().stats()
        self._restored_before = (cache["hits"], cache["misses"])

    def op(self, conn, i):
        get_restored_cache().clear()
        get_geometry_cache().clear()
        hierarchy = two_tier_titan(self.root)
        fields, marks = {}, [time.perf_counter()]
        with Session(hierarchy) as session:
            campaign = session.open(DATASET)
            for level in REQUEST_LEVELS:
                for var in VARIABLES:
                    fields[var, level] = campaign.restore(
                        var, level=level
                    ).field
                marks.append(time.perf_counter())
            engine = campaign.dataset.engine_stats().snapshot()
        return hierarchy.clock, marks, fields, engine

    def account(self, conn, i, result) -> None:
        clock, marks, fields, engine = result
        for level, start, end in zip(REQUEST_LEVELS, marks, marks[1:]):
            self.per_level[level].append(end - start)
        for key, ref in self.refs.items():
            if not np.array_equal(fields[key], ref):
                self.fail(f"op {i}: {key} differs from the reference")
                break
        self.ledger = clock_ledger(clock)
        self.ledger["io.fetched_bytes"] = sum(
            engine["bytes_from_tier"].values()
        )
        self.ledger["io.range_cache_hit_ratio"] = engine["hit_ratio"]

    def finish(self, ops: int) -> dict[str, float]:
        cache = get_restored_cache().stats()
        hits = cache["hits"] - self._restored_before[0]
        misses = cache["misses"] - self._restored_before[1]
        out = dict(self.ledger)
        out["core.restored_cache_hit_ratio"] = hits / max(1, hits + misses)
        for level, samples in self.per_level.items():
            out[f"session.restore_cold_ms.L{level}"] = (
                percentile(samples, 50) * 1e3
            )
        # The preview is the base level: the first split of the op.
        out["preview_p50_ms"] = out[
            f"session.restore_cold_ms.L{REQUEST_LEVELS[0]}"
        ]
        return out


class _ServedWorkload(_ReadWorkload):
    """Two keep-alive connections, one per tenant, against ``repro serve``."""

    @property
    def access_log(self) -> Path:
        return self.workdir / "access.jsonl"

    @staticmethod
    def fetch(connection, target, op_id):
        """One GET; the traced pass swaps in a span-recording version."""
        return connection.get(target)

    def boot(self) -> None:
        self.build_dataset()
        # The traced pass's server keeps raw per-request wall times.
        extra = ("--access-log", str(self.access_log)) if self.traced else ()
        self.server = Server(self.root, self.workdir, extra)
        self.conns = [
            self.server.connect(c) for c in range(self.connections)
        ]
        self.control = self.server.connect(0)
        self.cache_headers = {"hit": 0, "miss": 0}

    def scrape(self) -> dict[str, float]:
        """The counters the ledger needs, from one /v1/metrics read."""
        metrics = self.control.get_json("/v1/metrics")
        node = metrics["datanode"]
        engine = node["engine"].get(DATASET, {})
        out = {
            "sim_io_s": sum(
                t["total_sim_read_seconds"]
                for t in metrics["tenants"].values()
            ),
            "tier_bytes": sum(engine.get("bytes_from_tier", {}).values()),
            "range_hits": engine.get("hits", 0),
            "range_misses": engine.get("misses", 0),
            "restored_hits": node["restored_cache"]["hits"],
            "restored_misses": node["restored_cache"]["misses"],
        }
        for tier in TIERS:
            out[f"bytes.{tier}"] = engine.get("bytes_from_tier", {}).get(
                tier, 0
            )
        return out

    def begin(self) -> None:
        self.cache_headers = {"hit": 0, "miss": 0}
        self._before = self.scrape()

    def count_cache_header(self, headers) -> None:
        state = headers.get("x-canopus-cache")
        if state in self.cache_headers:
            with self._lock:
                self.cache_headers[state] += 1

    def finish(self, ops: int) -> dict[str, float]:
        delta = {k: v - self._before[k] for k, v in self.scrape().items()}
        ops = max(1, ops)
        answered = max(1, sum(self.cache_headers.values()))
        out = {
            "sim_io_s_per_op": delta["sim_io_s"] / ops,
            "tier_bytes_per_op": delta["tier_bytes"] / ops,
            "io.fetched_bytes": delta["tier_bytes"] / ops,
            "io.range_cache_hit_ratio": delta["range_hits"] / max(
                1, delta["range_hits"] + delta["range_misses"]
            ),
            "core.restored_cache_hit_ratio": delta["restored_hits"] / max(
                1, delta["restored_hits"] + delta["restored_misses"]
            ),
            "service.cache_hit_ratio": self.cache_headers["hit"] / answered,
        }
        for tier in TIERS:
            out[f"storage.bytes.{tier}"] = delta[f"bytes.{tier}"] / ops
        return out

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def teardown(self) -> None:
        if hasattr(self, "server"):
            for conn in (*self.conns, self.control):
                conn.close()
            self.server.stop()
            del self.server
        super().teardown()


class ServeHot(_ServedWorkload):
    name = "serve_hot"

    def setup(self) -> None:
        self.boot()
        self.products = inputs.hot_products(self.seed)
        self.targets = [
            inputs.restore_target(DATASET, {"var": var, "level": level})
            for var, level in self.products
        ]
        self.bodies = [
            npy_bytes(self.reference(var, level=level))
            for var, level in self.products
        ]
        # Warm-up pass: afterwards all nine products are resident.
        for k, target in enumerate(self.targets):
            self.account(0, -1, (k, *self.conns[0].get(target)))

    def op(self, conn, i):
        # The second connection starts mid-cycle so the two never ask
        # for the same product in lockstep.
        k = (i + conn * (len(self.targets) // 2)) % len(self.targets)
        return (k, *self.fetch(
            self.conns[conn], self.targets[k], f"{conn}:{i}"
        ))

    def account(self, conn, i, result) -> None:
        k, status, headers, body = result
        self.count_cache_header(headers)
        if status != 200:
            self.fail(f"{self.targets[k]} -> {status}")
        elif body != self.bodies[k] and not np.array_equal(
            np.load(io.BytesIO(body)), np.load(io.BytesIO(self.bodies[k]))
        ):
            self.fail(f"{self.targets[k]}: body differs from Session.restore")


class ServeRoi(_ServedWorkload):
    name = "serve_roi"
    #: The restored-level cache keeps every distinct region result
    #: (about 0.6 MB each) until its 512 MB budget, so the server's
    #: high-water mark grows with the requests answered. It is read when
    #: this many timed requests have completed, so that a faster server
    #: is not charged for answering more of them.
    RSS_AT_REQUESTS = 200

    def setup(self) -> None:
        self.boot()
        self.requests = inputs.roi_requests(self.seed, 8192)
        self.kept: dict[int, bytes] = {}
        self.answered, self.rss_mb = 0, None
        # Warm-up pass: one full-domain restore per variable fills the
        # range and geometry caches, and no region result with them.
        for var in VARIABLES:
            target = inputs.restore_target(DATASET, {"var": var, "level": 0})
            status = self.conns[0].get(target)[0]
            if status != 200:
                self.fail(f"warm-up {target} -> {status}")
        self._warmup = inputs.roi_requests(self.seed, 4, stream=1)

    def begin(self) -> None:
        super().begin()
        self.kept.clear()
        self.answered, self.rss_mb = 0, None

    def op(self, conn, i):
        if i < 0:  # the discarded warm-up op uses its own stream
            request = self._warmup[conn]
            index = -1
        else:
            index = (i * self.connections + conn) % len(self.requests)
            request = self.requests[index]
        return (index, *self.fetch(
            self.conns[conn], inputs.restore_target(DATASET, request),
            f"{conn}:{i}",
        ))

    def account(self, conn, i, result) -> None:
        index, status, headers, body = result
        self.count_cache_header(headers)
        with self._lock:
            self.answered += 1
            at_mark = self.answered == self.RSS_AT_REQUESTS
        if at_mark:
            self.rss_mb = self.server.peak_rss_mb()
        if status != 200:
            self.fail(f"request {index} -> {status}")
            return
        shape = [int(n) for n in headers["x-canopus-shape"].split(",")]
        if body[:6] != b"\x93NUMPY" or len(body) <= 8 * int(np.prod(shape)):
            self.fail(f"request {index}: not an npy body of shape {shape}")
        elif index >= 0:
            with self._lock:
                self.kept[index] = body

    def finish(self, ops: int) -> dict[str, float]:
        out = super().finish(ops)
        self.check_kept()
        return out

    def check_kept(self) -> None:
        """Every kept body against an in-process restore of its request."""
        for index, body in sorted(self.kept.items()):
            request = self.requests[index]
            expected = self.reference(
                request["var"], **inputs.restore_kwargs(request)
            )
            served = np.load(io.BytesIO(body))
            if (served.shape != expected.shape
                    or served.tobytes() != expected.tobytes()):
                self.fail(f"request {index}: body differs from "
                          f"Session.restore({request})")
        self.kept.clear()

    def peak_rss_mb(self) -> float:
        return self.rss_mb or self.server.peak_rss_mb()


BY_NAME = {
    cls.name: cls
    for cls in (WriteCold, WriteSteady, ReadCold, ServeHot, ServeRoi)
}
