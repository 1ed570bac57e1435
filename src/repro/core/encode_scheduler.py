"""Multiprocess streaming encode: shared-memory scheduler + fused kernels.

The write path (paper §III-C1) refactors per MPI rank with zero
inter-rank communication; one Python process gets plan replay and
codec encodes on a thread pool, but the GIL-bound replay loop caps
throughput well below the hardware on campaigns 100x fig scale. This module scales the encode across
*processes* while keeping products bit-identical:

* :class:`EncodeScheduler` shards encode work by ``(plane, timestep)``
  with **locality-aware assignment**: every timestep of one plane lands
  on the worker that already holds that plane's
  :class:`~repro.core.decimation_plan.DecimationPlan`. Plans are
  decimated at most once per mesh fingerprint per worker (through the
  worker's process-local plan cache — warm when forked) and replayed
  per task; they are never pickled per task.
* Field data moves worker-bound through
  :mod:`multiprocessing.shared_memory` slots instead of pickled
  ndarrays. A windowed producer keeps at most ``window`` timesteps of
  raw data in flight, so a campaign of any length encodes in
  O(window) resident memory; compressed products flow back to the
  single aggregating writer (the I/O stage stays serialized, like an
  aggregating transport).
* Each task runs the one write-side task body
  (:func:`~repro.core.refactor.fused_step_products`): one level in
  flight at a time, pooled scratch buffers from a
  :class:`~repro.core.refactor.BufferArena` instead of materializing
  every level and every delta before compressing.

Observability: ``encode.sched.*`` counters (tasks, shm_bytes,
plan_replays, plan_builds, window_stalls), ``encode.sched.peak_rss_bytes``
/ ``encode.sched.shm_hwm_bytes`` gauges, and per-worker task spans
folded into the active trace tree via ``Tracer.record_span``.
"""

from __future__ import annotations

import math
import multiprocessing
import queue as queue_mod
import resource
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.compress import get_codec
from repro.core.decimation_plan import (
    as_field,
    get_plan_cache,
    mesh_fingerprint,
    plan_for,
)
from repro.core.layout import ProductWriter, declare_variable
from repro.core.notation import GEOM_VAR, LevelScheme, step_chain
from repro.core.refactor import BufferArena, fused_step_products
from repro.errors import CanopusError
from repro.mesh.edge_collapse import DEFAULT_METHOD
from repro.mesh.triangle_mesh import TriangleMesh
from repro.obs import trace
from repro.obs.metrics import get_registry

__all__ = [
    "EncodeScheduler",
    "ScaleoutReport",
    "SchedPlane",
    "encode_campaign_scaleout",
]

_STOP = ("stop",)


# ---------------------------------------------------------------------------
# metrics helpers: bump both the global registry and the active tracer's
# (when they are distinct objects), so `repro trace` and the service
# metrics endpoint both see scheduler activity.
def _bump(name: str, n: int | float = 1) -> None:
    get_registry().counter(name).inc(n)
    tracer = trace.get_tracer()
    if tracer is not None and tracer.metrics is not get_registry():
        tracer.metrics.counter(name).inc(n)


def _gauge_max(name: str, value: float) -> None:
    """Set a high-water gauge (monotone within a process)."""
    registries = [get_registry()]
    tracer = trace.get_tracer()
    if tracer is not None and tracer.metrics is not get_registry():
        registries.append(tracer.metrics)
    for registry in registries:
        gauge = registry.gauge(name)
        if value > gauge.value:
            gauge.set(value)


def _peak_rss_bytes() -> int:
    """This process's peak resident set size (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SchedPlane:
    """One shard source: a mesh whose timesteps form encode tasks."""

    plane_id: int
    mesh: TriangleMesh
    scheme: LevelScheme


@dataclass
class ScaleoutReport:
    """Measurements of one scheduler run."""

    tasks: int = 0
    planes: int = 0
    processes: int = 0
    window: int = 0
    start_method: str = "inline"
    wall_seconds: float = 0.0
    #: cumulative raw bytes shipped worker-bound through shared memory
    shm_bytes: int = 0
    #: high-water mark of concurrently allocated shared-memory slots
    shm_hwm_bytes: int = 0
    window_stalls: int = 0
    plan_builds: int = 0
    plan_replays: int = 0
    compressed_bytes: int = 0
    #: max peak RSS across the parent and every worker process
    peak_rss_bytes: int = 0
    per_task_seconds: list[float] = field(default_factory=list)
    worker_stats: list[dict] = field(default_factory=list)
    #: campaign frontend only: ``{step: (compressed_bytes, stage_stats)}``
    step_records: dict = field(default_factory=dict)

    @property
    def vertices_encoded(self) -> int:
        return int(self._vertices)

    _vertices: int = 0

    def throughput_vertices_per_second(self) -> float:
        return self._vertices / max(self.wall_seconds, 1e-9)


# ---------------------------------------------------------------------------
# worker side
def _attach_shm(name: str):
    """Attach to a parent-owned segment without adopting its lifetime.

    Attaching normally re-registers the segment with the (shared)
    resource tracker, so a worker exiting — or unregistering — would
    clobber the parent's registration and the parent's unlink would
    then trip the tracker. Suppressing the register during attach keeps
    ownership squarely with the parent, which unlinks everything at
    shutdown. (Python 3.13's ``track=False`` does this natively; this
    supports older interpreters.)
    """
    from multiprocessing import resource_tracker, shared_memory

    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def _shm_ndarray(shm, shape: tuple, dtype: str, offset: int = 0) -> np.ndarray:
    count = int(math.prod(shape)) if shape else 1
    arr = np.frombuffer(
        shm.buf, dtype=np.dtype(dtype), count=count, offset=offset
    )
    return arr.reshape(shape)


def _build_plane_state(
    mesh: TriangleMesh, scheme: LevelScheme, cfg: dict
) -> tuple:
    """(plan, codec, geometry_payload) for one plane.

    Data-dependent priorities decimate from geometry alone here (the
    stream's fields are not known at plane-setup time), as at
    :class:`~repro.core.campaign.CampaignWriter` setup.
    """
    cache = get_plan_cache()
    hits = cache.stats["hits"]
    plan = plan_for(
        mesh, scheme, method=cfg["method"], priority=cfg["priority"],
        estimator=cfg["estimator"],
    )
    codec = get_codec(cfg["codec"], **cfg["codec_params"])
    mesh_blobs, mapping_blobs = plan.geometry_blobs()
    geom = {
        "fingerprint": mesh_fingerprint(mesh),
        # Decimated here, not a cache hit.
        "built": cache.stats["hits"] == hits,
        "counts": [m.num_vertices for m in plan.meshes],
        "mesh_blobs": mesh_blobs,
        "mapping_blobs": mapping_blobs,
    }
    return plan, codec, geom


def _worker_main(worker_id: int, task_q, result_q, cfg: dict) -> None:
    """Worker loop: own plans for assigned planes, fuse-encode tasks.

    Protocol (task_q, FIFO): ``("plane", ...)`` registers a plane (mesh
    arrives via a one-shot shm block), ``("task", ...)`` encodes one
    timestep read from a windowed shm slot, ``("stop",)`` drains out.
    Every reply carries ``worker_id`` so the parent can fold per-worker
    spans and counters into its trace.
    """
    planes: dict[int, tuple] = {}
    attached: dict[str, object] = {}
    data = None
    arena = BufferArena()
    counters = {
        "worker_id": worker_id, "tasks": 0, "plan_builds": 0,
        "plan_replays": 0, "arena_hits": 0, "arena_bytes_reused": 0,
    }
    try:
        while True:
            msg = task_q.get()
            kind = msg[0]
            if kind == "stop":
                break
            if kind == "plane":
                (_, plane_id, shm_name, v_shape, v_dtype, t_shape,
                 t_dtype, num_levels, step_ratio) = msg
                shm = _attach_shm(shm_name)
                v_bytes = int(math.prod(v_shape)) * np.dtype(v_dtype).itemsize
                vertices = _shm_ndarray(shm, v_shape, v_dtype).copy()
                triangles = _shm_ndarray(
                    shm, t_shape, t_dtype, offset=v_bytes
                ).copy()
                try:
                    shm.close()  # one-shot block; parent unlinks on geom
                except BufferError:  # pragma: no cover - views were copied
                    pass
                mesh = TriangleMesh(vertices, triangles, validate=False)
                scheme = LevelScheme(num_levels, step_ratio)
                plan, codec, geom = _build_plane_state(mesh, scheme, cfg)
                counters["plan_builds"] += int(geom["built"])
                planes[plane_id] = (plan, codec)
                geom["mesh_shm"] = shm_name
                result_q.put(("geom", worker_id, plane_id, geom))
            elif kind == "task":
                _, seq, plane_id, step, shm_name, shape = msg
                plan, codec = planes[plane_id]
                if shm_name not in attached:
                    attached[shm_name] = _attach_shm(shm_name)
                data = _shm_ndarray(attached[shm_name], shape, "float64")
                # The parent validated the field before shipping it.
                products, stats = fused_step_products(
                    plan, data, codec, arena=arena
                )
                counters["tasks"] += 1
                counters["plan_replays"] += 1
                result_q.put(
                    ("done", worker_id, seq, plane_id, step, products, stats)
                )
    except Exception:
        result_q.put(("error", worker_id, traceback.format_exc()))
    finally:
        counters["arena_hits"] = arena.hits
        counters["arena_bytes_reused"] = arena.bytes_reused
        counters["peak_rss_bytes"] = _peak_rss_bytes()
        arena.clear()
        # A segment cannot close while a view of it is alive, and a task
        # that raised leaves its view in `data`.
        data = None
        for shm in attached.values():
            try:
                shm.close()
            except BufferError:
                pass
        result_q.put(("bye", worker_id, counters))


# ---------------------------------------------------------------------------
# parent side
def _what(planes, plane_id: int, step: int) -> str:
    """How an error names a task's field: by step, and by plane when
    the run has several."""
    plane = f"plane {plane_id} " if len(planes) > 1 else ""
    return f"{plane}step {step}: "


class _SlotPool:
    """Windowed pool of shared-memory slots owned by the parent.

    At most ``window`` slots exist; a slot is re-used verbatim when the
    next task fits, grown (unlink + re-create) when it does not. The
    pool's total allocation is the streaming path's resident footprint
    for raw field data — ``shm_hwm_bytes`` reports its high water.
    """

    def __init__(self, window: int) -> None:
        from multiprocessing import shared_memory

        self._shared_memory = shared_memory
        self.window = window
        self._free: list = []
        self._live: dict[str, object] = {}
        self.total_bytes = 0
        self.hwm_bytes = 0

    def __len__(self) -> int:
        return len(self._live)

    @property
    def in_use(self) -> int:
        return len(self._live) - len(self._free)

    def acquire(self, nbytes: int):
        for i, shm in enumerate(self._free):
            if shm.size >= nbytes:
                return self._free.pop(i)
        if self._free:
            # Every free slot is too small: grow the smallest one.
            shm = min(self._free, key=lambda s: s.size)
            self._free.remove(shm)
            self._destroy(shm)
        if len(self._live) >= self.window:
            raise CanopusError(
                "slot pool over-acquired beyond its window"
            )  # pragma: no cover - guarded by the scheduler loop
        shm = self._shared_memory.SharedMemory(create=True, size=nbytes)
        self._live[shm.name] = shm
        self.total_bytes += shm.size
        self.hwm_bytes = max(self.hwm_bytes, self.total_bytes)
        return shm

    def release(self, name: str) -> None:
        self._free.append(self._live[name])

    def _destroy(self, shm) -> None:
        del self._live[shm.name]
        self.total_bytes -= shm.size
        try:
            shm.close()
            shm.unlink()
        except (FileNotFoundError, BufferError):
            pass

    def destroy_all(self) -> None:
        self._free.clear()
        for shm in list(self._live.values()):
            self._destroy(shm)


class EncodeScheduler:
    """Locality-aware process-pool scheduler for streaming encodes.

    Parameters
    ----------
    processes:
        Worker process count; ``None`` or ``<= 1`` runs every task
        inline (sharing this process's plan cache), which is also the
        degenerate path the multiprocess results are bit-compared
        against.
    window:
        Maximum timesteps of raw field data in flight at once. The
        producer blocks (``encode.sched.window_stalls``) when the
        window is full, so resident memory for raw data is
        O(window x field size) no matter how long the stream is.
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; ``None`` uses the
        platform default. Forked workers inherit a warm plan cache and
        skip decimation entirely; spawned workers decimate once per
        assigned plane.
    codec / codec_params / estimator / priority / method:
        Encode configuration, applied identically by every worker.
        ``"relative"`` codec tolerances must be resolved by the caller
        before scheduling (workers never see the full stream, so they
        cannot normalize consistently).
    """

    def __init__(
        self,
        *,
        processes: int | None = None,
        window: int = 4,
        start_method: str | None = None,
        codec: str = "zfp",
        codec_params: dict | None = None,
        estimator: str = "mean",
        priority: str = "length",
        method: str = DEFAULT_METHOD,
    ) -> None:
        if processes is not None and processes < 1:
            raise CanopusError("processes must be >= 1")
        if window < 1:
            raise CanopusError("window must be >= 1")
        self.processes = processes
        self.window = window
        self.start_method = start_method
        self.cfg = {
            "codec": codec,
            "codec_params": dict(codec_params or {}),
            "estimator": estimator,
            "priority": priority,
            "method": method,
        }
        # Fail fast on bad codec configuration (workers would otherwise
        # each discover it after process startup).
        get_codec(codec, **self.cfg["codec_params"])

    # ------------------------------------------------------------------
    def run(self, planes, tasks, sink) -> ScaleoutReport:
        """Encode a ``(plane_id, step, field)`` stream through ``sink``.

        ``planes`` is a list of :class:`SchedPlane`; ``tasks`` any
        iterable (a generator keeps the stream out-of-core) yielding
        ``(plane_id, step, ndarray)``. ``sink.geometry(plane_id, geom)``
        fires once per plane; ``sink.products(plane_id, step, products,
        stats)`` fires exactly once per task **in submission order**
        regardless of worker completion order — the write stage stays a
        single serialized aggregator.
        """
        planes = list(planes)
        if not planes:
            raise CanopusError("scheduler needs at least one plane")
        ids = [p.plane_id for p in planes]
        if len(set(ids)) != len(ids):
            raise CanopusError(f"duplicate plane ids: {sorted(ids)}")
        mp_run = self.processes is not None and self.processes > 1
        t0 = time.perf_counter()
        with trace.span(
            "encode.sched.run", "refactor",
            {"processes": self.processes or 1, "window": self.window,
             "planes": len(planes), "mode": "mp" if mp_run else "inline"},
        ) as root:
            if mp_run:
                report = self._run_mp(planes, tasks, sink, root)
            else:
                report = self._run_inline(planes, tasks, sink)
        report.wall_seconds = time.perf_counter() - t0
        report.planes = len(planes)
        report.window = self.window
        report.peak_rss_bytes = max(report.peak_rss_bytes, _peak_rss_bytes())
        _bump("encode.sched.tasks", report.tasks)
        _bump("encode.sched.shm_bytes", report.shm_bytes)
        _bump("encode.sched.plan_replays", report.plan_replays)
        _bump("encode.sched.plan_builds", report.plan_builds)
        _bump("encode.sched.window_stalls", report.window_stalls)
        _gauge_max("encode.sched.peak_rss_bytes", report.peak_rss_bytes)
        _gauge_max("encode.sched.shm_hwm_bytes", report.shm_hwm_bytes)
        return report

    # ------------------------------------------------------------------
    def _run_inline(self, planes, tasks, sink) -> ScaleoutReport:
        report = ScaleoutReport(processes=1, start_method="inline")
        arena = BufferArena()
        states: dict[int, tuple] = {}
        specs = {p.plane_id: p for p in planes}
        for plane_id, step, data in tasks:
            if plane_id not in states:
                spec = specs[plane_id]
                plan, codec, geom = _build_plane_state(
                    spec.mesh, spec.scheme, self.cfg
                )
                states[plane_id] = (plan, codec)
                report.plan_builds += int(geom["built"])
                sink.geometry(plane_id, geom)
            plan, codec = states[plane_id]
            products, stats = fused_step_products(
                plan, data, codec, arena=arena,
                what=_what(specs, plane_id, step),
            )
            report.tasks += 1
            report.plan_replays += 1
            report._vertices += int(np.asarray(data).shape[-1])
            report.per_task_seconds.append(stats["wall_seconds"])
            sink.products(plane_id, step, products, stats)
        return report

    # ------------------------------------------------------------------
    def _run_mp(self, planes, tasks, sink, root_span) -> ScaleoutReport:
        ctx = (
            multiprocessing.get_context(self.start_method)
            if self.start_method
            else multiprocessing.get_context()
        )
        nproc = self.processes
        report = ScaleoutReport(
            processes=nproc,
            start_method=self.start_method or ctx.get_start_method(),
        )
        # Locality policy: planes round-robin over workers, every task
        # of a plane follows its plane to the same worker — the worker
        # that already decimated (or inherited) that plane's plan.
        owner = {
            p.plane_id: i % nproc for i, p in enumerate(
                sorted(planes, key=lambda p: p.plane_id)
            )
        }
        specs = {p.plane_id: p for p in planes}
        task_qs = [ctx.Queue() for _ in range(nproc)]
        result_q = ctx.Queue()
        workers = [
            ctx.Process(
                target=_worker_main,
                args=(i, task_qs[i], result_q, self.cfg),
                name=f"repro-encw-{i}",
                daemon=True,
            )
            for i in range(nproc)
        ]
        for w in workers:
            w.start()

        pool = _SlotPool(self.window)
        mesh_blocks: dict[str, object] = {}
        pending: dict[int, tuple] = {}
        in_flight: dict[int, str] = {}  # seq -> slot name
        tracer = trace.get_tracer()
        parent_id = getattr(root_span, "span_id", None)
        next_emit = 0
        submitted = 0
        byes = 0

        def ship_plane(plane_id: int) -> None:
            from multiprocessing import shared_memory

            spec = specs[plane_id]
            v = np.ascontiguousarray(spec.mesh.vertices, dtype=np.float64)
            t = np.ascontiguousarray(spec.mesh.triangles, dtype=np.int64)
            shm = shared_memory.SharedMemory(
                create=True, size=v.nbytes + t.nbytes
            )
            shm.buf[: v.nbytes] = v.tobytes()
            shm.buf[v.nbytes: v.nbytes + t.nbytes] = t.tobytes()
            mesh_blocks[shm.name] = shm
            task_qs[owner[plane_id]].put(
                ("plane", plane_id, shm.name, v.shape, "float64",
                 t.shape, "int64", spec.scheme.num_levels,
                 spec.scheme.step_ratio)
            )

        def emit_ready() -> None:
            nonlocal next_emit
            while next_emit in pending:
                plane_id, step, products, stats = pending.pop(next_emit)
                sink.products(plane_id, step, products, stats)
                next_emit += 1

        def handle(msg) -> None:
            nonlocal byes
            kind = msg[0]
            if kind == "done":
                _, worker_id, seq, plane_id, step, products, stats = msg
                pool.release(in_flight.pop(seq))
                pending[seq] = (plane_id, step, products, stats)
                report.per_task_seconds.append(stats["wall_seconds"])
                if tracer is not None:
                    end = time.perf_counter() - tracer.wall_origin
                    span_stats = {
                        k: v for k, v in stats.items() if k != "summaries"
                    }
                    tracer.record_span(
                        "encode.sched.task", "refactor",
                        wall_start=end - stats["wall_seconds"],
                        wall_end=end,
                        thread=f"repro-encw-{worker_id}",
                        parent_id=parent_id,
                        args={"plane": plane_id, "step": step, **span_stats},
                    )
                emit_ready()
            elif kind == "geom":
                _, worker_id, plane_id, geom = msg
                shm = mesh_blocks.pop(geom.pop("mesh_shm"), None)
                if shm is not None:
                    shm.close()
                    shm.unlink()
                report.plan_builds += int(geom["built"])
                sink.geometry(plane_id, geom)
            elif kind == "bye":
                _, worker_id, counters = msg
                byes += 1
                report.worker_stats.append(counters)
                report.plan_replays += counters["plan_replays"]
                report.peak_rss_bytes = max(
                    report.peak_rss_bytes, counters["peak_rss_bytes"]
                )
            elif kind == "error":
                _, worker_id, tb = msg
                raise CanopusError(
                    f"encode worker {worker_id} failed:\n{tb}"
                )

        def drain_one(block: bool) -> bool:
            try:
                msg = result_q.get(timeout=1.0 if block else 0.0)
            except queue_mod.Empty:
                if block:
                    for w in workers:
                        if not w.is_alive() and w.exitcode not in (0, None):
                            raise CanopusError(
                                f"encode worker {w.name} died "
                                f"(exit {w.exitcode})"
                            )
                return False
            handle(msg)
            return True

        try:
            for plane_id in sorted(specs):
                ship_plane(plane_id)
            for plane_id, step, data in tasks:
                # Checked here, before the copy into a slot: a worker
                # would report the same error without the caller's frame.
                data = as_field(
                    data, specs[plane_id].mesh.num_vertices,
                    _what(specs, plane_id, step),
                )
                # Window back-pressure: never more than `window` raw
                # timesteps resident; drain results until a slot frees.
                if pool.in_use >= self.window:
                    report.window_stalls += 1
                    while pool.in_use >= self.window:
                        drain_one(block=True)
                while drain_one(block=False):
                    pass  # keep the reorder buffer and slots shallow
                slot = pool.acquire(data.nbytes)
                slot.buf[: data.nbytes] = data.tobytes()
                in_flight[submitted] = slot.name
                task_qs[owner[plane_id]].put(
                    ("task", submitted, plane_id, step, slot.name,
                     data.shape)
                )
                report.tasks += 1
                report.shm_bytes += data.nbytes
                report._vertices += int(data.shape[-1])
                submitted += 1
            for q in task_qs:
                q.put(_STOP)
            while byes < nproc or in_flight:
                drain_one(block=True)
            emit_ready()
            if next_emit != submitted:  # pragma: no cover - invariant
                raise CanopusError(
                    f"scheduler lost results: emitted {next_emit} of "
                    f"{submitted}"
                )
        finally:
            for q in task_qs:
                try:  # idempotent stop so error paths don't hang joins
                    q.put_nowait(_STOP)
                except Exception:
                    pass
            for w in workers:
                w.join(timeout=5.0)
                if w.is_alive():
                    w.terminate()
            report.shm_hwm_bytes = pool.hwm_bytes
            pool.destroy_all()
            for shm in mesh_blocks.values():
                shm.close()
                shm.unlink()
            for q in task_qs + [result_q]:
                q.close()
        return report


# ---------------------------------------------------------------------------
class _CampaignSink:
    """Aggregating writer: scheduler products → a campaign BP dataset.

    Writes through the same :class:`~repro.core.layout.ProductWriter`
    calls as :class:`~repro.core.campaign.CampaignWriter` (shared
    geometry once under ``GEOM_VAR``, base + deltas per step), so the
    result byte-compares clean against the in-process path.
    """

    def __init__(self, dataset, var, scheme, codec_name):
        self.var = var
        self.entry = declare_variable(
            dataset, var, scheme, codec_name,
            counts=[], steps=[], geometry=GEOM_VAR,
        )
        self.writer = ProductWriter(dataset, scheme, codec_name)
        self.steps: list[int] = []
        self.compressed_bytes = 0
        self.step_records: dict[int, tuple[int, dict]] = {}

    def geometry(self, plane_id: int, geom: dict) -> None:
        self.entry["counts"] = list(geom["counts"])
        self.writer.geometry(
            GEOM_VAR, geom["mesh_blobs"], geom["mapping_blobs"]
        )

    def products(
        self, plane_id: int, step: int, products: dict, stats: dict
    ) -> None:
        # The fused kernel ships per-product value summaries inside the
        # stats dict; attach them to the catalog records it writes so
        # the retrieval planner works on a cold-opened campaign.
        summaries = stats.pop("summaries", None) or {}
        written = self.writer.chain(
            step_chain(self.var, step), products, summaries
        )
        self.compressed_bytes += written
        self.steps.append(step)
        self.step_records[step] = (written, stats)
        self.entry["steps"] = sorted(self.steps)


def encode_campaign_scaleout(
    hierarchy,
    name: str,
    var: str,
    mesh: TriangleMesh,
    scheme: LevelScheme,
    steps,
    *,
    processes: int | None = None,
    window: int = 4,
    start_method: str | None = None,
    codec: str = "zfp",
    codec_params: dict | None = None,
    estimator: str = "mean",
    priority: str = "length",
    method: str = DEFAULT_METHOD,
    placement: str = "walk",
) -> tuple[ScaleoutReport, float]:
    """Encode a timestep campaign on the process-pool scheduler.

    ``steps`` is any iterable yielding ``(step, field)`` pairs (pass a
    generator to stream an out-of-core campaign: at most ``window``
    raw timesteps are resident at once). The written dataset is
    byte-compatible with :class:`~repro.core.campaign.CampaignWriter` —
    same keys, same products, bit-identical payloads — and is read back
    with :class:`~repro.core.campaign.CampaignReader`.

    Returns ``(report, io_seconds)`` where ``io_seconds`` is the
    simulated write time realized at close.
    """
    from repro.io.dataset import BPDataset

    codec_params = dict(codec_params or {})
    scheduler = EncodeScheduler(
        processes=processes, window=window, start_method=start_method,
        codec=codec, codec_params=codec_params, estimator=estimator,
        priority=priority, method=method,
    )
    dataset = BPDataset.create(name, hierarchy, placement=placement)
    sink = _CampaignSink(dataset, var, scheme, codec)
    plane = SchedPlane(plane_id=0, mesh=mesh, scheme=scheme)

    def task_stream():
        for step, data in steps:
            yield 0, int(step), data

    clock = hierarchy.clock
    before = clock.elapsed
    try:
        report = scheduler.run([plane], task_stream(), sink)
    finally:
        dataset.close()
    report.compressed_bytes = sink.compressed_bytes
    report.step_records = sink.step_records
    return report, clock.elapsed - before
