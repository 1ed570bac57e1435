"""The resident path of the read tier, and the zero-copy response body.

A restore whose campaign is open, whose target level is known (given,
0 by default, or a tolerance the planner resolved before) and whose
result is in the process-wide :class:`RestoredLevelCache` is answered on
the event-loop thread; everything else takes the bounded executor. These
tests pin which requests take which path (by counting executor submits
and by the thread each span ran on), that both paths put the same bytes,
headers, accounting and elastic feedback on the wire, and that the body
is ``np.save`` of the field without ever copying the field.
"""

import asyncio
import copy
import hashlib
import io
import sys

import numpy as np
import pytest

from repro.api import write_campaign
from repro.core import CanopusDecoder, CanopusEncoder, LevelScheme
from repro.core.progressive import ProgressiveReader
from repro.core.restored_cache import (
    RestoredLevelCache,
    get_geometry_cache,
    get_restored_cache,
)
from repro.errors import ConflictError
from repro.harness.experiment import stack_planes
from repro.io import BPDataset
from repro.obs import MetricsRegistry
from repro.service import (
    CanopusService,
    ServiceClient,
    ServiceThread,
    TenantConfig,
)
from repro.service.datanode import RestoreResult
from repro.service.http import Request
from repro.service.servicenode import ServiceNode
from repro.service.tenants import TenantRegistry
from repro.session import Session
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan
from repro.storage.policy import AccessTracker

TOL = 1e-5
STEPS = 3
#: (dataset, variable, step) of every chain the fixture stores.
CHAINS = [
    ("camp", "dpot", None),
    ("camp", "planes", None),
    *(("steps", "dpot", step) for step in range(STEPS)),
]
PRODUCTS = [(*chain, level) for chain in CHAINS for level in (2, 1, 0)]


def _drive(coro):
    return asyncio.run(coro)


def _hierarchy(root):
    return two_tier_titan(root, fast_capacity=64 << 20, slow_capacity=1 << 36)


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.ascontiguousarray(array), allow_pickle=False)
    return buf.getvalue()


def _target(dataset, var, step, level, **query) -> str:
    query = {"level": level, **query}
    if step is not None:
        query["step"] = step
    text = "&".join(f"{k}={v}" for k, v in query.items())
    return f"/v1/campaigns/{dataset}/vars/{var}/restore?{text}"


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """A chunked single-shot dataset (1-D and 4-plane variables) and a
    3-step campaign, plus every product restored in process."""
    src = make_xgc1(scale=0.2)
    root = tmp_path_factory.mktemp("resident")
    h = _hierarchy(root)
    codec = {"tolerance": TOL, "mode": "relative"}
    enc = CanopusEncoder(h, codec="zfp", codec_params=codec, chunks=4)
    ds = BPDataset.create("camp", h)
    for var, field in (
        ("dpot", src.field), ("planes", stack_planes(src, 4, seed=2)),
    ):
        enc.encode("camp", var, src.mesh, field, LevelScheme(3),
                   dataset=ds, close=False)
    ds.close()
    write_campaign(
        h, "steps", "dpot", src.mesh,
        [src.field * (1.0 + 0.1 * step) for step in range(STEPS)],
        LevelScheme(3), codec_params=codec,
    )
    get_restored_cache().clear()
    get_geometry_cache().clear()
    expected = {}
    with Session(_hierarchy(root)) as session:
        for dataset, var, step, level in PRODUCTS:
            state = session.open(dataset).restore(var, step=step, level=level)
            expected[dataset, var, step, level] = (
                state.field.copy(), state.mesh.num_vertices,
                state.last_delta_rms,
            )
    return root, expected


@pytest.fixture()
def service(stored):
    """A fresh traced service per test (so counters start at zero)."""
    root, expected = stored
    get_restored_cache().clear()
    get_geometry_cache().clear()
    svc = CanopusService(
        _hierarchy(root),
        tenants=[
            TenantConfig(name="alice", token="tok-alice"),
            TenantConfig(name="bob", token="tok-bob"),
        ],
        executor_workers=2,
        metrics=MetricsRegistry(),
        tracing=True,
        trace_capacity=4096,
        trace_sample_rate=1.0,
        trace_slow_seconds=3600.0,
    )
    with ServiceThread(svc):
        yield svc, expected
    get_restored_cache().clear()
    get_geometry_cache().clear()


@pytest.fixture()
def submits(service, monkeypatch):
    """Counts jobs handed to the data node's executor."""
    svc, _ = service
    calls = []
    submit = svc.datanode._executor.submit

    def counted(fn, *args, **kwargs):
        calls.append(fn)
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(svc.datanode._executor, "submit", counted)
    return calls


def _get_all(svc, targets, token="tok-alice", headers=None):
    """Raw responses (status, headers, body bytes) over one connection."""

    async def go():
        async with ServiceClient(svc.host, svc.port, token=token) as c:
            return [await c._get(t, headers=headers) for t in targets]

    return _drive(go())


def _spans(svc, response):
    return svc.trace_buffer.get(response.request_id).spans


# ---------------------------------------------------------------------------
# (a) the body is np.save of the field
# ---------------------------------------------------------------------------
class _OneField:
    """Stands in for the data node: every restore returns ``field``."""

    def __init__(self, field):
        self.field = field

    async def restore(self, name, var, **kwargs):
        return RestoreResult("cursor", True, self.field, 0, 0.5)


NPY_CASES = {
    "float64-1d": np.linspace(0.0, 1.0, 257),
    "float32-1d": np.linspace(0.0, 1.0, 257, dtype=np.float32),
    "float64-2d": np.arange(4 * 300, dtype=np.float64).reshape(4, 300),
    "float32-2d": np.arange(4 * 300, dtype=np.float32).reshape(4, 300),
    "zero-length-1d": np.zeros(0),
    "zero-length-2d": np.zeros((4, 0), dtype=np.float32),
    "fortran-order": np.asfortranarray(
        np.arange(4 * 300, dtype=np.float64).reshape(4, 300)
    ),
    "strided": np.arange(4 * 600, dtype=np.float64).reshape(4, 600)[:, ::2],
    "big-endian": np.arange(64, dtype=">f8"),
}


class TestNpyBody:
    @pytest.mark.parametrize("case", sorted(NPY_CASES))
    def test_body_is_np_save_bytes(self, case):
        field = NPY_CASES[case]
        node = ServiceNode(
            _OneField(field), TenantRegistry.open_access(),
            metrics=MetricsRegistry(),
        )
        request = Request(
            method="GET", path="/v1/campaigns/c/vars/v/restore",
            query={"level": "0"}, headers={},
        )
        response = _drive(node.handle(request))
        assert response.status == 200
        header, view = response.body
        assert isinstance(header, bytes) and isinstance(view, memoryview)
        assert view.format == "B" and view.ndim == 1  # len() is bytes
        wire = b"".join(response.buffers())
        assert wire == _npy(field)
        assert response.content_length == len(wire)
        assert response.headers["x-canopus-shape"] == ",".join(
            str(n) for n in field.shape
        )
        assert response.headers["x-canopus-dtype"] == str(field.dtype)
        loaded = np.load(io.BytesIO(wire))
        assert loaded.dtype == field.dtype
        assert np.array_equal(loaded, field)
        if field.flags.c_contiguous and field.size:
            # No copy was made: the view is the array's own memory.
            assert np.shares_memory(np.frombuffer(view, np.uint8), field)

    def test_every_stored_product_over_http(self, service):
        svc, expected = service
        targets = [_target(*product) for product in PRODUCTS]
        first = _get_all(svc, targets)  # misses: decoded on the executor
        second = _get_all(svc, targets, token="tok-bob")  # resident
        for product, miss, hit in zip(PRODUCTS, first, second):
            field, vertices, rms = expected[product]
            assert miss.status == hit.status == 200
            assert miss.body == hit.body == _npy(field), product
            assert miss.headers["x-canopus-cache"] == "miss"
            assert hit.headers["x-canopus-cache"] == "hit"
            for name in miss.headers:
                if name.startswith("x-canopus-") and name != "x-canopus-cache":
                    assert miss.headers[name] == hit.headers[name], name
            assert hit.headers["etag"] == miss.headers["etag"]
            assert hit.headers["x-canopus-vertices"] == str(vertices)
            assert hit.headers["x-canopus-level"] == str(product[3])
            assert hit.headers["x-canopus-rms"] == repr(float(rms))
            assert hit.headers["content-length"] == str(len(hit.body))


# ---------------------------------------------------------------------------
# (b) which requests reach the executor
# ---------------------------------------------------------------------------
class TestExecutorSubmits:
    def test_resident_requests_never_reach_the_executor(
        self, service, submits
    ):
        svc, _ = service
        targets = [_target(*product) for product in PRODUCTS]
        _get_all(svc, targets)
        warm_up = len(submits)
        assert warm_up >= len(targets)
        responses = _get_all(svc, targets * 3)
        assert len(submits) == warm_up
        assert {r.headers["x-canopus-cache"] for r in responses} == {"hit"}
        # On the loop thread a hit is the HTTP span and service.restore:
        # no session, decode, query or I/O span, and no other thread.
        for response in responses[:5]:
            spans = _spans(svc, response)
            assert sorted(s.name.split(" ")[0] for s in spans) == [
                "http", "service.restore",
            ]
            assert {s.thread for s in spans} == {"repro-service"}
            restore = next(s for s in spans if s.name == "service.restore")
            assert restore.args["resident"] is True

    @pytest.mark.parametrize(
        "query",
        [
            {"tolerance": 1e-2},
            {"region": "1.0,-1.0:2.0,1.0"},
            {"min_significance": 0.5},
        ],
        ids=["first-tol", "region-miss", "significance-miss"],
    )
    def test_everything_else_takes_the_executor(
        self, service, submits, query
    ):
        """A miss, and the first request for a tolerance (nothing has
        resolved it to a level yet), are decoded on the executor."""
        svc, _ = service
        warm = _target("camp", "dpot", None, 0)
        _get_all(svc, [warm, warm])
        before = len(submits)
        level = None if "tolerance" in query else 0
        target = _target("camp", "dpot", None, level, **query).replace(
            "level=None&", ""
        )
        (response,) = _get_all(svc, [target])
        assert response.status == 200
        assert len(submits) > before
        threads = {s.thread for s in _spans(svc, response)}
        assert any(t.startswith("repro-datanode") for t in threads)

    def test_a_miss_takes_the_executor_then_is_resident(
        self, service, submits
    ):
        svc, expected = service
        target = _target("camp", "planes", None, 1)
        _get_all(svc, [target])
        get_restored_cache().clear()
        before = len(submits)
        miss, hit = _get_all(svc, [target, target])
        assert len(submits) == before + 1
        assert miss.headers["x-canopus-cache"] == "miss"
        assert hit.headers["x-canopus-cache"] == "hit"
        assert miss.body == hit.body == _npy(
            expected["camp", "planes", None, 1][0]
        )

    def test_first_open_takes_the_executor_even_when_resident(
        self, service, stored
    ):
        svc, expected = service
        root, _ = stored
        target = _target("camp", "dpot", None, 0)
        _get_all(svc, [target])  # resident, process-wide
        other = CanopusService(
            _hierarchy(root), executor_workers=1,
            metrics=MetricsRegistry(),
        )
        calls = []
        submit = other.datanode._executor.submit
        other.datanode._executor.submit = lambda fn, *a: (
            calls.append(fn), submit(fn, *a)
        )[1]
        with ServiceThread(other):
            first, second = _get_all(other, [target, target], token="")
        # The other node has not opened the campaign: opening reads
        # storage, so the request goes to the executor, where the entry
        # the first node published is served as the hit it is.
        assert len(calls) == 1
        assert first.headers["x-canopus-cache"] == "hit"
        assert second.headers["x-canopus-cache"] == "hit"
        assert first.body == second.body == _npy(
            expected["camp", "dpot", None, 0][0]
        )


def _region_boxes(handle):
    """Grid boxes over the domain, grouped by ``(var, signature)``.

    Level-0 region requests on the two chunked variables: every group
    restores one distinct result, whatever box of it is asked.
    """
    groups = {}
    centres = [float(c) for c in np.linspace(-0.9, 0.9, 25)]
    for var in ("dpot", "planes"):
        chain = handle.decoder.chain(var)
        for cx in centres:
            for cy in centres:
                box = ((cx - 0.04, cy - 0.04), (cx + 0.04, cy + 0.04))
                signature = chain.filter_signature(
                    handle.dataset.catalog, 0, box
                )
                if signature:  # () is the resident unfiltered product
                    groups.setdefault((var, signature), []).append(box)
    return groups


def _region_target(var, box):
    (x0, y0), (x1, y1) = box
    return _target("camp", var, None, 0, region=f"{x0},{y0}:{x1},{y1}")


class TestLoopAndExecutorInterleave:
    def test_hits_on_the_loop_while_misses_decode(self, service, submits):
        """Resident hits (loop thread) and region misses (executor
        threads) share the tracker, the feedback memo and the query log;
        under a short switch interval nothing is lost or mixed up.

        A region request is a miss once per distinct set of surviving
        chunks: each miss below keeps a set no other request keeps, and
        the boxes of one repeated set, never the same box twice, are
        hits served on the loop like any resident product."""
        svc, expected = service
        clients, rounds = 8, 12
        total = clients * rounds
        hot = [p for p in PRODUCTS if p[0] == "camp"]
        _get_all(svc, [_target(*product) for product in hot])
        handle = svc.datanode._handles["camp"]
        groups = _region_boxes(handle)
        repeated = max(groups, key=lambda group: len(groups[group]))
        seed_box, *repeats = groups.pop(repeated)
        assert len(repeats) >= total and len(groups) >= 8
        misses = [(var, boxes[0]) for (var, _), boxes in groups.items()]
        stride = total // len(misses)
        (seeded,) = _get_all(svc, [_region_target(repeated[0], seed_box)])
        assert seeded.headers["x-canopus-cache"] == "miss"
        requests_before = svc.node.metrics.value(
            "service.requests", tenant="bob"
        )
        submits_before = len(submits)

        async def one_client(ci):
            out = []
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-bob") as c:
                for i in range(rounds):
                    n = ci * rounds + i
                    product = hot[(ci + i) % len(hot)]
                    out.append((product, await c._get(_target(*product))))
                    out.append(("repeat", await c._get(
                        _region_target(repeated[0], repeats[n])
                    )))
                    if n % stride == 0 and n // stride < len(misses):
                        out.append(("miss", await c._get(
                            _region_target(*misses[n // stride])
                        )))
            return out

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(*(one_client(ci) for ci in range(clients))),
                timeout=120,
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _drive(go())
        finally:
            sys.setswitchinterval(interval)
        for per_client in results:
            for product, response in per_client:
                assert response.status == 200
                if product == "miss":
                    assert response.headers["x-canopus-cache"] == "miss"
                elif product == "repeat":
                    assert response.headers["x-canopus-cache"] == "hit"
                    assert response.body == seeded.body
                else:
                    assert response.headers["x-canopus-cache"] == "hit"
                    assert response.body == _npy(expected[product][0])
        # Same survivors, same bits: a box the server never saw.
        assert seeded.body == _npy(handle.decoder.restore_to(
            repeated[0], 0,
            region=tuple(np.array(b) for b in repeats[-1]),
        ).field)
        # Only the misses left the loop.
        assert len(submits) - submits_before == len(misses)
        metrics = svc.node.metrics
        assert metrics.value("service.cache.hits", tenant="bob") == 2 * total
        assert metrics.value(
            "service.cache.misses", tenant="bob"
        ) == len(misses)
        assert metrics.value(
            "service.requests", tenant="bob"
        ) - requests_before == 2 * total + len(misses)
        node = svc.datanode
        # One memoised plan per distinct product or survivor set asked
        # for, and every note of every request landed in the tracker.
        distinct = len(hot) + 1 + len(misses)
        assert node.metrics()["query"]["feedback_plans"] == distinct
        assert len(node._query_log) == distinct + 2 * total
        assert len(node._query_log) < node._query_log.maxlen
        assert sum(info.reads for info in node.tracker.records.values()) == (
            sum(entry["subfiles_noted"] for entry in node._query_log)
        )


# ---------------------------------------------------------------------------
# (c) evicted between the residency check and the read
# ---------------------------------------------------------------------------
class TestEvictedUnderTheRequest:
    def test_served_by_the_executor_and_nothing_decodes_on_the_loop(
        self, service, submits, monkeypatch
    ):
        svc, expected = service
        target = _target("camp", "planes", None, 0)
        _get_all(svc, [target, target])
        cache = get_restored_cache()
        resident = cache.resident
        evictions = []

        def evicted_first(key):
            # The loop thread asks, and the entry is gone by then.
            if not evictions:
                evictions.append(key)
                cache.clear()
            return resident(key)

        monkeypatch.setattr(cache, "resident", evicted_first)
        before = len(submits)
        (response,) = _get_all(svc, [target])
        assert len(evictions) == 1
        assert len(submits) == before + 1
        assert response.status == 200
        assert response.headers["x-canopus-cache"] == "miss"
        assert response.body == _npy(expected["camp", "planes", None, 0][0])
        spans = _spans(svc, response)
        decoding = [s for s in spans if s.name.startswith("decode.")]
        assert decoding, [s.name for s in spans]
        for span in spans:
            if span.thread == "repro-service":
                assert span.name.startswith("http "), span.name
            else:
                assert span.thread.startswith("repro-datanode"), (
                    span.name, span.thread
                )
        # ...and the request after it is resident again.
        (again,) = _get_all(svc, [target])
        assert again.headers["x-canopus-cache"] == "hit"
        assert again.body == response.body


# ---------------------------------------------------------------------------
# (d) accounting and elastic feedback of a hit equal a miss's
# ---------------------------------------------------------------------------
def _unfiltered_digest() -> str:
    """The filter digest of a request with no region and no threshold."""
    return hashlib.blake2b(repr(0.0).encode(), digest_size=4).hexdigest()


class TestHitAccounting:
    HITS = 50

    def test_fifty_hits_account_like_fifty_executor_restores(self, service):
        svc, expected = service
        node = svc.datanode
        products = [p for p in PRODUCTS if p[0] == "camp"]
        targets = [_target(*product) for product in products]
        _get_all(svc, targets)  # warm: every product resident

        order = [products[i % len(products)] for i in range(self.HITS)]
        heat_before = copy.deepcopy(node.tracker.records)
        log_before = len(node._query_log)
        usage_before = svc.tenants.usage("bob")
        metrics = svc.node.metrics
        sim_before = node.hierarchy.clock.elapsed

        responses = _get_all(
            svc, [_target(*product) for product in order], token="tok-bob"
        )

        # What the executor path does per request, written out: plan
        # the restore, note every fetched product's subfile, log it.
        handle = node.session.open("camp")
        reference = AccessTracker(records=heat_before)
        log = []
        for _, var, step, level in order:
            chain = handle.chain(var, step=step)
            plan = handle.planner.plan_restore(chain, level=level)
            noted = handle.planner.note_plan(
                reference, plan, now=node.hierarchy.clock.elapsed
            )
            log.append({
                "campaign": "camp", "var": chain, "level": level,
                "region": None, "subfiles_noted": noted,
                "mode": "level", "tolerance": None,
            })
            assert noted > 0
        assert node.tracker.records == reference.records
        assert list(node._query_log)[log_before:] == log

        sent = sum(len(r.body) for r in responses)
        assert sent == sum(
            len(_npy(expected[product][0])) for product in order
        )
        usage = svc.tenants.usage("bob")
        assert usage["total_requests"] - usage_before["total_requests"] == (
            self.HITS
        )
        assert usage["total_bytes"] - usage_before["total_bytes"] == sent
        assert usage["total_sim_read_seconds"] == 0.0
        assert node.hierarchy.clock.elapsed == sim_before
        assert metrics.value("service.bytes_served", tenant="bob") == sent
        assert metrics.value("service.requests", tenant="bob") == self.HITS
        assert metrics.value("service.cache.hits", tenant="bob") == self.HITS
        assert metrics.value("service.cache.misses", tenant="bob") == 0
        assert metrics.value("service.sim_read_seconds", tenant="bob") == 0
        assert metrics.value("service.cache.misses", tenant="alice") == len(
            products
        )

        fp = handle.fingerprint[:12]
        for (_, var, step, level), response in zip(order, responses):
            field, vertices, rms = expected["camp", var, step, level]
            cursor = f"{fp}.{var}.L{level}.{_unfiltered_digest()}"
            assert response.headers["etag"] == f'"{cursor}"'
            assert response.headers["x-canopus-cursor"] == cursor
            assert response.headers["x-canopus-cache"] == "hit"
            assert response.headers["x-canopus-level"] == str(level)
            assert response.headers["x-canopus-shape"] == ",".join(
                str(n) for n in field.shape
            )
            assert response.headers["x-canopus-dtype"] == "float64"
            assert response.headers["x-canopus-rms"] == repr(float(rms))
            assert response.headers["x-canopus-vertices"] == str(vertices)
            assert response.headers["content-type"] == "application/x-npy"

    def test_feedback_plan_is_built_once_per_product(self, service):
        svc, _ = service
        target = _target("steps", "dpot", 1, 0)
        responses = _get_all(svc, [target] * 4)
        planned = [
            sum(s.name == "query.plan" for s in _spans(svc, r))
            for r in responses
        ]
        assert planned == [1, 0, 0, 0]
        noted = [e["subfiles_noted"] for e in svc.datanode._query_log]
        assert len(set(noted)) == 1 and noted[0] > 0
        query = svc.datanode.metrics()["query"]
        assert query["feedback_plans"] == 1
        assert query["feedback_evictions"] == 0
        assert (query["resolve_hits"], query["resolve_misses"]) == (3, 1)


# ---------------------------------------------------------------------------
# (e) cursors on the resident path
# ---------------------------------------------------------------------------
class TestCursorsOnTheResidentPath:
    def test_if_none_match_is_304_without_the_executor(
        self, service, submits
    ):
        svc, _ = service
        target = _target("steps", "dpot", 2, 1)
        (first,) = _get_all(svc, [target])
        before = len(submits)
        (again,) = _get_all(
            svc, [target], headers={"if-none-match": first.headers["etag"]}
        )
        assert again.status == 304
        assert again.body == b""
        assert again.headers["etag"] == first.headers["etag"]
        assert again.headers["content-length"] == "0"
        # Another product's cursor (same content) is just not a match.
        held = first.headers["etag"].replace(".L1.", ".L2.")
        (other,) = _get_all(svc, [target], headers={"if-none-match": held})
        assert other.status == 200 and other.body == first.body
        assert len(submits) == before

    def test_foreign_cursor_is_409_without_the_executor(
        self, service, submits
    ):
        svc, _ = service
        target = _target("camp", "dpot", None, 2)
        _get_all(svc, [target])
        before = len(submits)

        async def go():
            async with ServiceClient(svc.host, svc.port,
                                     token="tok-alice") as c:
                await c.restore("camp", "dpot", level=2,
                                cursor="0123456789ab.dpot.L2.00000000")

        with pytest.raises(ConflictError):
            _drive(go())
        (foreign,) = _get_all(
            svc, [target],
            headers={"if-none-match": '"0123456789ab.dpot.L2.00000000"'},
        )
        assert foreign.status == 409
        assert len(submits) == before


# ---------------------------------------------------------------------------
# (f) what goes to the socket is the cache's own read-only array
# ---------------------------------------------------------------------------
class TestCachedFieldIsReadOnly:
    def test_hit_ships_a_read_only_view_of_the_cached_field(self, service):
        svc, expected = service
        target = _target("camp", "planes", None, 0)
        (first,) = _get_all(svc, [target])
        handle = svc.datanode.session.open("camp")
        entry = get_restored_cache().resident(
            RestoredLevelCache.key_for(handle.fingerprint, "planes", 0)
        )
        assert entry.field.flags.writeable is False
        assert entry.field.flags.c_contiguous

        request = Request(
            method="GET", path="/v1/campaigns/camp/vars/planes/restore",
            query={"level": "0"},
            headers={"authorization": "Bearer tok-alice"},
        )
        # A hit needs no executor, so it can be answered right here.
        response = _drive(svc.node.handle(request))
        assert response.headers["x-canopus-cache"] == "hit"
        _, view = response.body
        assert view.readonly
        assert np.shares_memory(np.frombuffer(view, np.uint8), entry.field)
        with pytest.raises(TypeError):
            view[0] = 0
        with pytest.raises(ValueError):
            entry.field[0, 0] = 0.0

        (second,) = _get_all(svc, [target])
        assert second.body == first.body == _npy(
            expected["camp", "planes", None, 0][0]
        )

    def test_resident_counts_a_hit_and_leaves_a_miss_to_get(self):
        cache = RestoredLevelCache()
        key = cache.key_for("fp", "v", 1)
        assert cache.resident(key) is None
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        stored = cache.put(
            key, np.asfortranarray(np.arange(12.0).reshape(3, 4))
        )
        assert stored.field.flags.c_contiguous
        older_key = cache.key_for("fp", "v", 2)
        older = cache.put(older_key, np.zeros(3))
        assert cache.resident(key) is stored
        assert (cache.hits, cache.misses) == (1, 1)
        # ...and the hit made it the most recently used entry: one more
        # insert past the budget evicts the other one.
        cache.max_bytes = stored.nbytes + older.nbytes
        cache.put(cache.key_for("fp", "v", 3), np.zeros(1))
        assert cache.has(key) and not cache.has(older_key)


# ---------------------------------------------------------------------------
# (g) a tolerance resolves to a level on the loop
# ---------------------------------------------------------------------------
#: The four request kinds of the exploration workload.
ROI_KINDS = (
    {"level": 0}, {"level": 1}, {"tolerance": 1e-1}, {"tolerance": 1e-3},
)


def _camp_target(var, box=None, **query) -> str:
    if box is not None:
        (x0, y0), (x1, y1) = box
        query["region"] = f"{x0},{y0}:{x1},{y1}"
    text = "&".join(f"{k}={v}" for k, v in query.items())
    return f"/v1/campaigns/camp/vars/{var}/restore" + (
        f"?{text}" if text else ""
    )


def _opened(svc):
    """Open ``camp`` on the node (one coarse restore); its handle."""
    _get_all(svc, [_camp_target("dpot", level=2)])
    return svc.datanode._handles["camp"]


def _one_signature(handle, var):
    """The most boxes of ``var`` that keep one and the same chunk set."""
    groups = _region_boxes(handle)
    return max(
        (boxes for (v, _), boxes in groups.items() if v == var), key=len
    )


def _assert_on_the_loop(svc, response):
    spans = _spans(svc, response)
    assert sorted(s.name.split(" ")[0] for s in spans) == [
        "http", "service.restore",
    ]
    assert {s.thread for s in spans} == {"repro-service"}
    restore = next(s for s in spans if s.name == "service.restore")
    assert restore.args["resident"] is True


class TestToleranceOnTheLoop:
    REPEATS = 4

    @pytest.mark.parametrize("var", ["dpot", "planes"])
    @pytest.mark.parametrize("region", [False, True], ids=["whole", "region"])
    @pytest.mark.parametrize(
        "kind", ROI_KINDS, ids=["L0", "L1", "tol-1e-1", "tol-1e-3"]
    )
    def test_repeats_are_loop_hits_equal_to_the_first_and_to_session(
        self, service, submits, stored, var, region, kind
    ):
        svc, _ = service
        root, _ = stored
        box = _one_signature(_opened(svc), var)[0] if region else None
        target = _camp_target(var, box, **kind)
        (first,) = _get_all(svc, [target])
        assert first.status == 200
        assert first.headers["x-canopus-cache"] == "miss"
        before = len(submits)
        hits_before = svc.node.metrics.value(
            "service.cache.hits", tenant="alice"
        )
        repeats = _get_all(svc, [target] * self.REPEATS)
        assert len(submits) == before
        assert svc.node.metrics.value(
            "service.cache.hits", tenant="alice"
        ) - hits_before == self.REPEATS
        for response in repeats:
            assert response.headers["x-canopus-cache"] == "hit"
            assert response.body == first.body
            for name in ("x-canopus-level", "x-canopus-rms",
                         "x-canopus-cursor", "etag"):
                assert response.headers[name] == first.headers[name], name
            _assert_on_the_loop(svc, response)
        window = None if box is None else tuple(np.array(b) for b in box)
        with Session(_hierarchy(root), use_restored_cache=False) as session:
            state = session.open("camp").restore(var, region=window, **kind)
        assert first.body == _npy(state.field)
        assert first.headers["x-canopus-level"] == str(state.level)
        assert first.headers["x-canopus-rms"] == repr(
            float(state.last_delta_rms)
        )
        assert f".L{state.level}." in first.headers["x-canopus-cursor"]

    def test_another_box_with_the_same_signature_hits(self, service, submits):
        svc, _ = service
        first_box, *boxes = _one_signature(_opened(svc), "planes")
        assert len(boxes) >= 3
        (first,) = _get_all(
            svc, [_camp_target("planes", first_box, tolerance=1e-1)]
        )
        # The box's survivors meet 1e-1 one level above full accuracy.
        assert first.headers["x-canopus-level"] == "1"
        before = len(submits)
        others = _get_all(svc, [
            _camp_target("planes", box, tolerance=1e-1) for box in boxes[:3]
        ])
        assert len(submits) == before
        for response in others:
            assert response.headers["x-canopus-cache"] == "hit"
            assert response.body == first.body
            assert response.headers["x-canopus-level"] == (
                first.headers["x-canopus-level"]
            )
            _assert_on_the_loop(svc, response)

    def test_if_none_match_is_304_on_the_loop(self, service, submits):
        svc, _ = service
        _opened(svc)
        target = _camp_target("dpot", tolerance=1e-2)
        (first,) = _get_all(svc, [target])
        before = len(submits)
        (again,) = _get_all(
            svc, [target], headers={"if-none-match": first.headers["etag"]}
        )
        assert again.status == 304 and again.body == b""
        assert again.headers["etag"] == first.headers["etag"]
        assert again.headers["x-canopus-cache"] == "hit"
        assert len(submits) == before
        assert {s.thread for s in _spans(svc, again)} == {"repro-service"}

    def test_an_incomplete_plan_is_never_memoised(self, service, submits):
        svc, _ = service
        handle = _opened(svc)
        # No summaries: the planner cannot certify a stopping level.
        for key in handle.dataset.keys():
            handle.dataset.inq(key).attrs.pop("stats", None)
        target = _camp_target("dpot", tolerance=1e-3)
        before = len(submits)
        responses = _get_all(svc, [target] * 3)
        assert len(submits) == before + 3
        assert {r.headers["x-canopus-cache"] for r in responses} == {"miss"}
        assert not [
            key for key, _ in handle.planner.resolutions.items()
            if key[1] == "tolerance"
        ]
        measured = ProgressiveReader(
            CanopusDecoder(handle.dataset, share_geometry=True),
            "dpot",
        ).refine_until(rms_tolerance=1e-3, max_level=0)
        for response in responses:
            assert response.body == _npy(measured.field)
            assert response.headers["x-canopus-level"] == str(measured.level)

    def test_no_level_and_no_tolerance_is_level_zero_on_the_loop(
        self, service, submits
    ):
        svc, expected = service
        target = _camp_target("dpot")
        (warm,) = _get_all(svc, [target])
        assert warm.headers["x-canopus-cache"] == "miss"
        before = len(submits)
        hits = _get_all(svc, [target] * 3 + [_camp_target("dpot", level=0)])
        assert len(submits) == before
        for response in hits:
            assert response.headers["x-canopus-cache"] == "hit"
            assert response.headers["x-canopus-level"] == "0"
            assert response.headers["etag"] == warm.headers["etag"]
            assert response.body == warm.body == _npy(
                expected["camp", "dpot", None, 0][0]
            )
            _assert_on_the_loop(svc, response)
