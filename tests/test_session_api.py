"""Tests for the Session/CampaignHandle API, error
taxonomy, and content-keyed restored-cache sharing across handles."""

import threading
import time
import warnings

import numpy as np
import pytest

import repro.errors as errors_mod
from repro.api import CanopusDecoder, Session
from repro.core import CanopusEncoder, LevelScheme
from repro.core.restored_cache import (
    RestoredLevelCache,
    dataset_fingerprint,
    get_geometry_cache,
    get_restored_cache,
)
from repro.errors import (
    HTTP_STATUS,
    AuthError,
    ConflictError,
    QuotaError,
    ReproError,
    RestorationError,
    ServiceError,
    VariableNotFoundError,
    error_code,
    http_status,
)
from repro.io import BPDataset
from repro.mesh.generators import annulus
from repro.storage import two_tier_titan

TOL = 1e-5


@pytest.fixture(autouse=True)
def _fresh_caches():
    get_restored_cache().clear()
    get_geometry_cache().clear()
    yield
    get_restored_cache().clear()
    get_geometry_cache().clear()


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    mesh = annulus(30, 90)
    v = mesh.vertices
    fields = {
        "dpot": np.sin(2 * v[:, 0]) * np.cos(2 * v[:, 1]),
        "apar": np.cos(3 * v[:, 0]) + 0.2 * np.sin(5 * v[:, 1]),
    }
    path = tmp_path_factory.mktemp("sess")
    h = two_tier_titan(path, fast_capacity=16 << 20, slow_capacity=1 << 34)
    enc = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": TOL, "mode": "relative"},
        chunks=4,
    )
    ds = BPDataset.create("camp", h)
    for var, f in fields.items():
        enc.encode("camp", var, mesh, f, LevelScheme(3), dataset=ds,
                   close=False)
    ds.close()
    return path, fields


def _hier(path):
    return two_tier_titan(path, fast_capacity=16 << 20,
                          slow_capacity=1 << 34)


class TestSessionSurface:
    def test_open_caches_handle(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            first = s.open("camp")
            assert s.open("camp") is first
            assert s.campaigns == ["camp"]

    def test_concurrent_first_opens_share_one_handle(self, root, monkeypatch):
        path, _ = root
        opened = []
        real_open = BPDataset.open

        def slow_open(name, *args, **kwargs):
            opened.append(name)
            time.sleep(0.05)  # every thread arrives while the first opens
            return real_open(name, *args, **kwargs)

        monkeypatch.setattr(BPDataset, "open", slow_open)
        n = 8
        barrier = threading.Barrier(n)
        handles = [None] * n
        with Session(_hier(path)) as s:

            def first_open(i):
                barrier.wait()
                handles[i] = s.open("camp")

            threads = [
                threading.Thread(target=first_open, args=(i,))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert handles[0] is not None
            assert all(h is handles[0] for h in handles)
            assert s.open("camp") is handles[0]
        assert opened == ["camp"]

    def test_restore_by_level_and_default(self, root):
        path, fields = root
        with Session(_hier(path)) as s:
            camp = s.open("camp")
            full = camp.restore("dpot")
            assert full.level == 0
            assert np.allclose(full.field, fields["dpot"], atol=1e-3)
            coarse = camp.restore("dpot", level=2)
            assert coarse.level == 2

    def test_restore_by_tolerance(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            state = s.open("camp").restore("apar", tolerance=1e-3)
            assert state.last_delta_rms <= 1e-3 or state.level == 0

    def test_level_and_tolerance_rejected(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            with pytest.raises(RestorationError):
                s.open("camp").restore("dpot", level=1, tolerance=1e-3)

    def test_keyword_only_entry_points(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            camp = s.open("camp")
            with pytest.raises(TypeError):
                camp.restore("dpot", 1)  # level must be keyword
            with pytest.raises(TypeError):
                camp.restore_many(["dpot"], 1)
            with pytest.raises(TypeError):
                camp.read_raw("dpot/L2", 0)

    def test_unknown_variable_not_found(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            with pytest.raises(VariableNotFoundError):
                s.open("camp").restore("ghost", level=0)

    def test_restore_many_matches_restore(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            camp = s.open("camp")
            single = {v: camp.restore(v, level=1) for v in ["dpot", "apar"]}
            many = camp.restore_many(["dpot", "apar"], level=1)
            for var in single:
                assert np.array_equal(many[var].field, single[var].field)

    def test_stats_rows(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            rows = s.open("camp").stats("dpot")
            assert rows
            assert all(r["key"].split("/")[0] == "dpot" for r in rows)
            only_l1 = s.open("camp").stats("dpot", level=1)
            assert all(r["level"] == 1 for r in only_l1)

    def test_read_raw_ranges(self, root):
        path, _ = root
        with Session(_hier(path)) as s:
            camp = s.open("camp")
            full = camp.read_raw("dpot/L2")
            assert camp.read_raw("dpot/L2", start=3, length=5) == full[3:8]
            with pytest.raises(RestorationError):
                camp.read_raw("dpot/L2", start=-1)
            with pytest.raises(RestorationError):
                camp.read_raw("dpot/L2", start=0, length=-2)

    def test_closed_session_rejects_open(self, root):
        path, _ = root
        s = Session(_hier(path))
        s.close()
        with pytest.raises(RestorationError):
            s.open("camp")


class TestDecoderWalkDirect:
    def test_level_by_level_walk_restores_without_warning(self, root):
        # What the removed read_progressive()/open_dataset() shims
        # wrapped, called directly.
        path, fields = root
        ds = BPDataset.open("camp", _hier(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for state in CanopusDecoder(ds).walk("dpot"):
                pass
        assert np.allclose(state.field, fields["dpot"], atol=1e-3)
        ds.close()


class TestErrorTaxonomy:
    def test_every_repro_error_has_code(self):
        seen = set()
        for name in dir(errors_mod):
            obj = getattr(errors_mod, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, ReproError)
            ):
                assert isinstance(obj.code, str) and obj.code, name
                seen.add(obj.code)
        assert "not-found" in seen and "quota-exceeded" in seen

    def test_codes_translate_to_http(self):
        assert http_status(RestorationError("x")) == 400
        assert http_status(AuthError("x")) == 401
        assert http_status(VariableNotFoundError("x")) == 404
        assert http_status(ConflictError("x")) == 409
        assert http_status(QuotaError("x")) == 429
        assert http_status(ServiceError("x")) == 503
        assert http_status(ReproError("x")) == 500
        assert http_status(ValueError("x")) == 500

    def test_error_code_fallback(self):
        assert error_code(ValueError("x")) == "internal"
        assert error_code(QuotaError("x")) == "quota-exceeded"

    def test_status_map_values_are_valid(self):
        assert set(HTTP_STATUS.values()) <= {400, 401, 404, 409, 429, 500, 503}

    def test_quota_error_carries_retry_after(self):
        err = QuotaError("slow down", retry_after=2.5)
        assert err.retry_after == 2.5
        assert isinstance(err, ReproError)


class TestContentKeyedCache:
    def test_cross_handle_cache_hit(self, root):
        """Two independent handles over the same bytes share entries."""
        path, _ = root
        cache = get_restored_cache()
        with Session(_hier(path)) as s1:
            s1.open("camp").restore("dpot", level=1)
        hits_before = cache.stats()["hits"]
        with Session(_hier(path)) as s2:  # brand-new dataset handle
            s2.open("camp").restore("dpot", level=1)
        assert cache.stats()["hits"] > hits_before

    def test_key_for_accepts_fingerprint_string(self, root):
        path, _ = root
        cache = get_restored_cache()
        h = _hier(path)
        ds = BPDataset.open("camp", h)
        fp = dataset_fingerprint(ds)
        by_dataset = cache.key_for(ds, "dpot", 1)
        by_string = cache.key_for(fp, "dpot", 1)
        assert by_dataset == by_string
        ds.close()

    def test_key_normalizes_filter_state(self, root):
        """The key names the chunks a filter keeps, not its spelling."""
        path, _ = root
        ds = BPDataset.open("camp", _hier(path))
        decoder = CanopusDecoder(ds)

        def key(lo, hi, min_significance=0.0, level=0):
            return decoder.cache_key(
                "dpot", level,
                region=(lo, hi), min_significance=min_significance,
            )

        # Lists, arrays, ints and -0.0 are one request.
        a = key(np.array([0.5, -0.0]), np.array([1, 2]), 0)
        assert a == key([0.5, 0.0], [1.0, 2.0], -0.0)
        # Two boxes inside the x > 0, y > 0 chunk keep the same
        # survivors at both delta levels and share a key ...
        inside = key([0.5, 0.5], [0.6, 0.6])
        assert inside == key([0.55, 0.45], [0.7, 0.6])
        assert inside[3] == ((3,), (3,))
        # ... a box in another chunk, or one more survivor, does not.
        assert key([-0.6, -0.6], [-0.5, -0.5]) != inside
        assert key([0.5, -0.1], [0.6, 0.6]) != inside
        # The coarser state of the same walk is keyed by the prefix.
        assert key([0.5, 0.5], [0.6, 0.6], level=1)[3] == ((3,),)
        # A box over the whole domain keeps everything: the
        # unfiltered key. So does a threshold that drops nothing.
        unfiltered = RestoredLevelCache.key_for(ds, "dpot", 0)
        assert key([-5.0, -5.0], [5.0, 5.0]) == unfiltered
        assert key([-5.0, -5.0], [5.0, 5.0], 1e-12) == unfiltered
        # One that drops every chunk of both levels is its own result.
        assert key([-5.0, -5.0], [5.0, 5.0], 1e9)[3] == ((), ())
        ds.close()

    def test_key_excludes_handle_identity(self, root):
        """Same content, different engine config -> identical keys."""
        path, _ = root
        cache = get_restored_cache()
        h = _hier(path)
        ds1 = BPDataset.open("camp", h, cache_bytes=0)
        ds2 = BPDataset.open("camp", h)
        assert cache.key_for(ds1, "apar", 2) == cache.key_for(ds2, "apar", 2)
        ds1.close()
        ds2.close()

    def test_handle_fingerprint_snapshot(self, root):
        path, _ = root
        with Session(_hier(path)) as session:
            handle = session.open("camp")
            assert handle.fingerprint == dataset_fingerprint(handle.dataset)
