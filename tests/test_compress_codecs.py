"""Tests for the ZFP-, SZ-, FPC-style codecs and the registry."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compress import (
    CompressionResult,
    available_codecs,
    compress_with_stats,
    decode_auto,
    decode_auto_many,
    get_codec,
)
from repro.compress.lossless import shuffle_decompress
from repro.compress.zfp import CLASS_SIZES, _forward_transform, _inverse_transform
from repro.errors import CompressionError, UnknownCodecError


def signals():
    rng = np.random.default_rng(7)
    x = np.linspace(0, 12, 4000)
    return {
        "smooth": np.sin(x) * np.exp(-0.1 * x),
        "rough": np.sin(x) + rng.normal(0, 0.5, x.size),
        "constant": np.full(1000, 3.25),
        "tiny": rng.normal(0, 1e-8, 2000),
        "large": rng.normal(1e6, 1e3, 2000),
        "single": np.array([42.5]),
        "pair": np.array([1.0, -1.0]),
    }


LOSSY = [("zfp", {"tolerance": 1e-5}), ("sz", {"tolerance": 1e-5})]
LOSSLESS = [("fpc", {}), ("deflate", {}), ("raw", {}), ("zfp", {"tolerance": 0.0}), ("sz", {"tolerance": 0.0})]


class TestRegistry:
    def test_available(self):
        names = available_codecs()
        for expect in ("zfp", "sz", "fpc", "deflate", "raw"):
            assert expect in names

    def test_unknown_codec(self):
        with pytest.raises(UnknownCodecError):
            get_codec("bogus")

    def test_decode_auto_dispatch(self):
        data = np.linspace(0, 1, 100)
        blob = get_codec("deflate").encode(data)
        assert np.array_equal(decode_auto(blob), data)

    def test_decode_wrong_codec(self):
        data = np.linspace(0, 1, 10)
        blob = get_codec("raw").encode(data)
        with pytest.raises(CompressionError):
            get_codec("deflate").decode(blob)

    def test_decode_garbage(self):
        with pytest.raises(CompressionError):
            decode_auto(b"not a payload")


class TestLossyBounds:
    @pytest.mark.parametrize("name,params", LOSSY)
    @pytest.mark.parametrize("signal", list(signals()))
    def test_error_bound_respected(self, name, params, signal):
        codec = get_codec(name, **params)
        data = signals()[signal]
        out = codec.decode(codec.encode(data))
        assert out.shape == data.shape
        if data.size:
            assert np.max(np.abs(out - data)) <= params["tolerance"] + 1e-15

    @pytest.mark.parametrize("name", ["zfp", "sz"])
    def test_tighter_tolerance_bigger_payload(self, name):
        data = signals()["rough"]
        loose = len(get_codec(name, tolerance=1e-2).encode(data))
        tight = len(get_codec(name, tolerance=1e-8).encode(data))
        assert tight > loose

    @pytest.mark.parametrize("name", ["zfp", "sz"])
    def test_smooth_compresses_better_than_rough(self, name):
        s = signals()
        codec = get_codec(name, tolerance=1e-5)
        assert len(codec.encode(s["smooth"])) < len(codec.encode(s["rough"]))

    def test_zfp_relative_mode(self):
        data = signals()["large"]
        codec = get_codec("zfp", tolerance=1e-6, mode="relative")
        out = codec.decode(codec.encode(data))
        bound = 1e-6 * (data.max() - data.min())
        assert np.max(np.abs(out - data)) <= bound * (1 + 1e-12)

    def test_zfp_bad_mode(self):
        with pytest.raises(CompressionError):
            get_codec("zfp", mode="sideways")

    def test_negative_tolerance(self):
        with pytest.raises(CompressionError):
            get_codec("zfp", tolerance=-1.0)
        with pytest.raises(CompressionError):
            get_codec("sz", tolerance=-1.0)

    def test_tolerance_too_small_raises(self):
        data = np.array([1e300, -1e300])
        with pytest.raises(CompressionError):
            get_codec("zfp", tolerance=1e-30).encode(data)
        with pytest.raises(CompressionError):
            get_codec("sz", tolerance=1e-30).encode(data)

    def test_non_finite_rejected(self):
        for name, params in LOSSY:
            with pytest.raises(CompressionError):
                get_codec(name, **params).encode(np.array([1.0, np.nan]))
            with pytest.raises(CompressionError):
                get_codec(name, **params).encode(np.array([np.inf]))

    def test_max_error_reporting(self):
        assert get_codec("zfp", tolerance=1e-3).max_error() == 1e-3
        assert get_codec("fpc").max_error() == 0.0


class TestLossless:
    @pytest.mark.parametrize("name,params", LOSSLESS)
    @pytest.mark.parametrize("signal", list(signals()))
    def test_exact_roundtrip(self, name, params, signal):
        codec = get_codec(name, **params)
        data = signals()[signal]
        out = codec.decode(codec.encode(data))
        assert np.array_equal(out, data)

    @pytest.mark.parametrize("predictor", ["delta", "fcm", "dfcm"])
    def test_fpc_predictors_exact(self, predictor):
        rng = np.random.default_rng(3)
        data = np.cumsum(rng.normal(0, 1, 400))
        codec = get_codec("fpc", predictor=predictor)
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    def test_fpc_bad_predictor(self):
        with pytest.raises(CompressionError):
            get_codec("fpc", predictor="psychic")

    def test_fpc_compresses_correlated_data(self):
        # Smooth trajectories share exponent/top-mantissa bytes.
        x = np.linspace(1.0, 2.0, 8192)
        blob = get_codec("fpc").encode(x)
        assert len(blob) < x.nbytes

    def test_deflate_level_validation(self):
        with pytest.raises(CompressionError):
            get_codec("deflate", level=11)

    def test_negative_zero_preserved(self):
        data = np.array([0.0, -0.0, 1.0])
        for name, params in LOSSLESS:
            out = get_codec(name, **params).decode(
                get_codec(name, **params).encode(data)
            )
            assert np.array_equal(
                np.signbit(out), np.signbit(data)
            ), name


class TestEmptyAndShapes:
    @pytest.mark.parametrize(
        "name,params", LOSSY + LOSSLESS, ids=lambda v: str(v)
    )
    def test_empty_array(self, name, params):
        codec = get_codec(name, **params)
        out = codec.decode(codec.encode(np.zeros(0)))
        assert out.size == 0

    def test_2d_input_flattened(self):
        codec = get_codec("raw")
        data = np.arange(12, dtype=float).reshape(3, 4)
        out = codec.decode(codec.encode(data))
        assert out.shape == (12,)


class TestTransform:
    def test_transform_exact_inverse(self):
        rng = np.random.default_rng(11)
        q = rng.integers(-(2**40), 2**40, size=(500, 16)).astype(np.int64)
        assert np.array_equal(_inverse_transform(_forward_transform(q)), q)

    def test_transform_constant_block_single_coeff(self):
        q = np.full((1, 16), 77, dtype=np.int64)
        c = _forward_transform(q)
        assert c[0, 0] == 77
        assert np.all(c[0, 1:] == 0)

    def test_transform_linear_block_small_details(self):
        q = np.arange(16, dtype=np.int64)[None, :] * 10
        c = _forward_transform(q)
        # A linear ramp's fine-detail coefficients are all equal (constant
        # slope), tiny compared to the DC term.
        assert abs(c[0, 0]) > np.abs(c[0, 8:]).max()


class TestStatsHelper:
    def test_compress_with_stats(self):
        data = signals()["smooth"]
        res = compress_with_stats(get_codec("zfp", tolerance=1e-4), data)
        assert isinstance(res, CompressionResult)
        assert res.original_bytes == data.nbytes
        assert res.compressed_bytes > 0
        assert res.ratio > 1
        assert 0 < res.normalized_size < 1
        assert res.max_abs_error <= 1e-4
        assert res.encode_seconds >= 0


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        data=arrays(
            np.float64,
            st.integers(1, 200),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_zfp_bound_property(self, data):
        codec = get_codec("zfp", tolerance=1e-3)
        out = codec.decode(codec.encode(data))
        assert np.max(np.abs(out - data)) <= 1e-3 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        data=arrays(
            np.float64,
            st.integers(1, 200),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        )
    )
    def test_sz_bound_property(self, data):
        codec = get_codec("sz", tolerance=1e-3)
        out = codec.decode(codec.encode(data))
        assert np.max(np.abs(out - data)) <= 1e-3 + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        data=arrays(
            np.float64,
            st.integers(1, 200),
            elements=st.floats(
                allow_nan=False, allow_infinity=False, width=64
            ),
        )
    )
    def test_fpc_lossless_property(self, data):
        codec = get_codec("fpc")
        assert np.array_equal(codec.decode(codec.encode(data)), data)

    @settings(max_examples=30, deadline=None)
    @given(
        data=arrays(
            np.float64,
            st.integers(0, 150),
            elements=st.floats(-1e9, 1e9, allow_nan=False, width=64),
        ),
        seed=st.integers(0, 100),
    )
    def test_decode_auto_roundtrip_property(self, data, seed):
        name = ["fpc", "deflate", "raw"][seed % 3]
        blob = get_codec(name).encode(data)
        assert np.array_equal(decode_auto(blob), data)


# ---------------------------------------------------------------------------
# batched decode
# ---------------------------------------------------------------------------
def _reference_zfp_decode(blob: bytes) -> np.ndarray:
    """One zfp payload decoded straight from the format description.

    Python integers and loops throughout — it shares no code with the
    vectorised kernel, so it is the per-blob reference the batched
    decode must match bit for bit.
    """
    name_len, count = struct.unpack_from("<BQ", blob, 4)
    payload = blob[13 + name_len :]
    if count == 0:
        return np.zeros(0)
    mode = payload[0]
    if mode == 0:  # constant
        return np.full(count, struct.unpack_from("<d", payload, 1)[0])
    if mode == 2:  # lossless fallback
        return shuffle_decompress(payload[1:], count)
    step, nblocks = struct.unpack_from("<dQ", payload, 1)

    def reader(data: bytes):
        big, nbits = int.from_bytes(data, "big"), 8 * len(data)
        return lambda pos, width: (big >> (nbits - pos - width)) & ((1 << width) - 1)

    width_nbytes = (nblocks * 5 * 7 + 7) // 8
    read_width = reader(payload[17 : 17 + width_nbytes])
    widths = [[read_width(7 * (5 * b + c), 7) for c in range(5)]
              for b in range(nblocks)]
    read = reader(payload[17 + width_nbytes :])
    u = [[0] * 16 for _ in range(nblocks)]
    pos, first = 0, 0
    for c, size in enumerate(CLASS_SIZES):  # class-major ...
        for w in sorted({row[c] for row in widths} - {0}):  # ... ascending width
            for b in range(nblocks):  # ... block order inside a group
                if widths[b][c] == w:
                    for j in range(size):
                        u[b][first + j] = read(pos, w)
                        pos += w
            pos = (pos + 7) // 8 * 8  # groups end on a byte boundary
        first += size
    q = []
    for block in u:
        coeffs = [(v >> 1) ^ -(v & 1) for v in block]  # unzigzag
        s, at = coeffs[:1], 1
        for level in range(4):  # inverse S-transform, coarse to fine
            d = coeffs[at : at + (1 << level)]
            at += 1 << level
            nxt = []
            for s_i, d_i in zip(s, d):
                b_i = s_i - (d_i >> 1)
                nxt += [d_i + b_i, b_i]
            s = nxt
        q += s
    return (np.array(q, dtype=np.int64).astype(np.float64) * step)[:count]


def _zfp_case(seed: int, n: int, kind: str, exponent: int) -> bytes:
    """One encoded payload; ``exponent`` sets the coefficient widths."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        return get_codec("zfp", tolerance=0.5).encode(np.full(n, 1.5 * seed))
    if kind == "lossless":
        return get_codec("zfp", tolerance=0.0).encode(rng.normal(size=n))
    if kind == "smooth":  # the real case: narrow, mixed widths
        return get_codec("zfp", tolerance=1e-4, mode="relative").encode(
            np.cumsum(rng.normal(size=n))
        )
    # Quantisation step 1.0 and magnitudes up to 2**exponent: at 57 the
    # detail coefficients need ~60 bits, past one 64-bit window.
    return get_codec("zfp", tolerance=0.5).encode(
        rng.uniform(-1, 1, n) * 2.0**exponent
    )


_CASES = st.tuples(
    st.integers(0, 2**31),
    st.sampled_from([0, 1, 15, 16, 17, 33, 400]),
    st.sampled_from(["constant", "lossless", "smooth", "wide"]),
    st.integers(0, 57),
)


class TestDecodeMany:
    @settings(max_examples=60, deadline=None)
    @given(cases=st.lists(_CASES, min_size=0, max_size=6))
    def test_zfp_batch_equals_reference_decode_of_each(self, cases):
        blobs = [_zfp_case(*case) for case in cases]
        got = get_codec("zfp").decode_many(blobs)
        assert len(got) == len(blobs)
        for blob, values in zip(blobs, got):
            assert values.dtype == np.float64
            assert values.tobytes() == _reference_zfp_decode(blob).tobytes()

    def test_chunk_sized_batch_and_widest_coefficients(self):
        # ~10k-value chunks as the decoder batches them, next to blobs at
        # the 58-bit quantisation limit and every fall-through mode.
        blobs = [
            _zfp_case(1, 10_400, "smooth", 0),
            _zfp_case(2, 0, "smooth", 0),
            _zfp_case(3, 10_399, "wide", 57),
            _zfp_case(4, 17, "constant", 0),
            _zfp_case(5, 1000, "lossless", 0),
            _zfp_case(6, 9_000, "wide", 30),
        ]
        codec = get_codec("zfp")
        got = codec.decode_many(blobs)
        for blob, values in zip(blobs, got):
            assert values.tobytes() == _reference_zfp_decode(blob).tobytes()
            assert codec.decode(blob).tobytes() == values.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(
                st.sampled_from(["zfp", "sz", "fpc", "deflate", "raw"]),
                st.integers(0, 2**31),
                st.sampled_from([0, 1, 16, 17, 300]),
            ),
            max_size=8,
        )
    )
    def test_auto_many_mixed_codecs_keeps_order(self, picks):
        blobs = []
        for name, seed, n in picks:
            data = np.random.default_rng(seed).normal(size=n)
            blobs.append(get_codec(name).encode(data))
        got = decode_auto_many(blobs)
        assert len(got) == len(blobs)
        for blob, values in zip(blobs, got):
            assert values.tobytes() == decode_auto(blob).tobytes()

    def test_wrong_codec_in_batch_rejected(self):
        data = np.linspace(0, 1, 40)
        blobs = [get_codec("zfp").encode(data), get_codec("raw").encode(data)]
        with pytest.raises(CompressionError):
            get_codec("zfp").decode_many(blobs)

    def test_truncated_payload_in_batch_rejected(self):
        # A short blob must fail, not read on into its neighbour's bytes.
        data = np.cumsum(np.random.default_rng(0).normal(size=500))
        blob = get_codec("zfp", tolerance=1e-6).encode(data)
        for cut in (len(blob) - 1, len(blob) // 2, 40, 20):
            with pytest.raises(CompressionError):
                get_codec("zfp").decode_many([blob[:cut], blob])

    def test_out_of_range_width_header_rejected(self):
        data = np.cumsum(np.random.default_rng(1).normal(size=64))
        blob = bytearray(get_codec("zfp", tolerance=1e-6).encode(data))
        blob[13 + 3 + 17] = 0xFF  # first 7-bit width becomes 127
        with pytest.raises(CompressionError):
            get_codec("zfp").decode(bytes(blob))
