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
from repro.compress import zfp as zfp_module
from repro.compress.lossless import shuffle_decompress
from repro.compress.zfp import (
    CLASS_SIZES,
    ZFPCompressor,
    _bit_lengths,
    _encode_coded,
    _forward_transform,
    _inverse_transform,
    _zigzag,
)
from repro.errors import BitstreamError, CompressionError, UnknownCodecError


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

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["zfp", "sz"])
    def test_non_finite_tolerance_rejected(self, name, tolerance):
        # NaN passes ``tolerance < 0``; both used to encode an all-NaN field.
        with pytest.raises(CompressionError, match="finite"):
            get_codec(name, tolerance=tolerance)

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


class _ReferenceZFP(ZFPCompressor):
    """The codec with the per-group encode loop this repo used to ship.

    One width per (block, class) from Python's ``int.bit_length``, then a
    Python loop over every (class, ``np.unique`` width) group, each group
    expanded to one array element per bit and packed on its own. Shares
    the transform with the kernel and nothing after it — no layout walk,
    no ``scatter_uint`` — so it is the reference ``encode`` must match
    byte for byte.
    """

    def _encode_with_step(self, data, step, lo, hi):
        if max(abs(lo), abs(hi)) / step >= 2.0**58:
            raise CompressionError("needs > 58 bits per value")
        nblocks = (data.size + 15) // 16
        padded = np.empty(nblocks * 16)
        padded[: data.size] = data
        padded[data.size :] = data[-1]
        q = np.round(padded / step).astype(np.int64).reshape(nblocks, 16)
        u = _zigzag(_forward_transform(q))

        def pack(values, width):
            shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
            bits = (values[:, None] >> shifts[None, :]) & np.uint64(1)
            return np.packbits(bits.astype(np.uint8).ravel()).tobytes()

        widths = np.zeros((nblocks, 5), dtype=np.uint64)
        pos = 0
        for c, size in enumerate(CLASS_SIZES):
            largest = u[:, pos : pos + size].max(axis=1)
            widths[:, c] = [int(v).bit_length() for v in largest]
            pos += size
        parts = [struct.pack("<BdQ", 1, step, nblocks), pack(widths.ravel(), 7)]
        pos = 0
        for c, size in enumerate(CLASS_SIZES):
            seg = u[:, pos : pos + size]
            pos += size
            for w in np.unique(widths[:, c]):
                if w:
                    parts.append(pack(seg[widths[:, c] == w].ravel(), int(w)))
        return b"".join(parts)


def _encode_input(kind: str, n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, n])
    if kind == "smooth":
        return np.sin(np.linspace(0.0, 9.0, n)) + 0.01 * np.arange(n)
    if kind == "noise":
        return rng.standard_normal(n)
    if kind == "huge":
        return 1e9 * (1.0 + rng.uniform(-1, 1, n))
    assert kind == "constant_tail"
    data = np.cumsum(rng.standard_normal(n))
    data[n // 3 :] = data[n // 3]
    return data


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


# ---------------------------------------------------------------------------
# one-pass encode
# ---------------------------------------------------------------------------
class TestEncodeKernel:
    """``encode`` against the per-group loop it replaced, byte for byte."""

    @staticmethod
    def _same_bytes_or_same_refusal(data, **params):
        try:
            expected = _ReferenceZFP(**params).encode(data)
        except CompressionError:
            # More than 58 bits per value: both must refuse.
            with pytest.raises(CompressionError):
                get_codec("zfp", **params).encode(data)
        else:
            assert get_codec("zfp", **params).encode(data) == expected

    @pytest.mark.parametrize("n", [1, 15, 16, 17, 2_583, 20_664, 4 * 20_664])
    @pytest.mark.parametrize(
        "kind", ["smooth", "noise", "huge", "constant_tail"]
    )
    def test_matches_reference_at_every_tolerance(self, n, kind):
        data = _encode_input(kind, n)
        tolerances = [1e-2, 1e-4, 1e-6, 1e-9, 1e-12, 1e-15]
        for mode in ("absolute", "relative"):
            for tolerance in tolerances if n <= 20_664 else tolerances[1::2]:
                self._same_bytes_or_same_refusal(
                    data, tolerance=tolerance, mode=mode
                )

    @pytest.mark.parametrize("rate", [1.0, 4.0, 8.0, 20.0, 64.0])
    @pytest.mark.parametrize("n", [1, 17, 2_583])
    def test_fixed_rate_matches_reference(self, rate, n):
        # The bisection probes the same kernel at every step it tries.
        for kind in ("smooth", "noise"):
            self._same_bytes_or_same_refusal(_encode_input(kind, n), rate=rate)

    def test_widest_coefficients(self):
        # |q| near 2**62 (past the public bound, so straight to the
        # kernel): the first detail of block 0 zigzags to 64 bits, and the
        # block beside it keeps narrow groups in the same classes.
        data = np.zeros(48)
        data[0], data[1] = 2.0**62 - 2.0**10, -(2.0**62)
        data[16:32] = np.arange(16.0)
        data[32:] = -7.0
        codec, reference = ZFPCompressor(), _ReferenceZFP()
        payload = codec._encode_with_step(data, 1.0, 0.0, 0.0)
        assert payload == reference._encode_with_step(data, 1.0, 0.0, 0.0)
        widths = _bit_lengths(_zigzag(_forward_transform(
            data.astype(np.int64).reshape(3, 16))).max(axis=1))
        assert int(widths.max()) == 64
        assert np.array_equal(codec._decode_payload(payload, 48), data)

    def test_zero_width_classes(self):
        codec, reference = get_codec("zfp", tolerance=0.5), _ReferenceZFP(0.5)
        # Constant inside each block: every detail class is 0 bits wide.
        steps = np.repeat(np.arange(40.0) * 3.0, 16)
        # Not constant, yet every value quantises to 0: no group at all.
        whisper = np.linspace(-0.2, 0.2, 100)
        for data in (steps, steps[:-5], whisper):
            blob = codec.encode(data)
            assert blob == reference.encode(data)
            assert np.abs(codec.decode(blob) - data).max() <= 0.5
        nblocks = len(whisper) // 16 + 1
        assert len(codec.encode(whisper)) == 13 + 3 + 17 + (nblocks * 35 + 7) // 8

    @settings(max_examples=40, deadline=None)
    @given(
        data=arrays(
            np.float64, st.integers(1, 300),
            elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
        ),
        exponent=st.integers(-12, 2),
    )
    def test_matches_reference_property(self, data, exponent):
        self._same_bytes_or_same_refusal(data, tolerance=10.0**exponent)

    def test_bit_lengths_exact(self):
        rng = np.random.default_rng(5)
        edges = [0, 1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**54 - 1, 2**64 - 1]
        edges += [2**k for k in range(64)] + [2**k - 1 for k in range(1, 65)]
        spread = rng.integers(0, 2**64, 4000, dtype=np.uint64) >> rng.integers(
            0, 64, 4000
        ).astype(np.uint64)
        values = np.concatenate([np.array(edges, dtype=np.uint64), spread])
        got = _bit_lengths(values)
        assert got.dtype == np.uint8
        assert got.tolist() == [int(v).bit_length() for v in values]


#: Codec settings a batch shares: lossless, absolute and relative
#: coded, fixed-rate, and a step of 1.0 for the widest coefficients.
_BATCH_PARAMS = [
    {"tolerance": 0.0},
    {"tolerance": 1e-3},
    {"tolerance": 1e-6, "mode": "relative"},
    {"rate": 8.0},
    {"tolerance": 0.5},
]


def _batch_member(kind: str, n: int, seed: int) -> np.ndarray:
    if kind == "constant":
        return np.full(n, 0.75 * seed)
    if kind == "wide":  # |q| up to 2**57 at step 1.0: ~60-bit details
        rng = np.random.default_rng(seed)
        return rng.uniform(-1, 1, n) * 2.0**57
    return _encode_input(kind, n, seed)


class TestEncodeMany:
    """``encode_many`` against ``encode`` of each member, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.sampled_from(_BATCH_PARAMS),
        members=st.lists(
            st.tuples(
                st.sampled_from(["constant", "smooth", "noise", "wide"]),
                st.sampled_from([0, 1, 15, 16, 17, 33, 400, 3_000]),
                st.integers(0, 2**16),
            ),
            max_size=7,
        ),
    )
    def test_batch_equals_encode_of_each_and_the_reference(
        self, params, members
    ):
        batch = [_batch_member(*member) for member in members]
        codec = get_codec("zfp", **params)
        try:
            expected = [_ReferenceZFP(**params).encode(a) for a in batch]
        except CompressionError:
            # A member needs more than 58 bits per value: both refuse.
            with pytest.raises(CompressionError):
                codec.encode_many(batch)
            return
        assert [codec.encode(a) for a in batch] == expected
        assert codec.encode_many(batch) == expected

    def test_widest_coefficients_in_a_batch(self):
        # The 64-bit coefficient of TestEncodeKernel.test_widest_coefficients
        # (past the public bound, so straight to the kernel) beside narrow
        # payloads at other steps.
        wide = np.zeros(48)
        wide[0], wide[1] = 2.0**62 - 2.0**10, -(2.0**62)
        wide[16:32] = np.arange(16.0)
        smooth, noise = _encode_input("smooth", 2_583), _encode_input("noise", 17)
        batch, steps = [smooth, wide, noise], [1e-4, 1.0, 1e-3]
        reference = _ReferenceZFP()
        assert _encode_coded(batch, steps) == [
            reference._encode_with_step(a, step, 0.0, 0.0)
            for a, step in zip(batch, steps)
        ]

    def test_one_call_of_the_kernel_per_batch(self, monkeypatch):
        calls = []
        kernel = zfp_module._encode_coded

        def counted(arrays, steps):
            calls.append(len(arrays))
            return kernel(arrays, steps)

        monkeypatch.setattr(zfp_module, "_encode_coded", counted)
        batch = [_encode_input("smooth", n) for n in (17, 0, 400, 33)]
        batch.append(np.full(30, 2.0))
        get_codec("zfp", tolerance=1e-5).encode_many(batch)
        assert calls == [3]  # the empty and constant members need none

    def test_non_finite_member_refused(self):
        bad = _encode_input("smooth", 100)
        bad[40] = np.inf
        batch = [_encode_input("noise", 50), bad, _encode_input("smooth", 30)]
        for params in _BATCH_PARAMS:
            with pytest.raises(CompressionError, match="non-finite"):
                get_codec("zfp", **params).encode_many(batch)

    def test_overlapping_entries_refused(self, monkeypatch):
        layout = zfp_module._entry_layout

        def overlapping(widths, nblocks, body_bit0):
            entry_off, order, end = layout(widths, nblocks, body_bit0)
            # Move the second non-empty entry (stream order) onto the
            # first: their bits would share a field.
            first, second = [e for e in order if widths[e]][:2]
            entry_off[second] = entry_off[first]
            return entry_off, order, end

        monkeypatch.setattr(zfp_module, "_entry_layout", overlapping)
        batch = [_encode_input("noise", 200), _encode_input("smooth", 500)]
        codec = get_codec("zfp", tolerance=1e-4)
        with pytest.raises(BitstreamError):
            codec.encode_many(batch)
        with pytest.raises(BitstreamError):
            codec.encode(batch[1])

    def test_coefficient_wider_than_its_class_width_refused(
        self, monkeypatch
    ):
        # A class width one bit short of its largest coefficient: the
        # fit check, not add_uint (which checks nothing), must refuse.
        bit_lengths = zfp_module._bit_lengths

        def undercounted(values):
            bits = bit_lengths(values)
            return bits - (bits > 0).view(np.uint8)

        monkeypatch.setattr(zfp_module, "_bit_lengths", undercounted)
        batch = [_encode_input("noise", 200), _encode_input("smooth", 500)]
        codec = get_codec("zfp", tolerance=1e-4)
        with pytest.raises(BitstreamError, match="does not fit"):
            codec.encode_many(batch)
        with pytest.raises(BitstreamError, match="does not fit"):
            codec.encode(batch[1])


class TestEncodeEntry:
    """``encode(data)`` is ``encode_many([data])[0]`` on every codec, and
    zfp's write-side checks refuse what ``add_uint`` would not catch."""

    @pytest.mark.parametrize(
        "name,params", LOSSY + LOSSLESS,
        ids=[f"{n}-{p}" for n, p in LOSSY + LOSSLESS],
    )
    def test_encode_is_encode_many_of_one(self, name, params):
        codec = get_codec(name, **params)
        for data in signals().values():
            assert codec.encode(data) == codec.encode_many([data])[0]
        grid = signals()["smooth"][:1200].reshape(30, 40)[:, ::2]
        assert codec.encode(grid) == codec.encode_many([grid.ravel()])[0]

    def test_one_span_per_encode_call(self):
        from repro.obs import trace_session

        codec = get_codec("zfp", tolerance=1e-4)
        data = [_encode_input("smooth", n) for n in (40, 300)]
        with trace_session() as tracer:
            codec.encode(data[0])
            codec.encode_many(data)
        spans = [s for s in tracer.spans if s.name == "codec.zfp.encode"]
        assert [s.args["blobs"] for s in spans] == [1, 2]

    def test_lone_coded_member_takes_the_encode_with_step_seam(self):
        seen = []

        class Counting(ZFPCompressor):
            def _encode_with_step(self, data, step, lo, hi):
                seen.append(data.size)
                return super()._encode_with_step(data, step, lo, hi)

        codec = Counting(tolerance=1e-4)
        coded = [_encode_input("noise", 70), _encode_input("smooth", 90)]
        codec.encode_many([np.zeros(0), coded[0], np.full(9, 1.5)])
        assert seen == [70]
        codec.encode(coded[1])
        assert seen == [70, 90]
        codec.encode_many(coded)  # two coded members: one kernel pass
        assert seen == [70, 90]

    def test_more_than_58_bits_refused_by_encode_and_encode_many(self):
        wide = np.array([0.0, 1e16, -3.0, 5.0])
        codec = get_codec("zfp", tolerance=1e-3)
        with pytest.raises(CompressionError, match="58 bits"):
            codec.encode(wide)
        with pytest.raises(CompressionError, match="58 bits"):
            codec.encode_many([_encode_input("smooth", 50), wide])

    def test_entry_before_its_payloads_body_refused(self, monkeypatch):
        layout = zfp_module._entry_layout

        def into_the_widths(widths, nblocks, body_bit0):
            entry_off, order, end = layout(widths, nblocks, body_bit0)
            entry_off[order[0]] = 0  # on the payload's 7-bit widths
            return entry_off, order, end

        monkeypatch.setattr(zfp_module, "_entry_layout", into_the_widths)
        batch = [_encode_input("noise", 200), _encode_input("smooth", 500)]
        codec = get_codec("zfp", tolerance=1e-4)
        with pytest.raises(BitstreamError, match="overlap"):
            codec.encode_many(batch)
        with pytest.raises(BitstreamError, match="overlap"):
            codec.encode(batch[0])

    def test_entry_past_its_payloads_end_refused(self, monkeypatch):
        layout = zfp_module._entry_layout

        def past_the_end(widths, nblocks, body_bit0):
            entry_off, order, end = layout(widths, nblocks, body_bit0)
            last = order[-1]
            assert widths[last]  # noise fills its widest class group
            entry_off[last] = end[-1]  # starts where the payload ends
            return entry_off, order, end

        monkeypatch.setattr(zfp_module, "_entry_layout", past_the_end)
        batch = [_encode_input("smooth", 500), _encode_input("noise", 200)]
        codec = get_codec("zfp", tolerance=1e-4)
        with pytest.raises(BitstreamError, match="overlap"):
            codec.encode_many(batch)
        with pytest.raises(BitstreamError, match="overlap"):
            codec.encode(batch[1])


def _payload_crcs(root, name):
    from repro.api import BPDataset, two_tier_titan

    records = BPDataset.open(name, two_tier_titan(root)).catalog.records
    return {
        key: (r.checksum, r.length)
        for key, r in records.items() if r.kind in ("base", "delta")
    }


class TestStoredPayloadPins:
    """(CRC-32, length) of every zfp product of two small writes.

    Literals taken at the commit before the one-pass kernel, on a grid
    mesh and a polynomial field (no RNG, no transcendental functions),
    over the reference kernel's levels (``method="serial"``): the pins
    are about the codec, not about whichever kernel is the default.
    Geometry products are deflate output and so left to
    ``test_decimation_plan.TestGeometryMemo``.
    """

    @staticmethod
    def _inputs():
        from repro.mesh.generators import structured_rectangle

        mesh = structured_rectangle(33, 33)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        return mesh, x * x - y + 0.25 * x * y * y

    def test_write_campaign(self, tmp_path):
        from repro.api import CampaignWriter, LevelScheme, two_tier_titan

        # write_campaign's in-process body, with the kernel named (the
        # façade takes no ``method``).
        mesh, field = self._inputs()
        writer = CampaignWriter(
            two_tier_titan(tmp_path), "c", "f", mesh, LevelScheme(3),
            codec_params={"tolerance": 1e-4}, method="serial",
        )
        for step, data in enumerate([field, field * 1.125]):
            writer.write_step(step, data)
        writer.close()
        assert _payload_crcs(tmp_path, "c") == {
            "f/step0/L2": (13639716, 524),
            "f/step0/delta0-1": (597414416, 1340),
            "f/step0/delta1-2": (3235145542, 760),
            "f/step1/L2": (3928707557, 527),
            "f/step1/delta0-1": (2423751929, 1351),
            "f/step1/delta1-2": (3813370784, 770),
        }

    def test_chunked_encode(self, tmp_path):
        from repro.api import CanopusEncoder, LevelScheme, two_tier_titan

        mesh, field = self._inputs()
        CanopusEncoder(
            two_tier_titan(tmp_path), codec_params={"tolerance": 1e-4},
            chunks=8, method="serial",
        ).encode("e", "f", mesh, field, LevelScheme(3))
        chunks0 = [
            (1656070716, 205), (3192401546, 187), (3025596013, 194),
            (2525639156, 207), (4284484125, 191), (1291789553, 198),
            (3192369423, 208), (213140222, 190), (1850701364, 201),
        ]
        chunks1 = [
            (228111538, 132), (2113519978, 105), (2983328716, 122),
            (3237123873, 130), (2599605155, 116), (1036440041, 122),
            (4159848695, 133), (3546585038, 120), (3294096147, 127),
        ]
        expected = {"f/L2": (13639716, 524)}
        expected.update(
            {f"f/delta0-1/chunk{c}": pin for c, pin in enumerate(chunks0)}
        )
        expected.update(
            {f"f/delta1-2/chunk{c}": pin for c, pin in enumerate(chunks1)}
        )
        assert _payload_crcs(tmp_path, "e") == expected
