"""Ablation — the floating-point compressor stage (paper §III-C3).

"As of 2016, Canopus has integrated ZFP … We are in the process of
integrating other compression libraries such as SZ and FPC." This
ablation runs the codec registry over the refactored products: the
ZFP-/SZ-style error-bounded codecs on the deltas, plus the lossless
FPC-style and deflate baselines, reporting normalized sizes and
throughput.
"""

import numpy as np
import pytest

from repro.compress import compress_with_stats, get_codec
from repro.core import LevelScheme, refactor
from repro.harness import format_table
from repro.simulations import make_xgc1

REL_TOL = 1e-4


@pytest.fixture(scope="module")
def products():
    ds = make_xgc1(scale=0.4)
    result = refactor(ds.mesh, ds.field, LevelScheme(3), method="serial")
    tol = REL_TOL * float(np.ptp(ds.field))
    return ds, result, tol


def codec_list(tol):
    return [
        ("zfp", {"tolerance": tol}),
        ("sz", {"tolerance": tol}),
        ("fpc", {}),
        ("deflate", {}),
    ]


@pytest.fixture(scope="module")
def comparison(products):
    ds, result, tol = products
    rows = []
    for name, params in codec_list(tol):
        codec = get_codec(name, **params)
        base = compress_with_stats(codec, result.base_field)
        deltas = [compress_with_stats(codec, d) for d in result.deltas]
        total_in = base.original_bytes + sum(d.original_bytes for d in deltas)
        total_out = base.compressed_bytes + sum(
            d.compressed_bytes for d in deltas
        )
        rows.append(
            {
                "codec": name,
                "lossless": codec.lossless,
                "normalized_size": total_out / total_in,
                "max_err": max(
                    [base.max_abs_error] + [d.max_abs_error for d in deltas]
                ),
                "encode_MBps": total_in
                / 1e6
                / (base.encode_seconds + sum(d.encode_seconds for d in deltas)),
            }
        )
    return rows


def test_compressor_ablation_table(comparison, record_result):
    record_result(
        "ablation_compressor",
        format_table(
            comparison, title="Ablation: compressor stage on Canopus products"
        ),
    )


def test_lossy_beats_lossless_on_ratio(comparison):
    """The paper's premise: lossless tops out under 2x; error-bounded
    codecs reach far higher ratios."""
    by = {r["codec"]: r for r in comparison}
    for lossy in ("zfp", "sz"):
        assert by[lossy]["normalized_size"] < 0.5
    for lossless in ("fpc", "deflate"):
        assert by[lossless]["normalized_size"] > 0.5  # <2x ratio


def test_error_bounds_hold(comparison, products):
    _, _, tol = products
    by = {r["codec"]: r for r in comparison}
    assert by["zfp"]["max_err"] <= tol + 1e-15
    assert by["sz"]["max_err"] <= tol + 1e-15
    assert by["fpc"]["max_err"] == 0.0
    assert by["deflate"]["max_err"] == 0.0


def test_compressor_benchmark(benchmark, products):
    _, result, tol = products
    codec = get_codec("sz", tolerance=tol)
    benchmark(lambda: codec.encode(result.deltas[0]))
