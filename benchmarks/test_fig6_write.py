"""Figure 6 — storage-to-compute trend and write-path cost breakdown.

6a: the bytes/s-per-1M-flops trend for leadership systems, 2009–2024
    (reconstructed from public machine specs; strictly decreasing).
6b: per-process time fractions of the Canopus write path — decimation,
    delta calculation + compression, and I/O — measured on the real
    encoder for XGC1's dpot at decimation ratio 2, then projected onto
    the paper's high/medium/low storage-to-compute scenarios (32/128/512
    cores, one storage target).
"""

import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.harness import format_fraction_bar, format_table
from repro.perfmodel import SCENARIOS, model_write_breakdown, storage_to_compute_series
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan


def test_fig6a_trend(record_result):
    series = storage_to_compute_series()
    rows = [{"year": y, "bytes_per_sec_per_1M_flops": v} for y, v in series]
    record_result("fig6a_trend", format_table(rows, title="Fig.6a: storage-to-compute trend"))
    values = [v for _, v in series]
    assert values == sorted(values, reverse=True)
    assert values[0] / values[-1] > 10


@pytest.fixture(scope="module")
def encode_report(tmp_path_factory):
    # Paper: "a time breakdown writing XGC1's dpot variable, using Canopus
    # with a decimation ratio of two to refactor the original 20,694
    # double-precision mesh values".
    ds = make_xgc1(scale=1.0)
    hierarchy = two_tier_titan(
        tmp_path_factory.mktemp("fig6"), fast_capacity=32 << 20,
        slow_capacity=1 << 34,
    )
    encoder = CanopusEncoder(
        hierarchy, codec="zfp",
        codec_params={"tolerance": 1e-4, "mode": "relative"}, method="serial",
    )
    report, _ = encoder.encode(
        "fig6", "dpot", ds.mesh, ds.field, LevelScheme(2)
    )
    return report


def test_fig6b_write_breakdown(encode_report, record_result):
    rows = []
    bars = []
    for name in ("high", "medium", "low"):
        breakdown = model_write_breakdown(encode_report, SCENARIOS[name])
        fr = breakdown.fractions()
        rows.append(
            {
                "storage_to_compute": name,
                "cores": SCENARIOS[name].cores,
                "decimation_s": breakdown.decimation_seconds,
                "delta_compress_s": breakdown.delta_compress_seconds,
                "io_s": breakdown.io_seconds,
                "io_fraction": fr["io"],
            }
        )
        bars.append(f"{name:7s} {format_fraction_bar(fr)}")
    record_result(
        "fig6b_write_breakdown",
        format_table(rows, title="Fig.6b: write-path time breakdown")
        + "\n\n"
        + "\n".join(bars),
    )
    # The paper's shape: as storage-to-compute falls, I/O dominates.
    io_fracs = [r["io_fraction"] for r in rows]
    assert io_fracs[0] < io_fracs[1] < io_fracs[2]
    # Compute-phase seconds are scenario-invariant (weak scaling).
    assert rows[0]["decimation_s"] == rows[2]["decimation_s"]


def test_fig6b_encode_benchmark(benchmark, tmp_path):
    ds = make_xgc1(scale=0.2)
    hierarchy = two_tier_titan(
        tmp_path, fast_capacity=32 << 20, slow_capacity=1 << 34
    )
    encoder = CanopusEncoder(
        hierarchy, codec="zfp",
        codec_params={"tolerance": 1e-4, "mode": "relative"}, method="serial",
    )
    counter = iter(range(10_000))

    def encode_once():
        encoder.encode(
            f"fig6bench{next(counter)}", "dpot", ds.mesh, ds.field,
            LevelScheme(2),
        )

    benchmark.pedantic(encode_once, rounds=3, iterations=1)
