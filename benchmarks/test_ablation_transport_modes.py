"""Ablation — deployment modes: post-processing vs in situ vs in transit.

Paper §III-A: Canopus can run "in situ (using either the same core or a
different core than the simulation process)" or "in transit (stages the
data in-memory to auxiliary nodes)", switchable at runtime. This bench
measures a real encode of XGC1 dpot, projects it onto the four modes
under the paper's medium storage-to-compute scenario, and checks the
relationships a practitioner would base the choice on.
"""

import pytest

from repro.core import CanopusEncoder, LevelScheme
from repro.harness import format_table
from repro.perfmodel import model_modes
from repro.simulations import make_xgc1
from repro.storage import two_tier_titan


#: Per-core production step volume (XGC1-class) and C-like kernel
#: throughputs used to project the measured *compression ratio* onto the
#: paper's regime. Our Python kernels are ~100-1000x slower than the C
#: stack the paper ran, so using their wall times would make refactoring
#: look absurdly expensive; the throughputs below are representative of
#: the C implementations (mesh decimation, delta kernels, ZFP).
STEP_VOLUME = 256 << 20
DECIMATE_BPS = 150e6
DELTA_BPS = 300e6
COMPRESS_BPS = 400e6


@pytest.fixture(scope="module")
def modes(tmp_path_factory):
    ds = make_xgc1(scale=0.5)
    h = two_tier_titan(
        tmp_path_factory.mktemp("modes"), fast_capacity=32 << 20,
        slow_capacity=1 << 34,
    )
    encoder = CanopusEncoder(
        h, codec="zfp", codec_params={"tolerance": 1e-4, "mode": "relative"},
        method="serial",
    )
    report, _ = encoder.encode("modes", "dpot", ds.mesh, ds.field, LevelScheme(3))
    # Keep the measured reduction; rescale volume and kernel speeds.
    # Payload bytes only: mesh/mapping geometry is static across steps
    # and written once, so it does not belong in the per-step volume.
    measured_ratio = report.original_bytes / report.payload_bytes
    from repro.core.encoder import EncodeReport

    scaled = EncodeReport(
        var="dpot", scheme=report.scheme, original_bytes=STEP_VOLUME
    )
    scaled.decimation_seconds = STEP_VOLUME / DECIMATE_BPS
    scaled.delta_seconds = STEP_VOLUME / DELTA_BPS
    scaled.compress_seconds = STEP_VOLUME / COMPRESS_BPS
    scaled.compressed_bytes = {"all": int(STEP_VOLUME / measured_ratio)}
    # Output interval: XGC1 writes a snapshot every O(minute) of compute.
    return {
        "congested": model_modes(
            scaled, simulation_seconds=60.0, storage_bandwidth=5e6
        ),
        "healthy": model_modes(
            scaled, simulation_seconds=60.0, storage_bandwidth=250e6
        ),
    }


def test_mode_tables(modes, record_result):
    parts = []
    for scenario, table in modes.items():
        rows = [
            {
                "mode": m.mode,
                "sim_s": m.simulation_seconds,
                "blocking_s": m.blocking_seconds,
                "offloaded_s": m.offloaded_seconds,
                "step_s": m.step_seconds,
                "overhead": m.overhead_fraction,
            }
            for m in table.values()
        ]
        parts.append(
            format_table(rows, title=f"Deployment modes ({scenario} PFS)")
        )
    record_result("ablation_transport_modes", "\n\n".join(parts))


def test_in_transit_always_blocks_least(modes):
    for table in modes.values():
        blocking = {m.mode: m.blocking_seconds for m in table.values()}
        assert blocking["in_transit"] == min(blocking.values())


def test_canopus_wins_on_congested_storage(modes):
    """Where the paper lives: I/O-bound writes ⇒ writing 4x less wins."""
    table = modes["congested"]
    assert table["inline"].step_seconds < table["baseline"].step_seconds
    assert table["helper_core"].step_seconds < table["baseline"].step_seconds


def test_refactoring_not_free_on_healthy_storage(modes):
    """With fast storage the inline refactor cost shows up — the paper's
    'complex data refactorization incurs overhead to simulations'."""
    table = modes["healthy"]
    assert table["inline"].blocking_seconds > table["baseline"].blocking_seconds


def test_modes_benchmark(benchmark, modes):
    table = modes["congested"]
    benchmark(lambda: {m.mode: m.step_seconds for m in table.values()})
