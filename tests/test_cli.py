"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.mesh.io import load_mesh


@pytest.fixture
def generated(tmp_path):
    mesh_path = tmp_path / "plane.npz"
    rc = main(
        ["generate", "xgc1", "--scale", "0.1", "--seed", "3", "--out",
         str(mesh_path)]
    )
    assert rc == 0
    return mesh_path, tmp_path / "store"


class TestGenerate:
    def test_generates_npz(self, generated, capsys):
        mesh_path, _ = generated
        mesh, fields = load_mesh(mesh_path)
        assert mesh.num_vertices > 100
        assert "dpot" in fields

    def test_all_dataset_names(self, tmp_path):
        for name in ("xgc1", "genasis", "cfd"):
            out = tmp_path / f"{name}.npz"
            assert main(["generate", name, "--scale", "0.05", "--out", str(out)]) == 0
            assert out.exists()


class TestEncodeInfoRestore:
    def encode(self, generated):
        mesh_path, root = generated
        return main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--levels", "3", "--tolerance", "1e-4"]
        )

    def test_encode(self, generated, capsys):
        assert self.encode(generated) == 0
        out = capsys.readouterr().out
        assert "dpot/L2" in out
        assert "tmpfs" in out

    def test_info(self, generated, capsys):
        self.encode(generated)
        _, root = generated
        assert main(["info", "run", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "dpot/delta0-1" in out
        assert "3 levels" in out

    def test_restore_roundtrip(self, generated, tmp_path, capsys):
        self.encode(generated)
        mesh_path, root = generated
        out_path = tmp_path / "restored.npz"
        rc = main(
            ["restore", "run", "--var", "dpot", "--level", "0",
             "--root", str(root), "--out", str(out_path)]
        )
        assert rc == 0
        mesh, fields = load_mesh(out_path)
        orig_mesh, orig_fields = load_mesh(mesh_path)
        assert mesh.num_vertices == orig_mesh.num_vertices
        rng = np.ptp(orig_fields["dpot"])
        err = np.abs(fields["dpot"] - orig_fields["dpot"]).max()
        assert err <= 3e-4 * rng + 1e-12

    def test_encode_batched_with_workers(self, generated, tmp_path, capsys):
        mesh_path, root = generated
        rc = main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--levels", "3", "--tolerance", "1e-4",
             "--method", "batched", "--workers", "4"]
        )
        assert rc == 0
        assert "dpot/L2" in capsys.readouterr().out
        out_path = tmp_path / "restored.npz"
        assert main(
            ["restore", "run", "--var", "dpot", "--level", "0",
             "--root", str(root), "--out", str(out_path)]
        ) == 0
        mesh, fields = load_mesh(out_path)
        _, orig_fields = load_mesh(mesh_path)
        err = np.abs(fields["dpot"] - orig_fields["dpot"]).max()
        assert err <= 3e-4 * np.ptp(orig_fields["dpot"]) + 1e-12

    def test_unknown_method_rejected_by_parser(self, generated):
        mesh_path, root = generated
        with pytest.raises(SystemExit):
            main(
                ["encode", str(mesh_path), "--field", "dpot", "--dataset",
                 "x", "--root", str(root), "--method", "turbo"]
            )

    def test_restore_intermediate_level(self, generated, tmp_path):
        self.encode(generated)
        mesh_path, root = generated
        out_path = tmp_path / "l1.npz"
        assert main(
            ["restore", "run", "--var", "dpot", "--level", "1",
             "--root", str(root), "--out", str(out_path)]
        ) == 0
        mesh, _ = load_mesh(out_path)
        orig_mesh, _ = load_mesh(mesh_path)
        assert mesh.num_vertices == pytest.approx(
            orig_mesh.num_vertices / 2, rel=0.05
        )


class TestCampaignStep:
    def test_info_and_restore_step(self, generated, tmp_path, capsys):
        from repro.api import LevelScheme, two_tier_titan, write_campaign

        mesh_path, root = generated
        mesh, fields = load_mesh(mesh_path)
        steps = [fields["dpot"], fields["dpot"] * 2.0]
        write_campaign(
            two_tier_titan(root), "camp", "dpot", mesh, steps,
            LevelScheme(3), codec_params={"tolerance": 1e-6},
        )
        assert main(["info", "camp", "--root", str(root)]) == 0
        assert "steps [0, 1]" in capsys.readouterr().out
        out_path = tmp_path / "step1.npz"
        rc = main(
            ["restore", "camp", "--var", "dpot", "--step", "1",
             "--root", str(root), "--out", str(out_path)]
        )
        assert rc == 0
        assert "'dpot/step1'" in capsys.readouterr().out
        _, restored = load_mesh(out_path)
        assert np.abs(restored["dpot"] - steps[1]).max() <= 3e-6
        # A campaign variable needs its step; a missing one is an error.
        assert main(
            ["restore", "camp", "--var", "dpot", "--root", str(root),
             "--out", str(out_path)]
        ) == 1
        assert "pass step=" in capsys.readouterr().err


class TestFsck:
    def test_healthy(self, generated, capsys):
        mesh_path, root = generated
        main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root)]
        )
        assert main(["fsck", "run", "--root", str(root)]) == 0
        assert "products ok" in capsys.readouterr().out

    def test_corrupted_returns_nonzero(self, generated, capsys):
        mesh_path, root = generated
        main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root)]
        )
        # Flip a byte in the lustre subfile.
        target = root / "lustre" / "run.lustre.bp"
        data = bytearray(target.read_bytes())
        data[len(data) // 3] ^= 0xFF
        target.write_bytes(bytes(data))
        assert main(["fsck", "run", "--root", str(root)]) == 2
        assert "BAD" in capsys.readouterr().out

    def test_sharded_backend_missing_chunk_report(self, generated, capsys):
        mesh_path, root = generated
        main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--backend", "sharded"]
        )
        assert main(["fsck", "run", "--root", str(root),
                     "--backend", "sharded"]) == 0
        capsys.readouterr()
        # Remove one chunk file from under a sub-store directory.
        victim = next((root / "lustre").glob("shard*/run.lustre.bp#0*"))
        victim.unlink()
        assert main(["fsck", "run", "--root", str(root),
                     "--backend", "sharded"]) == 2
        out = capsys.readouterr().out
        assert "BAD backend[lustre]" in out
        assert "missing chunk" in out

    def test_repair_restores_replicated_campaign(self, generated, capsys):
        import shutil

        mesh_path, root = generated
        flags = ["--root", str(root), "--backend", "sharded",
                 "--shards", "2", "--replicas", "2"]
        assert main(
            ["encode", str(mesh_path), "--field", "dpot",
             "--dataset", "run", *flags]
        ) == 0
        capsys.readouterr()
        # Lose one whole mirror of every shard on the slow tier.
        victims = list((root / "lustre").glob("shard*/replica0"))
        assert victims
        for rep0 in victims:
            shutil.rmtree(rep0)
        assert main(["fsck", "run", *flags]) == 2
        capsys.readouterr()
        # The check's own product reads heal what they touch (read
        # repair); wipe again so --repair has real work to do.
        for rep0 in victims:
            shutil.rmtree(rep0)
        assert main(["fsck", "run", *flags, "--repair"]) == 0
        out = capsys.readouterr().out
        assert "FIXED" in out
        assert "products ok" in out
        # Redundancy is back on disk, not just readable.
        restored = [p for rep0 in victims for p in rep0.rglob("*")]
        assert restored
        assert main(["fsck", "run", *flags]) == 0

    def test_repair_cannot_hide_unrecoverable_damage(self, generated, capsys):
        mesh_path, root = generated
        main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root)]
        )
        target = root / "lustre" / "run.lustre.bp"
        data = bytearray(target.read_bytes())
        data[len(data) // 3] ^= 0xFF
        target.write_bytes(bytes(data))
        # No replica to restripe from: --repair must still report BAD.
        assert main(["fsck", "run", "--root", str(root), "--repair"]) == 2
        assert "BAD" in capsys.readouterr().out


class TestBackendAndPlacementFlags:
    def test_sharded_encode_restore_roundtrip(self, generated, tmp_path, capsys):
        mesh_path, root = generated
        assert main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--backend", "sharded"]
        ) == 0
        out_path = tmp_path / "restored.npz"
        assert main(
            ["restore", "run", "--var", "dpot", "--root", str(root),
             "--backend", "sharded", "--out", str(out_path)]
        ) == 0
        mesh, fields = load_mesh(out_path)
        orig_mesh, orig_fields = load_mesh(mesh_path)
        assert mesh.num_vertices == orig_mesh.num_vertices
        assert np.allclose(fields["dpot"], orig_fields["dpot"], atol=1e-2)

    def test_cost_placement_encode(self, generated, capsys):
        mesh_path, root = generated
        assert main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--placement", "cost"]
        ) == 0
        out = capsys.readouterr().out
        assert "dpot/L2" in out  # placed products are reported with tiers
        assert "tmpfs" in out or "lustre" in out


class TestTrace:
    def encode(self, generated):
        mesh_path, root = generated
        return main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--levels", "3", "--tolerance", "1e-4"]
        )

    def test_trace_prints_phase_table(self, generated, capsys):
        assert self.encode(generated) == 0
        _, root = generated
        assert main(["trace", "run", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "trace of 'run':'dpot'" in out
        assert "sim_io_ms" in out
        assert "restore" in out

    def test_trace_exports_chrome_json(self, generated, tmp_path, capsys):
        self.encode(generated)
        _, root = generated
        trace_path = tmp_path / "trace.json"
        assert main(
            ["trace", "run", "--root", str(root), "--out", str(trace_path)]
        ) == 0
        import json

        doc = json.loads(trace_path.read_text())
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert xs and {e["pid"] for e in xs} == {1, 2}

    def test_trace_leaves_tracing_disabled(self, generated):
        from repro.obs import trace

        self.encode(generated)
        _, root = generated
        assert main(["trace", "run", "--root", str(root)]) == 0
        assert trace.get_tracer() is None


class TestErrors:
    def test_missing_field(self, generated, capsys):
        mesh_path, root = generated
        rc = main(
            ["encode", str(mesh_path), "--field", "nope", "--dataset", "x",
             "--root", str(root)]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_dataset_name_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "lhc", "--out", str(tmp_path / "x.npz")])

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])


def _table_rows(text: str, title: str) -> list[dict]:
    """The rows of the ``format_table`` block headed ``title``."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(title))
    header = [c.strip() for c in lines[start + 1].split("|")]
    rows = []
    for line in lines[start + 3:]:
        cells = [c.strip() for c in line.split("|")]
        if len(cells) != len(header):
            break
        rows.append(dict(zip(header, cells)))
    return rows


RESTORE_ROUTE = "/v1/campaigns/{name}/vars/{var}/restore"


def _cli_hierarchy(root):
    """The hierarchy the CLI opens for ``--root root``."""
    from repro.cli import _hierarchy

    return _hierarchy(str(root))


class TestQuery:
    @pytest.fixture
    def root(self, generated):
        mesh_path, root = generated
        assert main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--levels", "3", "--tolerance", "1e-4",
             "--chunks", "4"]
        ) == 0
        return root

    def query(self, root, *extra):
        return main(["query", "run", "--root", str(root), "--var", "dpot",
                     *extra])

    def test_plan_mode_explains_without_restoring(self, root, capsys):
        capsys.readouterr()
        assert self.query(
            root, "--mode", "plan", "--tolerance", "1e-3",
            "--region=-0.5,-0.5:0.5,0.5",
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("retrieval plan for 'dpot': target level")
        assert "tolerance 0.001, region ([-0.5, -0.5], [0.5, 0.5])" in out
        assert "[fetch] dpot/L2" in out

    def test_stats_mode_answers_from_summaries(self, root, capsys):
        import json

        capsys.readouterr()
        assert self.query(root, "--mode", "stats") == 0
        whole = json.loads(capsys.readouterr().out)
        assert whole["pushdown"] is True and whole["restores"] == 0
        assert whole["granularity"] == "exact"
        assert self.query(
            root, "--mode", "stats", "--region=-0.2,-0.2:0.2,0.2"
        ) == 0
        windowed = json.loads(capsys.readouterr().out)
        assert windowed["granularity"] == "chunk"
        assert windowed["region"] == [[-0.2, -0.2], [0.2, 0.2]]
        assert windowed["stats"]["count"] <= whole["stats"]["count"]

    def test_blobs_mode(self, root, capsys):
        import json

        capsys.readouterr()
        assert self.query(
            root, "--mode", "blobs", "--threshold", "1e30", "--shape", "32,32"
        ) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["count"] == 0 and result["restores"] == 0
        assert result["pruned_chunks"] == result["candidate_chunks"] + 4
        assert self.query(root, "--mode", "blobs") == 1
        assert "needs --threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--region", "0,0"),
            ("--region", "a,0:1,1"),
            ("--region", "0,0,0:1,1,1"),
            ("--region", "1,1:0,0"),
            ("--shape", "32"),
            ("--shape", "32,x"),
            ("--shape", "0,32"),
        ],
    )
    def test_malformed_region_or_shape_exits_1(self, root, capsys, flag, value):
        capsys.readouterr()
        assert self.query(
            root, "--mode", "blobs", "--threshold", "0", f"{flag}={value}"
        ) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert flag.strip("-") in captured.err
        assert captured.out == ""


class TestObsReport:
    """``repro obs report`` over what ``repro serve`` exposes."""

    @pytest.fixture
    def served(self, generated, tmp_path):
        from repro.obs.logs import JsonlLogger
        from repro.obs.metrics import MetricsRegistry
        from repro.service import CanopusService
        from repro.service.loadgen import ServiceThread

        mesh_path, root = generated
        assert main(
            ["encode", str(mesh_path), "--field", "dpot", "--dataset", "run",
             "--root", str(root), "--levels", "2", "--tolerance", "1e-4"]
        ) == 0
        log_path = tmp_path / "access.jsonl"
        log = JsonlLogger(log_path)
        # Every request breaches a 1 ns target: a report with the same
        # target must say so exactly as the service does.
        service = CanopusService(
            _cli_hierarchy(root),
            metrics=MetricsRegistry(),
            tracing=True,
            trace_sample_rate=1.0,
            slo_target_seconds=1e-9,
            access_log=log,
        )
        with ServiceThread(service):
            yield service, log_path
        log.close()

    @staticmethod
    def drive(service) -> dict:
        """Three restores and one 404 on the restore route; returns the
        service's own SLO snapshot of that route."""
        import asyncio

        from repro.errors import VariableNotFoundError
        from repro.service import ServiceClient

        async def go():
            async with ServiceClient(service.host, service.port) as client:
                for level in (1, 0, 0):
                    await client.restore("run", "dpot", level=level)
                with pytest.raises(VariableNotFoundError):
                    await client.restore("run", "nope", level=0)
                return (await client.metrics())["slo"][RESTORE_ROUTE]

        return asyncio.run(go())

    def report_jsonl(self, log_path, capsys, target: str) -> dict:
        capsys.readouterr()
        assert main(
            ["obs", "report", "--jsonl", str(log_path), "--top", "2",
             "--slo-target", target, "--slo-objective", "0.95"]
        ) == 0
        out = capsys.readouterr().out
        assert len(_table_rows(out, "slowest requests")) == 2
        rows = _table_rows(out, "SLO status (offline")
        return {r["route"]: r for r in rows}[RESTORE_ROUTE]

    def test_jsonl_replays_the_services_slo(self, served, capsys):
        service, log_path = served
        live = self.drive(service)
        row = self.report_jsonl(log_path, capsys, "1e-9")
        assert row == {
            "route": RESTORE_ROUTE,
            "target_s": "1e-09",
            "window": "4",
            "compliance": f"{live['compliance']:.4f}",
            "burn_rate": f"{live['burn_rate']:.2f}",
            "healthy": str(live["healthy"]),
        }
        assert (row["compliance"], row["burn_rate"]) == ("0.0000", "20.00")
        # A 404 is the client's fault, not a breach: under a roomy target
        # the route is fully compliant, as the service would count it.
        row = self.report_jsonl(log_path, capsys, "60")
        assert (row["compliance"], row["burn_rate"], row["healthy"]) == (
            "1.0000", "0.00", "True"
        )

    def test_jsonl_without_requests(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"event": "other"}\nnot json\n')
        assert main(["obs", "report", "--jsonl", str(empty)]) == 0
        assert "no service.request records" in capsys.readouterr().out

    def test_url_reads_a_live_service(self, served, capsys):
        service, _ = served
        live = self.drive(service)
        capsys.readouterr()
        assert main(
            ["obs", "report", "--url",
             f"http://{service.host}:{service.port}", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert len(_table_rows(out, "slowest requests")) == 3
        assert "trace buffer:" in out
        slo = {r["route"]: r for r in _table_rows(out, "SLO status")}
        assert slo[RESTORE_ROUTE]["window"] == "4"
        assert slo[RESTORE_ROUTE]["compliance"] == f"{live['compliance']:.4f}"
        assert slo[RESTORE_ROUTE]["burn_rate"] == "20.00"

    def test_needs_exactly_one_source(self, capsys):
        assert main(["obs", "report"]) == 1
        assert "exactly one of --url or --jsonl" in capsys.readouterr().err

