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
