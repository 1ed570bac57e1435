"""What a serving node loads, checked in a fresh interpreter.

``repro serve`` and ``import repro`` import only what reading and
serving run: scipy, the synthetic-data generators and the experiment
harness stay out of ``sys.modules``. The pieces that do need scipy —
the locator's outside-point fallback, blob detection, Delaunay mesh
generation — import it on first use, and each still works when scipy
was not loaded beforehand. Every check runs in a subprocess, because
this test process has long since imported everything.
"""

import argparse
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.cli import build_parser
from repro.simulations import dataset_names

ROOT = Path(__file__).resolve().parents[1]

# Import the serving surface; fail if anything scipy-backed came with it.
_PRELUDE = """
import sys
import repro, repro.cli, repro.service

def offline_modules():
    return sorted(
        m for m in sys.modules
        if m.split(".")[0] == "scipy"
        or m in ("repro.simulations", "repro.mesh.generators",
                 "repro.harness.experiment")
    )

assert offline_modules() == [], offline_modules()[:5]
"""


def _run(code: str) -> str:
    """Run ``_PRELUDE`` + ``code`` in a fresh interpreter; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PRELUDE + textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_serving_imports_load_no_scipy_and_no_generator():
    out = _run("""
        from repro.cli import build_parser
        from repro.service import CanopusService
        build_parser().parse_args(["serve", "--root", "x"])
        print(offline_modules())
    """)
    assert out.strip() == "[]"


def test_generate_help_lists_datasets_without_a_generator():
    out = _run("""
        import contextlib, io
        from repro.cli import main
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                main(["generate", "--help"])
            except SystemExit:
                pass
        print(buf.getvalue())
        print(offline_modules())
    """)
    assert "{cfd,genasis,xgc1}" in out
    assert out.strip().endswith("[]")


def test_cli_generate_choices_equal_dataset_names():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    dataset = next(
        a for a in sub.choices["generate"]._actions if a.dest == "dataset"
    )
    assert list(dataset.choices) == dataset_names()


def test_locator_fallback_imports_scipy_on_first_use():
    # A 6x6 grid, queried inside and outside: the outside points take
    # the nearest-centroid fallback, the only locate path that needs
    # scipy. Ids and barycentrics must be byte-equal to the oracle.
    out = _run("""
        import numpy as np
        from repro.mesh import TriangleLocator, TriangleMesh
        n = 6
        xs, ys = np.meshgrid(np.linspace(0, 1, n + 1), np.linspace(0, 1, n + 1))
        verts = np.column_stack([xs.ravel(), ys.ravel()])
        a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
        tris = np.vstack([
            np.column_stack([a, a + 1, a + n + 2]),
            np.column_stack([a, a + n + 2, a + n + 1]),
        ])
        mesh = TriangleMesh(verts, tris)
        points = np.random.default_rng(0).uniform(-0.5, 1.5, (400, 2))
        ids, bary = TriangleLocator(mesh).locate(points)
        assert "scipy.spatial" in sys.modules

        from tests.oracle.locate import reference_locate
        ref_ids, ref_bary = reference_locate(mesh, points)
        outside = ~((points >= 0) & (points <= 1)).all(axis=1)
        assert outside.sum() > 100
        assert ids.tobytes() == ref_ids.tobytes()
        assert bary.tobytes() == ref_bary.tobytes()
        print("ok")
    """)
    assert out.strip() == "ok"


def test_detect_blobs_imports_ndimage_on_first_use():
    out = _run("""
        import json
        import numpy as np
        from repro.analytics import detect_blobs
        yy, xx = np.mgrid[:64, :64]
        image = np.zeros((64, 64), dtype=np.uint8)
        for cy, cx in ((16, 16), (44, 40)):
            image[(yy - cy) ** 2 + (xx - cx) ** 2 <= 64] = 250
        blobs = detect_blobs(image)
        assert "scipy.ndimage" in sys.modules
        print(json.dumps(sorted(
            [round(b.center[0]), round(b.center[1])] for b in blobs
        )))
    """)
    assert json.loads(out) == [[16, 16], [40, 44]]


def test_generators_import_on_request():
    out = _run("""
        import repro.mesh
        assert "repro.mesh.generators" not in sys.modules
        from repro.mesh import generators
        import repro.mesh.generators
        assert repro.mesh.generators is generators
        print(generators.disk(50, seed=0).num_vertices)
    """)
    assert int(out) > 0
