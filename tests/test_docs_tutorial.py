"""Execute the tutorial's code blocks so the docs cannot rot.

docs/TUTORIAL.md promises every snippet is runnable when appended into
one script; this test does exactly that (with the storage root pointed
at a temp directory and the shell section skipped).
"""

import re
from pathlib import Path

import pytest

TUTORIAL = Path(__file__).parent.parent / "docs" / "TUTORIAL.md"


def extract_python_blocks(text: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", text, re.S)


@pytest.mark.slow
def test_tutorial_snippets_run(tmp_path):
    text = TUTORIAL.read_text(encoding="utf-8")
    blocks = extract_python_blocks(text)
    assert len(blocks) >= 6
    script = "\n".join(blocks)
    # Point the demo storage at the test's temp dir; shrink the mesh and
    # the campaign so the doc test stays fast.
    script = script.replace('"/tmp/canopus-demo"', f'"{tmp_path}"')
    script = script.replace("make_xgc1(scale=0.5)", "make_xgc1(scale=0.2)")
    script = script.replace("evo.steps(10)", "evo.steps(3)")
    namespace: dict = {}
    exec(compile(script, str(TUTORIAL), "exec"), namespace)  # noqa: S102
    # Spot-check that the walkthrough actually produced analytics output.
    assert namespace["blobs"] is not None
    assert namespace["prof"].peak_radius() > 0
    assert namespace["steps"] == [0, 1, 2]


def test_tutorial_mentions_every_example(tmp_path):
    text = TUTORIAL.read_text(encoding="utf-8")
    assert "examples/quickstart.py" in text
    assert "examples/fusion_blob_exploration.py" in text
