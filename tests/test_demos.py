"""Each demo prints exactly its golden output.

The demos run in-process through ``runpy``, with stdout captured, and their
output is compared byte for byte with ``tests/golden/demos/<name>.txt``.
After a deliberate change to what a demo prints, record the golden files
again with ``PYTHONPATH=src python tests/test_demos.py``.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden" / "demos"


def demo_stdout(path: Path) -> str:
    """What the demo at ``path`` prints when run as a script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in DEMOS) == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_its_golden_output(path):
    assert demo_stdout(path) == (GOLDEN / f"{path.stem}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for path in DEMOS:
        (GOLDEN / f"{path.stem}.txt").write_text(demo_stdout(path))
