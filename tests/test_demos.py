"""Every script in demos/, and every `python` block of README.md, runs to
completion against the current library."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
)


def run_python(args, cwd):
    # run from a scratch directory: demos 03 and 04 write into ./out
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_python([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "code", README_BLOCKS, ids=[f"README_block_{i}" for i in range(1, len(README_BLOCKS) + 1)]
)
def test_readme_block_runs(code, tmp_path):
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
