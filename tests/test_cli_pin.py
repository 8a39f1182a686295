"""Byte-reproducibility: the CLI outputs of every shipped scenario file
against the hashes pinned in ``tools/cli_digest.sha256``, run in-process.

``python tools/cli_digest.py --check`` is the cold check, one process per
verb; this test runs the same verbs in this process, with whatever caches
earlier tests left warm, so it also checks that no output depends on the
state of a cache.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from sfas.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)


# The window-edge RuntimeWarnings of the shipped files carry no output byte.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_outputs_match_the_pin(tmp_path, monkeypatch):
    """Each verb of `cli_digest.VERBS` on each `scenarios/*.yaml`, run from
    a scratch directory with relative `--out` paths as the tool runs them,
    writes the pinned bytes; its stdout and exit code are one more file."""
    monkeypatch.chdir(tmp_path)
    for scenario in sorted((ROOT / "scenarios").glob("*.yaml")):
        for verb, extra in cli_digest.VERBS.items():
            out = Path(scenario.stem) / verb
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli_main([verb, str(scenario), *(a.format(out=out) for a in extra)])
            out.parent.mkdir(parents=True, exist_ok=True)
            Path(f"{out}.stdout").write_text(f"{stdout.getvalue()}exit {code}\n")

    found = cli_digest.hashes(tmp_path)
    pin_build, pinned = cli_digest.pinned()
    differ = sorted(p for p in found.keys() | pinned.keys() if found.get(p) != pinned.get(p))
    assert not differ, (
        f"{len(differ)} of {len(found.keys() | pinned.keys())} files differ: {differ}; "
        f"{cli_digest.PIN.name} was pinned on {pin_build}; this run: {cli_digest.build()}"
    )
