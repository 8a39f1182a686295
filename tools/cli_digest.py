"""Hash every output the sfas CLI writes for the shipped scenario files.

For each ``scenarios/*.yaml`` the script runs ``single-shot``,
``campaign --trials 3 --threads 2``, ``crb`` and ``validate`` in a
temporary directory and prints one ``<sha256>  <path>`` line per output
file, sorted by path.  Each command's standard output and exit code are
hashed as one more file (``<verb>.stdout``).  Standard error is left out:
its warnings name source lines, which move with any edit.

Two checkouts whose CLI outputs agree byte for byte print identical
lines, so a change that must not alter any output is checked with one
command::

    python tools/cli_digest.py --against /path/to/other/checkout

which runs both checkouts and prints the paths whose hashes differ (or
that only one of them writes); it exits 1 if any differ and 0 if none do.

The optional argument is the root of the checkout to run (default: the
one holding this script); its ``src/`` and ``scenarios/`` are used.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VERBS = {
    "single-shot": ["--out", "{out}"],
    "campaign": ["--out", "{out}", "--trials", "3", "--threads", "2"],
    "crb": ["--out", "{out}"],
    "validate": [],
}


def run_all(root: Path, work: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    for scenario in sorted((root / "scenarios").glob("*.yaml")):
        for verb, extra in VERBS.items():
            out = Path(scenario.stem) / verb
            args = [a.format(out=out) for a in extra]
            proc = subprocess.run(
                [sys.executable, "-m", "sfas.cli", verb, str(scenario), *args],
                cwd=work, env=env, capture_output=True, text=True,
            )
            (work / out.parent).mkdir(parents=True, exist_ok=True)
            (work / f"{out}.stdout").write_text(f"{proc.stdout}exit {proc.returncode}\n")


def digest(root: Path) -> dict[str, str]:
    """sha256 of every output of `root`'s CLI, by path."""
    with tempfile.TemporaryDirectory(prefix="sfas-digest-") as tmp:
        work = Path(tmp)
        run_all(root, work)
        return {
            p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*"))
            if p.is_file()
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout to run (default: this one)",
    )
    parser.add_argument(
        "--against", type=Path, default=None,
        help="another checkout: print the paths whose hashes differ; exit 1 if any do",
    )
    args = parser.parse_args(argv)
    hashes = digest(args.root.resolve())
    if args.against is None:
        print("\n".join(f"{h}  {path}" for path, h in hashes.items()))
        print(f"{len(hashes)} files")
        return 0
    other = digest(args.against.resolve())
    paths = sorted(hashes.keys() | other.keys())
    differ = [path for path in paths if hashes.get(path) != other.get(path)]
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(paths)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
