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

The hashes of this checkout are pinned in ``tools/cli_digest.sha256``,
whose first line names the numpy and BLAS build they were taken on::

    python tools/cli_digest.py --check   # compare a fresh run with the pin
    python tools/cli_digest.py --pin     # rewrite the pin from a fresh run

``--check`` prints the paths that differ and exits 1 if any do.  The
last bits of the outputs depend on the numpy and BLAS build, so on
another build a difference may come from the build, not the code; the
message names both builds.

The optional argument is the root of the checkout to run (default: the
one holding this script); its ``src/`` and ``scenarios/`` are used.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

PIN = Path(__file__).resolve().with_suffix(".sha256")

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


def hashes(work: Path) -> dict[str, str]:
    """sha256 of every file under `work`, by path relative to it."""
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*"))
        if p.is_file()
    }


def digest(root: Path) -> dict[str, str]:
    """sha256 of every output of `root`'s CLI, by path."""
    with tempfile.TemporaryDirectory(prefix="sfas-digest-") as tmp:
        run_all(root, Path(tmp))
        return hashes(Path(tmp))


def pinned() -> tuple[str, dict[str, str]]:
    """The build the pin was taken on, and its hashes by path."""
    header, *lines = PIN.read_text().splitlines()
    return header.removeprefix("# pinned on "), {
        path: h for h, path in (line.split("  ", 1) for line in lines)
    }


def build() -> str:
    """The numpy and BLAS build this interpreter runs, in one line."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}, "
        f"python {platform.python_version()}, {platform.machine()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", type=Path, default=Path(__file__).resolve().parent.parent,
        help="checkout to run (default: this one)",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--against", type=Path, default=None,
        help="another checkout: print the paths whose hashes differ; exit 1 if any do",
    )
    mode.add_argument(
        "--check", action="store_true",
        help=f"compare with the hashes pinned in {PIN.name}; exit 1 if any differ",
    )
    mode.add_argument("--pin", action="store_true", help=f"rewrite {PIN.name}")
    args = parser.parse_args(argv)
    found = digest(args.root.resolve())
    listing = "".join(f"{h}  {path}\n" for path, h in found.items())
    if args.pin:
        PIN.write_text(f"# pinned on {build()}\n{listing}")
        print(f"{len(found)} files pinned in {PIN.name}")
        return 0
    if args.check:
        pin_build, other = pinned()
    elif args.against is not None:
        other = digest(args.against.resolve())
    else:
        print(f"{listing}{len(found)} files")
        return 0
    paths = sorted(found.keys() | other.keys())
    differ = [path for path in paths if found.get(path) != other.get(path)]
    for path in differ:
        print(path)
    print(f"{len(differ)} of {len(paths)} files differ")
    if args.check and differ:
        print(f"{PIN.name} was pinned on {pin_build}; this run: {build()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
