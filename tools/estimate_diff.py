"""Record where every refined source of a fixed reference set lands, and
compare two such records.

The reference set is the benchmark's reference trials (trials
0..accuracy_trials-1 of each workload in ``perfbench/workloads.py``, on
each scene's own seed) plus every shipped campaign
(``scenarios/*.yaml`` with a ``campaign`` section) at 3 trials per sweep
point, each estimator of the campaign run alone through the campaign's
trial function.  For each refined source a record holds:

- its pass-1 and pass-2 lattice cells, as ``estimators._search_passes``
  returns them (indices into each pass lattice);
- its refined (angle, range);
- its ``range_flat`` and ``boundary_hit`` flags;
- and, per truth source of its trial, the paired AAR angle and range
  errors (None where the campaign leaves a range out).

A byte-moving change to the estimators is then summarised with one
command::

    python tools/estimate_diff.py --against /path/to/other/checkout

which records both checkouts, each in its own process, and reports how
many refined sources changed cell or flag, the largest relative move of
an estimate, and the paired change in squared AAR and range error with
the count of trials that got worse.  It exits 1 if any source changed
cell or flag, or a trial failed in one record only, and 0 otherwise.
Records can also be written and compared separately::

    python tools/estimate_diff.py --record before.json [CHECKOUT]
    python tools/estimate_diff.py --compare before.json after.json

Each record names the numpy and BLAS build it was taken on
(``cli_digest.build()``), so records from two hosts can be compared.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CAMPAIGN_TRIALS = 3
# Estimators whose sources go through the 2-D refinement.
REFINED = ("two_stage", "two_stage_mc")


def _source_rows(estimate, passes) -> list[dict]:
    return [
        {
            "pass1": list(map(int, cell1)), "pass2": list(map(int, cell2)),
            "angle": src.refined_angle_deg, "range": src.refined_range,
            "range_flat": src.range_flat, "boundary_hit": src.boundary_hit,
        }
        for src, (cell1, cell2) in zip(estimate.sources, passes, strict=True)
    ]


def record(root: Path) -> dict:
    """The record of `root`'s reference set, run in this process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from cli_digest import build
    from sfas import estimators, harness

    passes: list[tuple] = []
    search_passes = estimators._search_passes

    def recording(*args):
        found = search_passes(*args)
        passes.append((found[1], found[3]))
        return found

    entries: dict[str, dict] = {}
    estimators._search_passes = recording
    try:
        for name in workloads.BUILDERS:
            workload = workloads.build(name, 1)
            for trial in range(workload.accuracy_trials):
                passes.clear()
                result = workload.run_trial(trial)
                est = result.two_stage
                key = f"bench|{name}|{trial}"
                if est is None:
                    entries[key] = {"failed": True}
                    continue
                truth = result.scenario.sources
                pairing = estimators.pair_estimates(
                    est.refined_angles_deg, [s.angle_deg for s in truth],
                    est.refined_ranges, [s.range for s in truth],
                )
                errors = [
                    [float(a), None if est.sources[k].range_flat else float(r)]
                    for a, r, k in zip(
                        pairing.angle_errors, pairing.range_errors, pairing.assignment
                    )
                ]
                entries[key] = {"sources": _source_rows(est, passes), "errors": errors}
        for path in sorted((root / "scenarios").glob("*.yaml")):
            _, _, campaign = harness.load_file(path)
            if campaign is None:
                continue
            campaign = dataclasses.replace(campaign, trials=CAMPAIGN_TRIALS)
            for point, scenario in zip(campaign.values, campaign.cells):
                for name in (e for e in campaign.estimators if e in REFINED):
                    for trial in range(CAMPAIGN_TRIALS):
                        passes.clear()
                        rec = harness._run_trial(scenario, campaign.settings, (name,), trial)[name]
                        key = f"campaign|{path.stem}|{point}|{name}|{trial}"
                        if rec.error is not None:
                            entries[key] = {"failed": True}
                            continue
                        errors = [
                            [float(aar), None if rng is None else float(rng)]
                            for _, aar, rng, _ in harness._score(scenario, rec)
                        ]
                        entries[key] = {
                            "sources": _source_rows(rec.estimate, passes), "errors": errors
                        }
    finally:
        estimators._search_passes = search_passes
    return {"build": build(), "entries": entries}


def _relative(new: float, old: float) -> float:
    return abs(new - old) / abs(old) if old else abs(new - old)


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """Report lines for `new` against `old`, and whether anything moved."""
    a, b = old["entries"], new["entries"]
    lines = [f"old: {old['build']}", f"new: {new['build']}"]
    only = sorted(a.keys() ^ b.keys())
    failed = sorted(k for k in a.keys() & b.keys() if "failed" in a[k] or "failed" in b[k])
    flipped = [k for k in failed if ("failed" in a[k]) != ("failed" in b[k])]
    sources = cells = flags = worse_angle = worse_range = trials = 0
    moved: list[str] = []
    largest = {"angle": (0.0, ""), "range": (0.0, "")}
    d_angle = d_range = 0.0
    for key in sorted(a.keys() & b.keys()):
        if key in failed:
            continue
        trials += 1
        for k, (s, t) in enumerate(zip(a[key]["sources"], b[key]["sources"], strict=True)):
            sources += 1
            if s["pass1"] != t["pass1"] or s["pass2"] != t["pass2"]:
                cells += 1
                moved.append(f"  {key} source {k}: pass 1 {s['pass1']} -> {t['pass1']}, "
                             f"pass 2 {s['pass2']} -> {t['pass2']}")
            if (s["range_flat"], s["boundary_hit"]) != (t["range_flat"], t["boundary_hit"]):
                flags += 1
                moved.append(f"  {key} source {k}: flags (range_flat, boundary_hit) "
                             f"{(s['range_flat'], s['boundary_hit'])} -> "
                             f"{(t['range_flat'], t['boundary_hit'])}")
            for axis in largest:
                rel = _relative(t[axis], s[axis])
                if rel > largest[axis][0]:
                    largest[axis] = (rel, f"{key} source {k}")
        old_sq = [[x * x if x is not None else None for x in e] for e in a[key]["errors"]]
        new_sq = [[x * x if x is not None else None for x in e] for e in b[key]["errors"]]
        step_angle = sum(n[0] - o[0] for o, n in zip(old_sq, new_sq))
        step_range = sum(n[1] - o[1] for o, n in zip(old_sq, new_sq)
                         if n[1] is not None and o[1] is not None)
        d_angle += step_angle
        d_range += step_range
        worse_angle += step_angle > 0.0
        worse_range += step_range > 0.0
    lines += [
        f"{len(a.keys() & b.keys())} trials in both records, {len(only)} in one only, "
        f"{len(failed)} failed in either ({len(flipped)} in one only)",
        f"{cells} of {sources} refined sources changed cell, {flags} changed a flag",
        *moved,
        *(f"largest relative move of a refined {axis}: {rel:.3g}"
          + (f" ({where})" if where else "") for axis, (rel, where) in largest.items()),
        f"paired change in squared AAR error: {d_angle:+.3g} deg^2 in sum; "
        f"worse in {worse_angle} of {trials} trials",
        f"paired change in squared range error: {d_range:+.3g} wl^2 in sum; "
        f"worse in {worse_range} of {trials} trials",
    ]
    lines += [f"  only in one record: {k}" for k in only]
    lines += [f"  failed in one record only: {k}" for k in flipped]
    return lines, bool(cells or flags or only or flipped)


def _record_in_child(root: Path, out: Path) -> dict:
    """`root`'s record, taken in a fresh interpreter on `root`'s sources."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    subprocess.run(
        [sys.executable, "-W", "ignore", __file__, "--record", str(out), str(root)],
        env=env, check=True,
    )
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root", nargs="?", type=Path, default=HERE.parent,
        help="checkout to record (default: this one)",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", type=Path, metavar="OUT", help="write the record to OUT")
    mode.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                      help="compare two records; exit 1 if a source moved cell or flag")
    mode.add_argument("--against", type=Path, metavar="OTHER",
                      help="record OTHER (old) and the checkout (new) and compare them")
    args = parser.parse_args(argv)
    if args.record is not None:
        args.record.write_text(json.dumps(record(args.root.resolve()), indent=1) + "\n")
        return 0
    if args.compare is not None:
        old, new = (json.loads(p.read_text()) for p in args.compare)
    else:
        with tempfile.TemporaryDirectory(prefix="sfas-estimates-") as tmp:
            old = _record_in_child(args.against.resolve(), Path(tmp) / "old.json")
            new = _record_in_child(args.root.resolve(), Path(tmp) / "new.json")
    lines, moved = compare(old, new)
    print("\n".join(lines))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
