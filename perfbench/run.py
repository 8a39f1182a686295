#!/usr/bin/env python3
"""sfas benchmark: trial latency, campaign throughput and a layer trace.

    python3 perfbench/run.py --workload mixed4_two_stage --seed 1 --seconds 24 --trace 0

Run from the repository root; the library is imported from ``src/``.
The workloads are defined in ``workloads.py`` and described, with every
metric, in ``perfbench/README.md``.  With ``--trace 0`` the run measures
the end-to-end metrics untraced; with ``--trace 1`` it measures the
per-layer metrics through the wrappers in ``tracing.py``, running each
trial untraced and then traced to get the tracing overhead and to prove
that tracing changed no estimate.  Trial times and campaign rates are put
on a fixed host-speed scale by ``hostspeed.py``; the raw wall-time values
are reported next to them.

Every line but the last is a human-readable report: each metric with its
unit, the correctness gate and the machine facts.  The last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when a correctness check fails and 2 when the run
cannot start.  A full record, and for traced runs the spans, is written
to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP read these when they load.  They are removed before numpy
# is imported, so the library runs with the thread count a user gets by
# default; pinning BLAS to one thread would measure a different program.
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
REMOVED_MARK = "SFAS_BENCH_REMOVED_ENV"


def _reexec_without_blas_env() -> None:
    removed = [k for k in BLAS_ENV if k in os.environ]
    if removed:
        env = {k: v for k, v in os.environ.items() if k not in removed}
        env[REMOVED_MARK] = ",".join(removed)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


if __name__ == "__main__":
    _reexec_without_blas_env()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("mixed4_two_stage", "coupled_mc", "campaign_mixed3_snr")
SETUP_PROBES = 5
# An untraced run repeats rounds of (timed trials, serial pass, pool pass)
# for --seconds, at least MIN_ROUNDS times.  Timed trials get LATENCY_SHARE
# of the time, split as if there were ROUNDS rounds.
ROUNDS = 8
MIN_ROUNDS = 4
LATENCY_SHARE = 0.3
PROBE_TIMEOUT_S = 120

def tail(values: list[float]) -> tuple[int, float]:
    """(q, value) for the highest whole percentile q with >= 10 samples beyond it.

    Nearest-rank; with 10 or fewer samples there is no such percentile and
    the maximum is returned with q = 100.
    """
    n = len(values)
    if n <= 10:
        return 100, max(values)
    q = math.floor(100.0 * (n - 10) / n)
    return q, sorted(values)[max(1, math.ceil(q / 100.0 * n)) - 1]


def declared_units(trace: int) -> dict[str, str]:
    """Metric names and units as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# -- machine facts -----------------------------------------------------------


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS will use, asked through its own API."""
    import ctypes

    maps = Path("/proc/self/maps").read_text()
    libs = sorted({p for p in re.findall(r"(/\S+\.so[\w.]*)", maps) if "openblas" in p.lower()})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(lib).name] = int(fn())
                break
    return out


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        "",
    )
    removed = os.environ.get(REMOVED_MARK, "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_env_removed": removed.split(",") if removed else [],
    }


# -- phases ------------------------------------------------------------------


def setup_samples(workload: str, seed: int) -> list[float]:
    """Wall seconds of cold set-ups, each in a fresh interpreter.

    Raw wall time: set-up reads the installed packages from disk, which the
    host-speed probe does not measure.
    """
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


class Run:
    """Measurements and checks shared by the phases of one benchmark run."""

    def __init__(self, workload, seconds: float, scratch: Path):
        import workloads

        self.wl = workload
        self.mod = workloads
        self.seconds = seconds
        self.scratch = scratch
        self.threads = len(os.sched_getaffinity(0))
        self.trial_wall: list[float] = []
        self.trial_ref: list[float] = []
        self.records: list[str] = []
        self.violations: list[str] = []
        self.accuracy = workloads.Accuracy()
        self.attempted = 0
        self.failed = 0
        self.next_trial = 0
        self.campaign_bytes: bytes | None = None
        self.campaign_mismatch: list[str] = []
        self.rates: dict[int, list[float]] = {1: [], self.threads: []}
        self.rates_wall: dict[int, list[float]] = {1: [], self.threads: []}
        self._last_probe: float | None = None

    def measure(self, fn, *args):
        """(result, wall s, reference s) of ``fn(*args)``, probed on both sides.

        Consecutive trials share the probe between them.
        """
        import hostspeed

        before = self._last_probe if self._last_probe is not None else hostspeed.probe()
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = self._last_probe = hostspeed.probe()
        return result, wall, wall * hostspeed.scale(0.5 * (before + after))

    def account(self, trial: int, result) -> None:
        self.attempted += result.attempted
        self.failed += result.failed
        self.violations += [f"trial {trial}: {v}" for v in self.mod.window_violations(result)]
        if trial < self.wl.accuracy_trials:
            self.records.append(self.mod.estimate_record(trial, result))
            self.accuracy.add(result)

    def timed_trial(self) -> None:
        trial = self.next_trial
        result, wall, ref = self.measure(self.wl.run_trial, trial)
        self.trial_wall.append(wall)
        self.trial_ref.append(ref)
        self.next_trial += 1
        self.account(trial, result)

    def latency(self, budget_s: float) -> None:
        self._last_probe = None
        end = time.perf_counter() + budget_s
        while time.perf_counter() < end:
            self.timed_trial()

    def campaign_pass(self, threads: int) -> None:
        """One ``run_campaign`` call: records trials/s and checks its CSV bytes.

        The host-speed probe cannot run inside a campaign, so the pass is
        rescaled by the median of three probes on either side of it.
        """
        import hostspeed
        from sfas import harness

        def probe() -> float:
            return statistics.median(hostspeed.probe() for _ in range(3))

        out_dir = self.scratch / f"campaign-{sum(map(len, self.rates.values()))}"
        campaign = self.wl.campaign
        before = probe()
        t0 = time.perf_counter()
        records = harness.run_campaign(campaign, out_dir=out_dir, threads=threads)
        wall = time.perf_counter() - t0
        factor = hostspeed.scale(0.5 * (before + probe()))
        for rec in records:
            self.attempted += rec.trials_total
            self.failed += rec.trials_failed
        blob = b"".join((out_dir / f).read_bytes() for f in ("rmse.csv", "trial_errors.csv"))
        shutil.rmtree(out_dir)
        if self.campaign_bytes is None:
            self.campaign_bytes = blob
        elif blob != self.campaign_bytes:
            self.campaign_mismatch.append(f"a threads={threads} pass differs from the first pass")
        trials = campaign.trials * len(campaign.values)
        self.rates[threads].append(trials / (wall * factor))
        self.rates_wall[threads].append(trials / wall)


def run_untraced(run: Run) -> dict:
    """End-to-end phase: rounds of (latency block, serial pass, pool pass).

    Interleaving spreads host-speed drift over every metric alike.  Trials
    continue past the time budget until the reference set is complete.
    """
    end = time.perf_counter() + run.seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < end:
        run.latency(run.seconds * LATENCY_SHARE / ROUNDS)
        run.campaign_pass(1)
        run.campaign_pass(run.threads)
        rounds += 1
    while run.next_trial < run.wl.accuracy_trials:
        run.timed_trial()
    q, tail_ref = tail(run.trial_ref)
    return {
        "trial_ms_p50": 1e3 * statistics.median(run.trial_ref),
        "trial_ms_tail": 1e3 * tail_ref,
        "trials_per_s_serial": statistics.median(run.rates[1]),
        "trials_per_s_pool": statistics.median(run.rates[run.threads]),
        "aar_angle_rmse_deg": run.accuracy.angle_rmse(),
        "range_rmse_rel": run.accuracy.range_rmse_rel(),
        "_tail_percentile": q,
        "_wall_trial_ms_p50": 1e3 * statistics.median(run.trial_wall),
        "_wall_trial_ms_tail": 1e3 * tail(run.trial_wall)[1],
        "_wall_trials_per_s_serial": statistics.median(run.rates_wall[1]),
        "_wall_trials_per_s_pool": statistics.median(run.rates_wall[run.threads]),
    }


def run_traced(run: Run) -> tuple[dict, dict, list]:
    """Per-layer phase.  Each accuracy-set trial runs untraced, then traced.

    Returns the layer metrics, the untraced and traced digests, and the spans.
    """
    import tracing

    untraced_ref, traced_ref, scale, traced_rec = [], [], {}, []
    tracer = tracing.Tracer()
    for trial in range(run.wl.accuracy_trials):
        result, _, ref = run.measure(run.wl.run_trial, trial)
        untraced_ref.append(ref)
        run.account(trial, result)
        with tracer:
            result, wall, ref = run.measure(tracer.trial, trial, run.wl.run_trial, trial)
        traced_ref.append(ref)
        scale[trial] = ref / wall
        run.attempted += result.attempted
        run.failed += result.failed
        traced_rec.append(run.mod.estimate_record(trial, result))
    metrics = tracing.trial_metrics(tracer.spans, scale)
    spans = tracer.spans

    run.campaign_pass(1)
    tracer = tracing.Tracer()
    with tracer:
        run.campaign_pass(run.threads)
    metrics.update(tracing.campaign_metrics(tracer.spans, run.threads))
    metrics["trace.overhead_ratio"] = statistics.median(traced_ref) / statistics.median(untraced_ref) - 1.0
    digests = {"untraced": run.mod.digest(run.records), "traced": run.mod.digest(traced_rec)}
    return metrics, digests, spans + tracer.spans


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sfas" / "__init__.py").is_file():
        print(f"error: no sfas sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("ignore", RuntimeWarning)

    setup = [] if args.trace else setup_samples(args.workload, args.seed)

    import hostspeed
    import tracing
    import workloads

    workload = workloads.build(args.workload, args.seed)
    workload.run_trial(0)
    facts = machine_facts()

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"tmp-{tag}-{os.getpid()}"
    scratch.mkdir()
    run = Run(workload, args.seconds, scratch)
    spans: list = []
    try:
        t0 = time.perf_counter()
        if args.trace:
            metrics, digests, spans = run_traced(run)
        else:
            metrics = run_untraced(run)
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            digests = {}
        record_digest = workloads.digest(run.records)
        campaign_digest = hashlib.sha256(run.campaign_bytes or b"").hexdigest()
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    gate = {
        "refined estimates inside their windows": not run.violations,
        "campaign CSVs identical at threads=1 and threads=nproc": (
            run.campaign_bytes is not None and not run.campaign_mismatch
        ),
    }
    if args.trace:
        gate["traced estimates identical to untraced"] = digests["untraced"] == digests["traced"]
    correct = all(gate.values())
    units = declared_units(args.trace)

    print(f"# sfas benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}  measured {measured_s:.1f} s")
    print("# machine: " + json.dumps(facts, sort_keys=True))
    print(f"# times are at reference host speed (probe {1e3 * hostspeed.REFERENCE_S:g} ms)"
          + ("" if args.trace else ", raw wall-time values in brackets"))
    for name, unit in units.items():
        wall = metrics.get(f"_wall_{name}")
        extra = f"  [{wall:.6g} {unit} wall]" if wall is not None else ""
        print(f"{name:36s} {metrics[name]:14.6g} {unit}{extra}")
    if not args.trace:
        print(f"{'  tail percentile':36s} p{metrics['_tail_percentile']} "
              f"of {len(run.trial_ref)} trials")
        for threads in sorted(run.rates):
            print(f"{f'  passes at threads={threads}':36s} "
                  + " ".join(f"{r:.3f}" for r in run.rates[threads]) + " trials/s")
    print(f"{'failed_ratio':36s} {run.failed / max(1, run.attempted):14.6g} ratio  "
          f"({run.failed} of {run.attempted} localizations)")
    print(f"{'estimate digest':36s} {record_digest}  "
          f"(reference trials 0..{workload.accuracy_trials - 1})")
    print(f"{'campaign digest':36s} {campaign_digest}  (rmse.csv + trial_errors.csv)")
    for check, ok in gate.items():
        print(f"gate {'PASS' if ok else 'FAIL'}  {check}")
    for line in run.violations[:10] + run.campaign_mismatch:
        print(f"  {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "metrics": metrics, "units": units,
        "setup_samples_s": setup, "pass_rates": run.rates, "pass_rates_wall": run.rates_wall,
        "trials": len(run.trial_ref), "digest": record_digest, "digests": digests,
        "campaign_digest": campaign_digest,
        "gate": gate, "attempted": run.attempted, "failed": run.failed,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if spans:
        tracing.dump(spans, OUT / f"{tag}-spans.jsonl")

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
