"""Layer trace taken from outside the library.

The tracer replaces public sfas functions in the module namespaces where
their callers look them up (``sfas.estimators.esg_manifold_centered`` is
what ``stage2_refine`` calls, ``sfas.harness.two_stage_localize`` what a
campaign trial calls) with wrappers that record a span per call: name,
start, end, parent span, trial id, plus what the result shows (manifold
columns, window-edge and flat-range flags).  Spans stay in memory; the
originals are restored on exit, so nothing outside the benchmark process
is affected.  The library itself is never edited.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

from sfas import estimators, harness, simulate

_MODULES = {"estimators": estimators, "harness": harness, "simulate": simulate}


def _columns(result) -> dict:
    """Manifold columns and the rows of each, from the (M, G) or (M,) result."""
    shape = getattr(result, "shape", ())
    cols = shape[1] if len(shape) == 2 else 1
    return {"columns": int(cols), "rows": int(shape[0])}


def _edge(result) -> dict:
    return {"edge": bool(result.boundary_hit)}


def _flat(result) -> dict:
    return {"flat": bool(result.flat_spectrum)}


# (namespace, attribute, span name, reads-from-result).  Each entry is a
# lookup site: the same function is wrapped once per namespace it is
# called through.
SITES = [
    ("estimators", "esg_manifold_centered", "geometry.esg_manifold", _columns),
    ("estimators", "ff_manifold", "geometry.ff_manifold", _columns),
    ("simulate", "esg_steering_centered", "geometry.esg_steering", _columns),
    ("simulate", "coupling_matrix", "coupling.matrix", None),
    ("simulate", "generate_snapshots_compressed", "simulate.synth", None),
    ("simulate", "generate_snapshots_extended", "simulate.synth", None),
    ("simulate", "generate_snapshots_baseline", "simulate.synth", None),
    ("estimators", "sample_covariance", "simulate.covariance", None),
    ("estimators", "decompose", "estimators.decompose", None),
    ("estimators", "stage1_music", "estimators.stage1", None),
    ("estimators", "stage2_range_search", "estimators.range_scan", _flat),
    ("estimators", "stage2_refine", "estimators.refine", _edge),
    ("estimators", "mc_music_refine", "estimators.mc_refine", _edge),
    ("estimators", "baseline_ff_music", "estimators.baseline", None),
    ("estimators", "two_stage_localize", "estimators.two_stage", None),
    ("harness", "generate_snapshots_compressed", "simulate.synth", None),
    ("harness", "generate_snapshots_extended", "simulate.synth", None),
    ("harness", "generate_snapshots_baseline", "simulate.synth", None),
    ("harness", "two_stage_localize", "estimators.two_stage", None),
    ("harness", "baseline_ff_music", "estimators.baseline", None),
    ("harness", "crb", "crb.bound", None),
    ("harness", "run_campaign", "harness.campaign", None),
]

# Spans a campaign trial is made of: the harness's own calls into the
# layers below it.  Their sum is the pool's busy time.
_CAMPAIGN_TRIAL_SPANS = {"simulate.synth", "estimators.two_stage", "estimators.baseline"}


@dataclass
class Span:
    name: str
    site: str
    start: float
    parent: "Span | None"
    trial: object
    cell: object
    end: float = 0.0
    child_time: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.trial = None
            loc.cell = None
        return loc

    def _open(self, name: str, site: str) -> Span:
        loc = self._state()
        parent = loc.stack[-1] if loc.stack else None
        span = Span(name, site, time.perf_counter(), parent, loc.trial, loc.cell)
        loc.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        loc = self._state()
        loc.stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration
        self.spans.append(span)

    def trial(self, trial_id, fn, *args):
        """Run ``fn(*args)`` as the benchmark trial ``trial_id``."""
        loc = self._state()
        loc.trial, loc.cell = trial_id, None
        span = self._open("bench.trial", "bench")
        try:
            return fn(*args)
        finally:
            self._close(span)
            loc.trial = None

    def _wrap(self, site: str, original, name: str, inspect):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if site == "harness" and name == "simulate.synth":
                # A campaign trial starts with synthesis: take its id and
                # sweep cell from the arguments (scenario, ..., trial).
                loc = tracer._state()
                scenario = args[0]
                loc.trial = args[-1] if len(args) > 1 else kwargs.get("trial", 0)
                loc.cell = (scenario.snr_db, scenario.snapshots)
            span = tracer._open(name, site)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if inspect is not None:
                span.info = inspect(result)
            return result

        return wrapper

    def __enter__(self):
        for site, attr, name, inspect in SITES:
            module = _MODULES[site]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(site, original, name, inspect))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def dump(spans: list[Span], path) -> None:
    """Write spans as one JSON object per line; ``parent`` is a line index."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "id": i,
                "name": s.name,
                "site": s.site,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index.get(id(s.parent)),
                "trial": s.trial,
                "cell": s.cell,
                **s.info,
            }) + "\n")


# -- derived metrics ------------------------------------------------------

# Per-trial time metrics: (metric, span name, use self time).
TRIAL_TIMES = [
    ("estimators.refine_ms", "estimators.refine", True),
    ("estimators.mc_refine_ms", "estimators.mc_refine", True),
    ("estimators.stage1_ms", "estimators.stage1", True),
    ("estimators.baseline_ms", "estimators.baseline", True),
    ("estimators.range_scan_ms", "estimators.range_scan", True),
    ("estimators.decompose_ms", "estimators.decompose", False),
    ("simulate.synth_ms", "simulate.synth", False),
    ("simulate.covariance_ms", "simulate.covariance", False),
    ("coupling.matrix_ms", "coupling.matrix", False),
]


def trial_metrics(spans: list[Span], scale: dict) -> dict[str, float]:
    """Per-trial layer numbers from the spans of traced benchmark trials.

    ``scale`` maps each trial to its host-speed factor (see hostspeed.py).
    Times are medians over trials of each trial's total; counts are means
    per trial; ratios are taken over all calls.
    """
    by_trial: dict[object, list[Span]] = {}
    for s in spans:
        by_trial.setdefault(s.trial, []).append(s)
    trials = len(by_trial)

    def median_ms(pred, value) -> float:
        return 1e3 * statistics.median(
            scale[t] * sum(value(s) for s in group if pred(s)) for t, group in by_trial.items()
        )

    def named(*names):
        return [s for s in spans if s.name in names]

    manifold_names = ("geometry.esg_manifold", "geometry.ff_manifold", "geometry.esg_steering")
    manifolds = named(*manifold_names)
    columns = sum(s.info["columns"] for s in manifolds)
    exact = sum(s.info["columns"] for s in manifolds if s.name != "geometry.ff_manifold")
    out = {
        "geometry.manifold_ms": median_ms(lambda s: s.name in manifold_names, lambda s: s.duration),
        "geometry.manifold_columns": columns / trials,
        "geometry.esg_columns": exact / trials,
        "geometry.ff_columns": (columns - exact) / trials,
        "geometry.manifold_bytes_computed":
            sum(s.info["columns"] * s.info["rows"] * 16 for s in manifolds) / trials,
        "geometry.ns_per_column":
            1e9 * sum(scale[s.trial] * s.duration for s in manifolds) / max(1, columns),
    }
    for metric, name, own in TRIAL_TIMES:
        out[metric] = median_ms(
            lambda s, n=name: s.name == n,
            (lambda s: s.self_time) if own else (lambda s: s.duration),
        )
    refines = named("estimators.refine", "estimators.mc_refine")
    scans = named("estimators.range_scan")
    out["estimators.refine_calls"] = len(refines) / trials
    out["estimators.boundary_hit_ratio"] = (
        sum(s.info["edge"] for s in refines) / len(refines) if refines else 0.0
    )
    out["estimators.range_flat_ratio"] = (
        sum(s.info["flat"] for s in scans) / len(scans) if scans else 0.0
    )
    return out


def campaign_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Pool and reduction numbers of one traced ``run_campaign`` call, in wall time.

    A cell's trial phase runs from the first to the last trial span of
    that sweep cell; everything else in the campaign's wall time (bounds,
    reduction, CSV export) is outside the trial phases.
    """
    campaign = [s for s in spans if s.name == "harness.campaign"]
    if len(campaign) != 1:
        raise ValueError(f"expected one traced campaign, found {len(campaign)}")
    trial_spans = [s for s in spans if s.site == "harness" and s.name in _CAMPAIGN_TRIAL_SPANS]
    bounds = [s for s in spans if s.name == "crb.bound"]
    cells: dict[object, list[Span]] = {}
    for s in trial_spans:
        cells.setdefault(s.cell, []).append(s)
    phase = sum(max(s.end for s in g) - min(s.start for s in g) for g in cells.values())
    busy = sum(s.duration for s in trial_spans)
    trial_ids = {(s.cell, s.trial) for s in trial_spans}
    return {
        "harness.trial_busy_ms": 1e3 * busy / len(trial_ids),
        "harness.pool_idle_ratio": 1.0 - busy / (threads * phase),
        "harness.reduce_write_ms": 1e3 * (campaign[0].duration - phase),
        "crb.bound_ms": 1e3 * sum(s.duration for s in bounds) / len(cells),
        "crb.calls": len(bounds) / len(cells),
    }
