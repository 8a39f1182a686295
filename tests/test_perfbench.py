"""The benchmark's layer tracer against the library it wraps.

``perfbench/tracing.py`` replaces library functions by (module, attribute)
name, so a refactor that renames, moves or drops one of them breaks
``perfbench/run.py --trace 1`` while every library test still passes.
"""

import importlib.util
import math
import sys
from pathlib import Path

from sfas import Scenario, SourceTruth, harness

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
# A dataclass looks its module up in sys.modules while it is built.
sys.modules[_SPEC.name] = tracing
_SPEC.loader.exec_module(tracing)


def test_every_traced_site_resolves():
    missing = [
        f"{site}.{attr}"
        for site, attr, _, _ in tracing.SITES
        if not callable(getattr(tracing._MODULES[site], attr, None))
    ]
    assert not missing


def test_traced_campaign_gives_finite_metrics(tmp_path):
    scenario = Scenario(sources=(SourceTruth.from_degrees(10.0, 100.0),), snapshots=50, seed=3)
    campaign = harness.Campaign(scenario=scenario, sweep="snr_db", values=(0.0, 10.0), trials=2)
    for threads in (1, 2):
        tracer = tracing.Tracer()
        with tracer:  # wraps `harness.run_campaign`, so look it up there
            harness.run_campaign(campaign, out_dir=tmp_path / f"threads{threads}", threads=threads)
        metrics = tracing.campaign_metrics(tracer.spans, threads)
        assert metrics and all(math.isfinite(v) for v in metrics.values()), (threads, metrics)
