"""The comparison of ``tools/estimate_diff.py`` on hand-made records: what it
counts as a moved cell, a changed flag and a trial that got worse."""

import copy
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "estimate_diff", Path(__file__).resolve().parent.parent / "tools" / "estimate_diff.py"
)
estimate_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(estimate_diff)


def _source(angle, rng, pass1=(40, 30), pass2=(15, 15)):
    return {"pass1": list(pass1), "pass2": list(pass2), "angle": angle, "range": rng,
            "range_flat": False, "boundary_hit": False}


RECORD = {
    "build": "numpy x",
    "entries": {
        "bench|w|0": {"sources": [_source(-20.0, 300.0), _source(10.0, 1000.0)],
                      "errors": [[0.01, 2.0], [-0.02, None]]},
        "bench|w|1": {"sources": [_source(-20.5, 310.0)], "errors": [[0.5, 10.0]]},
        "bench|w|2": {"failed": True},
    },
}


def test_a_record_against_itself_reports_no_move():
    lines, moved = estimate_diff.compare(RECORD, copy.deepcopy(RECORD))
    assert not moved
    assert "0 of 3 refined sources changed cell, 0 changed a flag" in lines
    assert "largest relative move of a refined angle: 0" in lines
    assert any("squared AAR error: +0 deg^2 in sum; worse in 0 of 2 trials" in l for l in lines)


def test_moves_flags_and_failures_are_counted():
    new = copy.deepcopy(RECORD)
    entries = new["entries"]
    entries["bench|w|0"]["sources"][1]["pass2"] = [15, 16]
    entries["bench|w|0"]["sources"][1]["angle"] = 10.001
    entries["bench|w|0"]["errors"] = [[0.01, 2.0], [-0.019, None]]
    entries["bench|w|1"]["sources"][0]["boundary_hit"] = True
    entries["bench|w|1"]["errors"] = [[0.6, 9.0]]
    entries["bench|w|2"] = {"sources": [], "errors": []}
    lines, moved = estimate_diff.compare(RECORD, new)
    assert moved
    assert "1 of 3 refined sources changed cell, 1 changed a flag" in lines
    assert any("bench|w|0 source 1: pass 1 [40, 30] -> [40, 30], pass 2 [15, 15] -> [15, 16]"
               in l for l in lines)
    assert any(l.startswith("largest relative move of a refined angle: 0.0001 (bench|w|0 source 1")
               for l in lines)
    assert any("worse in 1 of 2 trials" in l and "AAR" in l for l in lines)
    assert any("range error: -19 wl^2 in sum; worse in 0 of 2 trials" in l for l in lines)
    assert "  failed in one record only: bench|w|2" in lines
