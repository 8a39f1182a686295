"""The one-thread OpenBLAS pin around harness work, and why it is there.

Harness outputs must not depend on the host's BLAS thread count: the last
bits of the sample covariance X Xᴴ depend on how many OpenBLAS threads
computed it, and they reach every output file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CPUS, ProcessLog
from sfas import _blas, harness
from sfas.geometry import SourceTruth
from sfas.harness import Campaign, run_campaign
from sfas.simulate import Scenario

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
)


def blas_threads() -> list[int]:
    return [get() for get, _ in _blas._controls()]


@pytest.fixture
def prior_count():
    """Every loaded OpenBLAS at 3 threads, a count the pin never sets, and
    the original count restored afterwards."""
    controls = _blas._controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    original = blas_threads()
    for _, set_ in controls:
        set_(3)
    try:
        yield [3] * len(controls)
    finally:
        for (_, set_), count in zip(controls, original):
            set_(count)


def small_campaign():
    scenario = Scenario(
        sources=(
            SourceTruth.from_degrees(-20.66, 4000.0),
            SourceTruth.from_degrees(10.77, 5000.0),
        ),
        snapshots=200,
        snr_db=10.0,
        seed=99,
    )
    return Campaign(scenario=scenario, sweep="snr_db", values=(5.0, 15.0), trials=3)


class TestPin:
    def test_restores_after_normal_exit(self, prior_count):
        with _blas.one_blas_thread():
            assert blas_threads() == [1] * len(prior_count)
        assert blas_threads() == prior_count

    def test_restores_after_exception(self, prior_count):
        with pytest.raises(RuntimeError, match="inside"):
            with _blas.one_blas_thread():
                raise RuntimeError("inside")
        assert blas_threads() == prior_count

    def test_nested_restores_once(self, prior_count):
        with _blas.one_blas_thread():
            with _blas.one_blas_thread():
                assert blas_threads() == [1] * len(prior_count)
            # The inner exit must not restore while the outer block runs.
            assert blas_threads() == [1] * len(prior_count)
        assert blas_threads() == prior_count

    def test_pooled_campaign_restores(self, prior_count, monkeypatch, tmp_path):
        # The campaign forks a worker: the log keeps the records of every process.
        log = ProcessLog(tmp_path / "blas.log")
        original = harness._run_trial

        def recording(*args):
            log.add(blas_threads())
            return original(*args)

        monkeypatch.setattr(harness, "_run_trial", recording)
        run_campaign(small_campaign(), threads=2)
        seen = log.records()
        assert len(seen) == 2 * 3
        assert all(counts == [1] * len(prior_count) for _, counts in seen)
        assert len({pid for pid, _ in seen}) >= min(2, CPUS)
        assert blas_threads() == prior_count

    def test_noop_without_openblas(self, monkeypatch):
        real = _blas._controls()
        before = [get() for get, _ in real]
        monkeypatch.setattr(_blas, "_controls", lambda: ())
        with _blas.one_blas_thread():
            with _blas.one_blas_thread():
                assert [get() for get, _ in real] == before
        assert [get() for get, _ in real] == before


def test_cli_outputs_do_not_depend_on_blas_threads(tmp_path):
    """single-shot and a pooled campaign write the same bytes with OpenBLAS
    at one thread and at its default (one per core).  On a one-core host
    both runs use one thread and the test passes trivially."""
    scenario = ROOT / "scenarios" / "single_shot_mixed.yaml"
    base = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), base.get("PYTHONPATH")]))
    runs = {"default": base, "one": {**base, "OPENBLAS_NUM_THREADS": "1"}}
    for name, env in runs.items():
        for verb, extra in (
            ("single-shot", []),
            ("campaign", ["--trials", "2", "--threads", "2"]),
        ):
            out = tmp_path / name / verb
            subprocess.run(
                [sys.executable, "-m", "sfas.cli", verb, str(scenario), "--out", str(out), *extra],
                env=env, check=True, capture_output=True, timeout=300,
            )

    def files(root: Path) -> dict[str, bytes]:
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    default, one = files(tmp_path / "default"), files(tmp_path / "one")
    assert sorted(default) == sorted(one) and len(default) > 10
    assert [f for f in default if default[f] != one[f]] == []
