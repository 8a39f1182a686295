"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of sfas (numpy and scipy with it), building the
workload's scenario -- which reads its YAML file through
``harness.load_file`` where it has one -- and the first trial.  Prints one
JSON line.  ``run.py`` starts this several times per run and reports the
median, so work moved into set-up shows in ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
import time
import warnings
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    warnings.simplefilter("ignore", RuntimeWarning)
    workload = workloads.build(sys.argv[1], int(sys.argv[2]))
    workload.run_trial(0)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
