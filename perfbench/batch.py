"""One cold batch of a workload, in the interpreter this script starts.

    python3 perfbench/batch.py --workload NAME --seed S [--trace 0|1]

Prints one JSON line: when set-up ended (``time.monotonic``, which Linux
shares between processes), the timed phase, per-case times, peak RSS,
failures and the output digest; with ``--trace 1`` also the per-layer
table, and the spans go to ``perfbench/out/``.  ``run.py`` starts it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import richardson  # noqa: E402,F401  (set-up includes the package import)

from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, CaseClock  # noqa: E402

OUT = ROOT / "perfbench" / "out"


def run_batch(name: str, seed: int, trace: bool, size: int | None = None) -> dict:
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed, size or workload.size)
    setup_done = time.monotonic()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        result = workload.run(inputs, CaseClock(tracer))
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "setup_done": setup_done,
        "wall_s": result.wall_s,
        "case_s": result.case_s,
        "probe_s": result.probe_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures[:20],
        "digest": result.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.summary(result.wall_s)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-{seed}.tsv")
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", type=int, help="cases per batch (tests use small ones)")
    a = p.parse_args()
    print(json.dumps(run_batch(a.workload, a.seed, bool(a.trace), a.size)))


if __name__ == "__main__":
    main()
