"""The richardson benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a source tree (the package is imported from ``src/``).
Batches of cases run one after another until ``--seconds`` is spent, at
least ``MIN_BATCHES`` of them; batch ``i`` of seed ``S`` draws its inputs
from the batch seed ``1000 S + i``.  Each batch runs in a fresh interpreter
(``batch.py``), single threaded, so the package's process-wide memos start
cold as they do for a user's ``richardson`` run.

``--trace 0`` prints the end-to-end metrics.  The host's speed wanders by
up to a factor of two, flipping within seconds and drifting over minutes,
and no number of batches averages that away.  So every time is scaled to
a reference host, one on which ``workloads.probe`` takes ``PROBE_REF_S``:
the batch times ``probe`` between cases every 50 ms, and its times are
multiplied by ``PROBE_REF_S`` over the mean probe time.  The raw times are
printed too.  ``wall_s`` (the timed phase, probes excluded), ``setup_s``
(interpreter start to inputs ready) and ``peak_rss_mb`` are medians over
the batches; ``case_p50_ms`` and ``case_tail_ms`` are taken over the cases
of all batches, the tail at a percentile fixed by ``MIN_BATCHES`` batches.
``--trace 1`` alternates untraced and traced cold runs of batch 0 and
prints the per-layer table of ``trace.py``, with the tracing overhead.

Every output is checked (see ``workloads.py``), a traced batch must give
the output digest of its untraced run, and batch seed 0 must give the one
in ``digests.json``.  The last line of standard output is the JSON result;
the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.trace import NAMES, metric_units  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

MIN_BATCHES = 2
PROBE_REF_S = 0.001  # seconds of workloads.probe on the reference host
HARD_LIMIT_S = 165.0  # a run ends well inside three minutes, whatever --seconds says
DIGESTS = json.loads((HERE / "digests.json").read_text())

END_TO_END_UNITS = {
    "wall_s": "s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BatchFailed(Exception):
    pass


def spawn(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    """Run one batch in a fresh interpreter and return what it printed."""
    argv = [sys.executable, str(HERE / "batch.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace))]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise BatchFailed(f"a batch ran past the {HARD_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BatchFailed(f"a batch exited {proc.returncode}: {tail[0]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_done"] - start
    out["elapsed_s"] = time.monotonic() - start
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def tail_percentile(cases: int) -> float:
    """The highest percentile with at least ten cases beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if cases * (100 - q) / 100 >= 10:
            return q
    return 50.0


class Run:
    """Batches of one workload and seed, and what their checks found."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.start = time.monotonic()
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def batch(self, index: int, trace: bool) -> dict | None:
        batch_seed = 1000 * self.seed + index
        try:
            b = spawn(self.workload, batch_seed, trace, HARD_LIMIT_S - self.elapsed())
        except BatchFailed as e:
            size = WORKLOADS[self.workload].size
            self.attempted += size
            self.failed += size
            self.failures.append(str(e))
            return None
        self.attempted += b["attempted"]
        failed = b["failed"]
        self.failures.extend(b["failures"])
        expected = DIGESTS.get(self.workload) if batch_seed == 0 else None
        if expected is not None and b["digest"] != expected:
            failed = b["attempted"]
            self.failures.append(f"output digest {b['digest']} != recorded {expected}")
        self.failed += failed
        return b

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def host_scale(batch: dict) -> float:
    """Factor that turns the batch's times into reference-host times."""
    return PROBE_REF_S / statistics.fmean(batch["probe_s"])


def reference_wall(batches: list[dict]) -> float:
    """Median timed phase, probes excluded, at the reference speed."""
    return statistics.median((b["wall_s"] - sum(b["probe_s"])) * host_scale(b)
                             for b in batches)


def timed(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    run = Run(workload, seed)
    batches = []
    while len(batches) < MIN_BATCHES or (
        run.elapsed() + statistics.fmean(b["elapsed_s"] for b in batches) <= seconds
    ):
        if batches and run.elapsed() > HARD_LIMIT_S / 2:
            break
        b = run.batch(len(batches), trace=False)
        if b is None:
            break
        batches.append(b)
    if not batches:
        raise BatchFailed("; ".join(run.failures))
    scale = [host_scale(b) for b in batches]
    cases = [t * k for b, k in zip(batches, scale) for t in b["case_s"]]
    q = tail_percentile(MIN_BATCHES * WORKLOADS[workload].size)
    values = {
        "wall_s": reference_wall(batches),
        "case_p50_ms": percentile(cases, 50) * 1e3,
        "case_tail_ms": percentile(cases, q) * 1e3,
        "setup_s": statistics.median(b["setup_s"] * k for b, k in zip(batches, scale)),
        "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
    }
    notes = [
        f"{workload} seed {seed}: {len(batches)} cold batches, {len(cases)} cases, "
        f"{run.elapsed():.1f} s",
        "raw timed phase per batch: " + " ".join(f"{b['wall_s']:.3f}" for b in batches)
        + " s; scale to the reference host: " + " ".join(f"{k:.3f}" for k in scale),
        f"case_tail_ms is p{q:g} of {len(cases)} cases; times below are at the "
        "reference speed",
    ]
    notes += [f"{k:<14} {v:12.4f} {END_TO_END_UNITS[k]}" for k, v in values.items()]
    notes += [f"FAILED: {f}" for f in run.failures[:20]]
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return run.result(metrics), notes


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    run = Run(workload, seed)
    plain, layered = [], []
    while not plain or run.elapsed() * (len(plain) + 1) / len(plain) <= seconds:
        p = run.batch(0, trace=False)
        t = run.batch(0, trace=True) if p is not None else None
        if t is None:
            break
        plain.append(p)
        layered.append(t)
        if run.elapsed() > HARD_LIMIT_S / 2:
            break
    if not layered:
        raise BatchFailed("; ".join(run.failures))
    first = layered[0]["layers"]
    if len({b["digest"] for b in plain + layered}) > 1:
        run.failures.append("traced and untraced runs of one batch differ in output")
    for t in layered[1:]:
        counts = {k: v for k, v in t["layers"].items() if not k.endswith("_s")}
        if counts != {k: v for k, v in first.items() if not k.endswith("_s")}:
            run.failures.append("per-layer counts differ between cold runs of one batch")
    units = metric_units()
    values = {}
    for name in units:
        if name == "trace_overhead_s":
            values[name] = reference_wall(layered) - reference_wall(plain)
        elif name.endswith("_s"):
            values[name] = statistics.median(b["layers"][name] * host_scale(b)
                                             for b in layered)
        else:
            values[name] = first[name]
    notes = [
        f"{workload} seed {seed}: {len(layered)} traced and {len(plain)} untraced cold "
        f"runs of one batch; times are medians at the reference speed",
        f"{'function':<38} {'calls':>9} {'distinct':>9} {'self_s':>9} {'total_s':>9}",
    ]
    for name in sorted(NAMES, key=lambda n: -values[f"{n}.self_s"]):
        if values[f"{name}.calls"]:
            distinct = values.get(f"{name}.distinct", "")
            notes.append(f"{name:<38} {values[f'{name}.calls']:>9} {distinct:>9} "
                         f"{values[f'{name}.self_s']:>9.4f} {values[f'{name}.total_s']:>9.4f}")
    notes.append(f"unattributed_s {values['unattributed_s']:.4f}  "
                 f"trace_overhead_s {values['trace_overhead_s']:.4f}")
    notes += [f"FAILED: {f}" for f in run.failures[:20]]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return run.result(metrics), notes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not (ROOT / "src" / "richardson" / "__init__.py").is_file():
        print(f"run.py: no richardson package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, notes = (traced if a.trace else timed)(a.workload, a.seed, a.seconds)
    except BatchFailed as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print("\n".join(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
