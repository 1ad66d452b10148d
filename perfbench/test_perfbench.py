"""Tests of the benchmark itself: its inputs, its checks, its CLI timer and
the exact repeatability of its per-layer counts."""

import io
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from richardson import cli  # noqa: E402
from richardson.invariants import LocalInvariants  # noqa: E402
from richardson.permutations import Permutation, bruhat_leq as package_leq  # noqa: E402

from perfbench import run as bench_run  # noqa: E402
from perfbench import trace, workloads  # noqa: E402
from perfbench.workloads import CaseClock  # noqa: E402


def test_own_bruhat_order_matches_package():
    for v in workloads.perms(4):
        for w in workloads.perms(4):
            assert workloads.bruhat_leq(v, w) == package_leq(Permutation(v), Permutation(w))


def test_stratified_sample_is_seeded_and_proportional():
    import random

    population = list(range(100))
    a = workloads.stratified_sample(random.Random(1), population, 20, lambda x: x % 4)
    b = workloads.stratified_sample(random.Random(1), population, 20, lambda x: x % 4)
    assert a == b and len(set(a)) == 20
    assert sorted(sum(1 for x in a if x % 4 == s) for s in range(4)) == [5, 5, 5, 5]


def test_cli_timer_leaves_the_report_byte_identical():
    iso = workloads.WORKLOADS["iso-s5"]
    argv, expected = iso.inputs(seed=7, size=25)
    plain = io.StringIO()
    assert cli.run(argv, plain) == 0
    clock = CaseClock()
    report, seen, wall = workloads.run_cli_timed(argv, "product_iso_report", clock)
    assert report == plain.getvalue()
    assert seen == expected and len(clock.case_s) == 25
    assert 0 < sum(clock.case_s) <= wall
    assert cli.product_iso_report.__name__ == "product_iso_report"  # timer removed


def _record(mult, h):
    from richardson.groebner import _q_poly

    return LocalInvariants(dimension=2, tangent_dim=2, smooth=True,
                           multiplicity=mult, h_polynomial=_q_poly(h))


def test_checks_reject_wrong_outputs():
    v, s, w = (1, 2, 3), (2, 1, 3), (2, 3, 1)
    good = _record(1, [1])
    assert workloads.check_fixed_point(v, s, w, good, good, good) == []
    assert workloads.check_fixed_point(v, s, w, _record(2, [1, 1]), good, good)
    assert workloads.check_kl((1, 2, 3), (3, 2, 1), [1]) == []
    assert workloads.check_kl((1, 2, 3), (3, 2, 1), [0])
    assert workloads.check_kl((1, 2, 3, 4), (4, 3, 2, 1), [1, -1])
    assert workloads.check_kl((1, 2, 3, 4), (2, 1, 4, 3), [1, 1])  # l gap 2: constant
    report = json.dumps({"ok": True, "cases": 3, "failures": [], "findings": []})
    assert workloads.check_report(report, 3) == []
    assert workloads.check_report(report, 4)
    timeout = json.dumps({"ok": True, "cases": 3, "failures": [],
                          "findings": [{"kind": "timeout"}]})
    assert workloads.check_report(timeout, 3)


def _batch(workload, size, traced):
    argv = [sys.executable, str(ROOT / "perfbench" / "batch.py"), "--workload", workload,
            "--seed", "3", "--size", str(size), "--trace", str(int(traced))]
    out = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload,size", [("fixed-s4", 8), ("kl-s5", 6), ("iso-s5", 30)])
def test_traced_counts_repeat_exactly_and_outputs_match(workload, size):
    plain = _batch(workload, size, traced=False)
    first, second = _batch(workload, size, True), _batch(workload, size, True)
    assert plain["failed"] == first["failed"] == 0
    assert plain["digest"] == first["digest"] == second["digest"]

    def counts(b):
        return {k: v for k, v in b["layers"].items() if not k.endswith("_s")}

    assert counts(first) == counts(second)
    assert sum(counts(first).values()) > 0
    assert set(first["layers"]) | {"trace_overhead_s"} == set(trace.metric_units())


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.metric_units()


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kl-s5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
