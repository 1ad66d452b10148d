"""Seeded inputs, timed cases and output checks for each workload.

The inputs are generated here, with this module's own Bruhat order (the
tableau criterion) rather than the package's rank-matrix one, so that the
expected case lists are an independent check on what the package scans.
A workload runs one batch of cases in the current process; ``batch.py``
gives every batch a fresh interpreter, so the package memos start cold.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass, field

# ---------------------------------------------------------------------------
# Combinatorics of S_n, independent of the richardson package
# ---------------------------------------------------------------------------


def perms(n: int) -> list[tuple[int, ...]]:
    """S_n in lexicographic window order, the order of ``Permutation.all``."""
    return list(itertools.permutations(range(1, n + 1)))


def inversions(w: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def bruhat_leq(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Tableau criterion: v <= w iff every sorted prefix of v is entrywise
    below the sorted prefix of w of the same length."""
    for i in range(1, len(v)):
        for a, b in zip(sorted(v[:i]), sorted(w[:i])):
            if a > b:
                return False
    return True


def bruhat_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every pair v <= w, v-major in lexicographic order (the CLI's order)."""
    elems = perms(n)
    return [(v, w) for v in elems for w in elems if bruhat_leq(v, w)]


def stratified_sample(rng: random.Random, population: list, k: int, stratum) -> list:
    """k distinct items, each stratum getting its proportional share.

    Strata keep the cost of a batch close to the population's average, so
    that different seeds give batches of similar total work; which items
    fill each stratum is random.  Largest remainders settle rounding.
    """
    groups: dict = {}
    for item in population:
        groups.setdefault(stratum(item), []).append(item)
    total = len(population)
    quotas = {s: k * len(g) // total for s, g in groups.items()}
    by_remainder = sorted(groups, key=lambda s: (-(k * len(groups[s]) % total), s))
    for s in by_remainder[: k - sum(quotas.values())]:
        quotas[s] += 1
    out = [x for s in sorted(groups) for x in rng.sample(groups[s], quotas[s])]
    rng.shuffle(out)
    return out


def window_str(w: tuple[int, ...]) -> str:
    return "".join(map(str, w))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# One batch of a workload
# ---------------------------------------------------------------------------


@dataclass
class BatchResult:
    """What a batch measured and what its outputs were."""

    wall_s: float
    case_s: list[float]
    probe_s: list[float]
    attempted: int
    failed: int = 0  # cases with at least one failure
    failures: list[str] = field(default_factory=list)
    canonical: str = ""

    @property
    def digest(self) -> str:
        return digest(self.canonical)


PROBE_EVERY_S = 0.05


def probe() -> float:
    """Time a fixed slice of pure-Python work, a reading of the host's speed."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(5000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += i * i % 7
    return time.perf_counter() - start


class CaseClock:
    """Times each case at one boundary and tags trace spans with its id.

    Between cases, at most every ``PROBE_EVERY_S``, it also times ``probe``:
    the host's speed changes within seconds, and the probes let ``run.py``
    convert case times to one reference speed.
    """

    def __init__(self, tracer=None):
        self.case_s: list[float] = []
        self.probe_s: list[float] = []
        self.tracer = tracer
        self._next_probe = 0.0

    def call(self, fn, *args):
        if self.tracer is not None:
            self.tracer.case = len(self.case_s)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.case_s.append(end - start)
            if end >= self._next_probe:
                took = probe()
                self.probe_s.append(took)
                if self.tracer is not None:
                    self.tracer.record_probe(end, end + took)
                self._next_probe = time.perf_counter() + PROBE_EVERY_S


def _module(name: str):
    # looked up at call time, so the tracer's rebinding is seen
    return importlib.import_module(f"richardson.{name}")


class Workload:
    name = ""
    why = ""
    size = 0  # cases per batch

    def inputs(self, seed: int, size: int):
        raise NotImplementedError

    def run(self, inputs, clock: CaseClock) -> BatchResult:
        raise NotImplementedError


class CallWorkload(Workload):
    """Cases the benchmark hands to the package one call at a time."""

    def call(self):
        """The function each case's arguments are passed to."""
        raise NotImplementedError

    def check(self, case: tuple, result) -> tuple[list[str], list]:
        """Failures found in one case's result, and its row for the digest."""
        raise NotImplementedError

    def run(self, inputs, clock: CaseClock) -> BatchResult:
        fn = self.call()
        results, failures = [], []
        start = time.perf_counter()
        for case in inputs:
            try:
                results.append(clock.call(fn, *case))
            except Exception as e:  # a raising case is a failed case
                results.append(None)
                failures.append(f"{case}: {type(e).__name__}: {e}")
        wall = time.perf_counter() - start
        failed = len(failures)
        rows = []
        for case, result in zip(inputs, results):
            if result is not None:
                bad, row = self.check(case, result)
                failed += bool(bad)
                failures.extend(bad)
                rows.append(row)
        return BatchResult(wall, clock.case_s, clock.probe_s, len(inputs), failed, failures,
                           json.dumps(rows, sort_keys=True))


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


class FixedPoints(CallWorkload):
    """Records at torus-fixed points: invariants of X_w^v, X_w and X^v at
    sigma, then the multiplicity and H-polynomial product laws.

    The batch is every triple v <= sigma <= w of S4, in seeded order: a
    record's oracle cost ranges over three orders of magnitude, so any
    sample of the triples would vary in total work from seed to seed.
    """

    name = "fixed-s4"
    why = ("every S4 fixed-point triple in seeded order: oracle-dominated records, "
           "the path every multiplicity check pays (invariants, verify mult/hpoly)")
    size = 1088  # every triple of S4
    n = 4

    def inputs(self, seed, size):
        triples = [
            (v, s, w)
            for (v, s) in bruhat_pairs(self.n)
            for w in perms(self.n)
            if bruhat_leq(s, w)
        ]
        return _rng(self.name, seed).sample(triples, size)

    def call(self):
        inv = _module("invariants")
        P = _module("permutations").Permutation

        def records(v, s, w):
            v, s, w = P(v), P(s), P(w)
            return (
                inv.richardson_invariants(v, w, s),
                inv.schubert_invariants(w, s),
                inv.opposite_invariants(v, s),
            )

        return records

    def check(self, case, result):
        v, s, w = case
        return (check_fixed_point(v, s, w, *result),
                [window_str(v), window_str(s), window_str(w)] + [r.to_json() for r in result])


def poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def check_fixed_point(v, s, w, rich, schub, opp) -> list[str]:
    """Product laws and record consistency at one fixed point."""
    case = f"v={window_str(v)} sigma={window_str(s)} w={window_str(w)}"
    bad = []
    if rich.multiplicity != schub.multiplicity * opp.multiplicity:
        bad.append(f"{case}: mult {rich.multiplicity} != "
                   f"{schub.multiplicity} * {opp.multiplicity}")
    h = list(rich.h_coefficients())
    if h != poly_mul(schub.h_coefficients(), opp.h_coefficients()):
        bad.append(f"{case}: H {h} != {list(schub.h_coefficients())} * "
                   f"{list(opp.h_coefficients())}")
    if rich.dimension != inversions(w) - inversions(v):
        bad.append(f"{case}: dimension {rich.dimension} != l(w) - l(v)")
    for r in (rich, schub, opp):
        if sum(r.h_coefficients()) != r.multiplicity or r.smooth != (r.tangent_dim == r.dimension):
            bad.append(f"{case}: inconsistent record {r.to_json()}")
    return bad


class KazhdanLusztig(CallWorkload):
    """kl_polynomial over S5 Bruhat pairs in one process, as a batch would.

    Pairs with l(w) - l(v) <= 2 are left out: P is 1 there without any
    recursion, and a third of all pairs are such, which would put the median
    case on the edge between two cost clusters a hundredfold apart.
    """

    name = "kl-s5"
    why = ("Bruhat intervals and the KL recursion in permutations, with no Groebner work "
           "(pairs with l(w) - l(v) >= 3)")
    size = 320
    n = 5

    def inputs(self, seed, size):
        pairs = [(v, w) for v, w in bruhat_pairs(self.n) if inversions(w) - inversions(v) >= 3]
        return stratified_sample(
            _rng(self.name, seed), pairs, size,
            lambda p: inversions(p[1]) - inversions(p[0]),
        )

    def call(self):
        perm = _module("permutations")
        return lambda v, w: perm.kl_polynomial(perm.Permutation(v), perm.Permutation(w))

    def check(self, case, result):
        v, w = case
        coeffs = list(result.coefficients)
        return check_kl(v, w, coeffs), [window_str(v), window_str(w), coeffs]


def check_kl(v, w, coeffs) -> list[str]:
    """P(0) = 1, non-negative coefficients, deg <= (l(w) - l(v) - 1) / 2."""
    case = f"P[{window_str(v)},{window_str(w)}] = {coeffs}"
    gap = inversions(w) - inversions(v)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs or coeffs[0] != 1:
        return [f"{case}: P(0) != 1"]
    if any(c < 0 for c in coeffs):
        return [f"{case}: negative coefficient"]
    if (v == w and coeffs != [1]) or (v != w and 2 * (len(coeffs) - 1) > gap - 1):
        return [f"{case}: degree above (l(w) - l(v) - 1) / 2"]
    return []


class ProductIso(Workload):
    """``richardson verify product-iso --n 5 --samples K --seed S --jobs 1``,
    run through the CLI, with each case timed where it reaches the checker."""

    name = "iso-s5"
    why = ("sweep isomorphism checks: charts, Buchberger, normal forms and the "
           "CLI pair scan, no oracle; the only workload whose memos grow large")
    size = 2500
    n = 5

    def inputs(self, seed, size):
        rng = random.Random(seed)
        elems, pairs = perms(self.n), bruhat_pairs(self.n)
        # the CLI draws u first, then (v, w), then sorts by the string key
        triples = []
        for _ in range(size):
            u = elems[rng.randrange(len(elems))]
            triples.append((u,) + pairs[rng.randrange(len(pairs))])
        expected = sorted(tuple(map(window_str, t)) for t in triples)
        argv = ["verify", "product-iso", "--n", str(self.n), "--samples", str(size),
                "--seed", str(seed), "--jobs", "1"]
        return argv, expected

    def run(self, inputs, clock):
        argv, expected = inputs
        report, seen, wall = run_cli_timed(argv, "product_iso_report", clock)
        failures = []
        if seen != expected:
            failures.append(f"the CLI checked {len(seen)} cases, not the "
                            f"{len(expected)} expected ones")
        failures.extend(check_report(report, len(expected)))
        # a wrong report cannot be pinned on single cases: all of them fail
        failed = len(expected) if failures else 0
        return BatchResult(wall, clock.case_s, clock.probe_s, len(expected), failed, failures,
                           report)


def run_cli_timed(argv, checker: str, clock: CaseClock):
    """``richardson.cli.run(argv)`` with the clock wrapped around ``checker``
    where the CLI module calls it; returns (report, case keys, wall_s)."""
    cli = _module("cli")
    inner = getattr(cli, checker)
    seen = []

    def timed(*perms_):
        seen.append(tuple(str(p) for p in perms_))
        return clock.call(inner, *perms_)

    setattr(cli, checker, timed)
    out = io.StringIO()
    try:
        start = time.perf_counter()
        cli.run(argv, out)
        wall = time.perf_counter() - start
    finally:
        setattr(cli, checker, inner)
    return out.getvalue(), seen, wall


def check_report(report: str, cases: int) -> list[str]:
    """A verify report that passed on exactly the expected number of cases."""
    try:
        payload = json.loads(report)
    except ValueError:
        return [f"unparsable report {report[:200]!r}"]
    bad = []
    if payload.get("ok") is not True or payload.get("failures"):
        bad.append(f"report not ok: {payload.get('failures')!r:.500}")
    if payload.get("cases") != cases:
        bad.append(f"report has {payload.get('cases')} cases, expected {cases}")
    if payload.get("findings"):
        bad.append(f"unexpected findings: {payload['findings']!r:.500}")
    return bad


WORKLOADS = {w.name: w for w in (FixedPoints(), ProductIso(), KazhdanLusztig())}
