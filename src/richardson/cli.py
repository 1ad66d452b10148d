"""Batch command-line interface.

Subcommands:

* ``invariants --v V --w W --sigma S [--parabolic J]`` prints the local
  invariant record at a fixed point.
* ``sweep --u U [--format latex]`` prints the generic chart matrix and its
  two sweeps.
* ``klpoly --v V --w W`` prints a Kazhdan-Lusztig polynomial.
* ``verify {product-iso|mult|hpoly|singlocus|points|kl-vs-h|smooth-table|
  dimension} --n N [--seed S] [--exhaustive | --samples K]`` runs one check
  of the harness over its case list.  CHECKS holds every check once, with
  its default sample count (None for kl-vs-h and smooth-table, which take
  no samples), its largest n, its case generator and its runner; it feeds
  the argument parser, the usage check, case generation and dispatch
  alike.  The largest n is 7 for the checks that draw Bruhat pairs of S_n
  (PAIRS_MAX_N), 9 for kl-vs-h and 5 for smooth-table: past it the case
  list alone would not fit the time or memory of one run.  The pairs are
  counted and ranked, never listed (_BruhatPairs): S7's 3.55M in 0.6 s,
  S8's 170M in 9.4 s at 403 MB.  With ``--exhaustive`` every check has a
  second bound, checked before any pair is counted: 6 for the pair checks
  (PAIRS_EXHAUSTIVE_MAX_N), which then run all of S6's 98,407 pairs and
  not S7's 3.55M, and 5 for product-iso, which lists n! triples per pair
  (ISO_EXHAUSTIVE_MAX_N).

Every record a command prints or checks has passed the truncation oracle
at groebner.ORACLE_DEGREE; no flag changes that degree.

Exit status: 0 when the command ran and, for verify, no law failed on the
cases checked; 1 when a law failed; 2 for a usage error (bad flags,
malformed or size-mismatched permutations, out of range ``--n``,
``--samples``, ``--trials``, ``--jobs``, ``--timeout`` (0..TIMEOUT_MAX s,
0 for no limit) or ``--parabolic``, ``--n`` past the check's largest n,
or with ``--exhaustive`` past 6 for the pair checks and 5 for
product-iso, ``--samples`` for a check that takes none, ``--trials`` for
a check other than points, a fixed point off the variety), with a
one-line message; 3 when a verify run checked no case, because its cases
timed out or had nothing to check.  A timeout is recorded as a finding
per case.  Identical argument vectors and seeds produce byte-identical
JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import random
import signal
import sys
from bisect import bisect_right
from itertools import accumulate
from typing import Callable

from .charts import generic_matrix
from .invariants import NotOnVariety, parabolic_invariants, richardson_invariants
from .permutations import Permutation, is_covexillary, kl_polynomial
from .sweep import sweep_images
from .verify import (
    LAWS,
    SMOOTH_TABLE_MAX_N,
    VerificationReport,
    product_iso_report,
    schubert_smoothness_table,
    verify_dimension_law,
    verify_factorization,
    verify_kl_vs_h,
    verify_theorem_at_points,
)


TIMEOUT_MAX = 10**9  # seconds: setitimer takes it, also with a 32-bit time_t

POINT_TRIALS = 5  # sampled points per pair of verify points; no other check takes --trials


def _format_flag(cmd: argparse.ArgumentParser, *more: str) -> None:
    cmd.add_argument("--format", default="json", choices=("json", *more))


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="richardson", description=__doc__)
    # flags only some subcommands take; _check_usage reads them for all
    p.set_defaults(u=None, v=None, w=None, sigma=None, parabolic=None)
    sub = p.add_subparsers(dest="subcommand", required=True)

    inv = sub.add_parser("invariants", help="local invariants at a fixed point")
    inv.add_argument("--v", required=True)
    inv.add_argument("--w", required=True)
    inv.add_argument("--sigma", required=True)
    inv.add_argument("--parabolic", help="comma-separated simple reflections")
    _format_flag(inv, "text", "csv")

    sw = sub.add_parser("sweep", help="generic chart matrix and its sweeps")
    sw.add_argument("--u", required=True)
    _format_flag(sw, "latex")

    kl = sub.add_parser("klpoly", help="Kazhdan-Lusztig polynomial")
    kl.add_argument("--v", required=True)
    kl.add_argument("--w", required=True)
    _format_flag(kl, "text")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("check", choices=CHECKS)
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0)
    group = ver.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=int)
    ver.add_argument(
        "--trials", type=int, help=f"point trials per pair (points only, default {POINT_TRIALS})"
    )
    ver.add_argument("--timeout", type=float, default=300.0, help="seconds per case (0: none)")
    ver.add_argument("--jobs", type=int, default=1)
    _format_flag(ver, "text")
    return p


class UsageError(Exception):
    """Arguments the commands cannot run on; reported as exit status 2."""


def _check_usage(args: argparse.Namespace) -> None:
    """Raise UsageError for arguments no command accepts.

    The permutation flags are replaced by their Permutations and
    --parabolic by its tuple of indices, so no command parses them again.
    """
    if args.parabolic is not None:
        try:
            args.parabolic = tuple(int(x) for x in args.parabolic.split(",") if x)
        except ValueError:
            raise UsageError(f"--parabolic {args.parabolic!r} is not a list of integers")
    if args.subcommand == "verify":
        # n, samples or trials below 1 would pass having checked nothing; jobs would name no worker
        for flag in ("n", "samples", "trials", "jobs"):
            value = getattr(args, flag)
            if value is not None and value < 1:
                raise UsageError(f"--{flag} must be at least 1, got {value}")
        if not 0 <= args.timeout <= TIMEOUT_MAX:  # nan too
            raise UsageError(f"--timeout must lie in 0..{TIMEOUT_MAX}, got {args.timeout}")
        check = CHECKS[args.check]
        if args.n > check.max_n:
            raise UsageError(f"{args.check} needs --n at most {check.max_n}, got {args.n}")
        if check.samples is None and args.samples is not None:
            raise UsageError(f"{args.check} takes no samples, got --samples {args.samples}")
        if args.check != "points":
            if args.trials is not None:
                raise UsageError(f"{args.check} takes no trials, got --trials {args.trials}")
        elif args.trials is None:
            args.trials = POINT_TRIALS
        if args.exhaustive and args.n > check.exhaustive_max_n:
            raise UsageError(
                f"{args.check} --exhaustive needs --n at most {check.exhaustive_max_n}, got {args.n}"
            )
    perms = {}
    for flag in ("u", "v", "w", "sigma"):
        text = getattr(args, flag)
        if text is not None:
            try:
                perms[flag] = Permutation.from_string(text)
            except ValueError:
                raise UsageError(f"--{flag} {text!r} is not a permutation window")
    sizes = {p.n for p in perms.values()}
    if len(sizes) > 1:
        given = ", ".join(f"--{f} {p}" for f, p in perms.items())
        raise UsageError(f"size mismatch: {given}")
    n = min(sizes, default=0)
    bad = [j for j in args.parabolic or () if not 1 <= j < n]
    if bad:
        raise UsageError(f"--parabolic indices must lie in 1..{n - 1}, got {bad}")
    vars(args).update(perms)


class _CaseTimeout(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _CaseTimeout()


def _run_with_timeout(fn, timeout: float):
    """Run one case under the alarm, with no limit at timeout 0; raises _CaseTimeout on expiry.

    The SIGALRM handler that raises is installed once per run, by _run_verify.
    """
    if timeout <= 0 or not hasattr(signal, "setitimer"):
        return fn()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


class _BruhatPairs:
    """The pairs v <= w of S_n, v-major in window order, counted and ranked, never listed.

    Tableau criterion (Bjorner-Brenti, Thm 2.6.3): v <= w iff for every i
    and j, w(1..i) has at least as many values >= j as v(1..i).  The state
    (S, v[i:]) stands for the completions of a prefix of w whose value set
    is the bitmask S (bit x-1 for value x) and dominates v's first i values,
    the complement of v[i:].  Its memo entry holds its count and its
    children (x, count, children of the child) in ascending x, so pairs[k]
    is a bisection over the counts per v followed by one walk down the
    children, and iteration walks all of them depth first.
    """

    def __init__(self, n: int):
        self.n = n
        self.elems = Permutation.all(n)
        self._by_window = {p.window: p for p in self.elems}
        self._memo: dict = {}
        self._roots = [self._node(0, v.window) for v in self.elems]
        self._ends = list(accumulate(count for count, _ in self._roots))

    def _node(self, S: int, rest: tuple[int, ...]):
        node = self._memo.get((S, rest))
        if node is None:
            if not rest:
                node = (1, ())
            else:
                # adding x to S and y = rest[0] to v's prefix keeps the
                # domination iff S leads by one at every j in x+1..y: iff x
                # is at least the largest j <= y where S does not lead
                prefix = (1 << self.n) - 1 - sum(1 << (z - 1) for z in rest)
                lo = rest[0]
                while (S >> (lo - 1)).bit_count() > (prefix >> (lo - 1)).bit_count():
                    lo -= 1
                children = tuple(
                    (x, *self._node(S | 1 << (x - 1), rest[1:]))
                    for x in range(lo, self.n + 1)
                    if not S >> (x - 1) & 1
                )
                node = (sum(count for _, count, _ in children), children)
            self._memo[(S, rest)] = node
        return node

    def __len__(self) -> int:
        return self._ends[-1]

    def __getitem__(self, k: int):
        """The k-th pair of the v-major list."""
        i = bisect_right(self._ends, k)
        k -= self._ends[i - 1] if i else 0
        children, w = self._roots[i][1], []
        while children:
            for x, count, below in children:
                if k < count:
                    break
                k -= count
            children = below
            w.append(x)
        return self.elems[i], self._by_window[tuple(w)]

    def __iter__(self):
        for v, (_, children) in zip(self.elems, self._roots):
            for w in self._walk(children, ()):
                yield v, self._by_window[w]

    def _walk(self, children, w: tuple[int, ...]):
        if not children:
            yield w
        for x, _, below in children:
            yield from self._walk(below, w + (x,))


def _pair_cases(args: argparse.Namespace, k: int):
    pairs = _BruhatPairs(args.n)
    if args.exhaustive:
        return list(pairs)
    # the pairs' order is the key order, so sorted draws give sorted keys
    rng = random.Random(args.seed)
    return [pairs[j] for j in sorted(rng.randrange(len(pairs)) for _ in range(k))]


def _iso_cases(args: argparse.Namespace, k: int):
    pairs = _BruhatPairs(args.n)
    elems = pairs.elems
    if args.exhaustive:
        listed = list(pairs)
        return [(u, v, w) for u in elems for (v, w) in listed]
    rng = random.Random(args.seed)
    draws = sorted((rng.randrange(len(elems)), rng.randrange(len(pairs))) for _ in range(k))
    return [(elems[i],) + pairs[j] for i, j in draws]


@dataclasses.dataclass(frozen=True)
class _Check:
    """One verify check: its default sample count, largest --n with and without
    --exhaustive, case keys and runner."""

    samples: int | None  # None: the check takes no samples
    max_n: int
    exhaustive_max_n: int
    # (args, sample count) -> case keys in ascending order, each the runner's arguments
    cases: Callable[[argparse.Namespace, int | None], list]
    run: Callable[..., VerificationReport]  # (args, *case key) -> report


# counting the pairs of S_n takes S7's 3.55M 0.6 s at 52 MB, but S8's 170M
# 9.4 s at 403 MB before the first case
PAIRS_MAX_N = 7

# exhaustive product-iso lists n! triples per pair: S5's 453,720 take 0.7 s
# and 80 MB to list, S6's 70.9M would not fit in memory
ISO_EXHAUSTIVE_MAX_N = 5

# the other pair checks run every pair exhaustively: S6's 98,407, not S7's 3.55M
PAIRS_EXHAUSTIVE_MAX_N = 6

# runners name the checkers through the module globals at call time, so a
# checker rebound on this module is the one that runs
CHECKS = {
    "product-iso": _Check(
        50, PAIRS_MAX_N, ISO_EXHAUSTIVE_MAX_N, _iso_cases,
        lambda args, u, v, w: product_iso_report(u, v, w),
    ),
    **{  # mult, hpoly, singlocus: one product law each
        spec.check: _Check(
            20,
            PAIRS_MAX_N,
            PAIRS_EXHAUSTIVE_MAX_N,
            _pair_cases,
            lambda args, v, w, law=law: verify_factorization(v, w, law),
        )
        for law, spec in LAWS.items()
    },
    "points": _Check(
        20,
        PAIRS_MAX_N,
        PAIRS_EXHAUSTIVE_MAX_N,
        _pair_cases,
        lambda args, v, w: verify_theorem_at_points(v, w, trials=args.trials, seed=args.seed),
    ),
    "kl-vs-h": _Check(
        None,
        9,  # the case list filters S_n alone: 61 s at S9
        9,  # every run is exhaustive
        lambda args, k: [(w,) for w in Permutation.all(args.n) if is_covexillary(w)],
        lambda args, w: verify_kl_vs_h(w),
    ),
    "smooth-table": _Check(
        None,
        SMOOTH_TABLE_MAX_N,
        SMOOTH_TABLE_MAX_N,
        lambda args, k: [("table", str(args.n))],
        lambda args, _, n: schubert_smoothness_table(args.n, full_scan=args.n <= 4),
    ),
    "dimension": _Check(
        20, PAIRS_MAX_N, PAIRS_EXHAUSTIVE_MAX_N, _pair_cases,
        lambda args, v, w: verify_dimension_law(v, w),
    ),
}


def _verify_cases(args: argparse.Namespace) -> list:
    """The case keys of the requested check, in ascending order."""
    check = CHECKS[args.check]
    return check.cases(args, check.samples if args.samples is None else args.samples)


def _dispatch_case(job):
    """Run one case under the timeout: ("ok", report) or ("timeout", None).

    Module-level so that a worker pool can execute cases.
    """
    key, args = job
    try:
        return ("ok", _run_with_timeout(lambda: CHECKS[args.check].run(args, *key), args.timeout))
    except _CaseTimeout:
        return ("timeout", None)


def _pool_size(jobs: int, ncases: int) -> int:
    """Worker processes for a run: no more than cases or the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, ncases, cpus)


def _run_verify(args: argparse.Namespace, out: io.TextIOBase) -> int:
    total = VerificationReport(
        check=args.check,
        params={
            "n": args.n,
            "seed": args.seed,
            "exhaustive": args.exhaustive,
            "samples": args.samples,
        },
    )
    keys = _verify_cases(args)
    jobs = [(key, args) for key in keys]
    workers = _pool_size(args.jobs, len(jobs))
    # one handler for the whole run, inherited by forked workers
    alarm = args.timeout > 0 and hasattr(signal, "setitimer")
    previous = signal.signal(signal.SIGALRM, _raise_timeout) if alarm else None
    try:
        if workers > 1:
            # case order, not completion order, fixes the output
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=workers) as pool:
                outcomes = list(pool.imap(_dispatch_case, jobs))
        else:
            outcomes = [_dispatch_case(job) for job in jobs]
    finally:
        if alarm:
            signal.signal(signal.SIGALRM, previous)
    timeouts = 0
    for key, (status, rep) in zip(keys, outcomes):
        if status == "timeout":
            timeouts += 1
            total.findings.append({"kind": "timeout", "case": [str(p) for p in key]})
        else:
            total.merge(rep)
    # a run that checked nothing must not pass, whether its cases timed out
    # or none of them had anything to check
    nothing_checked = total.cases == 0
    if nothing_checked:
        if timeouts:
            total.failures.append({"kind": "all-cases-timed-out", "timeouts": timeouts})
        else:
            total.failures.append({"kind": "no-cases-checked"})
    if args.format == "text":
        out.write(total.to_text() + "\n")
    else:
        out.write(total.to_json() + "\n")
    if nothing_checked:
        return 3
    return 0 if total.ok else 1


def _run_sweep(args: argparse.Namespace, out: io.TextIOBase) -> int:
    u = args.u
    x = generic_matrix(u)
    up, down = sweep_images(u)
    if args.format == "latex":
        out.write("x =\n" + x.to_latex() + "\n")
        out.write("eta1(x) =\n" + up.to_latex() + "\n")
        out.write("eta2(x) =\n" + down.to_latex() + "\n")
    else:
        payload = {
            "u": str(u),
            "x": x.to_strings(),
            "eta1": up.to_strings(),
            "eta2": down.to_strings(),
        }
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _run_klpoly(args: argparse.Namespace, out: io.TextIOBase) -> int:
    v, w = args.v, args.w
    kl = kl_polynomial(v, w)
    if args.format == "text":
        out.write(f"P[{v},{w}] = {kl}\n")
    else:
        payload = {"v": str(v), "w": str(w), "coefficients": list(kl.coefficients)}
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _run_invariants(args: argparse.Namespace, out: io.TextIOBase) -> int:
    v, w, sigma = args.v, args.w, args.sigma
    try:
        if args.parabolic:
            inv = parabolic_invariants(v, w, sigma, set(args.parabolic))
        else:
            inv = richardson_invariants(v, w, sigma)
    except NotOnVariety as e:
        print(f"richardson: error: --sigma {sigma}: {e}", file=sys.stderr)
        return 2
    record = {"v": str(v), "w": str(w), "sigma": str(sigma)} | inv.to_json()
    if args.format == "csv":
        cols = ["v", "w", "sigma", "dimension", "tangent_dim", "smooth", "mult", "h_poly"]
        vals = [
            str(record[c]) if c != "h_poly" else ";".join(map(str, record[c]))
            for c in cols
        ]
        out.write(",".join(cols) + "\n" + ",".join(vals) + "\n")
    elif args.format == "text":
        for k in ("v", "w", "sigma", "dimension", "tangent_dim", "smooth", "mult"):
            out.write(f"{k}: {record[k]}\n")
        out.write(f"h_poly: {inv.h_polynomial}\n")
    else:
        out.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


_COMMANDS = {
    "invariants": _run_invariants,
    "sweep": _run_sweep,
    "klpoly": _run_klpoly,
    "verify": _run_verify,
}


def run(argv, out: io.TextIOBase | None = None) -> int:
    """Entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _check_usage(args)
    except UsageError as e:
        print(f"richardson: error: {e}", file=sys.stderr)
        return 2
    return _COMMANDS[args.subcommand](args, out)


def main() -> None:
    sys.exit(run(sys.argv[1:]))
