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
  alike.  The largest n is 7 for the checks that list the Bruhat pairs of
  S_n (PAIRS_MAX_N), 9 for kl-vs-h and 5 for smooth-table: past it the
  case list alone would not fit the time or memory of one run.
  ``product-iso --exhaustive`` lists n! triples per pair, so it stops at
  n = 5 (ISO_EXHAUSTIVE_MAX_N).

Exit status: 0 when the command ran and, for verify, no law failed on the
cases checked; 1 when a law failed; 2 for a usage error (bad flags,
malformed or size-mismatched permutations, out of range ``--n``,
``--samples``, ``--trials``, ``--jobs``, ``--timeout`` (0..TIMEOUT_MAX s,
0 for no limit), ``--parabolic`` or ``--degree-bound``, ``--n`` past the
check's largest n or past 5 for ``product-iso --exhaustive``, ``--samples``
for a check that takes none, a fixed point off the variety), with a
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
from typing import Callable

from .charts import generic_matrix
from .invariants import ORACLE_DEGREE, NotOnVariety, parabolic_invariants, richardson_invariants
from .permutations import Permutation, bruhat_leq, is_covexillary, kl_polynomial
from .poly import _FIELD_MAX
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


def _format_flag(cmd: argparse.ArgumentParser, *more: str) -> None:
    cmd.add_argument("--format", default="json", choices=("json", *more))


def _degree_bound_flag(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--degree-bound", type=int, default=ORACLE_DEGREE, dest="degree_bound",
                     help="truncation oracle degree bound D")


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
    _degree_bound_flag(inv)
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
    ver.add_argument("--trials", type=int, default=5, help="point trials per pair (points only)")
    _degree_bound_flag(ver)
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
    # oracle exponents up to the degree bound must fit the packed fields
    if args.subcommand in ("invariants", "verify") and not 0 <= args.degree_bound <= _FIELD_MAX:
        raise UsageError(f"--degree-bound must lie in 0..{_FIELD_MAX}, got {args.degree_bound}")
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
        if args.check == "product-iso" and args.exhaustive and args.n > ISO_EXHAUSTIVE_MAX_N:
            raise UsageError(
                f"product-iso --exhaustive needs --n at most {ISO_EXHAUSTIVE_MAX_N}, got {args.n}"
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


def _run_with_timeout(fn, timeout: float):
    """Run one case under SIGALRM, with no limit at timeout 0; raises _CaseTimeout on expiry."""
    if timeout <= 0 or not hasattr(signal, "setitimer"):
        return fn()

    def handler(signum, frame):
        raise _CaseTimeout()

    old = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _bruhat_pairs(n: int):
    elems = Permutation.all(n)
    return [(v, w) for v in elems for w in elems if bruhat_leq(v, w)]


def _pair_cases(args: argparse.Namespace, k: int):
    pairs = _bruhat_pairs(args.n)
    if not args.exhaustive:
        rng = random.Random(args.seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(k)]
    return [(str(v), str(w)) for (v, w) in pairs]


def _iso_cases(args: argparse.Namespace, k: int):
    elems, pairs = Permutation.all(args.n), _bruhat_pairs(args.n)
    if args.exhaustive:
        triples = [(u, v, w) for u in elems for (v, w) in pairs]
    else:
        rng = random.Random(args.seed)
        triples = [
            (elems[rng.randrange(len(elems))],) + pairs[rng.randrange(len(pairs))]
            for _ in range(k)
        ]
    return [tuple(map(str, t)) for t in triples]


@dataclasses.dataclass(frozen=True)
class _Check:
    """One verify check: its default sample count, largest --n, case keys and runner."""

    samples: int | None  # None: the check takes no samples
    max_n: int
    cases: Callable[[argparse.Namespace, int | None], list]  # (args, sample count) -> case keys
    run: Callable[..., VerificationReport]  # (args, *case key) -> report


_P = Permutation.from_string

# the pair list of S_n takes n!^2 Bruhat tests: S7's 3.55M pairs take 20 s
# and 263 MB, while S8's list was still growing after 30 s, at 607 MB
PAIRS_MAX_N = 7

# exhaustive product-iso lists n! triples per pair: S5's 453,720 take 0.7 s
# and 80 MB to list, S6's 70.9M would not fit in memory
ISO_EXHAUSTIVE_MAX_N = 5

# runners name the checkers through the module globals at call time, so a
# checker rebound on this module is the one that runs
CHECKS = {
    "product-iso": _Check(
        50, PAIRS_MAX_N, _iso_cases,
        lambda args, u, v, w: product_iso_report(_P(u), _P(v), _P(w)),
    ),
    **{  # mult, hpoly, singlocus: one product law each
        spec.check: _Check(
            20,
            PAIRS_MAX_N,
            _pair_cases,
            lambda args, v, w, law=law: verify_factorization(_P(v), _P(w), law, args.degree_bound),
        )
        for law, spec in LAWS.items()
    },
    "points": _Check(
        20,
        PAIRS_MAX_N,
        _pair_cases,
        lambda args, v, w: verify_theorem_at_points(
            _P(v), _P(w), trials=args.trials, seed=args.seed, oracle=args.degree_bound
        ),
    ),
    "kl-vs-h": _Check(
        None,
        9,  # the case list filters S_n alone: 61 s at S9
        lambda args, k: [(str(w),) for w in Permutation.all(args.n) if is_covexillary(w)],
        lambda args, w: verify_kl_vs_h(_P(w), args.degree_bound),
    ),
    "smooth-table": _Check(
        None,
        SMOOTH_TABLE_MAX_N,
        lambda args, k: [("table", str(args.n))],
        lambda args, _, n: schubert_smoothness_table(
            args.n, full_scan=args.n <= 4, oracle=args.degree_bound
        ),
    ),
    "dimension": _Check(
        20, PAIRS_MAX_N, _pair_cases, lambda args, v, w: verify_dimension_law(_P(v), _P(w))
    ),
}


def _verify_cases(args: argparse.Namespace) -> list:
    """The sorted case keys of the requested check."""
    check = CHECKS[args.check]
    return sorted(check.cases(args, check.samples if args.samples is None else args.samples))


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
    """Worker processes for a run: no more than cases or CPUs."""
    return min(jobs, ncases, os.cpu_count() or 1)


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
    if workers > 1:
        # case order, not completion order, fixes the output
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            outcomes = list(pool.imap(_dispatch_case, jobs))
    else:
        outcomes = [_dispatch_case(job) for job in jobs]
    timeouts = 0
    for key, (status, rep) in zip(keys, outcomes):
        if status == "timeout":
            timeouts += 1
            total.findings.append({"kind": "timeout", "case": list(key)})
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
            inv = parabolic_invariants(v, w, sigma, set(args.parabolic), args.degree_bound)
        else:
            inv = richardson_invariants(v, w, sigma, args.degree_bound)
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
