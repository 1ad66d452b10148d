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
  its default sample count, its case generator and its runner; it feeds
  the argument parser, case generation and dispatch alike.

Exit status: 0 when the command ran and, for verify, no law failed on the
cases checked; 1 when a law failed; 2 for a usage error (bad flags,
malformed or size-mismatched permutations, out of range ``--n``,
``--samples``, ``--trials``, ``--jobs``, ``--timeout`` (0..TIMEOUT_MAX s,
0 for no limit), ``--parabolic`` or ``--degree-bound``, ``smooth-table``
past its largest n, a fixed point off the variety), with a one-line
message; 3 when a verify run checked no case, because its cases timed
out or had nothing to check.  A timeout is recorded as a finding per
case.  Identical argument vectors and seeds produce byte-identical JSON.
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


@dataclasses.dataclass
class RunConfig:
    """Parsed flags."""

    subcommand: str
    check: str | None = None
    n: int | None = None
    u: str | None = None
    v: str | None = None
    w: str | None = None
    sigma: str | None = None
    parabolic: tuple[int, ...] = ()
    degree_bound: int = ORACLE_DEGREE
    trials: int = 5
    seed: int = 0
    exhaustive: bool = False
    samples: int | None = None
    jobs: int = 1
    timeout: float = 300.0
    output_format: str = "json"


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="richardson", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    inv = sub.add_parser("invariants", help="local invariants at a fixed point")
    inv.add_argument("--v", required=True)
    inv.add_argument("--w", required=True)
    inv.add_argument("--sigma", required=True)
    inv.add_argument("--parabolic", default="", help="comma-separated simple reflections")
    inv.add_argument("--degree-bound", type=int, default=ORACLE_DEGREE, dest="degree_bound",
                     help="truncation oracle degree bound D")
    inv.add_argument("--format", default="json", choices=("json", "text", "csv"))

    sw = sub.add_parser("sweep", help="generic chart matrix and its sweeps")
    sw.add_argument("--u", required=True)
    sw.add_argument("--format", default="json", choices=("json", "latex"))

    kl = sub.add_parser("klpoly", help="Kazhdan-Lusztig polynomial")
    kl.add_argument("--v", required=True)
    kl.add_argument("--w", required=True)
    kl.add_argument("--format", default="json", choices=("json", "text"))

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("check", choices=CHECKS)
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0)
    group = ver.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=int)
    ver.add_argument("--trials", type=int, default=5, help="point trials per pair (points only)")
    ver.add_argument("--degree-bound", type=int, default=ORACLE_DEGREE, dest="degree_bound",
                     help="truncation oracle degree bound D")
    ver.add_argument("--timeout", type=float, default=300.0, help="seconds per case (0: none)")
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--format", default="json", choices=("json", "text"))
    return p


class UsageError(Exception):
    """Arguments the commands cannot run on; reported as exit status 2."""


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for f in ("check", "n", "u", "v", "w", "sigma", "seed", "exhaustive", "samples", "jobs",
              "timeout", "trials", "degree_bound"):
        if hasattr(args, f) and getattr(args, f) is not None:
            setattr(cfg, f, getattr(args, f))
    if getattr(args, "parabolic", ""):
        try:
            cfg.parabolic = tuple(int(x) for x in args.parabolic.split(",") if x)
        except ValueError:
            raise UsageError(f"--parabolic {args.parabolic!r} is not a list of integers")
    cfg.output_format = getattr(args, "format", "json")
    return cfg


def _check_usage(cfg: RunConfig) -> None:
    """Raise UsageError for arguments no command accepts."""
    # oracle exponents up to the degree bound must fit the packed fields
    if cfg.subcommand in ("invariants", "verify") and not 0 <= cfg.degree_bound <= _FIELD_MAX:
        raise UsageError(f"--degree-bound must lie in 0..{_FIELD_MAX}, got {cfg.degree_bound}")
    if cfg.subcommand == "verify":
        # n, samples or trials below 1 would pass having checked nothing; jobs would name no worker
        for flag in ("n", "samples", "trials", "jobs"):
            value = getattr(cfg, flag)
            if value is not None and value < 1:
                raise UsageError(f"--{flag} must be at least 1, got {value}")
        if not 0 <= cfg.timeout <= TIMEOUT_MAX:  # nan too
            raise UsageError(f"--timeout must lie in 0..{TIMEOUT_MAX}, got {cfg.timeout}")
    if cfg.check == "smooth-table" and cfg.n > SMOOTH_TABLE_MAX_N:
        raise UsageError(f"smooth-table needs --n at most {SMOOTH_TABLE_MAX_N}, got {cfg.n}")
    perms = {}
    for flag in ("u", "v", "w", "sigma"):
        text = getattr(cfg, flag)
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
    bad = [j for j in cfg.parabolic if not 1 <= j < n]
    if bad:
        raise UsageError(f"--parabolic indices must lie in 1..{n - 1}, got {bad}")


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


def _pair_cases(cfg: RunConfig, k: int):
    pairs = _bruhat_pairs(cfg.n)
    if not cfg.exhaustive:
        rng = random.Random(cfg.seed)
        pairs = [pairs[rng.randrange(len(pairs))] for _ in range(k)]
    return [(str(v), str(w)) for (v, w) in pairs]


def _iso_cases(cfg: RunConfig, k: int):
    elems, pairs = Permutation.all(cfg.n), _bruhat_pairs(cfg.n)
    if cfg.exhaustive:
        triples = [(u, v, w) for u in elems for (v, w) in pairs]
    else:
        rng = random.Random(cfg.seed)
        triples = [
            (elems[rng.randrange(len(elems))],) + pairs[rng.randrange(len(pairs))]
            for _ in range(k)
        ]
    return [tuple(map(str, t)) for t in triples]


@dataclasses.dataclass(frozen=True)
class _Check:
    """One verify check: its default sample count, case keys and runner."""

    samples: int | None  # None: the check takes no samples
    cases: Callable[[RunConfig, int | None], list]  # (cfg, sample count) -> case keys
    run: Callable[..., VerificationReport]  # (cfg, *case key) -> report


_P = Permutation.from_string

# runners name the checkers through the module globals at call time, so a
# checker rebound on this module is the one that runs
CHECKS = {
    "product-iso": _Check(
        50, _iso_cases, lambda cfg, u, v, w: product_iso_report(_P(u), _P(v), _P(w))
    ),
    **{  # mult, hpoly, singlocus: one product law each
        spec.check: _Check(
            20,
            _pair_cases,
            lambda cfg, v, w, law=law: verify_factorization(_P(v), _P(w), law, cfg.degree_bound),
        )
        for law, spec in LAWS.items()
    },
    "points": _Check(
        20,
        _pair_cases,
        lambda cfg, v, w: verify_theorem_at_points(
            _P(v), _P(w), trials=cfg.trials, seed=cfg.seed, oracle=cfg.degree_bound
        ),
    ),
    "kl-vs-h": _Check(
        None,
        lambda cfg, k: [(str(w),) for w in Permutation.all(cfg.n) if is_covexillary(w)],
        lambda cfg, w: verify_kl_vs_h(_P(w), cfg.degree_bound),
    ),
    "smooth-table": _Check(
        None,
        lambda cfg, k: [("table", str(cfg.n))],
        lambda cfg, _, n: schubert_smoothness_table(
            cfg.n, full_scan=cfg.n <= 4, oracle=cfg.degree_bound
        ),
    ),
    "dimension": _Check(20, _pair_cases, lambda cfg, v, w: verify_dimension_law(_P(v), _P(w))),
}


def _verify_cases(cfg: RunConfig) -> list:
    """The sorted case keys of the requested check."""
    check = CHECKS[cfg.check]
    return sorted(check.cases(cfg, check.samples if cfg.samples is None else cfg.samples))


def _dispatch_case(job):
    """Run one case under the timeout: ("ok", report) or ("timeout", None).

    Module-level so that a worker pool can execute cases.
    """
    key, cfg = job
    try:
        return ("ok", _run_with_timeout(lambda: CHECKS[cfg.check].run(cfg, *key), cfg.timeout))
    except _CaseTimeout:
        return ("timeout", None)


def _pool_size(jobs: int, ncases: int) -> int:
    """Worker processes for a run: no more than cases or CPUs."""
    return min(jobs, ncases, os.cpu_count() or 1)


def _run_verify(cfg: RunConfig, out: io.TextIOBase) -> int:
    total = VerificationReport(
        check=cfg.check,
        params={
            "n": cfg.n,
            "seed": cfg.seed,
            "exhaustive": cfg.exhaustive,
            "samples": cfg.samples,
        },
    )
    keys = _verify_cases(cfg)
    jobs = [(key, cfg) for key in keys]
    workers = _pool_size(cfg.jobs, len(jobs))
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
    if cfg.output_format == "text":
        out.write(total.to_text() + "\n")
    else:
        out.write(total.to_json() + "\n")
    if nothing_checked:
        return 3
    return 0 if total.ok else 1


def _run_sweep(cfg: RunConfig, out: io.TextIOBase) -> int:
    u = Permutation.from_string(cfg.u)
    x = generic_matrix(u)
    up, down = sweep_images(u)
    if cfg.output_format == "latex":
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


def _run_klpoly(cfg: RunConfig, out: io.TextIOBase) -> int:
    v = Permutation.from_string(cfg.v)
    w = Permutation.from_string(cfg.w)
    kl = kl_polynomial(v, w)
    if cfg.output_format == "text":
        out.write(f"P[{v},{w}] = {kl}\n")
    else:
        payload = {"v": str(v), "w": str(w), "coefficients": list(kl.coefficients)}
        out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _run_invariants(cfg: RunConfig, out: io.TextIOBase) -> int:
    v = Permutation.from_string(cfg.v)
    w = Permutation.from_string(cfg.w)
    sigma = Permutation.from_string(cfg.sigma)
    try:
        if cfg.parabolic:
            inv = parabolic_invariants(v, w, sigma, set(cfg.parabolic), cfg.degree_bound)
        else:
            inv = richardson_invariants(v, w, sigma, cfg.degree_bound)
    except NotOnVariety as e:
        print(f"richardson: error: --sigma {sigma}: {e}", file=sys.stderr)
        return 2
    record = {"v": str(v), "w": str(w), "sigma": str(sigma)} | inv.to_json()
    if cfg.output_format == "csv":
        cols = ["v", "w", "sigma", "dimension", "tangent_dim", "smooth", "mult", "h_poly"]
        vals = [
            str(record[c]) if c != "h_poly" else ";".join(map(str, record[c]))
            for c in cols
        ]
        out.write(",".join(cols) + "\n" + ",".join(vals) + "\n")
    elif cfg.output_format == "text":
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
        cfg = _config_from_args(args)
        _check_usage(cfg)
    except UsageError as e:
        print(f"richardson: error: {e}", file=sys.stderr)
        return 2
    return _COMMANDS[cfg.subcommand](cfg, out)


def main() -> None:
    sys.exit(run(sys.argv[1:]))
