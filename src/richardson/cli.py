"""Batch command-line interface.

Subcommands:

* ``invariants --v V --w W --sigma S [--parabolic J]`` prints the local
  invariant record at a fixed point.
* ``sweep --u U [--format latex]`` prints the generic chart matrix and its
  two sweeps.
* ``klpoly --v V --w W`` prints a Kazhdan-Lusztig polynomial.
* ``verify {product-iso|mult|hpoly|singlocus|points|kl-vs-h|smooth-table|
  dimension} --n N [--seed S] [--exhaustive | --samples K]`` runs the
  harness; the exit status is 0 exactly when no failures occurred.

Usage errors (bad flags, malformed or size-mismatched permutations, out of
range ``--n``, ``--samples``, ``--parabolic`` or ``--degree-bound``, a
fixed point off the variety) exit 2 with a one-line message.  Identical
argument vectors and seeds produce byte-identical JSON output; timeouts are
recorded as findings and never affect the exit status.
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

from .groebner import _FIELD_MAX
from .invariants import NotOnVariety, parabolic_invariants, richardson_invariants
from .permutations import Permutation, bruhat_leq, is_covexillary
from .sweep import sweep_images
from .charts import generic_matrix
from .verify import (
    VerificationReport,
    product_iso_report,
    schubert_smoothness_table,
    verify_dimension_law,
    verify_hpoly_factorization,
    verify_kl_vs_h,
    verify_mult_factorization,
    verify_singular_locus,
    verify_theorem_at_points,
)
from .permutations import kl_polynomial

VERIFY_CHECKS = (
    "product-iso",
    "mult",
    "hpoly",
    "singlocus",
    "points",
    "kl-vs-h",
    "smooth-table",
    "dimension",
)


@dataclasses.dataclass
class RunConfig:
    """Parsed flags; round-trips through JSON for reproducibility."""

    subcommand: str
    check: str | None = None
    n: int | None = None
    u: str | None = None
    v: str | None = None
    w: str | None = None
    sigma: str | None = None
    parabolic: tuple[int, ...] = ()
    degree_bound: int = 6
    trials: int = 5
    seed: int = 0
    exhaustive: bool = False
    samples: int | None = None
    jobs: int = 1
    timeout: float = 300.0
    output_format: str = "json"

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        d["parabolic"] = list(self.parabolic)
        return json.dumps(d, sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "RunConfig":
        d = json.loads(s)
        d["parabolic"] = tuple(d.get("parabolic", ()))
        return RunConfig(**d)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="richardson", description=__doc__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    inv = sub.add_parser("invariants", help="local invariants at a fixed point")
    inv.add_argument("--v", required=True)
    inv.add_argument("--w", required=True)
    inv.add_argument("--sigma", required=True)
    inv.add_argument("--parabolic", default="", help="comma-separated simple reflections")
    inv.add_argument("--degree-bound", type=int, default=6, dest="degree_bound",
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
    ver.add_argument("check", choices=VERIFY_CHECKS)
    ver.add_argument("--n", type=int, required=True)
    ver.add_argument("--seed", type=int, default=0)
    group = ver.add_mutually_exclusive_group()
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=int)
    ver.add_argument("--trials", type=int, default=5, help="point trials per pair (points only)")
    ver.add_argument("--degree-bound", type=int, default=6, dest="degree_bound",
                     help="truncation oracle degree bound D")
    ver.add_argument("--timeout", type=float, default=300.0, help="seconds per case")
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--format", default="json", choices=("json", "text"))
    return p


class UsageError(Exception):
    """Arguments the commands cannot run on; reported as exit status 2."""


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(subcommand=args.subcommand)
    for f in ("check", "n", "u", "v", "w", "sigma", "seed", "exhaustive", "jobs",
              "timeout", "trials", "degree_bound"):
        if hasattr(args, f) and getattr(args, f) is not None:
            setattr(cfg, f, getattr(args, f))
    if getattr(args, "samples", None) is not None:
        cfg.samples = args.samples
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
    if cfg.subcommand == "verify" and cfg.n < 1:
        raise UsageError(f"--n must be at least 1, got {cfg.n}")
    # a run that samples nothing would pass having checked nothing
    if cfg.subcommand == "verify" and cfg.samples is not None and cfg.samples < 1:
        raise UsageError(f"--samples must be at least 1, got {cfg.samples}")
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
    """Run one case under SIGALRM; raises _CaseTimeout on expiry."""
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


def _sampled_pairs(n: int, k: int, seed: int):
    pairs = _bruhat_pairs(n)
    rng = random.Random(seed)
    return [pairs[rng.randrange(len(pairs))] for _ in range(k)]


def _verify_cases(cfg: RunConfig):
    """(case key, picklable case spec) list for the requested suite."""
    n = cfg.n
    check = cfg.check
    cases = []
    if check == "smooth-table":
        cases.append((("table", str(n)), ("smooth-table", n)))
        return cases
    if check == "kl-vs-h":
        for w in Permutation.all(n):
            if is_covexillary(w):
                cases.append(((str(w),), ("kl-vs-h", str(w))))
        return cases
    if check == "product-iso":
        if cfg.exhaustive:
            triples = [
                (u, v, w)
                for u in Permutation.all(n)
                for (v, w) in _bruhat_pairs(n)
            ]
        else:
            k = cfg.samples if cfg.samples is not None else 50
            rng = random.Random(cfg.seed)
            pairs = _bruhat_pairs(n)
            elems = Permutation.all(n)
            triples = [
                (elems[rng.randrange(len(elems))],) + pairs[rng.randrange(len(pairs))]
                for _ in range(k)
            ]
        for (u, v, w) in triples:
            cases.append(
                ((str(u), str(v), str(w)), ("product-iso", str(u), str(v), str(w)))
            )
        return cases
    # pairwise checks
    if cfg.exhaustive:
        pairs = _bruhat_pairs(n)
    else:
        k = cfg.samples if cfg.samples is not None else 20
        pairs = _sampled_pairs(n, k, cfg.seed)
    if check not in ("mult", "hpoly", "singlocus", "dimension", "points"):
        raise ValueError(f"unknown check {check!r}")
    for (v, w) in pairs:
        cases.append(((str(v), str(w)), (check, str(v), str(w), cfg.trials, cfg.seed)))
    return cases


def _dispatch_case(job):
    """Run one picklable case spec under its timeout.

    Returns ("ok", report) or ("timeout", None); module-level so a worker
    pool can execute cases.
    """
    spec, timeout = job
    kind = spec[0]

    def go():
        if kind == "smooth-table":
            n = spec[1]
            return schubert_smoothness_table(n, full_scan=n <= 4)
        if kind == "kl-vs-h":
            return verify_kl_vs_h(Permutation.from_string(spec[1]))
        if kind == "product-iso":
            u, v, w = (Permutation.from_string(s) for s in spec[1:])
            return product_iso_report(u, v, w)
        v = Permutation.from_string(spec[1])
        w = Permutation.from_string(spec[2])
        if kind == "mult":
            return verify_mult_factorization(v, w)
        if kind == "hpoly":
            return verify_hpoly_factorization(v, w)
        if kind == "singlocus":
            return verify_singular_locus(v, w)
        if kind == "dimension":
            return verify_dimension_law(v, w)
        return verify_theorem_at_points(v, w, trials=spec[3], seed=spec[4])

    try:
        return ("ok", _run_with_timeout(go, timeout))
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
    cases = _verify_cases(cfg)
    cases.sort(key=lambda c: c[0])
    jobs = [(spec, cfg.timeout) for _, spec in cases]
    workers = _pool_size(cfg.jobs, len(jobs))
    if workers > 1:
        # case order, not completion order, fixes the output
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            outcomes = list(pool.imap(_dispatch_case, jobs))
    else:
        outcomes = [_dispatch_case(job) for job in jobs]
    for (key, _), (status, rep) in zip(cases, outcomes):
        if status == "timeout":
            total.findings.append({"kind": "timeout", "case": list(key)})
        else:
            total.merge(rep)
    if cfg.output_format == "text":
        out.write(total.to_text() + "\n")
    else:
        out.write(total.to_json() + "\n")
    return 0 if total.ok else 1


def _matrices_payload(u: Permutation):
    x = generic_matrix(u)
    up, down = sweep_images(u)
    return x, up, down


def run(argv, out: io.TextIOBase | None = None) -> int:
    """Entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = _config_from_args(args)
        _check_usage(cfg)
    except UsageError as e:
        print(f"richardson: error: {e}", file=sys.stderr)
        return 2
    import richardson.invariants as _rinv

    _rinv.ORACLE_DEGREE_DEFAULT = cfg.degree_bound

    if cfg.subcommand == "sweep":
        u = Permutation.from_string(cfg.u)
        x, up, down = _matrices_payload(u)
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

    if cfg.subcommand == "klpoly":
        v = Permutation.from_string(cfg.v)
        w = Permutation.from_string(cfg.w)
        kl = kl_polynomial(v, w)
        if cfg.output_format == "text":
            out.write(f"P[{v},{w}] = {kl}\n")
        else:
            payload = {"v": str(v), "w": str(w), "coefficients": list(kl.coefficients)}
            out.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return 0

    if cfg.subcommand == "invariants":
        v = Permutation.from_string(cfg.v)
        w = Permutation.from_string(cfg.w)
        sigma = Permutation.from_string(cfg.sigma)
        try:
            if cfg.parabolic:
                inv = parabolic_invariants(v, w, sigma, set(cfg.parabolic))
            else:
                inv = richardson_invariants(v, w, sigma)
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

    if cfg.subcommand == "verify":
        return _run_verify(cfg, out)

    parser.error(f"unknown subcommand {cfg.subcommand!r}")
    return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
