"""Machine verification of the product laws for local invariants.

The local ring of X_w^v = X_w meet X^v at a point factors into those of
X_w and X^v, so three invariants obey a product law: smoothness is a
conjunction, the multiplicity a product and the H-polynomial a product.
LAWS states the three once.  verify_factorization checks one of them at
every torus-fixed point of [v, w]; verify_theorem_at_points checks them at
sampled points that are not fixed.  The other checkers cover the product
isomorphism at ideal level, the dimension law, the Kazhdan-Lusztig bound
and the smoothness table.  Every record a checker reads has passed the
truncation oracle at ORACLE_DEGREE and the Bruhat check (invariants);
the records at sampled points come from invariants._point_invariants.

Every checker returns a :class:`VerificationReport`; a report with no
failures means the law held on the whole stated range.  Findings collect
non-failing observations: positivity evidence for H-polynomial
coefficients, sampling shortfalls, and timeouts.  Reports are
deterministic for a fixed range and seed, and their JSON form excludes
wall time so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from operator import attrgetter, mul
from typing import Callable

from .charts import (
    _opposite_conditions,
    _schubert_conditions,
    _unit_minor,
    chart,
    generic_matrix,
    opposite_minors,
    richardson_ideal_in_chart,
    sample_richardson_point,
    schubert_minors,
)
from .groebner import (
    IdealGens,
    _q_coeffs,
    all_in_ideal,
    buchberger,
    ideal_equal,
    krull_dimension,
    solve_linear_variables,
)
from .invariants import (
    LocalInvariants,
    _point_invariants,
    richardson_invariants,
    opposite_invariants,
    schubert_invariants,
)
from .permutations import (
    Permutation,
    bruhat_interval,
    bruhat_leq,
    contains_pattern,
    is_covexillary,
    kl_polynomial,
)
from .sweep import sweep_images


@dataclass
class VerificationReport:
    """Outcome of one verification run over a stated parameter range."""

    check: str
    params: dict
    cases: int = 0
    failures: list = field(default_factory=list)
    findings: list = field(default_factory=list)
    wall_time: float | None = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def merge(self, other: "VerificationReport") -> None:
        self.cases += other.cases
        self.failures.extend(other.failures)
        self.findings.extend(other.findings)
        if other.wall_time:
            self.wall_time = (self.wall_time or 0.0) + other.wall_time

    def to_json(self) -> str:
        # wall time is deliberately left out: reports must be byte-identical
        payload = {
            "check": self.check,
            "params": self.params,
            "cases": self.cases,
            "failures": self.failures,
            "findings": self.findings,
            "ok": self.ok,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_text(self) -> str:
        lines = [
            f"check: {self.check}",
            f"params: {json.dumps(self.params, sort_keys=True)}",
            f"cases: {self.cases}",
            f"failures: {len(self.failures)}",
            f"findings: {len(self.findings)}",
        ]
        for f in self.failures:
            lines.append(f"  FAIL {json.dumps(f, sort_keys=True)}")
        for f in self.findings:
            lines.append(f"  note {json.dumps(f, sort_keys=True)}")
        if self.wall_time is not None:
            lines.append(f"wall time: {self.wall_time:.3f}s")
        lines.append("status: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _timed(report: VerificationReport, start: float) -> VerificationReport:
    report.wall_time = time.monotonic() - start
    return report


# ---------------------------------------------------------------------------
# The product isomorphism at ideal level
# ---------------------------------------------------------------------------


def pullback_ideal(u: Permutation, v: Permutation, w: Permutation) -> IdealGens:
    """Rank conditions of w on eta1(x) plus those of v on eta2(x).

    This is the pullback along the sweeping pair of the defining ideal of
    the product (chart of u) meet X_w  x  (chart of u) meet X^v.
    """
    up, down = sweep_images(u)
    return IdealGens(up.ctx, schubert_minors(up, w) + opposite_minors(down, v))


def _minor_sides(u: Permutation, v: Permutation, w: Permutation):
    """(pullback side, Richardson side): (matrix, (rows, cols) or None)
    pairs, the unit minor a condition of w failing at u locates on eta1(x)
    and x, and the one a condition of v failing at u locates on eta2(x)
    and x."""
    up, down = sweep_images(u)
    x = generic_matrix(u)
    above = _unit_minor(_schubert_conditions(w), u)
    below = _unit_minor(_opposite_conditions(v), u)
    return ((up, above), (down, below)), ((x, above), (x, below))


def _constant_minor(side) -> bool:
    """Whether a located minor of the side, computed from its matrix, is a
    nonzero constant."""
    for matrix, at in side:
        if at is not None:
            g = matrix.minor(*at)
            if g.terms and g.is_constant():  # the zero polynomial is constant too
                return True
    return False


def product_iso_report(u: Permutation, v: Permutation, w: Permutation) -> VerificationReport:
    """Ideal equality of the sweep pullback with the Richardson chart ideal.

    Off [v, w] the chart of u misses X_w^v, and Bruhat order locates one
    generator of each ideal that should be a unit: if u is not below w,
    some essential rank condition (i, j, b) of w fails at u, so b+1
    columns k <= j have u(k) >= i, and the (b+1)-minor on the rows u(k)
    and those columns k is one of w's generators.  Each row u(k) of a
    chart-form matrix, x, eta1(x) or eta2(x), has its 1 in column k and
    zeros right of it, so that submatrix is unitriangular up to row order
    and the minor is +-1; dually for v not below u.  The minor is still
    computed from each side's own matrix, and when both sides have a
    nonzero constant c the case passes: c lies in the ideal, so does 1 =
    c^-1 * c, and both ideals are the whole ring.  Otherwise both ideals
    are built, and the case passes when ideal_equal proves it: both
    reduced bases are equal, and every generator of both ideals reduces to
    zero against that basis.  Only a failing case runs the containment
    tests of each side against the other's basis, for its report.
    """
    if not (u.n == v.n == w.n):
        raise ValueError("size mismatch")
    start = time.monotonic()
    report = VerificationReport(
        check="product-iso",
        params={"n": u.n, "u": str(u), "v": str(v), "w": str(w)},
    )
    report.cases = 1
    pull_side, rich_side = _minor_sides(u, v, w)
    if _constant_minor(pull_side) and _constant_minor(rich_side):
        return _timed(report, start)
    pull = pullback_ideal(u, v, w)
    rich = richardson_ideal_in_chart(v, w, u)
    if not ideal_equal(pull, rich):
        gp = buchberger(pull)
        gr = buchberger(rich)
        report.failures.append(
            {
                "case": {"u": str(u), "v": str(v), "w": str(w)},
                "pullback_in_richardson": all_in_ideal(pull.generators, gr),
                "richardson_in_pullback": all_in_ideal(rich.generators, gp),
                "pullback_basis": [str(g) for g in gp.basis],
                "richardson_basis": [str(g) for g in gr.basis],
            }
        )
    return _timed(report, start)


def verify_product_iso(u: Permutation, v: Permutation, w: Permutation) -> bool:
    return product_iso_report(u, v, w).ok


# ---------------------------------------------------------------------------
# The product laws, at fixed points and at sampled points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Law:
    """One product law: the value a record carries and how factors combine."""

    check: str  # name of the fixed-point check
    read: Callable[[LocalInvariants], object]
    combine: Callable[[object, object], object]  # (Schubert, opposite) -> Richardson
    show: Callable[[object], object] = lambda value: value  # JSON form


LAWS = {
    "mult": Law("mult", attrgetter("multiplicity"), mul),
    "h": Law("hpoly", attrgetter("h_polynomial"), mul, _q_coeffs),
    "smooth": Law("singlocus", attrgetter("smooth"), lambda a, b: a and b),
}


def verify_factorization(v: Permutation, w: Permutation, law: str) -> VerificationReport:
    """LAWS[law] for X_w^v = X_w meet X^v at every fixed point sigma in [v, w]."""
    start = time.monotonic()
    spec = LAWS[law]
    report = VerificationReport(check=spec.check, params={"n": v.n, "v": str(v), "w": str(w)})
    for sigma in bruhat_interval(v, w):
        report.cases += 1
        case = {"v": str(v), "w": str(w), "sigma": str(sigma)}
        rich, schub, opp = (
            spec.read(record)
            for record in (
                richardson_invariants(v, w, sigma),
                schubert_invariants(w, sigma),
                opposite_invariants(v, sigma),
            )
        )
        if rich != spec.combine(schub, opp):
            report.failures.append(
                {
                    "case": case,
                    f"richardson_{law}": spec.show(rich),
                    f"schubert_{law}": spec.show(schub),
                    f"opposite_{law}": spec.show(opp),
                }
            )
        if law == "h" and min(spec.show(rich)) < 0:
            report.findings.append(
                {"kind": "negative-h-coefficient", "case": case, "h": spec.show(rich)}
            )
    return _timed(report, start)


# one-line aliases, kept for callers that import these names
def verify_mult_factorization(v: Permutation, w: Permutation) -> VerificationReport:
    return verify_factorization(v, w, "mult")


def verify_hpoly_factorization(v: Permutation, w: Permutation) -> VerificationReport:
    return verify_factorization(v, w, "h")


def verify_singular_locus(v: Permutation, w: Permutation) -> VerificationReport:
    return verify_factorization(v, w, "smooth")


def verify_theorem_at_points(
    v: Permutation,
    w: Permutation,
    trials: int = 10,
    seed: int = 0,
    properties: tuple[str, ...] = tuple(LAWS),
) -> VerificationReport:
    """The laws named in properties at sampled points that are not fixed.

    For sampled pairs tau' <= sigma' inside [v, w], a rational point p of
    the open stratum is drawn; the invariants of X_w^v at p are compared
    with the factor combination at the fixed points sigma'B, tau'B and
    with the factor combination computed directly at p.  The dimension
    and tangent dimension of each of the three records at p are checked
    against Bruhat order (invariants._point_invariants), and a mismatch
    raises RuntimeError.  A name in properties that is not a key of LAWS
    raises ValueError before any sampling.
    """
    unknown = [name for name in properties if name not in LAWS]
    if unknown:
        raise ValueError(f"unknown laws {unknown}: the laws are {list(LAWS)}")
    start = time.monotonic()
    report = VerificationReport(
        check="points",
        params={
            "n": v.n,
            "v": str(v),
            "w": str(w),
            "trials": trials,
            "seed": seed,
            "properties": list(properties),
        },
    )
    interval = bruhat_interval(v, w)
    pairs = [
        (tau, sigma)
        for sigma in interval
        for tau in interval
        if tau != sigma and bruhat_leq(tau, sigma)
    ]
    if not pairs:
        report.findings.append(
            {"kind": "no-strata", "case": {"v": str(v), "w": str(w)}}
        )
        return _timed(report, start)
    ident, w0 = Permutation.identity(v.n), Permutation.longest(v.n)
    rng = random.Random(seed)
    for _ in range(trials):
        tau, sigma = pairs[rng.randrange(len(pairs))]
        point_matrix = sample_richardson_point(tau, sigma, seed=rng.randrange(1 << 30))
        if point_matrix is None:
            report.findings.append(
                {
                    "kind": "sampling-shortfall",
                    "case": {"v": str(v), "w": str(w), "tau": str(tau), "sigma": str(sigma)},
                }
            )
            continue
        report.cases += 1
        ch = chart(sigma)
        point = {
            ch.var_name(i, j): point_matrix[i - 1][j - 1] for (i, j) in ch.free_positions
        }
        rich_p = _point_invariants(v, w, sigma, point, sigma, tau)
        schub_fix = schubert_invariants(w, sigma)
        opp_fix = opposite_invariants(v, tau)
        schub_p = _point_invariants(ident, w, sigma, point, sigma, tau)
        opp_p = _point_invariants(v, w0, sigma, point, sigma, tau)
        case = {
            "v": str(v),
            "w": str(w),
            "tau": str(tau),
            "sigma": str(sigma),
            "point": {k: str(val) for k, val in sorted(point.items()) if val != 0},
        }
        for name, law in LAWS.items():
            if name not in properties:
                continue
            got = law.read(rich_p)
            via_fixed = law.combine(law.read(schub_fix), law.read(opp_fix))
            via_point = law.combine(law.read(schub_p), law.read(opp_p))
            if got != via_fixed or got != via_point:
                report.failures.append(
                    {
                        "case": case,
                        "property": name,
                        "at_point": law.show(got),
                        "via_fixed_points": law.show(via_fixed),
                        "via_point_factors": law.show(via_point),
                    }
                )
    return _timed(report, start)


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig comparison and the smoothness table
# ---------------------------------------------------------------------------


def verify_kl_vs_h(w: Permutation) -> VerificationReport:
    """Coefficientwise P_{v,w} <= H at vB in X_w, for covexillary w."""
    if not is_covexillary(w):
        raise ValueError("the comparison is only asserted for 3412-avoiding w")
    start = time.monotonic()
    report = VerificationReport(check="kl-vs-h", params={"n": w.n, "w": str(w)})
    for v in bruhat_interval(Permutation.identity(w.n), w):
        report.cases += 1
        kl = kl_polynomial(v, w)
        h = schubert_invariants(w, v).h_coefficients()
        for d, c in enumerate(kl.coefficients):
            hc = h[d] if d < len(h) else 0
            if c > hc:
                report.failures.append(
                    {
                        "case": {"v": str(v), "w": str(w)},
                        "kl": list(kl.coefficients),
                        "h": list(h),
                        "degree": d,
                    }
                )
                break
    return _timed(report, start)


PATTERN_4231 = Permutation([4, 2, 3, 1])
PATTERN_3412 = Permutation([3, 4, 1, 2])


def pattern_smooth(w: Permutation) -> bool:
    """The classical criterion: smooth iff w avoids 4231 and 3412."""
    if w.n < 4:
        return True
    return not (contains_pattern(w, PATTERN_4231) or contains_pattern(w, PATTERN_3412))


# largest n the smoothness table runs on (it covers all of S_n)
SMOOTH_TABLE_MAX_N = 5


def schubert_smoothness_table(n: int, full_scan: bool = True) -> VerificationReport:
    """Compare computed global smoothness of X_w with pattern avoidance.

    full_scan checks every fixed point sigma <= w.  Without it only the
    identity fixed point is computed: the singular locus is closed and
    stable under the Borel group, so a singular Schubert variety is
    already singular at the identity.
    """
    if n > SMOOTH_TABLE_MAX_N:
        raise ValueError(f"table is desk-scale only (n <= {SMOOTH_TABLE_MAX_N})")
    start = time.monotonic()
    report = VerificationReport(
        check="smooth-table", params={"n": n, "full_scan": full_scan}
    )
    ident = Permutation.identity(n)
    for w in Permutation.all(n):
        report.cases += 1
        if full_scan:
            computed = all(
                schubert_invariants(w, sigma).smooth
                for sigma in bruhat_interval(ident, w)
            )
        else:
            computed = schubert_invariants(w, ident).smooth
        expected = pattern_smooth(w)
        if computed != expected:
            report.failures.append(
                {
                    "case": {"w": str(w)},
                    "computed_smooth": computed,
                    "pattern_smooth": expected,
                }
            )
    return _timed(report, start)


def verify_dimension_law(v: Permutation, w: Permutation) -> VerificationReport:
    """dim of every nonempty Richardson chart ideal is l(w) - l(v).

    The dimension is read on the ring solve_linear_variables leaves: it
    is an isomorphism R/I -> R'/I', so the Krull dimension is unchanged,
    and the completion runs in fewer variables.
    """
    start = time.monotonic()
    report = VerificationReport(check="dimension", params={"n": v.n, "v": str(v), "w": str(w)})
    expected = w.length() - v.length()
    for sigma in bruhat_interval(v, w):
        report.cases += 1
        got = krull_dimension(solve_linear_variables(richardson_ideal_in_chart(v, w, sigma))[0])
        if got != expected:
            report.failures.append(
                {
                    "case": {"v": str(v), "w": str(w), "sigma": str(sigma)},
                    "dimension": got,
                    "expected": expected,
                }
            )
    return _timed(report, start)
