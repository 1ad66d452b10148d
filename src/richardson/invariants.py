"""Local invariants of a chart ideal at a point.

For a point p on V(I) the record holds the Krull dimension, the tangent
space dimension (corank of the Jacobian of the reduced basis at p),
smoothness, the Hilbert-Samuel multiplicity, and the H-polynomial: the
numerator of the Hilbert series of the associated graded ring of the
local ring over (1-q)^dim.  Everything is exact.  Whenever oracle checking
is on (the default), the tangent-cone Hilbert function up to the oracle
degree is cross-checked against groebner.local_hilbert_oracle, an
elimination of the truncated Macaulay matrix that does not use the
Buchberger kernel, and every such check bumps ORACLE_CHECKS.  The oracle
degree is an explicit parameter, ORACLE_DEGREE by default, and None turns
the check off.

A record at a torus-fixed point is computed at the origin of the point's
chart, where localize has nothing to translate.  Its dimension and
tangent dimension are then checked against Bruhat order, l(w) - l(v) and
#{t : v <= t sigma <= w}, and every such check bumps TANGENT_CHECKS; a
mismatch raises.  Fixed-point records are memoized (see memo) per oracle
degree, so a record checked at one degree, or not checked at all, is never
served to a call that asks for another.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .charts import (
    generic_matrix,
    identify_cells,
    opposite_ideal_in_chart,
    rational_rank,
    richardson_ideal_in_chart,
    schubert_ideal_in_chart,
)
from .groebner import (
    IdealGens,
    buchberger,
    hilbert_numerator,
    krull_dimension,
    local_hilbert_oracle,
    tangent_cone,
    _q_coeffs,
)
from .memo import memoized
from .permutations import (
    Permutation,
    bruhat_leq,
    coset_reps,
    w_j_longest_length,
)
from .poly import Polynomial

# the degree up to which every record's tangent cone is checked by the oracle
ORACLE_DEGREE = 6

ORACLE_CHECKS = 0
TANGENT_CHECKS = 0
_COUNTER_LOCK = threading.Lock()


class NotOnVariety(ValueError):
    """The requested torus-fixed point does not lie on the variety."""


@dataclass(frozen=True)
class LocalInvariants:
    """The invariant record P(p, Z) at a point of a variety."""

    dimension: int
    tangent_dim: int
    smooth: bool
    multiplicity: int
    h_polynomial: Polynomial

    def h_coefficients(self) -> tuple[int, ...]:
        return tuple(_q_coeffs(self.h_polynomial))

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "tangent_dim": self.tangent_dim,
            "smooth": self.smooth,
            "mult": self.multiplicity,
            "h_poly": list(self.h_coefficients()),
        }


def localize(I: IdealGens, p) -> IdealGens:
    """Translate the generators so that p becomes the origin.

    At the origin itself (every fixed-point record) there is nothing to
    translate: I comes back unchanged once no generator has a constant term.
    """
    if all(p.get(nm) == 0 for nm in I.ctx.names):
        if any(g.constant_term() != 0 for g in I.generators):
            raise ValueError("point is not on the variety")
        return I
    for g in I.generators:
        if g.evaluate(p) != 0:
            raise ValueError("point is not on the variety")
    return IdealGens(I.ctx, [g.translate(p) for g in I.generators])


def _jacobian_corank(gb, n: int) -> int:
    """n minus the rank of the linear parts of a basis localized at the origin."""
    rows = [[g.linear_coefficient(i) for i in range(n)] for g in gb.basis]
    return n - rational_rank(rows) if rows else n


def tangent_dim_at(I: IdealGens, p) -> int:
    """Chart dimension minus the Jacobian rank of the reduced basis at p."""
    return _jacobian_corank(buchberger(localize(I, p)), I.ctx.nvars)


def local_invariants_at(I: IdealGens, p, oracle: int | None = ORACLE_DEGREE) -> LocalInvariants:
    """The full invariant record of V(I) at the point p of its chart.

    The tangent cone is checked by the oracle up to degree oracle; None
    skips the check.
    """
    I0 = localize(I, p)
    gb = buchberger(I0)
    if gb.contains_one():
        raise ValueError("unit ideal")
    n = I.ctx.nvars
    dim = krull_dimension(I0)
    cone = tangent_cone(I0)
    hd = hilbert_numerator(cone)
    if hd.dimension != dim:
        raise RuntimeError(
            f"H-polynomial division mismatch: {n - hd.dimension} factors of (1-q) "
            f"cancelled, expected {n - dim}"
        )
    h_poly = hd.cancelled_numerator
    mult = sum(_q_coeffs(h_poly))
    if mult <= 0:
        raise RuntimeError("nonpositive multiplicity; dimension bug")
    tangent = _jacobian_corank(gb, n)
    if oracle is not None:
        _concordance_check(I0, hd, oracle)
    return LocalInvariants(
        dimension=dim,
        tangent_dim=tangent,
        smooth=(tangent == dim),
        multiplicity=mult,
        h_polynomial=h_poly,
    )


def _concordance_check(I0: IdealGens, hd, degree: int) -> None:
    """First differences of the truncation oracle must match the cone."""
    global ORACLE_CHECKS
    counts = local_hilbert_oracle(I0, degree)
    hf = hd.series_prefix(degree)
    diffs = [counts[0]] + [counts[d] - counts[d - 1] for d in range(1, len(counts))]
    if diffs != hf:
        raise RuntimeError(
            f"tangent-cone Hilbert function {hf} disagrees with the "
            f"truncation oracle differences {diffs}"
        )
    with _COUNTER_LOCK:
        ORACLE_CHECKS += 1


# ---------------------------------------------------------------------------
# Invariants at torus-fixed points, memoized
# ---------------------------------------------------------------------------

# the chart ideal of each kind of record at (v, w, sigma); the charts
# functions are named through the module globals at call time, so a
# rebound function is the one that runs
_CHART_IDEALS = {
    "schubert": lambda v, w, sigma: schubert_ideal_in_chart(w, sigma),
    "opposite": lambda v, w, sigma: opposite_ideal_in_chart(v, sigma),
    "richardson": lambda v, w, sigma: richardson_ideal_in_chart(v, w, sigma),
}


# a record is only as checked as the oracle degree it was checked at
@memoized(lambda kind, v, w, sigma, oracle: (kind, v.window, w.window, sigma.window, oracle))
def _fixed_point_invariants(kind: str, v, w, sigma, oracle: int | None) -> LocalInvariants:
    """The record of X_w^v at sigma in the chart ideal of its kind, memoized.

    A Schubert record is the case v = id, an opposite record w = w0.
    """
    ideal = _CHART_IDEALS[kind](v, w, sigma)
    inv = local_invariants_at(ideal, {nm: 0 for nm in ideal.ctx.names}, oracle)
    _bruhat_check(inv, v, w, sigma)
    return inv


def _bruhat_check(inv: LocalInvariants, v: Permutation, w: Permutation, sigma: Permutation) -> None:
    """Dimension and tangent dimension of X_w^v at sigma must match Bruhat order.

    The T-weights on T_sigma(G/B) are distinct, and T_sigma X_w^v is spanned
    by those of the transpositions t with v <= t sigma <= w
    (Lakshmibai-Seshadri), so its dimension is #{t : v <= t sigma <= w};
    the variety has dimension l(w) - l(v).  Neither count uses the Groebner
    kernel.
    """
    global TANGENT_CHECKS
    n = sigma.n
    tangent = 0
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            ts = sigma.swap_values(a, b)
            tangent += bruhat_leq(v, ts) and bruhat_leq(ts, w)
    expected = (w.length() - v.length(), tangent)
    if (inv.dimension, inv.tangent_dim) != expected:
        raise RuntimeError(
            f"record of X_{w}^{v} at {sigma} has (dimension, tangent_dim) "
            f"{(inv.dimension, inv.tangent_dim)}; Bruhat order gives {expected}"
        )
    with _COUNTER_LOCK:
        TANGENT_CHECKS += 1


def schubert_invariants(
    w: Permutation, sigma: Permutation, oracle: int | None = ORACLE_DEGREE
) -> LocalInvariants:
    """Invariants of X_w at the fixed point sigma, in the chart of sigma."""
    if not bruhat_leq(sigma, w):
        raise NotOnVariety("the fixed point is not on the Schubert variety")
    return _fixed_point_invariants("schubert", Permutation.identity(w.n), w, sigma, oracle)


def opposite_invariants(
    v: Permutation, tau: Permutation, oracle: int | None = ORACLE_DEGREE
) -> LocalInvariants:
    """Invariants of the opposite Schubert variety X^v at the fixed point tau."""
    if not bruhat_leq(v, tau):
        raise NotOnVariety("the fixed point is not on the opposite Schubert variety")
    return _fixed_point_invariants("opposite", v, Permutation.longest(v.n), tau, oracle)


def richardson_invariants(
    v: Permutation, w: Permutation, sigma: Permutation, oracle: int | None = ORACLE_DEGREE
) -> LocalInvariants:
    """Invariants of X_w^v at the fixed point sigma."""
    if not (bruhat_leq(v, sigma) and bruhat_leq(sigma, w)):
        raise NotOnVariety("the fixed point is not on the Richardson variety")
    return _fixed_point_invariants("richardson", v, w, sigma, oracle)


def richardson_invariants_at_point(
    v: Permutation,
    w: Permutation,
    u: Permutation,
    point,
    oracle: int | None = ORACLE_DEGREE,
) -> tuple[LocalInvariants, Permutation, Permutation]:
    """Invariants of X_w^v at a rational point of the chart of u, plus the
    (Schubert cell, opposite cell) pair of the point."""
    ideal = richardson_ideal_in_chart(v, w, u)
    point = {nm: Fraction(point.get(nm, 0)) for nm in ideal.ctx.names}
    sigma, tau = identify_cells(generic_matrix(u).evaluate(point))
    inv = local_invariants_at(ideal, point, oracle)
    return inv, sigma, tau


def parabolic_invariants(
    v: Permutation,
    w: Permutation,
    sigma: Permutation,
    J,
    oracle: int | None = ORACLE_DEGREE,
) -> LocalInvariants:
    """Invariants of the Richardson variety in G/P at a fixed point.

    The parabolic is named by its simple reflections J.  The computation
    replaces w by the maximal and v by the minimal representative of their
    cosets, picks a representative of sigma's coset inside the interval,
    and computes upstairs; multiplicity and H-polynomial are untouched by
    the affine fiber while both dimensions drop by its dimension l(w_J).
    """
    v_min, _ = coset_reps(v, J)
    _, w_max = coset_reps(w, J)
    fiber = w_j_longest_length(w.n, J)
    # representatives of sigma W_J inside [v_min, w_max], smallest first
    reps = _coset_members(sigma, J)
    reps = [
        s for s in reps if bruhat_leq(v_min, s) and bruhat_leq(s, w_max)
    ]
    if not reps:
        raise NotOnVariety("the fixed point is not on the parabolic Richardson variety")
    reps.sort(key=lambda s: (s.length(), s.window))
    rep = reps[0]
    up = richardson_invariants(v_min, w_max, rep, oracle)
    return LocalInvariants(
        dimension=up.dimension - fiber,
        tangent_dim=up.tangent_dim - fiber,
        smooth=up.smooth,
        multiplicity=up.multiplicity,
        h_polynomial=up.h_polynomial,
    )


def _coset_members(sigma: Permutation, J) -> list[Permutation]:
    from itertools import permutations as _itperms

    from .permutations import _j_blocks

    n = sigma.n
    blocks = _j_blocks(n, J)
    members = [list(sigma.window)]
    for block in blocks:
        vals = [sigma.window[p - 1] for p in block]
        nxt = []
        for win in members:
            for arrangement in _itperms(vals):
                w2 = list(win)
                for p, val in zip(block, arrangement):
                    w2[p - 1] = val
                nxt.append(w2)
        members = nxt
    seen = set()
    out = []
    for win in members:
        t = tuple(win)
        if t not in seen:
            seen.add(t)
            out.append(Permutation(t))
    return out
