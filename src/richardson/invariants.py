"""Local invariants of a chart ideal at a point.

For a point p on V(I) the record holds the Krull dimension, the tangent
space dimension (the tangent cone's Hilbert function in degree 1,
dim m/(m^2 + I)), smoothness, the Hilbert-Samuel multiplicity, and the
H-polynomial: the numerator of the Hilbert series of the associated
graded ring of the local ring over (1-q)^dim.  Everything is exact.
All five belong to the local ring, not to the embedding, so the kernel
computes them on the ring groebner.solve_linear_variables leaves once
the point is moved to the origin: every variable some generator is
linear in, and absent from the rest of that generator, is solved for and
substituted away.
On every record the tangent-cone Hilbert function up to ORACLE_DEGREE
is cross-checked against groebner.local_hilbert_oracle, an elimination
of the truncated Macaulay matrix that does not use the Buchberger
kernel and is handed the ideal in every variable of the chart, and
every such check bumps ORACLE_CHECKS.  The degree is one constant: no
record is checked at another.

A record at a torus-fixed point is computed at the origin of the point's
chart, named by ORIGIN, where localize has nothing to translate or scan.
Its dimension and tangent dimension are then checked against Bruhat
order, l(w) - l(v) and #{t : v <= t sigma <= w}, and every such check
bumps TANGENT_CHECKS; a mismatch raises.  A record at a point of the
open stratum (tau, sigma), for richardson_invariants_at_point and
verify_theorem_at_points alike, comes from _point_invariants, which
checks it the same way with the tangent count
#{t : t sigma <= w} + #{t : v <= t tau} - n(n-1)/2 (_bruhat_check).  The
counts come per pair: the transpositions t with t sigma <= w, and those
with v <= t tau, are bitmasks memoized by the window pairs (sigma, w) and
(v, tau), at most one entry per Bruhat pair (98,407 at S6), and each
count is a popcount; the comparison runs on every record computed.  A Schubert record is the Richardson record at
v = id and an opposite record the one at w = w0, so there is one
memoized record (see memo) per (v, w, sigma).

Local rings at fixed points repeat: once their linear variables are
solved, the S4 records come down to 21 distinct reduced systems.  So the
kernel runs once per reduced system, keyed by its variable count and its
generator terms with the variable names dropped (_reduced_invariants):
the reduced ring's layout depends only on the variable count.  What is
cheap or is a check runs on every call, so a record pays: its chart
ideal, localize's constant-term check, the linear solve down to its
reduced ring and that ring's key, the oracle on the unreduced ideal (its
own series elimination, its integer rows and their key) with the
concordance check, and at fixed points the Bruhat check.  A reduced
system pays once: its two completions, the Hilbert data read off them,
and the cone's series prefix that the oracle is compared with, expanded
to ORACLE_DEGREE and kept with the system's entry.  The oracle's
Macaulay stage runs once per integer system it leaves (groebner).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from types import MappingProxyType
from typing import Mapping

from .charts import (
    generic_matrix,
    identify_cells,
    richardson_ideal_in_chart,
)
from .groebner import (
    ORACLE_DEGREE,
    GroebnerBasis,
    IdealGens,
    krull_dimension,
    local_hilbert_oracle,
    solve_linear_variables,
    tangent_cone,
    _hilbert_data,
    _q_coeffs,
)
from .memo import memoized
from .permutations import (
    Permutation,
    _leq,
    bruhat_leq,
    coset_reps,
    w_j_longest_length,
)
from .poly import MONOMIAL_ONE, Polynomial

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


# the origin of every chart, as a point that names no coordinate: a
# fixed-point record passes it to localize, which needs no scan to know it
ORIGIN: Mapping[str, int] = MappingProxyType({})


def localize(I: IdealGens, p) -> IdealGens:
    """Translate the generators so that p becomes the origin.

    The translate g(z + p) of a generator has constant term g(p), so p is
    on V(I) exactly when no translate has one (_check_on_variety, on every
    call).  At the origin itself there is nothing to translate, and I
    comes back unchanged: p is ORIGIN (every fixed-point record), or a
    point whose every coordinate is 0.  A name of p outside the ring
    raises ValueError.
    """
    if p is ORIGIN:
        moved = I.generators
    else:
        unknown = sorted(p.keys() - I.ctx.names)
        if unknown:
            raise ValueError(f"not variables of the ring: {unknown}")
        if all(p.get(nm) == 0 for nm in I.ctx.names):
            moved = I.generators
        else:
            moved = [g.translate(p) for g in I.generators]
    _check_on_variety(moved)
    return I if moved is I.generators else IdealGens(I.ctx, moved)


def _check_on_variety(moved) -> None:
    """The membership check of localize, on every call: no translate has a
    constant term."""
    for g in moved:
        if MONOMIAL_ONE in g.terms:
            raise ValueError("point is not on the variety")


def local_invariants_at(I: IdealGens, p) -> LocalInvariants:
    """The full invariant record of V(I) at the point p of its chart
    (ORIGIN for its origin).

    The kernel runs on the reduced ring of the localized ideal I0, once
    per position-canonical reduced system (_reduced_invariants); the
    tangent cone is checked by the oracle, on I0 itself, up to
    ORACLE_DEGREE, on every call.

    The record's dimension is the Krull dimension of R/I, so every
    top-dimensional component of V(I) must pass through p; every chart
    ideal the package builds is one irreducible variety and meets this.
    Otherwise the local dimension, read off the tangent cone, is smaller,
    and the dimension cross-check raises RuntimeError.
    """
    I0 = localize(I, p)
    J, _ = solve_linear_variables(I0)
    inv, prefix = _reduced_invariants(J)
    _concordance_check(I0, prefix)
    return inv


def _reduced_key(J: IdealGens) -> tuple:
    """The variable count and the set of J's generator term maps, names ignored.

    A reduced ring's packed layout depends only on its variable count, so
    the key fixes the ideal up to renaming the variables in place, and
    every invariant of the record is unchanged by such a renaming.  The
    generators of an IdealGens are distinct, so the set, each map a
    frozenset of its (monomial, coefficient) pairs, loses none of them and
    ignores their order.
    """
    return (J.ctx.nvars, frozenset(frozenset(g.terms.items()) for g in J.generators))


@memoized(_reduced_key)
def _reduced_invariants(J: IdealGens) -> tuple[LocalInvariants, list[int]]:
    """(record, tangent-cone series prefix to ORACLE_DEGREE) of the
    reduced ideal J at the origin.

    Two completions, one when J has no generators: the degrevlex basis of
    J gives the dimension, and tangent_cone's one completion gives the
    cone's lowest-degree forms.  By Lazard's theorem those forms are a
    degrevlex basis of the cone (Greuel-Pfister, A Singular Introduction
    to Commutative Algebra, 1.7 and 5.5), so the cone's Hilbert data are
    read off their leading monomials as they are.  The two dimensions must
    agree: the cone's is the local one, at the origin, and it falls short
    of dim R/J when a top-dimensional component of V(J) misses the origin
    (see local_invariants_at).  The tangent dimension is the cone's
    Hilbert function in degree 1, dim m/(m^2 + J), read off the prefix the
    oracle checks, so four of the five fields come from the one cone
    completion.
    """
    n = J.ctx.nvars
    dim = krull_dimension(J)  # raises on the unit ideal
    hd = _hilbert_data(GroebnerBasis(tangent_cone(J).generators, J.ctx))
    if hd.dimension != dim:
        raise RuntimeError(
            f"H-polynomial division mismatch: {n - hd.dimension} factors of (1-q) "
            f"cancelled, expected {n - dim}: either a top-dimensional component "
            "of V(I) misses the point, or the kernel is wrong"
        )
    h_poly = hd.cancelled_numerator
    mult = sum(_q_coeffs(h_poly))
    if mult <= 0:
        raise RuntimeError("nonpositive multiplicity; dimension bug")
    prefix = hd.series_prefix(ORACLE_DEGREE)
    tangent = prefix[1]
    return LocalInvariants(
        dimension=dim,
        tangent_dim=tangent,
        smooth=(tangent == dim),
        multiplicity=mult,
        h_polynomial=h_poly,
    ), prefix


def _concordance_check(I0: IdealGens, hf: list[int]) -> None:
    """First differences of the truncation oracle must match the cone's
    series hf: the oracle's counts must be its partial sums."""
    global ORACLE_CHECKS
    counts = local_hilbert_oracle(I0, ORACLE_DEGREE)
    if tuple(accumulate(hf)) != counts:
        diffs = [counts[0]] + [counts[d] - counts[d - 1] for d in range(1, len(counts))]
        raise RuntimeError(
            f"tangent-cone Hilbert function {hf} disagrees with the "
            f"truncation oracle differences {diffs}"
        )
    with _COUNTER_LOCK:
        ORACLE_CHECKS += 1


# ---------------------------------------------------------------------------
# Invariants at torus-fixed points, memoized
# ---------------------------------------------------------------------------

@memoized(lambda v, w, sigma: (v.window, w.window, sigma.window))
def _fixed_point_invariants(v, w, sigma) -> LocalInvariants:
    """The record of X_w^v at sigma, memoized.

    A Schubert record is the case v = id, an opposite record w = w0, so
    each is the Richardson record of its triple.  A sigma outside [v, w]
    raises NotOnVariety; the test runs only on a memo miss, since a stored
    record passed it.  The chart ideal is named through the module global
    at call time, so a rebound function is the one that runs.
    """
    if not (_leq(v.window, sigma.window) and _leq(sigma.window, w.window)):
        raise NotOnVariety("the fixed point is not on the Richardson variety")
    inv = local_invariants_at(richardson_ideal_in_chart(v, w, sigma), ORIGIN)
    _bruhat_check(inv, v, w, sigma)
    return inv


def _bruhat_check(
    inv: LocalInvariants,
    v: Permutation,
    w: Permutation,
    sigma: Permutation,
    tau: Permutation | None = None,
) -> None:
    """Dimension and tangent dimension of X_w^v at sigma, or with tau at a
    point of the open stratum (tau, sigma), must match Bruhat order.

    The T-weights on T_sigma(G/B) are distinct, and T_sigma X_w is spanned
    by those of the transpositions t with t sigma <= w, T_tau X^v by those
    with v <= t tau (Lakshmibai-Seshadri).  At a point p of the Schubert
    cell of sigma and the opposite cell of tau, X_w looks as it does at
    sigma and X^v as at tau, and X_w^v is locally their transversal
    meet (the product theorem), so with N = n(n-1)/2
    dim T_p X_w^v = #{t : t sigma <= w} + #{t : v <= t tau} - N.  At
    tau = sigma each t counts in one of the two, so that is
    #{t : v <= t sigma <= w}.  The variety has dimension l(w) - l(v).
    Neither count uses the Groebner kernel.  Each tangent count is a
    popcount of a reflection mask, filled once per pair (_below_mask,
    _above_mask); the comparison runs on every record computed.
    """
    global TANGENT_CHECKS
    win = sigma.window
    n = len(win)
    tangent = (
        _below_mask(win, w.window).bit_count()
        + _above_mask(v.window, win if tau is None else tau.window).bit_count()
        - n * (n - 1) // 2
    )
    expected = (w.length() - v.length(), tangent)
    if (inv.dimension, inv.tangent_dim) != expected:
        where = sigma if tau is None else f"a point of the stratum ({tau}, {sigma})"
        raise RuntimeError(
            f"record of X_{w}^{v} at {where} has (dimension, tangent_dim) "
            f"{(inv.dimension, inv.tangent_dim)}; Bruhat order gives {expected}"
        )
    with _COUNTER_LOCK:
        TANGENT_CHECKS += 1


def _reflection_mask(win: tuple[int, ...], test, down: bool) -> int:
    """Bit k is set iff test(t win), for t the k-th transposition (a b), a < b,
    in lexicographic order; t win is a window, compared by packed rank words.

    t win is below win when b stands left of a in win, above it otherwise.
    With down, test is x <= w for a w >= win, which each t win below win
    passes by transitivity; without, test is v <= x for a v <= win, which
    each t win above win passes.  Those bits are set untested.
    """
    n = len(win)
    pos = {x: p for p, x in enumerate(win)}
    mask = bit = 0
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            if (pos[b] < pos[a]) == down or test(
                tuple(b if x == a else a if x == b else x for x in win)
            ):
                mask |= 1 << bit
            bit += 1
    return mask


# each table holds one entry per Bruhat pair a record meets: at most the
# 98,407 pairs of S6 at n = 6; both serve only pairs in Bruhat order, the
# only pairs _bruhat_check reaches
@memoized(lambda sigma, w: (sigma, w))
def _below_mask(sigma: tuple[int, ...], w: tuple[int, ...]) -> int:
    """The transpositions t with t sigma <= w, for sigma <= w; their count is
    #{t : t sigma <= w}.  Each t sigma < sigma <= w is set untested."""
    return _reflection_mask(sigma, lambda ts: _leq(ts, w), True)


@memoized(lambda v, sigma: (v, sigma))
def _above_mask(v: tuple[int, ...], sigma: tuple[int, ...]) -> int:
    """The transpositions t with v <= t sigma, for v <= sigma.  Each
    t sigma > sigma >= v is set untested."""
    return _reflection_mask(sigma, lambda ts: _leq(v, ts), False)


def schubert_invariants(w: Permutation, sigma: Permutation) -> LocalInvariants:
    """Invariants of X_w at the fixed point sigma, in the chart of sigma."""
    return _fixed_point_invariants(Permutation.identity(w.n), w, sigma)


def opposite_invariants(v: Permutation, tau: Permutation) -> LocalInvariants:
    """Invariants of the opposite Schubert variety X^v at the fixed point tau."""
    return _fixed_point_invariants(v, Permutation.longest(v.n), tau)


def richardson_invariants(v: Permutation, w: Permutation, sigma: Permutation) -> LocalInvariants:
    """Invariants of X_w^v at the fixed point sigma."""
    return _fixed_point_invariants(v, w, sigma)


def _point_invariants(v, w, u, point, sigma, tau) -> LocalInvariants:
    """The record of X_w^v at a point of the chart of u that lies in the
    stratum (tau, sigma), checked against Bruhat order (_bruhat_check)."""
    inv = local_invariants_at(richardson_ideal_in_chart(v, w, u), point)
    _bruhat_check(inv, v, w, sigma, tau)
    return inv


def richardson_invariants_at_point(
    v: Permutation, w: Permutation, u: Permutation, point
) -> tuple[LocalInvariants, Permutation, Permutation]:
    """Invariants of X_w^v at a rational point of the chart of u, plus the
    (Schubert cell, opposite cell) pair of the point.  A coordinate the
    point omits is 0; a name that is not a coordinate of the chart raises
    ValueError.  The record is checked against Bruhat order at a point of
    the stratum (tau, sigma) (_bruhat_check), and a mismatch raises
    RuntimeError."""
    x = generic_matrix(u)
    names = x.chart.ctx.names
    unknown = sorted(set(point) - set(names))
    if unknown:
        raise ValueError(f"not coordinates of the chart of {u}: {unknown}")
    point = {nm: Fraction(point.get(nm, 0)) for nm in names}
    sigma, tau = identify_cells(x.evaluate(point))
    return _point_invariants(v, w, u, point, sigma, tau), sigma, tau


def parabolic_invariants(v: Permutation, w: Permutation, sigma: Permutation, J) -> LocalInvariants:
    """Invariants of the Richardson variety in G/P at a fixed point.

    The parabolic is named by its simple reflections J.  The computation
    replaces w by the maximal and v by the minimal representative of their
    cosets, takes the minimal representative of sigma's coset, and
    computes upstairs; multiplicity and H-polynomial are untouched by
    the affine fiber while both dimensions drop by its dimension l(w_J).
    """
    v_min, _ = coset_reps(v, J)
    _, w_max = coset_reps(w, J)
    fiber = w_j_longest_length(w.n, J)
    # projection to W^J preserves Bruhat order (Deodhar), so sigma W_J
    # meets [v_min, w_max] exactly when its minimal representative does
    rep, _ = coset_reps(sigma, J)
    if not (bruhat_leq(v_min, rep) and bruhat_leq(rep, w_max)):
        raise NotOnVariety("the fixed point is not on the parabolic Richardson variety")
    up = richardson_invariants(v_min, w_max, rep)
    return LocalInvariants(
        dimension=up.dimension - fiber,
        tangent_dim=up.tangent_dim - fiber,
        smooth=up.smooth,
        multiplicity=up.multiplicity,
        h_polynomial=up.h_polynomial,
    )
