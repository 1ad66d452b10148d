"""Ideal algorithms over exact rationals.

Buchberger completion with the Gebauer-Moller pair criteria and normal
selection strategy, reduced bases, normal forms, ideal equality, exact
elimination of the variables a generator is linear in, Krull dimension
from the Hilbert numerator of the leading-term ideal, Hilbert series of
homogeneous ideals by recursive splitting of the leading-term monomial
ideal, tangent cones by one completion of the homogenized ideal, and a
local Hilbert-function oracle used to cross-check every multiplicity the
package ever reports.

There is one completion routine, _completion_for: a function of term
maps, their pack and an int key of a monomial order, which keeps its
basis, pair heap and reducers in locals and returns the reduced basis as
monic (leading term, tail) pairs.  It runs under two orders, each one int
key and no cache: degrevlex (poly.degrevlex_key), the order of every
basis buchberger returns, and the cone order (_cone_key), under which
tangent_cone completes the homogenized ideal.  The lowest-degree forms
of that one basis are a degrevlex basis of the cone, so its Hilbert data
come from their leading monomials (_hilbert_data, shared with
hilbert_numerator).

A local invariant at the origin is computed on the ring that
solve_linear_variables leaves: while some generator is g = c*x + h with x
not in h, x = -h/c is substituted exactly and g and x are dropped, which
is an isomorphism of quotient rings sending the origin to the origin.
At a fixed point most generators are single coordinates c*x, whose image
is 0, so before each general pick both eliminations drain them: every
such x is set to zero in one pass, keeping the terms that hold none of
them, until no generator c*x is left.  A pass notes the c*x it leaves
for the next, so each pass reads the generators once.  Each pick rule
takes these generators before any other, so the drain reaches the ring
that one variable per pass reaches.  The kernel's drain is one helper on term
maps (_drain), which ideal_equal runs too: since I = (x) + I|x=0 for a
coordinate x of I, it drains the coordinates both ideals share before it
compares them, and it compares and completes the drained maps in the
packing they came in.
The oracle shares no code with this kernel, those eliminations included:
it takes the ideal as it was, reading its term maps without changing
them, solves away every variable a generator is linear in by its own
truncated power-series substitution, then runs one fraction-free
integer elimination of the truncated Macaulay matrix of what is left.

Every algorithm reads the terms of a Polynomial as they are: their
monomials are the packed integers of richardson.poly, so a product is one
integer addition and a divisibility test one masked subtraction, with no
conversion on the way in or out.

Only what repeats is memoized, in tables of richardson.memo: Hilbert
numerators of monomial ideals, and the oracle's Macaulay stage, keyed by
what its series elimination leaves with the variable names dropped, so
the local rings that reduce to one system share one elimination.  Bases
and oracle calls are not: the ideals they are handed rarely repeat.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .memo import memoized
from .poly import (
    MONOMIAL_ONE,
    _FIELD_BITS,
    _FIELD_MASK,
    _FIELD_MAX,
    Context,
    Polynomial,
    _Pack,
    _pack_for,
    _repacker,
    degrevlex_key,
)


class IdealGens:
    """A generator list for an ideal; zero and repeated generators are
    dropped, keeping first occurrences in order."""

    __slots__ = ("ctx", "generators")

    def __init__(self, ctx: Context, generators: Iterable[Polynomial]):
        gens = {}
        for g in generators:
            if g.ctx is not ctx and g.ctx != ctx:
                raise ValueError("generator context mismatch")
            if g.terms:  # not zero
                gens.setdefault(g, None)
        self.ctx = ctx
        self.generators = tuple(gens)

    def __repr__(self) -> str:
        return f"IdealGens({len(self.generators)} gens in {len(self.ctx.names)} vars)"


@dataclass(frozen=True)
class GroebnerBasis:
    """A degrevlex Groebner basis (see poly.degrevlex_key)."""

    basis: tuple[Polynomial, ...]
    ctx: Context

    def contains_one(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].is_constant() and not self.basis[0].is_zero()

    def leading_monomials(self) -> tuple[int, ...]:
        keyf = degrevlex_key(self.ctx)
        return tuple(max(g.terms, key=keyf) for g in self.basis)


@dataclass(frozen=True)
class HilbertData:
    """Hilbert series data of a homogeneous quotient.

    The series equals numerator/(1-q)^num_vars before cancellation and
    cancelled_numerator/(1-q)^dimension after removing every (1-q) factor,
    so cancelled_numerator(1) is positive.
    """

    numerator: Polynomial
    num_vars: int
    dimension: int
    cancelled_numerator: Polynomial

    def series_prefix(self, upto: int) -> list[int]:
        """Coefficients 0..upto of the power-series expansion."""
        out = (_q_coeffs(self.numerator) + [0] * upto)[:upto + 1]
        for _ in range(self.num_vars):  # times 1/(1-q): the prefix sums
            out = list(accumulate(out))
        return out


Q_CONTEXT = Context(("q",))


def _q_coeffs(p: Polynomial) -> list[int]:
    """Dense integer coefficient list of a polynomial in the q context."""
    if p.is_zero():
        return [0]
    out = [0] * (p.total_degree() + 1)
    for m, c in p.terms.items():
        if c.denominator != 1:
            raise ValueError("non-integer coefficient in q-polynomial")
        out[m >> p.ctx.pack.degshift] = c.numerator
    return out


def _q_poly(coeffs: Sequence[int]) -> Polynomial:
    return Polynomial.from_terms(
        Q_CONTEXT,
        ((Q_CONTEXT.monomial(((0, d),) if d else ()), c) for d, c in enumerate(coeffs)),
    )


# ---------------------------------------------------------------------------
# Buchberger completion
# ---------------------------------------------------------------------------

def _spoly(lt1: int, tail1: dict, lt2: int, tail2: dict, lcm: int):
    """S-polynomial of two monic packed elements."""
    out: dict[int, Fraction] = {}
    cof1 = lcm - lt1
    for m, c in tail1.items():
        out[m + cof1] = c
    cof2 = lcm - lt2
    for m, c in tail2.items():
        mm = m + cof2
        acc = out.get(mm)
        if acc is None:
            out[mm] = -c
        else:
            acc -= c
            if acc == 0:
                del out[mm]
            else:
                out[mm] = acc
    return out


def _reducer(seq: int, lt: int, tail: dict, keyf, pk: _Pack) -> tuple:
    """The reducer entry of a monic element: (has a tail, order key, seq),
    its sort key, then (degree, support mask, lt, tail) for the scan."""
    return (bool(tail), keyf(lt), seq, lt >> pk.degshift, pk.support_mask(lt), lt, tail)


def _make_reducers(items, keyf, pk: _Pack) -> list:
    """The reducer list of monic (lt, tail) pairs, sorted by entry.

    A dividing monomial reducer simply deletes the term, so monomials come
    first; each group is in term order, ties by position, for determinism.
    The sort key (the first three fields) is unique, so no tail is compared.
    """
    return sorted(_reducer(seq, lt, tail, keyf, pk) for seq, (lt, tail) in enumerate(items))


def _reduce_raw(work: dict, reducers, keyf, pk: _Pack):
    """Full normal form of a packed term dict against a sorted reducer list.

    One scan: the first reducer in the list whose leading term divides
    wins, so monomial reducers are tried first and reduction is
    deterministic, and a reducer with no tail just drops the term.  Every
    term of a basis element or remainder passes through here, so a term
    whose exponent a product carried past 127 raises OverflowError here:
    two fields of at most 127 sum below 256, into the guard bit but never
    into the next field.
    """
    hi = pk.himask
    low = pk.lowmask
    degshift = pk.degshift
    work = dict(work)
    out: dict[int, Fraction] = {}
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        if m & hi:
            raise OverflowError(f"an exponent exceeds {_FIELD_MAX}")
        mdeg = m >> degshift
        mmask = ((m & low) + low) & hi  # pk.support_mask(m)
        mh = m | hi
        for (_, _, _, ld, lmask, lt, tail) in reducers:
            if ld <= mdeg and not (lmask & ~mmask) and (mh - lt) & hi == hi:
                break
        else:
            out[m] = c
            continue
        cof = m - lt
        for tm, tc in tail.items():
            mm = tm + cof
            acc = work.get(mm)
            if acc is None:
                work[mm] = -c * tc
            else:
                acc -= c * tc
                if acc == 0:
                    del work[mm]
                else:
                    work[mm] = acc
    return out


def _monic_raw(terms: dict, keyf):
    lt = max(terms, key=keyf)
    lc = terms[lt]
    if lc == -1:
        terms = {m: -c for m, c in terms.items()}
    elif lc != 1:
        inv = Fraction(1, lc)  # exact: an int lc never meets `/`
        terms = {m: c * inv for m, c in terms.items()}
    tail = {m: c for m, c in terms.items() if m != lt}
    return lt, tail


def _completion_for(pk: _Pack, term_maps: Iterable[dict], keyf) -> list[tuple[int, dict]]:
    """The reduced basis of the ideal of the term maps, packed in pk, under
    the order of the int key keyf: its monic (lt, tail) pairs, ascending by
    leading term.

    The maps are seeded in ascending order of leading term, each reduced
    against the basis so far; then pairs are taken lowest lcm first (normal
    selection), and each S-polynomial is reduced the same way.  A nonzero
    remainder joins the basis, monic, through the Gebauer-Moller pair
    update.  Last the basis is minimalized and tail-reduced.
    """
    degshift = pk.degshift
    divides = pk.divides
    lcm = pk.lcm
    hi, low = pk.himask, pk.lowmask
    lts: list[int] = []
    tails: list[dict] = []
    pairs: list = []  # heap of (lcm_key, i, j, lcm)
    dead_pairs: set[tuple[int, int]] = set()
    reducers: list = []  # _reducer entries, kept sorted

    def absorb(terms: dict):
        r = _reduce_raw(terms, reducers, keyf, pk)
        if not r:
            return
        lt, tail = _monic_raw(r, keyf)
        t = len(lts)
        new_ltdeg = lt >> degshift
        ltmask = ((lt & low) + low) & hi  # pk.support_mask(lt)
        lcms = {}
        live = []
        blockers = []
        for i, li in enumerate(lts):
            lcms[i] = lcm(li, lt)
            if ((li & low) + low) & ltmask:
                live.append(i)
            else:  # coprime leading terms
                blockers.append(i)
        # pairs whose S-polynomial is identically zero act only as blockers,
        # so the quadratic filter runs over the few live candidates
        pending = sorted(live, key=lambda i: (keyf(lcms[i]), i))
        kept: list[int] = []
        while pending:
            i = pending.pop(0)
            li = lcms[i]
            if not any(divides(lcms[j], li) for j in pending) and not any(
                divides(lcms[j], li) for j in kept
            ):
                kept.append(i)
        for (_, i, j, l) in pairs:
            if (i, j) in dead_pairs:
                continue
            if new_ltdeg <= (l >> degshift) and divides(lt, l):
                if lcm(lts[i], lt) != l and lcm(lts[j], lt) != l:
                    dead_pairs.add((i, j))
        if kept:
            uniq = {lcms[j] for j in blockers}
            blocker_lcms = sorted(uniq, key=lambda l: l >> degshift)
            for i in kept:
                li = lcms[i]
                lid = li >> degshift
                blocked = False
                for l in blocker_lcms:
                    if (l >> degshift) > lid:
                        break
                    if divides(l, li):
                        blocked = True
                        break
                if not blocked:
                    heapq.heappush(pairs, (keyf(li), i, t, li))
        lts.append(lt)
        tails.append(tail)
        insort(reducers, _reducer(t, lt, tail, keyf, pk))

    for terms in sorted(term_maps, key=lambda t: keyf(max(t, key=keyf))):
        absorb(terms)
    while pairs:
        _, i, j, l = heapq.heappop(pairs)
        if (i, j) not in dead_pairs:
            dead_pairs.add((i, j))
            absorb(_spoly(lts[i], tails[i], lts[j], tails[j], l))

    idx = sorted(range(len(lts)), key=lambda i: (keyf(lts[i]), i))
    minimal: list[int] = []
    for i in idx:
        if not any(divides(lts[j], lts[i]) for j in minimal):
            minimal.append(i)
    # one reducer set serves every element: a leading term never divides
    # the smaller terms of its own tail
    reducers = _make_reducers(((lts[i], tails[i]) for i in minimal), keyf, pk)
    return [(lts[i], _reduce_raw(tails[i], reducers, keyf, pk)) for i in minimal]


def _drain(pk: _Pack, *systems: list[dict]) -> tuple[Sequence[list[dict]], list[int]]:
    """Zero every variable x that has a coordinate generator c*x in each of
    the systems of term maps, packed in pk: with one system (as
    solve_linear_variables runs it), all of its coordinates; with two (as
    ideal_equal runs it), those they share.

    Every such x is set to zero in one pass: each map drops the terms that
    hold one of them (it stays the same map if it drops none, and goes if
    nothing is left, as c*x does), and the pass repeats while new
    coordinates appear.  A pass notes the coordinates among the maps it
    keeps, so the maps are scanned once per pass.  Returns the systems
    left, each in its order, and the zeroed variables, pass by pass, each
    pass in ascending order.
    """
    hi, low, degshift = pk.himask, pk.lowmask, pk.degshift
    zeroed: list[int] = []
    mask = hi  # the guard bits of the variables to zero
    for maps in systems:
        seen = 0
        for t in maps:
            if len(t) == 1:
                (m,) = t
                if m >> degshift == 1:
                    seen |= ((m & low) + low) & hi  # pk.support_mask(m)
        mask &= seen
    while mask:
        bits = mask
        while bits:  # the guard bit of variable v is bit 8v + 7
            bit = bits & -bits
            zeroed.append(bit.bit_length() // _FIELD_BITS - 1)
            bits ^= bit
        left = []
        common = hi  # the coordinates every system keeps
        for maps in systems:
            out = []
            seen = 0
            for t in maps:
                for b in t:
                    if ((b & low) + low) & mask:
                        break
                else:  # no term holds a zeroed variable; b is t's last
                    out.append(t)
                    if len(t) == 1 and b >> degshift == 1:
                        seen |= ((b & low) + low) & hi
                    continue
                if len(t) == 1:  # c*x and the monomials holding a zeroed x go
                    continue
                t = {b: d for b, d in t.items() if not ((b & low) + low) & mask}
                if t:
                    out.append(t)
                    if len(t) == 1:
                        (b,) = t
                        if b >> degshift == 1:
                            seen |= ((b & low) + low) & hi
            left.append(out)
            common &= seen
        systems = left
        mask = common
    return systems, zeroed


def _restricted(ctx: Context, live: list[int], maps: list[dict]) -> IdealGens:
    """Term maps in the variables live only, as the ideal they generate in
    the ring of those variables, which keep their names."""
    small = Context([ctx.names[v] for v in live], [ctx.latex_names[v] for v in live])
    if not maps:  # at a fixed point, nearly every reduced system
        return IdealGens(small, ())
    move = _repacker(ctx.pack, small.pack, live)
    return IdealGens(small, [Polynomial(small, {move(b): d for b, d in t.items()}) for t in maps])


def buchberger(ideal: IdealGens) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis; deterministic for fixed input."""
    ctx = ideal.ctx
    elements = _completion_for(ctx.pack, (g.terms for g in ideal.generators), degrevlex_key(ctx))
    basis = tuple(Polynomial(ctx, {lt: 1, **tail}) for lt, tail in elements)
    return GroebnerBasis(basis=basis, ctx=ctx)


def _basis_reducers(gb: GroebnerBasis):
    """The reducer list of a basis, with its order key and pack."""
    pk = gb.ctx.pack
    keyf = degrevlex_key(gb.ctx)
    reducers = _make_reducers((_monic_raw(g.terms, keyf) for g in gb.basis), keyf, pk)
    return reducers, keyf, pk


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Remainder of multivariate division by the basis; zero iff f is in the ideal."""
    if f.ctx != gb.ctx:
        raise ValueError("context mismatch")
    reducers, keyf, pk = _basis_reducers(gb)
    return Polynomial(f.ctx, _reduce_raw(f.terms, reducers, keyf, pk))


def all_in_ideal(polys: Iterable[Polynomial], gb: GroebnerBasis) -> bool:
    """Every polynomial reduces to zero against gb; the reducers of gb are
    built once for all of them."""
    reducers, keyf, pk = _basis_reducers(gb)
    for f in polys:
        if f.ctx is not gb.ctx and f.ctx != gb.ctx:
            raise ValueError("context mismatch")
        if _reduce_raw(f.terms, reducers, keyf, pk):
            return False
    return True


def ideal_equal(I: IdealGens, J: IdealGens) -> bool:
    """Equality of two ideals: one generator set, or equal reduced bases
    and every generator of both reduced to zero against that one basis G.

    First the variables X that are coordinates c*x of both I and J are
    drained from both (_drain), and the question is decided in the ring R'
    of the variables left: I = (X) + I' and J = (X) + J', and R/(X) is R'
    with I, J going to I', J', so I = J exactly when I' = J'.  A variable
    that is a coordinate of one ideal only is kept: whether the other
    ideal holds it is part of the question.

    R' is never built: the drained term maps are I' and J' as they stand,
    in I.ctx's packing, compared as sets of term maps and, when they
    differ, completed and reduced there.  Their monomials hold no variable
    of X, and the degrevlex key (poly.degrevlex_key) XORs each absent
    field to the same 127, so on them it orders exactly as degrevlex of
    R' does; completion and division only form products, lcms and
    S-polynomials of them, so the bases and remainders are those of R',
    term for term.

    Proof: if I' and J' have one generator set, they are one ideal, and
    nothing is completed.  Otherwise G lies in both ideals, since
    completion only combines their generators, and the zero remainders
    put every generator of I' and of J' in (G); so I' = (G) = J'.  Equal
    ideals have equal reduced bases, which are unique for a fixed order
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 2.7).  The
    remainders are a certificate that does not trust the completion to
    have kept every element; the reducers of G are built once for all of
    them, and a generator shared by I' and J' is reduced once.
    """
    if I.ctx != J.ctx:
        raise ValueError("context mismatch")
    ctx = I.ctx
    (ti, tj), _ = _drain(ctx.pack, *([g.terms for g in K.generators] for K in (I, J)))
    # one generator set, in any order and with any repeats
    if {frozenset(t.items()) for t in ti} == {frozenset(t.items()) for t in tj}:
        return True
    I, J = (IdealGens(ctx, [Polynomial(ctx, t) for t in maps]) for maps in (ti, tj))
    gens = dict.fromkeys(I.generators + J.generators)
    gi = buchberger(I)
    return gi.basis == buchberger(J).basis and all_in_ideal(gens, gi)


# ---------------------------------------------------------------------------
# Exact linear elimination
# ---------------------------------------------------------------------------


def solve_linear_variables(I: IdealGens) -> tuple[IdealGens, list[tuple[str, Polynomial]]]:
    """(I', solved): an ideal I' of R' = Q[the variables left] with R/I
    isomorphic to R'/I', and the solutions that map one to the other.

    While some generator is g = c*x + h with c a nonzero rational and x
    not in h, x = -h/c is substituted exactly into the other generators,
    and g and x are dropped: R/(g) is R' by x -> -h/c, so R/I is R'/I'.
    First every generator c*x (h = 0) is drained (_drain): all such x go
    to zero in one pass, repeated while new generators c*x appear.  Then
    the shortest other g goes first, then the earliest variable, and the
    drain runs again.  That is the ring the shortest-g rule alone reaches
    one variable at a time, since it takes every c*x first.  When no
    generator has a constant term, neither has h, so the isomorphism
    sends the origin to the origin and every local invariant there is
    unchanged.  What is left is repacked over the remaining variables,
    which keep their names (_restricted; at a fixed point usually nothing
    is left, and only the reduced ring is built).

    solved lists (name of x, -h/c) in the order of elimination, each image
    in I.ctx; the zero images of one drain pass come in variable order.
    An image may hold variables solved later, so a point of V(I') lifts
    to V(I) by evaluating the images in reverse.  (I, []) comes back when
    nothing is solved.
    """
    ctx = I.ctx
    pk = ctx.pack
    fm = _FIELD_MASK
    hi = pk.himask
    linear = pk.unit_index
    gens = [g.terms for g in I.generators]  # term maps, as _drain takes them
    live = list(range(ctx.nvars))
    solved: list[tuple[str, Polynomial]] = []
    zero = Polynomial(ctx, {})
    while True:
        (gens,), drained = _drain(pk, gens)
        for v in drained:
            solved.append((ctx.names[v], zero))
            live.remove(v)
        pick = None
        for k, t in enumerate(gens):
            if len(t) == 1:  # a monomial of degree >= 2: the drain took the rest
                continue
            for a in t:
                v = linear.get(a)
                if v is None or (pick is not None and (len(t), v) >= pick[0]):
                    continue
                shift = pk.shifts[v]
                if not any(b != a and (b >> shift) & fm for b in t):
                    pick = ((len(t), v), k, a, v)
        if pick is None:
            break
        _, k, a, v = pick
        t = gens.pop(k)
        c = t[a]
        # x = -h/c; exact, as an int c never meets `/`
        scale = -c if c == 1 or c == -1 else -Fraction(1, c)
        image = Polynomial(ctx, {b: d * scale for b, d in t.items() if b != a})
        solved.append((ctx.names[v], image))
        shift = pk.shifts[v]
        unit = pk.units[v]
        powers = [{0: 1}, image.terms]  # the term maps of image^0, image^1, ...
        out = []
        for t in gens:
            if not any((b >> shift) & fm for b in t):
                out.append(t)
                continue
            # f = sum_e f_e x^e with x not in the f_e: f(image) = sum_e f_e image^e
            f: dict = {}
            for b, d in t.items():
                e = (b >> shift) & fm
                while len(powers) <= e:
                    powers.append((Polynomial(ctx, powers[-1]) * image).terms)
                base = b - e * unit
                for m, q in powers[e].items():
                    m += base
                    if m & hi:
                        raise OverflowError(f"an exponent of the product exceeds {_FIELD_MAX}")
                    acc = f.get(m, 0) + d * q
                    if acc:
                        f[m] = acc
                    else:
                        del f[m]
            if f:
                out.append(f)
        gens = out
        live.remove(v)
    if not solved:
        return I, solved
    return _restricted(ctx, live, gens), solved


# ---------------------------------------------------------------------------
# Dimension and Hilbert series
# ---------------------------------------------------------------------------


def _minimal_monomials(monos: Iterable[int], pk: _Pack) -> list[int]:
    # ascending packed order is ascending degree, so divisors come first
    out: list[int] = []
    for m in sorted(set(monos)):
        if not any(pk.divides(g, m) for g in out):
            out.append(m)
    return out


def _hilbert_data(gb: GroebnerBasis) -> HilbertData:
    """Hilbert data of R/in(I), read off the leading monomials of a
    degrevlex basis gb of I (1 not in I).

    For homogeneous I it is the Hilbert data of R/I, which has the same
    Hilbert function as R/in(I) (Macaulay); for any I its dimension is
    dim R/I (see krull_dimension).
    """
    if gb.contains_one():
        raise ValueError("unit ideal")
    ctx = gb.ctx
    lead = tuple(_minimal_monomials(gb.leading_monomials(), ctx.pack))
    ncoef = list(_hilbert_numerator_monomial(ctx, lead))
    cancelled, e = _strip_one_minus_q(ncoef)
    n = ctx.nvars
    return HilbertData(
        numerator=_q_poly(ncoef),
        num_vars=n,
        dimension=n - e,
        cancelled_numerator=_q_poly(cancelled),
    )


def krull_dimension(I: IdealGens) -> int:
    """Dimension of the quotient: n - e, where (1-q)^e is the largest power
    of (1-q) dividing the Hilbert numerator of R/in(I), for the degrevlex
    leading-term ideal in(I).

    dim R/I = dim R/in(I) for a graded order (Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, 9.3), and the monomial quotient has Hilbert
    series numerator/(1-q)^n, whose pole at q = 1 has order its dimension.
    """
    return _hilbert_data(buchberger(I)).dimension


# a packed monomial means something only with its variable count, so that is in the key
@memoized(lambda ctx, gens: (ctx.nvars, tuple(sorted(gens))))
def _hilbert_numerator_monomial(ctx: Context, gens: tuple[int, ...]) -> tuple[int, ...]:
    """Numerator coefficients of Hilb(R/M) * (1-q)^n for a monomial ideal M."""
    pk = ctx.pack
    if not gens:
        out = (1,)
    elif all(len(ctx.exponents(m)) == 1 for m in gens):
        # pure powers of distinct variables: product of (1 - q^deg)
        out = (1,)
        for m in gens:
            d = m >> pk.degshift
            nxt = [0] * (len(out) + d)
            for i, c in enumerate(out):
                nxt[i] += c
                nxt[i + d] -= c
            out = tuple(nxt)
    else:
        # split on the most shared variable
        counts: dict[int, int] = {}
        for m in gens:
            exps = ctx.exponents(m)
            if len(exps) > 1:
                for v, _ in exps:
                    counts[v] = counts.get(v, 0) + 1
        pivot = min(counts, key=lambda v: (-counts[v], v))
        pv = pk.units[pivot]
        plus = _minimal_monomials([m for m in gens if not pk.divides(pv, m)] + [pv], pk)
        colon = _minimal_monomials((m - pv if pk.divides(pv, m) else m for m in gens), pk)
        a = _hilbert_numerator_monomial(ctx, tuple(plus))
        b = _hilbert_numerator_monomial(ctx, tuple(colon))
        nxt = [0] * max(len(a), len(b) + 1)
        for i, c in enumerate(a):
            nxt[i] += c
        for i, c in enumerate(b):
            nxt[i + 1] += c
        out = tuple(nxt)
    return out


def _strip_one_minus_q(coeffs: list[int]) -> tuple[list[int], int]:
    """Divide out every (1-q) factor; returns (reduced coeffs, count)."""
    count = 0
    cur = list(coeffs)
    while cur and sum(cur) == 0:
        acc = 0
        quotient = []
        for c in cur[:-1]:
            acc += c
            quotient.append(acc)
        if not quotient:
            break
        cur = quotient
        count += 1
    while len(cur) > 1 and cur[-1] == 0:
        cur.pop()
    return cur, count


def hilbert_numerator(I: IdealGens) -> HilbertData:
    """Hilbert series data of R/I for homogeneous I (1 not in I)."""
    for g in I.generators:
        if not g.is_homogeneous():
            raise ValueError("hilbert_numerator requires homogeneous generators")
    return _hilbert_data(buchberger(I))


# ---------------------------------------------------------------------------
# Tangent cones
# ---------------------------------------------------------------------------


def _cone_key(pk: _Pack):
    """Packed monomial -> int key of the cone order on the layout pk, whose
    last variable is the homogenizing t: the t-exponent first, then the degree
    outside t, then degrevlex on the other variables.

    With ds the degree shift, the key is the degrevlex key plus
    t * (2^(2 ds) - 2^ds): the degree field, below 2^ds, becomes
    deg - t >= 0, and t sits in a new field above it.  So the key orders
    monomials exactly like the tuple (t, deg - t, -a_{n-1}, ..., -a_0)
    of t and the other variables.
    """
    low = pk.lowmask
    ts = pk.shifts[-1]
    lift = (1 << 2 * pk.degshift) - (1 << pk.degshift)
    fm = _FIELD_MASK
    return lambda a: (a ^ low) + ((a >> ts) & fm) * lift


def tangent_cone(I: IdealGens) -> IdealGens:
    """Ideal of lowest-degree forms of <I> at the origin, given by a
    degrevlex Groebner basis of it.

    Each generator is homogenized with a fresh variable t, one basis is
    completed under the cone order (_cone_key), and the lowest-degree
    forms of the dehomogenized basis are returned.  The leading term of a
    homogeneous element is t^k times the degrevlex leading term of the
    lowest-degree form of its dehomogenization, so the dehomogenized basis
    is a standard basis of <I> for the local order that prefers the lowest
    degree, ties by degrevlex (Lazard's method).  The lowest-degree forms
    of such a basis are a degrevlex basis of the cone (Greuel-Pfister, A
    Singular Introduction to Commutative Algebra, 1.7 and 5.5), so the
    cone's Hilbert data are read off their leading monomials with no
    second completion.
    """
    ctx = I.ctx
    for g in I.generators:
        if g.constant_term() != 0:
            raise ValueError("generator with nonzero constant term at the origin")
    if not I.generators:
        return I
    big = _pack_for(ctx.nvars + 1)
    t = big.units[ctx.nvars]
    degshift = ctx.pack.degshift
    up = _repacker(ctx.pack, big, range(ctx.nvars))
    hom = []
    for g in I.generators:
        d = g.total_degree()
        if d - g.min_degree() > _FIELD_MAX:
            raise OverflowError(f"a power of the homogenizing variable exceeds {_FIELD_MAX}")
        hom.append({up(a) + (d - (a >> degshift)) * t: c for a, c in g.terms.items()})
    out = []
    down = _repacker(big, ctx.pack, range(ctx.nvars))
    for lt, tail in _completion_for(big, hom, _cone_key(big)):
        # dehomogenize (t -> 1) and take the lowest-degree form; the element is
        # homogeneous, so no two of its terms have the same part outside t
        g = Polynomial(ctx, {down(a): c for a, c in [*tail.items(), (lt, 1)]})
        out.append(g.lowest_degree_form())
    return IdealGens(ctx, out)


# ---------------------------------------------------------------------------
# Local Hilbert-function oracle
# ---------------------------------------------------------------------------

# the degree up to which every record's tangent cone is checked by the oracle
ORACLE_DEGREE = 6


@memoized(lambda nvars, degree_bound: (nvars, degree_bound))
def _monomials_upto(nvars: int, degree_bound: int) -> tuple[int, ...]:
    """Packed monomials of degree <= degree_bound, ascending.

    The degree sits in the top field, so ascending packed order is
    ascending degree.
    """
    steps = _pack_for(nvars).units
    level = {0}
    out = [0]
    for _ in range(degree_bound):
        level = {m + st for m in level for st in steps}
        out.extend(level)
    return tuple(sorted(out))


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The integer row divided by the gcd of its coefficients."""
    content = gcd(*row.values())
    return {a: c // content for a, c in row.items()} if content != 1 else row


def _powers(series: dict, upto: int, limit: int) -> list[dict]:
    """series^0 .. series^upto truncated below limit, ending early at a zero power.

    The series has no constant term and its terms lie below limit, so its
    first power is itself.
    """
    out = [{0: 1}]
    if series and upto:
        out.append(series)
    while len(out) <= upto:
        nxt: dict = {}
        for a, c in out[-1].items():
            for b, d in series.items():
                t = a + b
                if t < limit:
                    nxt[t] = nxt.get(t, 0) + c * d
        nxt = {t: c for t, c in nxt.items() if c}
        if not nxt:
            break
        out.append(nxt)
    return out


def _substitute(f: dict, shift: int, powers: list[dict], pk: _Pack, limit: int) -> dict:
    """f with the variable at field `shift` replaced by a series, truncated below limit.

    powers[e] is the e-th power of the series; a power past the list is
    zero below limit (the series has no constant term).
    """
    fm = _FIELD_MASK
    degshift = pk.degshift
    out: dict = {}
    for a, c in f.items():
        e = (a >> shift) & fm
        if not e:
            out[a] = out.get(a, 0) + c
        elif e < len(powers):
            base = a - (e << shift) - (e << degshift)
            for b, d in powers[e].items():
                t = base + b
                if t < limit:
                    out[t] = out.get(t, 0) + c * d
    return {t: c for t, c in out.items() if c}


def _eliminate_linear_variables(gens: list[dict], pk: _Pack, degree_bound: int) -> list[int]:
    """Remove, in place, every variable some generator is linear in; return the rest.

    gens are packed series truncated at degree D = degree_bound, with no
    constant term; the list is changed, the maps in it are not.  While some
    g = c*x + h has a linear term c*x, g = 0 is solved for x as a series
    x = -h/c truncated at D; the series replaces x in the other generators,
    and g and x are dropped.  When x is not in h the series is -h/c itself;
    when it is, it takes D rounds of fixed-point substitution, each fixing
    one more degree.  A one-term g = c*x gives x = 0, and the pick (x
    absent from h, then the shortest g) takes those first, so they are
    drained in bulk before each other pick: every such x is dropped with
    every term that holds it, in one pass repeated while new ones appear.
    One scan of the generators finds the c*x and the other pick alike.  By
    the formal inverse function theorem the completions of R/I and R'/I' at
    the origin are isomorphic with m onto m', and dim R/(I + m^{d+1}) for
    d <= D depends only on the generators mod m^{D+1}, so every truncated
    quotient dimension is unchanged.  Each step is a Gaussian elimination
    step on the linear parts, so n - rank(linear parts) variables are left.
    """
    fm = _FIELD_MASK
    low, hi = pk.lowmask, pk.himask
    limit = (degree_bound + 1) << pk.degshift
    linear = pk.unit_index
    gone = 0  # the guard bits of the variables removed
    while True:
        zeroed = 0  # the guard bits of the x of every one-term c*x
        best = None  # ((x in h, len(g)), k, a, v) of the pick so far
        for k, g in enumerate(gens):
            if len(g) == 1:  # c*x, or a monomial of degree >= 2
                (a,) = g
                if a in linear:
                    zeroed |= ((a & low) + low) & hi
                continue
            if zeroed:
                continue
            for a in g:
                v = linear.get(a)
                if v is not None:
                    shift = pk.shifts[v]
                    # prefer x absent from h (one substitution), then the shortest g
                    rank = (any(b != a and (b >> shift) & fm for b in g), len(g))
                    if best is None or rank < best[0]:
                        best = (rank, k, a, v)
        if zeroed:
            # x = 0 for every such x: each pass drops the terms holding one,
            # and notes the c*x it leaves for the next
            while zeroed:
                gone |= zeroed
                rest = []
                more = 0
                for g in gens:
                    for b in g:
                        if ((b & low) + low) & zeroed:
                            break
                    else:
                        rest.append(g)
                        continue
                    if len(g) == 1:  # c*x and the monomials holding a zeroed x go
                        continue
                    g = {b: c for b, c in g.items() if not ((b & low) + low) & zeroed}
                    if len(g) == 1:
                        (b,) = g
                        if b in linear:
                            more |= ((b & low) + low) & hi
                            continue
                    if g:
                        rest.append(g)
                gens[:] = rest
                zeroed = more
            continue
        if best is None:
            return [v for v in range(pk.n) if not gone & (1 << pk.shifts[v] + _FIELD_BITS - 1)]
        (inh, _), k, a, v = best
        h = gens.pop(k)
        shift = pk.shifts[v]
        c = h[a]
        scale = -c if c in (1, -1) else -1 / Fraction(c)
        h = {b: d for b, d in h.items() if b != a}
        if inh:
            # x = scale * h(x) by rounds from x = 0, each fixing one more degree
            top = max((b >> shift) & fm for b in h)
            series: dict = {}
            for _ in range(degree_bound):
                powers = _powers(series, top, limit)
                nxt = {b: scale * d for b, d in _substitute(h, shift, powers, pk, limit).items()}
                if nxt == series:
                    break
                series = nxt
        else:
            series = {b: scale * d for b, d in h.items()}
        top = 0
        for f in gens:
            for b in f:
                if (b >> shift) & fm > top:
                    top = (b >> shift) & fm
        if top:
            powers = _powers(series, top, limit)
            rest = []
            for f in gens:
                for b in f:
                    if (b >> shift) & fm:
                        f = _substitute(f, shift, powers, pk, limit)
                        break
                if f:
                    rest.append(f)
            gens[:] = rest
        gone |= 1 << shift + _FIELD_BITS - 1  # the guard bit of x


def _integer_rows(gens: list[dict], pk: _Pack, live: list[int]) -> list[dict[int, int]]:
    """The generators repacked over the live variables, scaled to coprime integers."""
    if not gens:
        return []
    move = _repacker(pk, _pack_for(len(live)), live)
    rows = []
    for g in gens:
        den = lcm(*(c.denominator for c in g.values()))
        rows.append(_primitive({move(a): c.numerator * (den // c.denominator) for a, c in g.items()}))
    return rows


def local_hilbert_oracle(I: IdealGens, degree_bound: int = ORACLE_DEGREE) -> tuple[int, ...]:
    """dim_Q of R/(<I> + m^{d+1}) for d = 0..degree_bound.

    First differences give the Hilbert function of the tangent cone at the
    origin in degrees <= degree_bound.  Independent of the Groebner kernel.
    First every variable some generator is linear in is solved for and
    substituted away, as a power series truncated at degree D =
    degree_bound (_eliminate_linear_variables); that leaves
    n' = n - rank(linear parts) variables and the same quotient dimensions.
    What is left, as coprime integer rows over the n' variables, goes to
    the Macaulay stage (_macaulay_counts), which runs once per
    position-canonical system: many ideals leave the same rows.  A degree
    bound outside 0.._FIELD_MAX raises ValueError: the monomials up to it
    must fit the packed fields.
    """
    if not 0 <= degree_bound <= _FIELD_MAX:
        raise ValueError(f"oracle degree bound must lie in 0..{_FIELD_MAX}, got {degree_bound}")
    pk = I.ctx.pack
    top = (degree_bound + 1) << pk.degshift  # terms of degree <= D lie below
    gens = []
    for g in I.generators:
        terms = g.terms
        if MONOMIAL_ONE in terms:
            raise ValueError("generator with nonzero constant term at the origin")
        if max(terms) >= top:
            terms = {m: c for m, c in terms.items() if m < top}
        if terms:
            gens.append(terms)
    kept = _eliminate_linear_variables(gens, pk, degree_bound)
    return _macaulay_counts(len(kept), _integer_rows(gens, pk, kept), degree_bound)


def _macaulay_key(n: int, rows: list[dict[int, int]], degree_bound: int) -> tuple:
    """The variable count, the sorted row terms and the degree bound.

    Rows over n variables are packed in the one layout of n variables, so
    the key holds no names, and the counts depend on the span of the rows,
    not on their order.
    """
    return (n, tuple(sorted(tuple(sorted(row.items())) for row in rows)), degree_bound)


@memoized(_macaulay_key)
def _macaulay_counts(n: int, rows: list[dict[int, int]], degree_bound: int) -> tuple[int, ...]:
    """dim_Q of R'/(<rows> + m^{d+1}) for d = 0..degree_bound, R' in n variables.

    One exact elimination of the Macaulay matrix whose rows are the
    monomial multiples m*g of the rows truncated at degree D, and whose
    columns are the monomials of degree <= D in the n variables, in
    ascending degree.  With every pivot at its row's smallest column, the
    pivots of degree <= d span (<rows> + m^{d+1}) / m^{d+1}, so
    dim R'/(<rows> + m^{d+1}) = C(n+d, n) - #pivots of degree <= d.
    A row is built only when it must be reduced: g's terms ascend, and so
    do m plus each, so m*g's smallest column is m plus g's first term.  Only
    multipliers with deg m + min deg g <= D are taken, so that column lies
    below the truncation.  If it is new, the row would become its pivot
    unreduced, so it holds (m, g) until a later row reduces against it.
    The pivot columns are the smallest columns of the row space, so the
    counts do not depend on when a row is built.  A one-term row is an
    ordinary row: each multiple m*a is the pivot of column m + a.
    """
    degshift = _pack_for(n).degshift
    limit = (degree_bound + 1) << degshift  # packed monomials of degree <= D lie below
    # m*g truncates to zero once deg m + min deg g > D, i.e. from packed m >= bound
    polys = [
        ((degree_bound - (min(row) >> degshift) + 1) << degshift, sorted(row.items()))
        for row in rows
    ]
    stop = max((bound for bound, _ in polys), default=0)
    pivots: dict = {}  # column -> its row, or the (m, terms) it is built from
    for m in _monomials_upto(n, degree_bound):
        if m >= stop:
            break
        for bound, terms in polys:
            if m >= bound:
                continue
            p = terms[0][0] + m
            prow = pivots.get(p)
            if prow is None:
                pivots[p] = (m, terms)
            else:
                row = {t: c for e, c in terms if (t := e + m) < limit}
                while True:  # fraction-free: the row is scaled by the pivot coefficient over their gcd
                    if prow.__class__ is tuple:
                        k, ts = prow
                        prow = pivots[p] = {t: c for e, c in ts if (t := e + k) < limit}
                    a = row[p]
                    b = prow[p]
                    g = gcd(a, b)
                    a //= g
                    b //= g
                    if b != 1:
                        row = {t: b * c for t, c in row.items()}
                    for t, c in prow.items():
                        acc = row.get(t, 0) - a * c
                        if acc:
                            row[t] = acc
                        else:
                            del row[t]
                    if not row:
                        break
                    p = min(row)
                    prow = pivots.get(p)
                    if prow is None:
                        pivots[p] = _primitive(row)
                        break
    per_degree = [0] * (degree_bound + 1)
    for p in pivots:
        per_degree[p >> degshift] += 1
    counts = []
    rank = 0
    for d in range(degree_bound + 1):
        rank += per_degree[d]
        counts.append(comb(n + d, n) - rank)
    return tuple(counts)
