"""Ideal algorithms over exact rationals.

Buchberger completion with the Gebauer-Moller pair criteria and normal
selection strategy, reduced bases, normal forms, ideal equality, exact
elimination of the variables a generator is linear in, Krull dimension
from the Hilbert numerator of the leading-term ideal, Hilbert series of
homogeneous ideals by recursive splitting of the leading-term monomial
ideal, tangent cones by one completion of the homogenized ideal, and a
local Hilbert-function oracle used to cross-check every multiplicity the
package ever reports.

There are two monomial orders, each one int key and no cache: degrevlex
(poly.degrevlex_key), the order of every basis buchberger returns, and
the cone order (_cone_key), under which tangent_cone completes the
homogenized ideal.  The lowest-degree forms of that one basis are a
degrevlex basis of the cone, so its Hilbert data come from their leading
monomials (_hilbert_data, shared with hilbert_numerator).

A local invariant at the origin is computed on the ring that
solve_linear_variables leaves: while some generator is g = c*x + h with x
not in h, x = -h/c is substituted exactly and g and x are dropped, which
is an isomorphism of quotient rings sending the origin to the origin.
At a fixed point most generators are single coordinates c*x, whose image
is 0, so before each general pick both eliminations drain them: every
such x is set to zero in one pass, keeping the terms that hold none of
them, until no generator c*x is left.  Each pick rule takes these
generators before any other, so the drain reaches the ring that one
variable per pass reaches.  The kernel's drain is one helper on term
maps (_drain), which ideal_equal runs too: since I = (x) + I|x=0 for a
coordinate x of I, it drains the coordinates both ideals share before it
compares them.
The oracle shares no code with this kernel, those eliminations included:
it takes the ideal as it was, solves away every variable a generator is
linear in by its own truncated power-series substitution, then runs one
fraction-free integer elimination of the truncated Macaulay matrix of
what is left.

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
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Iterable, Sequence

from .memo import memoized
from .poly import (
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
            if not g.is_zero():
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
        k = self.num_vars
        ncoef = _q_coeffs(self.numerator)
        if k == 0:  # no (1-q) to expand: the series is the numerator
            return (ncoef + [0] * upto)[:upto + 1]
        out = []
        for d in range(upto + 1):
            total = 0
            for e, ce in enumerate(ncoef):
                if e > d:
                    break
                total += ce * comb(k - 1 + d - e, k - 1)
            out.append(total)
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


class _Completion:
    """Buchberger completion state: basis elements, pair heap and reducers."""

    def __init__(self, keyf, pk: _Pack):
        self.keyf = keyf
        self.pk = pk
        self.lts: list[int] = []
        self.tails: list[dict] = []
        self.pairs: list = []  # heap of (lcm_key, i, j, lcm)
        self.dead_pairs: set[tuple[int, int]] = set()
        self.reducers: list = []  # _reducer entries, kept sorted

    def add(self, lt: int, tail: dict):
        """Gebauer-Moller pair update with a new monic element."""
        keyf = self.keyf
        pk = self.pk
        t = len(self.lts)
        degshift = pk.degshift
        new_ltdeg = lt >> degshift
        divides = pk.divides
        lcm = pk.lcm
        hi, low = pk.himask, pk.lowmask
        ltmask = ((lt & low) + low) & hi  # pk.support_mask(lt)
        lcms = {}
        live = []
        blockers = []
        for i, li in enumerate(self.lts):
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
        for (_, i, j, l) in self.pairs:
            if (i, j) in self.dead_pairs:
                continue
            if new_ltdeg <= (l >> degshift) and divides(lt, l):
                if lcm(self.lts[i], lt) != l and lcm(self.lts[j], lt) != l:
                    self.dead_pairs.add((i, j))
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
                    heapq.heappush(self.pairs, (keyf(li), i, t, li))
        self.lts.append(lt)
        self.tails.append(tail)
        insort(self.reducers, _reducer(t, lt, tail, keyf, pk))

    def pop_pair(self):
        while self.pairs:
            _, i, j, l = heapq.heappop(self.pairs)
            if (i, j) in self.dead_pairs:
                continue
            self.dead_pairs.add((i, j))
            return i, j, l
        return None

    def absorb(self, terms: dict):
        """Reduce terms against the basis so far and add the monic remainder."""
        r = _reduce_raw(terms, self.reducers, self.keyf, self.pk)
        if r:
            self.add(*_monic_raw(r, self.keyf))

    def seed(self, term_dicts):
        for terms in term_dicts:
            self.absorb(terms)

    def run(self):
        while (nxt := self.pop_pair()) is not None:
            i, j, l = nxt
            self.absorb(_spoly(self.lts[i], self.tails[i], self.lts[j], self.tails[j], l))

    def reduced_elements(self):
        """Minimalize and tail-reduce, sorted ascending by leading term."""
        keyf = self.keyf
        pk = self.pk
        idx = sorted(range(len(self.lts)), key=lambda i: (keyf(self.lts[i]), i))
        minimal: list[int] = []
        for i in idx:
            if not any(pk.divides(self.lts[j], self.lts[i]) for j in minimal):
                minimal.append(i)
        # one reducer set serves every element: a leading term never divides
        # the smaller terms of its own tail
        reducers = _make_reducers(((self.lts[i], self.tails[i]) for i in minimal), keyf, pk)
        return [(self.lts[i], _reduce_raw(self.tails[i], reducers, keyf, pk)) for i in minimal]


def _completion_for(pk: _Pack, term_maps: Iterable[dict], keyf) -> _Completion:
    """The finished completion of the term maps, packed in pk, under the
    order of the int key keyf, seeded in ascending order of leading term."""
    comp = _Completion(keyf, pk)
    comp.seed(sorted(term_maps, key=lambda t: keyf(max(t, key=keyf))))
    comp.run()
    return comp


def _drain(pk: _Pack, *systems: list[dict]) -> tuple[Sequence[list[dict]], list[int]]:
    """Zero every variable x that has a coordinate generator c*x in each of
    the systems of term maps, packed in pk: with one system (as
    solve_linear_variables runs it), all of its coordinates; with two (as
    ideal_equal runs it), those they share.

    Every such x is set to zero in one pass: each map drops the terms that
    hold one of them (it stays the same map if it drops none, and goes if
    nothing is left, as c*x does), and the pass repeats while new
    coordinates appear.  Returns the systems left, each in its order, and
    the zeroed variables, pass by pass, each pass in ascending order.
    """
    hi, low, degshift = pk.himask, pk.lowmask, pk.degshift
    zeroed: list[int] = []
    while True:
        mask = hi  # the guard bits of the variables to zero
        for maps in systems:
            seen = 0
            for t in maps:
                if len(t) == 1:
                    for m in t:
                        if m >> degshift == 1:
                            seen |= ((m & low) + low) & hi  # pk.support_mask(m)
            mask &= seen
        if not mask:
            return systems, zeroed
        bits = mask
        while bits:  # the guard bit of variable v is bit 8v + 7
            bit = bits & -bits
            zeroed.append(bit.bit_length() // _FIELD_BITS - 1)
            bits ^= bit
        left = []
        for maps in systems:
            out = []
            for t in maps:
                if len(t) == 1:  # stays or goes whole
                    for m in t:
                        if not ((m & low) + low) & mask:
                            out.append(t)
                    continue
                kept = {b: d for b, d in t.items() if not ((b & low) + low) & mask}
                if len(kept) == len(t):
                    out.append(t)
                elif kept:
                    out.append(kept)
            left.append(out)
        systems = left


def _restricted(ctx: Context, live: list[int], maps: list[dict]) -> IdealGens:
    """Term maps in the variables live only, as the ideal they generate in
    the ring of those variables, which keep their names."""
    small = Context([ctx.names[v] for v in live], [ctx.latex_names[v] for v in live])
    move = _repacker(ctx.pack, small.pack, live)
    return IdealGens(small, [Polynomial(small, {move(b): d for b, d in t.items()}) for t in maps])


def buchberger(ideal: IdealGens) -> GroebnerBasis:
    """Reduced degrevlex Groebner basis; deterministic for fixed input."""
    ctx = ideal.ctx
    comp = _completion_for(ctx.pack, (g.terms for g in ideal.generators), degrevlex_key(ctx))
    basis = tuple(Polynomial(ctx, {lt: 1, **tail}) for lt, tail in comp.reduced_elements())
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
    systems, zeroed = _drain(ctx.pack, *([g.terms for g in K.generators] for K in (I, J)))
    if zeroed:
        live = [v for v in range(ctx.nvars) if v not in zeroed]
        I, J = (_restricted(ctx, live, maps) for maps in systems)
    gens = dict.fromkeys(I.generators + J.generators)
    # IdealGens drops repeats, so I and J have one generator set exactly
    # when their union is no larger than either
    if len(gens) == len(I.generators) == len(J.generators):
        return True
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
    which keep their names.

    solved lists (name of x, -h/c) in the order of elimination, each image
    in I.ctx; the zero images of one drain pass come in variable order.
    An image may hold variables solved later, so a point of V(I') lifts
    to V(I) by evaluating the images in reverse.  (I, []) comes back when
    nothing is solved.
    """
    ctx = I.ctx
    pk = ctx.pack
    fm = _FIELD_MASK
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
        powers = [image]  # image^1, image^2, ...
        out = []
        for t in gens:
            # f = f_0 + sum_e f_e x^e with x not in the f_e: f(image) = f_0 + sum_e f_e image^e
            parts: dict[int, dict] = {}
            for b, d in t.items():
                e = (b >> shift) & fm
                parts.setdefault(e, {})[b - e * unit] = d
            if parts.keys() == {0}:
                out.append(t)
                continue
            while len(powers) < max(parts):
                powers.append(powers[-1] * image)
            f = Polynomial(ctx, parts.pop(0, {}))
            for e, terms in parts.items():
                f = f + Polynomial(ctx, terms) * powers[e - 1]
            if f.terms:
                out.append(f.terms)
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
    comp = _completion_for(big, hom, _cone_key(big))

    out = []
    down = _repacker(big, ctx.pack, range(ctx.nvars))
    for lt, tail in comp.reduced_elements():
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
    """series^0 .. series^upto truncated below limit, ending early at a zero power."""
    out = [{0: 1}]
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
    constant term.  While some g = c*x + h has a linear term c*x, g = 0 is
    solved for x as a series x = -h/c truncated at D (when x occurs in h,
    by D rounds of fixed-point substitution, each fixing one more degree);
    the series replaces x in the other generators, and g and x are
    dropped.  A one-term g = c*x gives x = 0, and the pick (x absent from
    h, then the shortest g) takes those first, so they are drained in bulk
    before each other pick: every such x is dropped with every term that
    holds it, in one pass repeated while new ones appear.  By the formal
    inverse function theorem the completions of
    R/I and R'/I' at the origin are isomorphic with m onto m', and
    dim R/(I + m^{d+1}) for d <= D depends only on the generators mod
    m^{D+1}, so every truncated quotient dimension is unchanged.  Each step
    is a Gaussian elimination step on the linear parts, so
    n - rank(linear parts) variables are left.
    """
    fm = _FIELD_MASK
    low = pk.lowmask
    limit = (degree_bound + 1) << pk.degshift
    linear = {unit: v for v, unit in enumerate(pk.units)}
    live = list(range(pk.n))
    while True:
        # a one-term series c*x solves to x = 0: drop every such g and every
        # term holding such an x in one pass, then look again
        zeroed = 0
        rest = []
        for g in gens:
            if len(g) == 1 and next(iter(g)) in linear:
                zeroed |= pk.support_mask(next(iter(g)))
            else:
                rest.append(g)
        if zeroed:
            gens.clear()
            for g in rest:
                f = {b: c for b, c in g.items() if not ((b & low) + low) & zeroed}
                if f:
                    gens.append(f)
            live = [v for v in live if not pk.support_mask(pk.units[v]) & zeroed]
            continue
        # prefer x absent from h (one substitution), then the shortest g
        best = None
        for k, g in enumerate(gens):
            if len(g) == 1:  # a monomial of degree >= 2: the drain took the rest
                continue
            for a in g:
                v = linear.get(a)
                if v is not None:
                    shift = pk.shifts[v]
                    rank = (any(b != a and (b >> shift) & fm for b in g), len(g))
                    if best is None or rank < best[0]:
                        best = (rank, k, a, v)
        if best is None:
            return live
        _, k, a, v = best
        h = gens.pop(k)
        shift = pk.shifts[v]
        c = h.pop(a)
        scale = -c if c in (1, -1) else -1 / Fraction(c)
        # x = scale * h(x) by rounds from x = 0: each round fixes one more
        # degree, and when x is not in h the second round confirms the first
        top = max(((b >> shift) & fm for b in h), default=0)
        series: dict = {}
        for _ in range(degree_bound):
            powers = _powers(series, top, limit)
            nxt = {b: scale * d for b, d in _substitute(h, shift, powers, pk, limit).items()}
            if nxt == series:
                break
            series = nxt
        hit = [j for j, f in enumerate(gens) if any((b >> shift) & fm for b in f)]
        if hit:
            top = max((b >> shift) & fm for j in hit for b in gens[j])
            powers = _powers(series, top, limit)
            for j in hit:
                gens[j] = _substitute(gens[j], shift, powers, pk, limit)
        gens[:] = [f for f in gens if f]
        live.remove(v)


def _integer_rows(gens: list[dict], pk: _Pack, live: list[int]) -> list[dict[int, int]]:
    """The generators repacked over the live variables, scaled to coprime integers."""
    move = _repacker(pk, _pack_for(len(live)), live)
    rows = []
    for g in gens:
        den = lcm(*(c.denominator for c in g.values()))
        rows.append(_primitive({move(a): c.numerator * (den // c.denominator) for a, c in g.items()}))
    return rows


def _eliminate(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> bool:
    """Reduce an integer row (consumed) against pivot rows keyed by their smallest column.

    Fraction-free: each step scales the row by the pivot coefficient over
    their gcd.  A row left nonzero becomes a new pivot, divided by its
    content; returns whether that happened.
    """
    while row:
        p = min(row)
        prow = pivots.get(p)
        if prow is None:
            pivots[p] = _primitive(row)
            return True
        a = row[p]
        b = prow[p]
        g = gcd(a, b)
        a //= g
        b //= g
        if b != 1:
            row = {m: b * c for m, c in row.items()}
        for m, c in prow.items():
            acc = row.get(m, 0) - a * c
            if acc:
                row[m] = acc
            else:
                del row[m]
    return False


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
    for g in I.generators:
        if g.constant_term() != 0:
            raise ValueError("generator with nonzero constant term at the origin")
    pk = I.ctx.pack
    top = (degree_bound + 1) << pk.degshift  # terms of degree <= D lie below
    gens = []
    for g in I.generators:
        terms = {m: c.numerator if c.denominator == 1 else c for m, c in g.terms.items() if m < top}
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
    """
    degshift = _pack_for(n).degshift
    cols = _monomials_upto(n, degree_bound)
    limit = (degree_bound + 1) << degshift  # packed monomials of degree <= D lie below
    # a monomial generator is a single-entry pivot on every column it divides:
    # those dead columns count as pivots and never enter a row
    dead: set[int] = set()
    for row in rows:
        if len(row) == 1:
            (a,) = row
            dead.update(a + m for m in cols[: bisect_left(cols, limit - a)])
    # m*g truncates to zero once deg m + min deg g > D, i.e. from packed m >= bound
    polys = [
        ((degree_bound - (min(row) >> degshift) + 1) << degshift, row)
        for row in rows
        if len(row) > 1
    ]
    stop = max((bound for bound, _ in polys), default=0)
    live = len(cols) - len(dead)
    pivots: dict[int, dict[int, int]] = {}
    for m in cols:
        if m >= stop or len(pivots) == live:
            break
        if m in dead:
            continue
        for bound, g in polys:
            if m >= bound:
                continue
            row = {t: c for a, c in g.items() if (t := a + m) < limit and t not in dead}
            if row and _eliminate(row, pivots) and len(pivots) == live:
                break
    per_degree = [0] * (degree_bound + 1)
    for p in dead:
        per_degree[p >> degshift] += 1
    for p in pivots:
        per_degree[p >> degshift] += 1
    counts = []
    rank = 0
    for d in range(degree_bound + 1):
        rank += per_degree[d]
        counts.append(comb(n + d, n) - rank)
    return tuple(counts)
