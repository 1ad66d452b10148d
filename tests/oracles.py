"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the package's optimized paths.
Monomials are read only as dense exponent tuples, through
Context.exponents and Context.monomial, and divisibility, lcm, quotients,
degrevlex and the cone order are defined on those tuples, so the
Buchberger oracle shares no monomial arithmetic or order key with the
kernel; it also has no pair criteria.  The kernel's earlier division,
monomial reducers scanned in one list and the rest in another, is kept as
a reference for its one-list scan.  Krull dimension is the search for
the largest variable set meeting no leading-monomial support, not a
Hilbert series.  Bruhat
order goes through the subword property on reduced words (the
reflection count of a tangent space takes the order as a parameter, the
package's rank-table order by default), and the Bruhat pairs of S_n are
a scan of all of S_n x S_n on counted rank tables.  Kazhdan-Lusztig
polynomials are solved from the defining degree and inversion conditions via
R-polynomials, monomial counting is
plain enumeration, and local quotient dimensions are dense Gaussian
ranks, one matrix per degree; so is the Zariski tangent dimension, one
matrix of the generators' linear parts.  The oracle's Macaulay stage,
which builds a row only when another reduces against it, is checked
against the row-by-row elimination it replaced.  The kernel's exact linear
solve and the oracle's series elimination are redone one variable per pass on dense
term maps, by the pick rules they had before either drained its
one-term generators in bulk.  The opposite-side
references read upper-left ranks directly, not through w0, and the
rank-condition references count ranks off the permutation.  A minor of
a chart matrix is the Leibniz sum over the orderings of its rows, not
the package's memoized expansion along the last column.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, permutations as itpermutations, product

from richardson.poly import Context, Polynomial
from richardson.permutations import Permutation, bruhat_leq


# ---------------------------------------------------------------------------
# monomials as dense exponent tuples, compared by the textbook definitions
# ---------------------------------------------------------------------------


def dense(ctx: Context, m) -> tuple[int, ...]:
    """The exponent vector of a monomial of ctx, read through Context.exponents."""
    out = [0] * ctx.nvars
    for v, e in ctx.exponents(m):
        out[v] = e
    return tuple(out)


def packed(ctx: Context, exps: tuple[int, ...]):
    """The monomial of ctx with exponent vector exps, made by Context.monomial."""
    return ctx.monomial([(v, e) for v, e in enumerate(exps) if e])


def divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def quotient(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a / b for b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def compare(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """-1, 0 or 1 as a <, = or > b in degrevlex (Cox-Little-O'Shea 2.2):
    the higher degree wins, then a > b when the rightmost nonzero entry of
    a - b is negative."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    diff = [x - y for x, y in zip(a, b) if x != y]
    if not diff:
        return 0
    return 1 if diff[-1] < 0 else -1


def degrevlex_tuple_key(ctx: Context):
    """Degrevlex in the context order as the tuple (deg, -a_{n-1}, ..., -a_0)
    of the dense exponent vector."""

    def key(m):
        a = dense(ctx, m)
        return (sum(a),) + tuple(-e for e in reversed(a))

    return key


def cone_tuple_key(ctx: Context):
    """The cone order of a context whose last variable is t, as the tuple
    (t, deg - t, -a_{n-1}, ..., -a_0) of the dense exponent vector with
    t = a_n: the t-exponent first, then the degree outside t, then
    degrevlex on the other variables."""

    def key(m):
        *a, t = dense(ctx, m)
        return (t, sum(a)) + tuple(-e for e in reversed(a))

    return key


def monomial_key(ctx: Context):
    """A sort key on the monomials of ctx that follows compare."""
    cmp = cmp_to_key(compare)
    return lambda m: cmp(dense(ctx, m))


# ---------------------------------------------------------------------------
# straightforward Buchberger: FIFO pairs, no criteria
# ---------------------------------------------------------------------------


def _lt(p: Polynomial, keyf):
    return max(p.terms, key=keyf)


def _term(ctx: Context, exps: tuple[int, ...], c) -> Polynomial:
    return Polynomial(ctx, {packed(ctx, exps): c})


def _divide_once(p: Polynomial, basis, keyf):
    ctx = p.ctx
    for g in basis:
        ltg = _lt(g, keyf)
        ltp = _lt(p, keyf)
        if divides(dense(ctx, ltg), dense(ctx, ltp)):
            c = Fraction(p.terms[ltp]) / g.terms[ltg]
            return p - _term(ctx, quotient(dense(ctx, ltp), dense(ctx, ltg)), c) * g
    return None


def naive_normal_form(p: Polynomial, basis, keyf) -> Polynomial:
    rem = p.ctx.zero()
    while not p.is_zero():
        step = _divide_once(p, basis, keyf)
        if step is None:
            ltp = _lt(p, keyf)
            rem = rem + Polynomial(p.ctx, {ltp: p.terms[ltp]})
            p = p - Polynomial(p.ctx, {ltp: p.terms[ltp]})
        else:
            p = step
    return rem


def two_list_normal_form(ctx: Context, work: dict, items, keyf) -> dict:
    """Full normal form of a packed term map against monic (lt, tail)
    reducers by the kernel's earlier two-list scan.

    The reducers without a tail (monomials) form one list and the rest
    another, each sorted by (keyf(lt), position in items).  The largest
    term left under keyf is deleted by the first monomial whose leading
    term divides it; failing that, the first such polynomial reduces it;
    failing that, it goes to the remainder.  Divisibility and quotients
    are taken on dense exponent tuples.
    """
    ranked = sorted(enumerate(items), key=lambda e: (keyf(e[1][0]), e[0]))
    monos = [dense(ctx, lt) for _, (lt, tail) in ranked if not tail]
    polys = [(dense(ctx, lt), tail) for _, (lt, tail) in ranked if tail]
    work = dict(work)
    out = {}
    while work:
        m = max(work, key=keyf)
        c = work.pop(m)
        dm = dense(ctx, m)
        if any(divides(lt, dm) for lt in monos):
            continue
        hit = next(((lt, tail) for lt, tail in polys if divides(lt, dm)), None)
        if hit is None:
            out[m] = c
            continue
        lt, tail = hit
        cof = quotient(dm, lt)
        for tm, tc in tail.items():
            mm = packed(ctx, _shifted(dense(ctx, tm), cof))
            acc = work.get(mm, 0) - c * tc
            if acc:
                work[mm] = acc
            else:
                work.pop(mm, None)
    return out


def naive_buchberger(gens) -> list[Polynomial]:
    """Reduced degrevlex basis by pairwise reduction of every S-polynomial,
    no pruning."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    ctx = gens[0].ctx
    keyf = monomial_key(ctx)
    basis = list(gens)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        f, g = basis[i], basis[j]
        ltf, ltg = dense(ctx, _lt(f, keyf)), dense(ctx, _lt(g, keyf))
        l = lcm(ltf, ltg)
        s = (
            _term(ctx, quotient(l, ltf), Fraction(1) / f.terms[_lt(f, keyf)]) * f
            - _term(ctx, quotient(l, ltg), Fraction(1) / g.terms[_lt(g, keyf)]) * g
        )
        r = naive_normal_form(s, basis, keyf)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize and reduce
    monic = []
    for g in basis:
        lt = _lt(g, keyf)
        monic.append(g * (Fraction(1) / g.terms[lt]))
    minimal = []
    for g in monic:
        lt = _lt(g, keyf)
        others = [h for h in monic if h is not g]
        if not any(
            divides(dense(ctx, _lt(h, keyf)), dense(ctx, lt)) for h in others if _lt(h, keyf) != lt
        ):
            if all(_lt(h, keyf) != lt or h is g for h in minimal + others[: 0]):
                minimal.append(g)
    # drop duplicates with equal leading terms
    seen = set()
    kept = []
    for g in minimal:
        lt = _lt(g, keyf)
        if lt not in seen:
            seen.add(lt)
            kept.append(g)
    reduced = []
    for g in kept:
        others = [h for h in kept if h is not g]
        reduced.append(
            naive_normal_form(g, others, keyf) if others else g
        )
    reduced = [g for g in reduced if not g.is_zero()]
    reduced.sort(key=lambda g: keyf(_lt(g, keyf)))
    return reduced


def krull_dimension_by_subsets(lead: list[tuple[int, ...]], nvars: int) -> int:
    """dim R/I from dense leading monomials of a basis of I: the size of the
    largest variable set containing the support of none of them
    (Cox-Little-O'Shea 9.3), searched from nvars variables down."""
    supports = [{v for v, e in enumerate(m) if e} for m in lead]
    if any(not s for s in supports):
        raise ValueError("unit ideal has no dimension")
    for size in range(nvars, -1, -1):
        for subset in combinations(range(nvars), size):
            if not any(s <= set(subset) for s in supports):
                return size
    raise AssertionError("the empty set contains no nonempty support")


# ---------------------------------------------------------------------------
# Bruhat order via the subword property
# ---------------------------------------------------------------------------


def reduced_word(w: Permutation) -> list[int]:
    """One reduced word, by repeatedly removing a right descent."""
    word = []
    cur = w
    while cur.length() > 0:
        j = cur.right_descents()[0]
        word.append(j)
        cur = cur.swap_positions(j, j + 1)
    word.reverse()
    return word


def subword_bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """v <= w iff some subword of a reduced word of w is a reduced word of v."""
    word = reduced_word(w)
    lv = v.length()
    if lv > len(word):
        return False
    n = v.n
    for idx in combinations(range(len(word)), lv):
        cur = Permutation.identity(n)
        for t in idx:
            cur = cur.swap_positions(word[t], word[t] + 1)
        if cur == v:
            return True
    return False


def subword_interval(v: Permutation, w: Permutation, leq=subword_bruhat_leq) -> list[Permutation]:
    """[v, w] by filtering all of S_n, sorted by (length, window)."""
    out = [z for z in Permutation.all(w.n) if leq(v, z) and leq(z, w)]
    out.sort(key=lambda z: (z.length(), z.window))
    return out


@cache
def bruhat_pairs_by_scan(n: int) -> tuple[tuple[Permutation, Permutation], ...]:
    """Every pair v <= w of S_n, v-major in window order: r_v <= r_w entrywise,
    with r_w(i,j) = #{k <= j : w(k) >= i} counted for each w."""
    elems = Permutation.all(n)
    ranks = [
        tuple(sum(1 for k in range(j) if w.window[k] >= i) for i in range(1, n + 1) for j in range(1, n + 1))
        for w in elems
    ]
    return tuple(
        (v, w)
        for v, rv in zip(elems, ranks)
        for w, rw in zip(elems, ranks)
        if all(map(operator.le, rv, rw))
    )


def tangent_count_by_reflections(v: Permutation, w: Permutation, sigma: Permutation,
                                 leq=bruhat_leq) -> int:
    """#{t : v <= t sigma <= w} over the transpositions t of values, with
    t sigma made by Permutation.swap_values and compared by leq."""
    n = sigma.n
    count = 0
    for a in range(1, n):
        for b in range(a + 1, n + 1):
            ts = sigma.swap_values(a, b)
            count += leq(v, ts) and leq(ts, w)
    return count


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig via R-polynomials and the inversion identity
# ---------------------------------------------------------------------------


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def r_polynomial(v: Permutation, w: Permutation, memo=None) -> list[int]:
    """Coefficients of R_{v,w}(q) by the standard descent recursion."""
    if memo is None:
        memo = {}
    key = (v.window, w.window)
    if key in memo:
        return memo[key]
    if v == w:
        out = [1]
    elif not subword_bruhat_leq(v, w):
        out = [0]
    else:
        s = w.right_descents()[0]
        ws = w.swap_positions(s, s + 1)
        vs = v.swap_positions(s, s + 1)
        if vs.length() < v.length():
            out = r_polynomial(vs, ws, memo)
        else:
            out = _padd(
                _pmul([-1, 1], r_polynomial(v, ws, memo)),
                _pmul([0, 1], r_polynomial(vs, ws, memo)),
            )
    memo[key] = out
    return out


def kl_by_inversion(v: Permutation, w: Permutation) -> list[int]:
    """Solve q^{l(w)-l(v)} P_{v,w}(1/q) = sum_z R_{v,z} P_{z,w} degree by degree.

    Descending induction on v inside [v, w]; the degree bound
    deg P < (l(w)-l(v))/2 makes the linear system triangular.
    """
    if not subword_bruhat_leq(v, w):
        return [0]
    rmemo: dict = {}
    interval = subword_interval(v, w)
    interval.sort(key=lambda z: -z.length())
    P: dict[tuple, list[int]] = {w.window: [1]}
    for z in interval:
        if z == w:
            continue
        d = w.length() - z.length()
        rhs = [0]
        for y in interval:
            if y == z or not subword_bruhat_leq(z, y):
                continue
            rhs = _padd(rhs, _pmul(r_polynomial(z, y, rmemo), P[y.window]))
        # rhs = q^d P(1/q) - P(q); upper coefficients give P
        coeffs = [0] * ((d - 1) // 2 + 1) if d > 0 else [1]
        for i in range(len(coeffs)):
            c = rhs[d - i] if d - i < len(rhs) else 0
            coeffs[i] = c
        # consistency: the lower half must equal -P
        for i in range(len(coeffs)):
            low = rhs[i] if i < len(rhs) else 0
            if d - i == i:
                continue
            if low != -coeffs[i]:
                raise AssertionError(
                    f"inversion identity violated at {z} <= {w}: {rhs}"
                )
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        P[z.window] = coeffs
    return P[v.window]


# ---------------------------------------------------------------------------
# Misc small oracles
# ---------------------------------------------------------------------------


def brute_coset(w: Permutation, J) -> set[Permutation]:
    """The coset w W_J, by enumerating the parabolic subgroup W_J.

    A permutation lies in W_J when it can be sorted by right descents in J.
    """
    n = w.n
    members = set()
    for x in itpermutations(range(1, n + 1)):
        p = Permutation(x)
        word_ok = True
        cur = p
        while cur.length() > 0:
            ds = [j for j in cur.right_descents() if j in J]
            if not ds:
                word_ok = False
                break
            cur = cur.swap_positions(ds[0], ds[0] + 1)
        if word_ok:
            members.add(w * p)
    return members


def brute_coset_min_max(w: Permutation, J):
    """Min/max length members of w W_J by enumerating the parabolic subgroup."""
    members = brute_coset(w, J)
    lo = min(members, key=lambda m: (m.length(), m.window))
    hi = max(members, key=lambda m: (m.length(), m.window))
    return lo, hi


def count_monomials_leq(lead: list[tuple[int, ...]], nvars: int, degree: int) -> int:
    """Exponent vectors of degree <= degree divisible by no leading exponent vector."""
    count = 0

    def rec(var, remaining, exps):
        nonlocal count
        if var == nvars:
            if not any(divides(l, tuple(exps)) for l in lead):
                count += 1
            return
        for e in range(remaining + 1):
            exps[var] = e
            rec(var + 1, remaining - e, exps)
        exps[var] = 0

    rec(0, degree, [0] * nvars)
    return count


def hilbert_function_by_counting(lead: list[tuple[int, ...]], nvars: int, degree: int) -> list[int]:
    """Hilbert function of R/<lead> in degrees 0..degree by direct counting."""
    upto = [count_monomials_leq(lead, nvars, d) for d in range(degree + 1)]
    return [upto[0]] + [upto[d] - upto[d - 1] for d in range(1, degree + 1)]


# ---------------------------------------------------------------------------
# Local quotient dimensions from dense truncated Macaulay matrices
# ---------------------------------------------------------------------------


def rank_by_fractions(rows: list[list[Fraction]]) -> int:
    """Rank of a dense matrix by Gaussian elimination over Fraction."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = Fraction(rows[i][col]) / top[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def jacobian_corank(gens, nvars: int) -> int:
    """dim m/(m^2 + I) for generators of an ideal I inside m, the maximal
    ideal of the origin: nvars minus the rank of their linear parts, which
    span (I + m^2)/m^2 whatever the generating set."""
    return nvars - rank_by_fractions(
        [[Fraction(g.linear_coefficient(i)) for i in range(nvars)] for g in gens]
    )


def truncated_quotient_dims(gens, nvars: int, degree_bound: int) -> list[int]:
    """dim R/(<gens> + m^{d+1}) for d = 0..degree_bound.

    For each d separately: the rows are the products x^a * g truncated at
    degree d, the columns every exponent vector of degree <= d, and the
    quotient dimension is the column count minus the rank.
    """
    out = []
    for d in range(degree_bound + 1):
        cols = [e for e in product(range(d + 1), repeat=nvars) if sum(e) <= d]
        index = {e: k for k, e in enumerate(cols)}
        rows = []
        for g in gens:
            terms = [(dense(g.ctx, m), c) for m, c in g.terms.items()]
            for a in cols:
                row = [Fraction(0)] * len(cols)
                for e, c in terms:
                    k = index.get(tuple(x + y for x, y in zip(a, e)))
                    if k is not None:
                        row[k] += c
                if any(row):
                    rows.append(row)
        out.append(len(cols) - rank_by_fractions(rows))
    return out


# ---------------------------------------------------------------------------
# linear elimination one variable at a time, on dense exponent tuples
# ---------------------------------------------------------------------------


def _shifted(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _dense_powers(series: dict, nvars: int, upto: int, degree_bound) -> list[dict]:
    """series^0 .. series^upto in nvars variables, truncated past
    degree_bound unless it is None, ending early at a zero power."""
    out = [{(0,) * nvars: Fraction(1)}]
    while len(out) <= upto:
        nxt: dict = {}
        for a, c in out[-1].items():
            for b, d in series.items():
                t = _shifted(a, b)
                if degree_bound is None or sum(t) <= degree_bound:
                    nxt[t] = nxt.get(t, 0) + c * d
        nxt = {t: c for t, c in nxt.items() if c}
        if not nxt:
            break
        out.append(nxt)
    return out


def _dense_substitute(f: dict, v: int, powers: list[dict], degree_bound) -> dict:
    """f with variable v replaced by the series whose powers are given; a
    power past the list is zero."""
    out: dict = {}
    for a, c in f.items():
        e = a[v]
        if not e:
            out[a] = out.get(a, 0) + c
        elif e < len(powers):
            base = a[:v] + (0,) + a[v + 1:]
            for b, d in powers[e].items():
                t = _shifted(base, b)
                if degree_bound is None or sum(t) <= degree_bound:
                    out[t] = out.get(t, 0) + c * d
    return {t: c for t, c in out.items() if c}


def _linear_variable(a: tuple[int, ...]):
    """The variable of a degree-one exponent vector, else None."""
    return a.index(1) if sum(a) == 1 else None


def solve_one_at_a_time(I) -> tuple[list[str], list[dict], list[tuple[str, dict]]]:
    """The exact linear solve, one variable per pass: (names left,
    generators as dense term maps over those names, solved).

    While some generator g = c*x + h has x not in h, the shortest such g
    goes first, then the earliest x, then the earliest g; x = -h/c is
    substituted into the others, and g and x are dropped.  solved lists
    (name of x, -h/c as a dense term map over every variable) in order;
    repeated generators left at the end are dropped, first kept.
    """
    ctx = I.ctx
    gens = [{dense(ctx, m): Fraction(c) for m, c in g.terms.items()} for g in I.generators]
    live = list(range(ctx.nvars))
    solved = []
    while True:
        pick = None
        for k, g in enumerate(gens):
            for a in g:
                v = _linear_variable(a)
                if v is None or any(b != a and b[v] for b in g):
                    continue
                if pick is None or (len(g), v) < pick[0]:
                    pick = ((len(g), v), k, a, v)
        if pick is None:
            break
        _, k, a, v = pick
        g = gens.pop(k)
        c = g.pop(a)
        image = {b: -d / c for b, d in g.items()}
        solved.append((ctx.names[v], image))
        top = max((b[v] for f in gens for b in f), default=0)
        powers = _dense_powers(image, ctx.nvars, top, None)
        gens = [f for f in (_dense_substitute(f, v, powers, None) for f in gens) if f]
        live.remove(v)
    out = {}
    for f in gens:
        out.setdefault(frozenset((tuple(a[v] for v in live), c) for a, c in f.items()), None)
    return [ctx.names[v] for v in live], [dict(f) for f in out], solved


def series_elimination_one_at_a_time(gens: list[dict], nvars: int, degree_bound: int):
    """The oracle's series elimination, one variable per pass: (series
    left, variables left).

    gens are dense term maps with no constant term, truncated past degree
    D = degree_bound; their order and the order of their terms break
    ties.  While some g has a linear term c*x, the g with x absent from
    h = g - c*x goes first, then the shortest, then the earliest g and
    term; x = -h/c is solved as a series truncated at D by rounds of
    substitution from x = 0, it replaces x in the others, and g and x are
    dropped.
    """
    gens = [dict(g) for g in gens]
    live = list(range(nvars))
    while True:
        best = None
        for k, g in enumerate(gens):
            for a in g:
                v = _linear_variable(a)
                if v is not None:
                    rank = (any(b != a and b[v] for b in g), len(g))
                    if best is None or rank < best[0]:
                        best = (rank, k, a, v)
        if best is None:
            return gens, live
        _, k, a, v = best
        h = gens.pop(k)
        scale = -1 / Fraction(h.pop(a))
        top = max((b[v] for b in h), default=0)
        series: dict = {}
        for _ in range(degree_bound):
            powers = _dense_powers(series, nvars, top, degree_bound)
            nxt = {b: scale * d for b, d in _dense_substitute(h, v, powers, degree_bound).items()}
            if nxt == series:
                break
            series = nxt
        top = max((b[v] for f in gens for b in f), default=0)
        powers = _dense_powers(series, nvars, top, degree_bound)
        gens = [f for f in (_dense_substitute(f, v, powers, degree_bound) for f in gens) if f]
        live.remove(v)


def integer_rows(gens: list[dict], live: list[int]) -> list[dict]:
    """Dense rational series as coprime integer rows of packed monomials
    over the variables live, in the layout of a context of that size."""
    small = Context([f"u{k}" for k in range(len(live))])
    rows = []
    for g in gens:
        den = math.lcm(*(Fraction(c).denominator for c in g.values()))
        ints = {a: int(c * den) for a, c in g.items()}
        content = math.gcd(*ints.values())
        rows.append({
            packed(small, tuple(a[v] for v in live)): c // content for a, c in ints.items()
        })
    return rows


def _exponents_upto(n: int, degree: int):
    """Every exponent vector of length n and total degree <= degree."""
    if n == 0:
        yield ()
        return
    for e in range(degree + 1):
        for rest in _exponents_upto(n - 1, degree - e):
            yield (e, *rest)


def _eliminate_row(row: dict, pivots: dict) -> bool:
    """Reduce an integer row (consumed) against pivot rows keyed by their
    smallest column, fraction-free; a row left nonzero becomes a new pivot,
    divided by its content.  Returns whether that happened."""
    while row:
        p = min(row)
        prow = pivots.get(p)
        if prow is None:
            content = math.gcd(*row.values())
            pivots[p] = {a: c // content for a, c in row.items()}
            return True
        a, b = row[p], prow[p]
        g = math.gcd(a, b)
        a, b = a // g, b // g
        row = {m: b * c for m, c in row.items()}
        for m, c in prow.items():
            row[m] = row.get(m, 0) - a * c
        row = {m: c for m, c in row.items() if c}
    return False


def macaulay_counts_row_by_row(n: int, rows: list[dict], degree_bound: int) -> tuple[int, ...]:
    """The oracle's Macaulay stage as it was before rows were deferred:
    every row m*g, truncated at degree D and with the columns of monomial
    generators dropped, is built and reduced in turn, in the same m-major
    order, and the counts are read off the pivot degrees.  rows are packed
    in the layout of a context of n variables; the columns are enumerated
    from exponent vectors."""
    small = Context([f"u{k}" for k in range(n)])
    ds = small.pack.degshift
    cols = sorted(packed(small, e) for e in _exponents_upto(n, degree_bound))
    limit = (degree_bound + 1) << ds
    dead = set()
    for row in rows:
        if len(row) == 1:
            (a,) = row
            dead.update(a + m for m in cols if a + m < limit)
    polys = [((degree_bound - (min(row) >> ds) + 1) << ds, row) for row in rows if len(row) > 1]
    stop = max((bound for bound, _ in polys), default=0)
    live = len(cols) - len(dead)
    pivots: dict = {}
    for m in cols:
        if m >= stop or len(pivots) == live:
            break
        if m in dead:
            continue
        for bound, g in polys:
            if m >= bound:
                continue
            row = {t: c for a, c in g.items() if (t := a + m) < limit and t not in dead}
            if row and _eliminate_row(row, pivots) and len(pivots) == live:
                break
    degrees = [p >> ds for p in (*dead, *pivots)]
    return tuple(
        math.comb(n + d, n) - sum(e <= d for e in degrees) for d in range(degree_bound + 1)
    )


# ---------------------------------------------------------------------------
# Opposite side read from upper-left ranks, without the w0 translate
# ---------------------------------------------------------------------------


def counting_opposite_rank(v: Permutation) -> tuple[tuple[int, ...], ...]:
    """r'_v(i,j) = #{k <= j : v(k) <= i}, counted."""
    n = v.n
    return tuple(
        tuple(sum(1 for k in range(1, j + 1) if v(k) <= i) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


def upper_left_opposite_cell(x: list[list[Fraction]]) -> Permutation:
    """The opposite cell tau of an invertible matrix, from its upper-left ranks.

    Column j of the rank table steps up by one exactly in the rows
    i >= tau(j), so tau(j) is the first such row.
    """
    n = len(x)
    upper = [
        [rank_by_fractions([row[:j] for row in x[:i]]) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    window = [
        min(i for i in range(1, n + 1)
            if upper[i - 1][j - 1] - (upper[i - 1][j - 2] if j > 1 else 0) == 1)
        for j in range(1, n + 1)
    ]
    tau = Permutation(window)
    if counting_opposite_rank(tau) != tuple(map(tuple, upper)):
        raise ValueError("upper-left ranks are not those of a permutation")
    return tau


def upper_left_opposite_minors(matrix, v: Permutation, prune: bool = True) -> list[Polynomial]:
    """Distinct nonzero (b+1)-minors of rows 1..i, columns 1..j, for each
    non-vacuous upper-left condition (i, j, b) of v in (i, j) order.

    Pruning drops a condition implied by the taller (i+1) or the wider
    (j+1) submatrix with the same bound.
    """
    n = v.n
    r = counting_opposite_rank(v)
    out = []
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            b = r[i - 1][j - 1]
            if b >= min(i, j):
                continue
            if prune and ((i < n and r[i][j - 1] == b) or (j < n and r[i - 1][j] == b)):
                continue
            for rows in combinations(range(1, i + 1), b + 1):
                for cols in combinations(range(1, j + 1), b + 1):
                    m = matrix.minor(rows, cols)
                    if not m.is_zero() and m.key() not in seen:
                        seen.add(m.key())
                        out.append(m)
    return out


def lower_left_schubert_minors(matrix, w: Permutation, prune: bool = True) -> list[Polynomial]:
    """Distinct nonzero (b+1)-minors of rows i..n, columns 1..j, for each
    non-vacuous lower-left condition (i, j, b) of w in (i, j) order, with
    r_w(i, j) = #{k <= j : w(k) >= i} counted.

    Pruning drops a condition implied by the taller (i-1) or the wider
    (j+1) submatrix with the same bound.
    """
    n = w.n
    r = [
        [sum(1 for k in range(1, j + 1) if w(k) >= i) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    out = []
    seen = set()
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            b = r[i - 1][j - 1]
            if b >= min(n - i + 1, j):
                continue
            if prune and ((i > 1 and r[i - 2][j - 1] == b) or (j < n and r[i - 1][j] == b)):
                continue
            for rows in combinations(range(i, n + 1), b + 1):
                for cols in combinations(range(1, j + 1), b + 1):
                    m = matrix.minor(rows, cols)
                    if not m.is_zero() and m.key() not in seen:
                        seen.add(m.key())
                        out.append(m)
    return out


def leibniz_minor(matrix, rows: tuple[int, ...], cols: tuple[int, ...]) -> Polynomial:
    """The minor of a chart matrix on (rows, cols) by the Leibniz formula:
    the signed sum, over the orderings of the row set, of the products of
    the entries (ordering[k], cols[k]), formed with Polynomial arithmetic,
    with no expansion and no table of sub-minors."""
    out = matrix.entry(rows[0], cols[0]).ctx.zero()
    for order in itpermutations(range(len(rows))):
        inversions = sum(a > b for a, b in combinations(order, 2))
        term = matrix.entry(rows[order[0]], cols[0])
        for k in range(1, len(cols)):
            term = term * matrix.entry(rows[order[k]], cols[k])
        out = out - term if inversions % 2 else out + term
    return out


def constant_minor_by_scan(side) -> bool:
    """Whether some minor of the side's (matrix, index list) pairs is a
    nonzero constant, by computing every minor of every list in order: the
    product-iso shortcut before Bruhat order located its minor."""
    for matrix, index in side:
        for rows, cols in index:
            g = matrix.minor(rows, cols)
            if g.terms and not any(g.ctx.exponents(m) for m in g.terms):
                return True
    return False
