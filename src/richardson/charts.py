"""Affine charts on GL_n/B and determinantal ideals restricted to a chart.

The chart attached to u is the u-translate of the big opposite cell: its
points are the matrices with a 1 in row u(j), column j, zeros to the right
of each 1, and free entries z_ij at every position strictly left of the 1
in its row.  The free positions split as D_up (below the 1 of their
column) and D_down (above it); |D_down| = l(u).  The unique torus-fixed
point of the chart is uB, at the origin of the coordinates.

Schubert, opposite Schubert, and Richardson varieties meet a chart in the
vanishing locus of justified minors of the generic chart matrix; the
emitted generators are the essential rank conditions (regression tests
pin their ideals against the full unpruned lists of the test oracles).

One generic matrix is kept per chart (``generic_matrix`` is memoized by
u), so its table of minors serves every Schubert, opposite and Richardson
ideal built in that chart.  The table holds at most one entry per square
submatrix, so at most C(2n, n) entries (252 at n = 5, 924 at n = 6), and
``clear_memos()`` drops it with the matrix.  Which minors a permutation
asks for does not depend on the chart, so its (rows, cols) index list is
built once per permutation (``_schubert_index`` and ``_opposite_index``,
memoized by window, at most n! entries each, like the condition tables
they are built from) and every chart and sweep image reads its minors
from that list.

A condition that u's own permutation matrix violates locates a unit
minor (``_unit_minor``): if (rows, j, b) fails at u, b+1 columns k <= j
have u(k) in rows, and the (b+1)-minor on those columns and the rows u(k)
is in the condition's index list.  In every chart-form matrix of u (the
generic matrix and both sweep images) row u(k) has its 1 in column k and
zeros right of it, so that submatrix is unitriangular up to row order
and the minor is +-1.  u violates a condition of w exactly when u is not
below w (Fulton's essential set), so off [v, w] each ideal has such a
generator.

The opposite side is derived from the Schubert side.  The opposite
Schubert variety is a translate, X^v = w0 X_{w0 v}, and left
multiplication by w0 reverses the rows of a matrix.  So the upper-left
rank conditions of v at (i, j) are the lower-left conditions of w0 v at
(n+1-i, j), with r'_v(i,j) = j - r_v(i+1,j) = r_{w0 v}(n+1-i,j), and
the opposite cell of a matrix is w0 times the Schubert cell of its
row reversal.

A rational point of an open stratum (Schubert cell of sigma) meet
(opposite cell of tau) is sampled in the chart of sigma, whose slice
D_up = 0 is the Schubert cell: the opposite minors of tau on the generic
matrix, read from its shared minor table, with the D_up coordinates
added as generators, are solved by the kernel's exact linear
elimination, groebner.solve_linear_variables, with random rationals for
whatever it cannot solve.  The point's matrix is read off its chart
coordinates, and every point is checked with identify_cells.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from .groebner import IdealGens, solve_linear_variables
from .memo import memoized
from .permutations import (
    Permutation,
    bruhat_leq,
    schubert_rank,
)
from .poly import Context, Polynomial


def _var_name(i: int, j: int, prefix: str = "z") -> str:
    if i <= 9 and j <= 9:
        return f"{prefix}{i}{j}"
    return f"{prefix}{i}_{j}"


def _latex_name(i: int, j: int, prefix: str = "z") -> str:
    if i <= 9 and j <= 9:
        return f"{prefix}_{{{i}{j}}}"
    return f"{prefix}_{{{i},{j}}}"


class Chart:
    """The affine chart of the flag variety attached to u."""

    __slots__ = ("u", "free_positions", "d_up", "d_down", "ctx")

    def __init__(self, u: Permutation):
        n = u.n
        uinv = u.inverse()
        free = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(1, uinv(i))
        ]
        free.sort()  # row-major
        self.u = u
        self.free_positions = tuple(free)
        self.d_up = frozenset((i, j) for (i, j) in free if i > u(j))
        self.d_down = frozenset((i, j) for (i, j) in free if i < u(j))
        self.ctx = Context(
            tuple(_var_name(i, j) for (i, j) in free),
            tuple(_latex_name(i, j) for (i, j) in free),
        )

    @property
    def n(self) -> int:
        return self.u.n

    def var(self, i: int, j: int) -> Polynomial:
        return self.ctx.var(_var_name(i, j))

    def var_name(self, i: int, j: int) -> str:
        return _var_name(i, j)

    def origin(self) -> dict[str, Fraction]:
        return {nm: Fraction(0) for nm in self.ctx.names}


@memoized(lambda u: u.window)
def chart(u: Permutation) -> Chart:
    return Chart(u)


class ChartMatrix:
    """An n x n matrix of polynomials in a chart's coordinates."""

    __slots__ = ("chart", "rows", "ctx", "_det_memo")

    def __init__(self, chart_: Chart, rows):
        self.chart = chart_
        self.rows = tuple(tuple(row) for row in rows)
        self.ctx = self.rows[0][0].ctx
        self._det_memo: dict = {}

    def entry(self, i: int, j: int) -> Polynomial:
        return self.rows[i - 1][j - 1]

    def minor(self, row_idx: tuple[int, ...], col_idx: tuple[int, ...]) -> Polynomial:
        """Determinant of the square submatrix, memoized across conditions."""
        key = (row_idx, col_idx)
        hit = self._det_memo.get(key)
        if hit is not None:
            return hit
        k = len(row_idx)
        ctx = self.ctx
        if k == 1:
            out = self.rows[row_idx[0] - 1][col_idx[0] - 1]
        else:
            # expand along the last column (charts have many structural zeros)
            out = ctx.zero()
            col = col_idx[-1]
            rest_cols = col_idx[:-1]
            for t, r in enumerate(row_idx):
                e = self.rows[r - 1][col - 1]
                if e.is_zero():
                    continue
                rest_rows = row_idx[:t] + row_idx[t + 1:]
                sub = self.minor(rest_rows, rest_cols)
                if sub.is_zero():
                    continue
                term = e * sub
                out = out - term if (k - 1 + t) % 2 == 1 else out + term
        self._det_memo[key] = out
        return out

    def to_strings(self) -> list[list[str]]:
        return [[str(e) for e in row] for row in self.rows]

    def to_latex(self) -> str:
        body = " \\\\\n".join(
            " & ".join(e.latex() for e in row) for row in self.rows
        )
        return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}"

    def evaluate(self, point) -> list[list[Fraction]]:
        return [[e.evaluate(point) for e in row] for row in self.rows]


@memoized(lambda u: u.window)
def generic_matrix(u: Permutation) -> ChartMatrix:
    """The generic matrix of the chart of u: 1 at (u(j), j), z_ij at free positions.

    One matrix per chart, shared by every caller: it must not be mutated.
    """
    ch = chart(u)
    n = u.n
    uinv = u.inverse()
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j == uinv(i):
                row.append(ch.ctx.one())
            elif j < uinv(i):
                row.append(ch.var(i, j))
            else:
                row.append(ch.ctx.zero())
        rows.append(row)
    return ChartMatrix(ch, rows)


# ---------------------------------------------------------------------------
# Rank conditions and their ideals
# ---------------------------------------------------------------------------


def _essential_schubert_conditions(w: Permutation):
    """Non-vacuous, non-implied (i, j, bound) triples for lower-left rank conditions."""
    n = w.n
    r = schubert_rank(w)
    out = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            b = r[i - 1][j - 1]
            if b >= min(n - i + 1, j):
                continue  # vacuous
            if i > 1 and r[i - 2][j - 1] == b:
                continue  # implied by the taller submatrix
            if j < n and r[i - 1][j] == b:
                continue  # implied by the wider submatrix
            out.append((i, j, b))
    return out


def _minor_index(conditions):
    """The (rows, cols) of every (b+1)-minor on rows from `rows` and columns
    1..j, for each (rows, j, b); zero and repeated minors are left to
    IdealGens."""
    return tuple(
        (r, c)
        for rows, j, b in conditions
        for r in combinations(rows, b + 1)
        for c in combinations(range(1, j + 1), b + 1)
    )


@memoized(lambda w: w.window)
def _schubert_conditions(w: Permutation):
    """The essential conditions of w as (rows, j, b): rank at most b on rows
    `rows` (a range i..n) and columns 1..j."""
    n = w.n
    return tuple((range(i, n + 1), j, b) for i, j, b in _essential_schubert_conditions(w))


@memoized(lambda v: v.window)
def _opposite_conditions(v: Permutation):
    """The conditions of w0 v read on the row-reversed matrix, put back in
    (i, j) order, as (rows 1..i, j, b)."""
    n = v.n
    conditions = sorted(
        (n + 1 - i, j, b)
        for i, j, b in _essential_schubert_conditions(Permutation.longest(n) * v)
    )
    return tuple((range(1, i + 1), j, b) for i, j, b in conditions)


@memoized(lambda w: w.window)
def _schubert_index(w: Permutation):
    """The minors of schubert_minors(_, w), one index list per permutation."""
    return _minor_index(_schubert_conditions(w))


@memoized(lambda v: v.window)
def _opposite_index(v: Permutation):
    """The minors of opposite_minors(_, v)."""
    return _minor_index(_opposite_conditions(v))


def _unit_minor(conditions, u: Permutation):
    """The (rows, cols) of the +-1 minor that the first of the conditions
    violated by u's permutation matrix locates (see the module docstring),
    on its first b+1 columns; None when u meets every condition."""
    win = u.window
    for rows, j, b in conditions:
        cols = [k for k, x in enumerate(win[:j], 1) if x in rows][: b + 1]
        if len(cols) > b:
            return tuple(sorted(win[k - 1] for k in cols)), tuple(cols)
    return None


def schubert_minors(matrix: ChartMatrix, w: Permutation) -> list[Polynomial]:
    """The (bound+1)-minors of rows i..n, columns 1..j for the conditions of w."""
    minor = matrix.minor
    return [minor(r, c) for r, c in _schubert_index(w)]


def opposite_minors(matrix: ChartMatrix, v: Permutation) -> list[Polynomial]:
    """The (bound+1)-minors of rows 1..i, columns 1..j for the conditions of v."""
    minor = matrix.minor
    return [minor(r, c) for r, c in _opposite_index(v)]


def schubert_ideal_in_chart(w: Permutation, u: Permutation) -> IdealGens:
    """Defining ideal of X_w = X_w^id in the chart of u."""
    return richardson_ideal_in_chart(Permutation.identity(w.n), w, u)


def opposite_ideal_in_chart(v: Permutation, u: Permutation) -> IdealGens:
    """Defining ideal of the opposite Schubert variety X^v = X_w0^v in the chart of u."""
    return richardson_ideal_in_chart(v, Permutation.longest(v.n), u)


def richardson_ideal_in_chart(v: Permutation, w: Permutation, u: Permutation) -> IdealGens:
    """Defining ideal of X_w^v = X_w meet X^v in the chart of u.

    Every rank condition of the identity on the opposite side, and of w0
    on the Schubert side, is vacuous, so X_w and X^v are the cases v = id
    and w = w0 with no extra generators.
    """
    if not (v.n == w.n == u.n):
        raise ValueError("size mismatch")
    x = generic_matrix(u)
    return IdealGens(x.chart.ctx, schubert_minors(x, w) + opposite_minors(x, v))


# ---------------------------------------------------------------------------
# Cell membership
# ---------------------------------------------------------------------------


def _schubert_cell(x: list[list[Fraction]]) -> Permutation:
    """The Schubert cell of an invertible matrix, by one column elimination.

    Column by column, the pivot rows of the columns before it are cleared,
    lowest pivot first; each reduced column is zero below its pivot, so a
    clearing never refills a lower pivot row.  sigma(j) is then the lowest
    nonzero row of column j: the reduced columns 1..j have distinct lowest
    rows, so rows i..n of them have rank #{k <= j : sigma(k) >= i}, the
    lower-left rank of both x and sigma.  A zero column means x is singular.
    """
    n = len(x)
    pivots = {}  # pivot row -> its reduced column
    window = []
    for j in range(n):
        col = [Fraction(row[j]) for row in x]
        for p in sorted(pivots, reverse=True):
            if col[p]:
                c = pivots[p]
                f = col[p] / c[p]
                for i in range(p + 1):
                    col[i] -= f * c[i]
        low = next((i for i in range(n - 1, -1, -1) if col[i]), None)
        if low is None:
            raise ValueError("singular matrix")
        pivots[low] = col
        window.append(low + 1)
    return Permutation(window)


def identify_cells(x: list[list[Fraction]]) -> tuple[Permutation, Permutation]:
    """The (Schubert cell, opposite cell) pair of an invertible matrix.

    sigma is read off the lower-left justified ranks; tau is w0 times the
    Schubert cell of the row-reversed matrix.  Raises ValueError if x is
    not square or is singular.
    """
    if any(len(row) != len(x) for row in x):
        raise ValueError("not a square matrix")
    return _schubert_cell(x), Permutation.longest(len(x)) * _schubert_cell(x[::-1])


# ---------------------------------------------------------------------------
# Sampling points on open strata
# ---------------------------------------------------------------------------


def _small_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


# randomized solves sample_richardson_point tries before it gives up
SAMPLE_ATTEMPTS = 40


def sample_richardson_point(tau: Permutation, sigma: Permutation, seed: int = 0):
    """A rational point of the open stratum (Schubert cell of sigma) meet
    (opposite cell of tau), or None if the randomized solve fails.

    The Schubert cell of sigma is the slice D_up = 0 of the chart of
    sigma, so the system is the opposite minors of tau on the generic
    matrix with the D_up coordinates added as generators; the drain of
    groebner.solve_linear_variables zeroes those coordinates before any
    random draw.  It solves the system exactly; while generators
    are left, the most shared variable is set to a small random rational
    and the system is solved again.  The variables left over get random
    values, the solved ones follow from their images in reverse, and an
    attempt that meets a nonzero constant starts over.  The matrix is read
    off the chart point: 1 at (sigma(j), j), the point's value at each free
    position, 0 elsewhere.  Every returned point is verified with
    identify_cells.
    """
    if not bruhat_leq(tau, sigma):
        raise ValueError("tau is not below sigma in Bruhat order")
    n = sigma.n
    ch = chart(sigma)
    ctx = ch.ctx
    system = IdealGens(
        ctx,
        opposite_minors(generic_matrix(sigma), tau) + [ch.var(i, j) for (i, j) in sorted(ch.d_up)],
    )
    rng = random.Random(seed)

    for _ in range(SAMPLE_ATTEMPTS):
        ideal, solved = solve_linear_variables(system)
        while ideal.generators and not any(g.is_constant() for g in ideal.generators):
            counts = Counter(i for g in ideal.generators for i in g.variables())
            i = min(counts, key=lambda k: (-counts[k], k))
            x = ideal.ctx.var(ideal.ctx.names[i])
            ideal, more = solve_linear_variables(
                IdealGens(ideal.ctx, ideal.generators + (x - _small_fraction(rng),))
            )
            solved += more
        if ideal.generators:
            continue  # a nonzero constant: this attempt has no point
        point = {nm: _small_fraction(rng) for nm in ideal.ctx.names}
        for nm, image in reversed(solved):
            point[nm] = image.evaluate(point)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for j in range(1, n + 1):
            matrix[sigma(j) - 1][j - 1] = Fraction(1)
        for (i, j), nm in zip(ch.free_positions, ctx.names):
            matrix[i - 1][j - 1] = point[nm]
        if identify_cells(matrix) == (sigma, tau):
            return matrix
    return None
