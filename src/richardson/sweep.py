"""The sweeping maps on a chart and their polynomial inverse.

Sweeping up (eta1) clears everything above each structural 1 of the chart
matrix by upward row operations, taking the columns in decreasing order of
the row of their 1; the result is supported on the 1s and D_up, stays in
the Schubert cell of the input, and lands in the standard form of the
opposite cell of u.  Sweeping down (eta2) is the mirror image: columns in
increasing row order of their 1, support on D_down, opposite cell
preserved.

Each swept entry at (i,j) equals z_ij plus a polynomial in variables z_ab
with b > j, or b = j and a beyond i in the sweep direction; that triangular
shape makes the pair (eta1, eta2) invertible by a column-by-column
recovery, implemented symbolically in :func:`recover`.
"""

from __future__ import annotations

from fractions import Fraction

from .charts import Chart, ChartMatrix, _latex_name, _var_name, chart, generic_matrix
from .memo import memoized
from .permutations import Permutation
from .poly import Context, Polynomial


def _sweep_rows(rows, u: Permutation, upward: bool):
    """Row operations clearing one side of each structural 1.

    Columns are processed by the row of their 1: decreasing for the
    upward sweep, increasing for the downward one, so no column needs a
    second pass.  Only the nonzero entries of the pivot row are subtracted.
    """
    n = u.n
    uinv = u.inverse()
    rows = [list(r) for r in rows]
    targets = range(n, 0, -1) if upward else range(1, n + 1)
    for r in targets:
        j = uinv(r)  # column whose 1 sits in row r
        span = range(1, r) if upward else range(r + 1, n + 1)
        pivot = rows[r - 1]
        live = [(k, b) for k, b in enumerate(pivot) if b.terms]
        for i in span:
            row = rows[i - 1]
            c = row[j - 1]
            if not c.terms:
                continue
            for k, b in live:
                row[k] = row[k] - c * b
    return rows


@memoized(lambda u: u.window)
def sweep_images(u: Permutation) -> tuple[ChartMatrix, ChartMatrix]:
    """(eta1(x), eta2(x)) for the generic matrix x of the chart of u."""
    x = generic_matrix(u)
    up = ChartMatrix(x.chart, _sweep_rows(x.rows, u, upward=True))
    down = ChartMatrix(x.chart, _sweep_rows(x.rows, u, upward=False))
    return up, down


def eta1(x: ChartMatrix) -> ChartMatrix:
    """Upward sweep; preserves the Schubert cell of the argument."""
    _check_chart_form(x.rows, x.chart.u)
    return ChartMatrix(x.chart, _sweep_rows(x.rows, x.chart.u, upward=True))


def eta2(x: ChartMatrix) -> ChartMatrix:
    """Downward sweep; preserves the opposite Schubert cell."""
    _check_chart_form(x.rows, x.chart.u)
    return ChartMatrix(x.chart, _sweep_rows(x.rows, x.chart.u, upward=False))


def _check_chart_form(rows, u: Permutation) -> None:
    """Raise ValueError unless every row i, polynomial or rational, has the
    structural 1 at column u^-1(i) and zeros right of it."""
    uinv = u.inverse()
    for i, row in enumerate(rows, 1):
        j = uinv(i)
        if row[j - 1] != 1:
            raise ValueError(f"entry ({i},{j}) must be the structural 1")
        for k in range(j + 1, u.n + 1):
            if row[k - 1] != 0:
                raise ValueError(f"entry ({i},{k}) must vanish right of the 1")


def eta_on_point(u: Permutation, x: list[list[Fraction]]):
    """Numeric sweeps of a rational matrix in the chart of u: the sweep
    images of the chart (sweep_images) at x's chart coordinates."""
    _check_chart_form(x, u)
    point = {_var_name(i, j): x[i - 1][j - 1] for (i, j) in chart(u).free_positions}
    up, down = sweep_images(u)
    return up.evaluate(point), down.evaluate(point)


def claim_structure_check(u: Permutation) -> bool:
    """Every swept entry is z_ij + f with f supported on later sweep variables.

    For eta1 at (i,j) in D_up the allowed variables are z_ab with b = j and
    a > i, or b > j; for eta2 on D_down the mirrored condition (a < i).
    """
    ch = chart(u)
    up, down = sweep_images(u)
    for (i, j) in sorted(ch.d_up):
        f = up.entry(i, j) - ch.var(i, j)
        for idx in f.variables():
            a, b = ch.free_positions[idx]
            if not (b > j or (b == j and a > i)):
                return False
    for (i, j) in sorted(ch.d_down):
        g = down.entry(i, j) - ch.var(i, j)
        for idx in g.variables():
            a, b = ch.free_positions[idx]
            if not (b > j or (b == j and a < i)):
                return False
    return True


def image_context(u: Permutation) -> Context:
    """Fresh variables for the swept entries: a_ij on D_up, b_ij on D_down."""
    ch = chart(u)
    cells = [("a", p) for p in sorted(ch.d_up)] + [("b", p) for p in sorted(ch.d_down)]
    return Context(
        tuple(_var_name(i, j, prefix) for prefix, (i, j) in cells),
        tuple(_latex_name(i, j, prefix) for prefix, (i, j) in cells),
    )


def recover(u: Permutation) -> dict[tuple[int, int], Polynomial]:
    """Each chart coordinate as a polynomial in the swept entries.

    Columns are recovered right to left; inside a column the D_down entries
    come top to bottom from eta2 and the D_up entries bottom to top from
    eta1, so the structure claim guarantees every variable of the
    correction term is already known.
    """
    ch = chart(u)
    up, down = sweep_images(u)
    img = image_context(u)
    known: dict[str, Polynomial] = {}
    out: dict[tuple[int, int], Polynomial] = {}
    n = u.n
    for j in range(n, 0, -1):
        col_down = sorted((i for (i, jj) in ch.d_down if jj == j))
        col_up = sorted((i for (i, jj) in ch.d_up if jj == j), reverse=True)
        for i in col_down:
            f = down.entry(i, j) - ch.var(i, j)
            expr = img.var(_var_name(i, j, "b")) - _express(f, ch, known, img)
            known[ch.var_name(i, j)] = expr
            out[(i, j)] = expr
        for i in col_up:
            f = up.entry(i, j) - ch.var(i, j)
            expr = img.var(_var_name(i, j, "a")) - _express(f, ch, known, img)
            known[ch.var_name(i, j)] = expr
            out[(i, j)] = expr
    return out


def _express(f: Polynomial, ch: Chart, known: dict[str, Polynomial], img: Context) -> Polynomial:
    """Rewrite a chart polynomial in the image variables of img via the known map."""
    if f.is_zero():
        return img.zero()
    assignment = {}
    for idx in f.variables():
        nm = ch.ctx.names[idx]
        assignment[nm] = known[nm]
    return f.substitute(assignment)


def recovery_round_trip(u: Permutation) -> bool:
    """recover composed with the sweeps is the identity on every coordinate."""
    ch = chart(u)
    up, down = sweep_images(u)
    rec = recover(u)
    images = {_var_name(i, j, "a"): up.entry(i, j) for (i, j) in ch.d_up}
    images |= {_var_name(i, j, "b"): down.entry(i, j) for (i, j) in ch.d_down}
    for (i, j), expr in rec.items():
        back = expr.substitute({nm: images[nm] for nm in (expr.ctx.names[k] for k in expr.variables())})
        if back != ch.var(i, j):
            return False
    return True
