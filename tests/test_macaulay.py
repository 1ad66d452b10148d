"""The oracle's Macaulay stage against the row-by-row elimination it replaced.

_macaulay_counts builds a row m*g only when a later row reduces against
it: a row whose smallest column is new is held there as (m, g).  Its
counts must be the ones the elimination that built and reduced every row
reads (tests/oracles.py): on every distinct system of the S4 fixed points
and of a seeded S5 sample, and on hand-made rows with one-term rows or
terms past the truncation.  The reference drops the dead columns, those
a one-term row divides; _macaulay_counts takes a one-term row as an
ordinary row, whose multiples become the pivots of those columns.
"""

from oracles import macaulay_counts_row_by_row, truncated_quotient_dims
from test_invariants import _s4_triples, _s5_sample_triples
import richardson.groebner as gr
from richardson import clear_memos
from richardson.charts import richardson_ideal_in_chart
from richardson.groebner import ORACLE_DEGREE, local_hilbert_oracle
from richardson.poly import Context

XY = Context(("x", "y"))


def _systems(triples, monkeypatch):
    """The distinct Macaulay-stage inputs (n, rows, D) of the triples' fixed-point oracle calls."""
    systems = {}
    real = gr._macaulay_counts

    def recording(n, rows, d):
        systems.setdefault(gr._macaulay_key(n, rows, d), (n, [dict(r) for r in rows], d))
        return real(n, rows, d)

    monkeypatch.setattr(gr, "_macaulay_counts", recording)
    clear_memos()
    for v, sigma, w in triples:
        local_hilbert_oracle(richardson_ideal_in_chart(v, w, sigma), ORACLE_DEGREE)
    monkeypatch.setattr(gr, "_macaulay_counts", real)
    return list(systems.values())


def _check(systems):
    clear_memos()  # every count below is computed, none read from a memo
    for n, rows, d in systems:
        assert gr._macaulay_counts(n, rows, d) == macaulay_counts_row_by_row(n, rows, d), (n, rows, d)


def test_s4_systems_match_the_row_by_row_elimination(monkeypatch):
    systems = _systems(_s4_triples(), monkeypatch)
    assert len(systems) == 21
    assert sum(bool(rows) for _, rows, _ in systems) == 14
    _check(systems)


def test_s5_sample_systems_match_the_row_by_row_elimination(monkeypatch):
    # no fixed-point system keeps a monomial generator: one-term rows are
    # left to the hand-made rows below and to the dense-rank test
    systems = _systems(_s5_sample_triples(2000, 3201), monkeypatch)
    assert len(systems) == 171
    assert not any(len(row) == 1 for _, rows, _ in systems for row in rows)
    _check(systems)


def _rows(*polys):
    return [{m: int(c) for m, c in f.terms.items()} for f in polys]


def test_dead_and_truncated_leading_terms():
    x, y = XY.gens()
    cases = [
        # x*y kills x*y + y^3 at m = 1 down to y^3, and every term of it at m = x
        ([x * y, x * y + y ** 3], 4),
        # in the reference y*(x^2 + x*y + y^2) leads at y^3 past two dead
        # terms and waits there; y*(y^2 + x^3) reduces against it, so it is
        # built without them
        ([x * y, x * x + x * y + y * y, y * y + x ** 3], 4),
        # the same with the multipliers of the waiting and the reducing row
        # apart: in the reference x^2*(x*y + y^2) waits at x^2*y^2 past the
        # dead x^3*y, and x*y*(2*x^2 + x*y + x^3) reduces against it
        ([x ** 3, y * y + x * y, x * y + 2 * x * x + x ** 3], 4),
        # x^2 + x^3 + y^5 is dead in the reference below degree 5, and
        # truncated above 4
        ([x * x, x * x + x ** 3 + y ** 5], 4),
        # y*(x*y + y^4): x*y^2 is dead in the reference, y^5 is past the
        # truncation; the same with terms of three degrees
        ([x * y, x * y + y ** 4], 4),
        ([x * y, x * y + y ** 4 + x ** 3 - y ** 3], 5),
        # no one-term row: multiples of y^2 - x^3 and of x^2*y - y^4 wait,
        # and are built when rows of other multipliers reduce against them
        ([y * y - x ** 3, x * y + y ** 3, x * x * y - y ** 4], 6),
        # a constant row: every column is a pivot, (0, 0, 0, 0, 0)
        ([XY.one(), x * y + y ** 3], 4),
        # a one-term row that is not primitive: (1, 3, 4, 4, 4, 4)
        ([3 * x * y, x * y + y ** 3, x * x - 2 * y * y], 5),
        # a one-term row alone: (1, 3, 6, 9, 12, 15, 18)
        ([2 * x * x * y], 6),
    ]
    clear_memos()
    for gens, D in cases:
        rows = _rows(*gens)
        expected = macaulay_counts_row_by_row(2, rows, D)
        assert expected == tuple(truncated_quotient_dims(gens, 2, D)), (gens, D)
        assert gr._macaulay_counts(2, rows, D) == expected, (gens, D)
