"""Sweeping maps: the worked 31542 example, supports, claim, recovery."""

import random
from fractions import Fraction
from functools import partial

import pytest

from richardson.charts import ChartMatrix, chart, generic_matrix, identify_cells
from richardson.permutations import Permutation
from richardson.sweep import (
    claim_structure_check,
    eta1,
    eta2,
    eta_on_point,
    recover,
    recovery_round_trip,
    sweep_images,
)

U = Permutation([3, 1, 5, 4, 2])


def zvar(u, i, j):
    return chart(u).var(i, j)


def test_eta1_entries_of_31542():
    up, _ = sweep_images(U)
    z = lambda i, j: zvar(U, i, j)
    assert up.entry(2, 2) == z(2, 2) - z(2, 4) * (z(4, 2) - z(5, 2) * z(4, 3)) - z(2, 3) * z(5, 2)
    assert up.entry(4, 1) == z(4, 1) - z(5, 1) * z(4, 3)
    assert up.entry(4, 2) == z(4, 2) - z(5, 2) * z(4, 3)
    assert up.entry(5, 1) == z(5, 1)
    assert up.entry(5, 2) == z(5, 2)
    # cleared positions
    assert up.entry(1, 1).is_zero()
    assert up.entry(2, 1).is_zero()
    assert up.entry(2, 3).is_zero()


def test_eta2_entries_of_31542():
    _, down = sweep_images(U)
    z = lambda i, j: zvar(U, i, j)
    assert down.entry(1, 1) == z(1, 1)
    assert down.entry(2, 1) == z(2, 1) - z(1, 1) * z(2, 2)
    assert down.entry(2, 3) == z(2, 3)
    assert down.entry(2, 4) == z(2, 4)
    assert down.entry(4, 3) == z(4, 3)
    assert down.entry(4, 1).is_zero()
    assert down.entry(5, 1).is_zero()
    assert down.entry(5, 2).is_zero()


def test_sweep_supports():
    for u in Permutation.all(4):
        ch = chart(u)
        up, down = sweep_images(u)
        uinv = u.inverse()
        for i in range(1, 5):
            for j in range(1, 5):
                if j == uinv(i):
                    continue
                if not up.entry(i, j).is_zero():
                    assert (i, j) in ch.d_up
                if not down.entry(i, j).is_zero():
                    assert (i, j) in ch.d_down


def test_identity_chart_is_fixed_by_eta1():
    u = Permutation.identity(4)
    x = generic_matrix(u)
    assert eta1(x).rows == x.rows


def test_w0_down_sweep_is_cell_form():
    u = Permutation.longest(3)
    ch = chart(u)
    _, down = sweep_images(u)
    for (i, j) in ch.d_up:
        assert down.entry(i, j).is_zero()
    for (i, j) in ch.d_down:
        assert down.entry(i, j) == ch.var(i, j) or not down.entry(i, j).is_zero()


def test_lowest_degree_form_is_coordinate():
    # each swept entry starts with its own coordinate: the pair is a local
    # isomorphism at the torus-fixed point of the chart
    for u in Permutation.all(4):
        ch = chart(u)
        up, down = sweep_images(u)
        for (i, j) in ch.d_up:
            assert up.entry(i, j).lowest_degree_form() == ch.var(i, j)
        for (i, j) in ch.d_down:
            assert down.entry(i, j).lowest_degree_form() == ch.var(i, j)


def test_claim_structure_all_s4():
    for u in Permutation.all(4):
        assert claim_structure_check(u)


def test_claim_structure_31542():
    assert claim_structure_check(U)


def test_recovery_example_entries():
    rec = recover(U)
    # z41 = (z41 - z51*z43) + z51*z43, in image variables
    assert str(rec[(4, 1)]) == "a41 + a51*b43"
    assert str(rec[(5, 1)]) == "a51"
    assert str(rec[(1, 1)]) == "b11"


def test_recovery_round_trip_s3_s4():
    for n in (3, 4):
        for u in Permutation.all(n):
            assert recovery_round_trip(u)


def test_sweep_isomorphism_on_all_of_s6():
    # product-iso runs up to S7, whose 5,040 charts (about 10 s) stay out of tier-1
    for u in Permutation.all(6):
        assert claim_structure_check(u), u
        assert recovery_round_trip(u), u


def test_recovery_round_trip_identity_chart():
    u = Permutation.identity(5)
    rec = recover(u)
    for (i, j), expr in rec.items():
        assert len(expr.terms) == 1


def test_alternative_sweep_order_same_result():
    # repeated single passes in plain column order converge to the same
    # matrix: clearing order does not matter
    for u in Permutation.all(4):
        x = generic_matrix(u)
        up, down = sweep_images(u)
        n = u.n
        uinv = u.inverse()
        rows = [list(r) for r in x.rows]
        for _ in range(n):
            for j in range(1, n + 1):
                r = u(j)
                for i in range(1, r):
                    c = rows[i - 1][j - 1]
                    if c.is_zero():
                        continue
                    rows[i - 1] = [a - c * b for a, b in zip(rows[i - 1], rows[r - 1])]
        assert tuple(tuple(r) for r in rows) == up.rows


def test_eta_on_point_fixes_origin():
    up, down = eta_on_point(U, [
        [Fraction(1 if U(j) == i else 0) for j in range(1, 6)] for i in range(1, 6)
    ])
    expect = [[Fraction(1 if U(j) == i else 0) for j in range(1, 6)] for i in range(1, 6)]
    assert up == expect and down == expect


def test_eta_on_point_preserves_cells():
    # 100 rational points per chart of S4
    rng = random.Random(17)
    for u in Permutation.all(4):
        ch = chart(u)
        gx = generic_matrix(u)
        for _ in range(100):
            point = {
                nm: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                for nm in ch.ctx.names
            }
            x = gx.evaluate(point)
            sigma, tau = identify_cells(x)
            up, down = eta_on_point(u, x)
            assert identify_cells(up)[0] == sigma
            assert identify_cells(down)[1] == tau


def test_eta_on_point_rejects_malformed():
    with pytest.raises(ValueError):
        eta_on_point(Permutation([2, 1]), [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])


@pytest.mark.parametrize("fault, message", [
    ((2, 5, 2), r"entry \(2,5\) must be the structural 1"),  # 2 in place of the 1 of row 2
    ((1, 3, 1), r"entry \(1,3\) must vanish right of the 1"),  # nonzero right of the 1 of row 1
], ids=["not-the-one", "right-of-the-one"])
def test_every_sweep_rejects_the_same_malformed_forms(fault, message):
    # eta1 and eta2 on a ChartMatrix and eta_on_point on rationals share
    # one check of the chart form of U = 31542
    i, j, c = fault
    x = generic_matrix(U)
    ctx = x.chart.ctx
    rows = [list(r) for r in x.rows]
    rows[i - 1][j - 1] = ctx.const(c)
    bad = ChartMatrix(x.chart, rows)
    point = [[Fraction(1 if U(b) == a else 0) for b in range(1, 6)] for a in range(1, 6)]
    point[i - 1][j - 1] = Fraction(c)
    for sweep, matrix in ((eta1, bad), (eta2, bad), (partial(eta_on_point, U), point)):
        with pytest.raises(ValueError, match=message):
            sweep(matrix)


def test_single_nonzero_coordinate_one_step():
    u = Permutation([2, 1, 3])
    ch = chart(u)
    s = Fraction(7)
    point = {nm: Fraction(0) for nm in ch.ctx.names}
    point[ch.var_name(3, 1)] = s
    x = generic_matrix(u).evaluate(point)
    up, down = eta_on_point(u, x)
    # (3,1) is below the 1 of column 1: the down sweep clears it
    assert down[2][0] == 0
    assert up[2][0] == s
