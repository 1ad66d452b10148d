"""The two linear eliminations against their one-variable-per-pass references.

solve_linear_variables and the oracle's series elimination set every
variable of a one-term generator c*x to zero in one pass (the drain)
before each general pick.  Both must reach the ring that the rules of
tests/oracles.py reach one variable at a time: the same names, the same
generators in the same order with the same term maps, the same solved
variables with the same images, and the same oracle counts.  Only the
order of the zero images inside solved may differ.
"""

import random
from fractions import Fraction

from oracles import (
    dense,
    integer_rows,
    series_elimination_one_at_a_time,
    solve_one_at_a_time,
)
from test_invariants import _s4_triples, _s5_sample_triples
import richardson.groebner as gr
from richardson.charts import richardson_ideal_in_chart
from richardson.groebner import (
    ORACLE_DEGREE,
    IdealGens,
    local_hilbert_oracle,
    solve_linear_variables,
)
from richardson.poly import Context

CTX4 = Context(("x", "y", "z", "w"))


def _dense_map(ctx, terms):
    return {dense(ctx, m): c for m, c in terms.items()}


def _solved_set(entries):
    return {(nm, frozenset(image.items())) for nm, image in entries}


def _check_solve(I):
    """The kernel's solve against the reference; returns (names, generators, solved)."""
    J, solved = solve_linear_variables(I)
    names, gens, ref_solved = solve_one_at_a_time(I)
    assert list(J.ctx.names) == names
    got = [_dense_map(J.ctx, g.terms) for g in J.generators]
    assert got == gens
    images = [(nm, _dense_map(I.ctx, image.terms)) for nm, image in solved]
    assert all(image.ctx == I.ctx for _, image in solved)
    assert len(images) == len(_solved_set(images))
    assert _solved_set(images) == _solved_set(ref_solved)
    return names, got, images


def _check_series(I, degree_bound=ORACLE_DEGREE):
    """The oracle's series elimination and counts against the reference;
    returns (series left, variables left)."""
    ctx = I.ctx
    ds = ctx.pack.degshift
    gens = []
    for g in I.generators:
        terms = {m: c for m, c in g.terms.items() if m >> ds <= degree_bound}
        if terms:
            gens.append(terms)
    ref_gens, ref_live = series_elimination_one_at_a_time(
        [_dense_map(ctx, g) for g in gens], ctx.nvars, degree_bound
    )
    live = gr._eliminate_linear_variables(gens, ctx.pack, degree_bound)
    assert live == ref_live
    assert [_dense_map(ctx, g) for g in gens] == ref_gens
    rows = integer_rows(ref_gens, ref_live)
    assert local_hilbert_oracle(I, degree_bound) == gr._macaulay_counts(
        len(ref_live), rows, degree_bound
    )
    return ref_gens, ref_live


def test_fixed_point_eliminations_match_the_references():
    # every S4 triple and a seeded S5 sample, at the origin of the chart
    # of sigma, where most generators are single coordinates
    triples = _s4_triples()
    assert len(triples) == 1088
    drained = 0
    for v, sigma, w in triples + _s5_sample_triples(1500, 21):
        I = richardson_ideal_in_chart(v, w, sigma)
        _, _, images = _check_solve(I)
        _check_series(I)
        drained += any(not image for _, image in images)
    assert drained > 1000


def _random_ideal(rng):
    """Generators over x, y, z, w: single coordinates c*x, linear parts
    over products, and products alone."""
    gens = []
    units = CTX4.gens()
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(3)
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        if kind == 0:
            g = c * rng.choice(units)
        else:
            a, b, d = (rng.choice(units) for _ in range(3))
            g = a * b + Fraction(rng.randint(-2, 2)) * b * d * d
            if kind == 1:
                g = g + c * rng.choice(units)
        gens.append(g)
    return IdealGens(CTX4, gens)


def test_random_eliminations_match_the_references():
    rng = random.Random(2101)
    solved = 0
    for _ in range(60):
        I = _random_ideal(rng)
        names, _, _ = _check_solve(I)
        _check_series(I, 4)
        solved += len(names) < 4
    assert solved >= 30


def _kernel_text(gens):
    J, solved = solve_linear_variables(IdealGens(CTX4, gens))
    return "".join(J.ctx.names), [str(g) for g in J.generators], sorted(
        (nm, str(image)) for nm, image in solved
    )


def test_drain_cases():
    x, y, z, w = CTX4.gens()
    # y - x*z becomes the single coordinate y only once x is zero
    gens = [x, y - x * z]
    assert _kernel_text(gens) == ("zw", [], [("x", "0"), ("y", "0")])
    assert _check_series(IdealGens(CTX4, gens)) == ([], [2, 3])
    # 3*x and x both set x to zero once; z*w loses nothing
    gens = [3 * x, x, z * w + x * y]
    assert _kernel_text(gens) == ("yzw", ["z*w"], [("x", "0")])
    assert _check_series(IdealGens(CTX4, gens)) == ([{(0, 0, 1, 1): 1}], [1, 2, 3])
    # a monomial of degree 2 is no coordinate: it stays, and so do its variables
    gens = [x * y, z]
    assert _kernel_text(gens) == ("xyw", ["x*y"], [("z", "0")])
    assert _check_series(IdealGens(CTX4, gens)) == ([{(1, 1, 0, 0): 1}], [0, 1, 3])
    # x + x*y is not drainable (x is in h = x*y): nothing is solved
    I = IdealGens(CTX4, [x + x * y])
    J, solved = solve_linear_variables(I)
    assert J is I and solved == []
    _check_solve(I)
    # the series elimination still solves it: x = -x*y gives x = 0
    assert _check_series(I) == ([], [1, 2, 3])
    # after a general pick, a new single coordinate is drained: x = -y*z
    # turns w + x*w + y*z*w into w, so w = 0 and then y*z alone is left
    gens = [x + y * z, w + x * w + y * z * w, y * z * z]
    assert _kernel_text(gens) == ("yz", ["y*z^2"], [("w", "0"), ("x", "-y*z")])
    _check_series(IdealGens(CTX4, gens))
