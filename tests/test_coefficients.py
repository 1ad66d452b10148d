"""Exact coefficients: every Polynomial holds ints or Fractions, never a float.

Integral coefficients are Python ints, and a Fraction appears only where
the kernel divides by a coefficient other than +-1.  A `/` between two ints
would make a float, which compares and hashes like the exact value it
approximates only by accident, so these tests count every coefficient that
reaches Polynomial.__init__ on the paths that divide.
"""

import random
from fractions import Fraction

import pytest

from richardson import clear_memos
from richardson.charts import richardson_ideal_in_chart
from richardson.cli import run
from richardson.groebner import (
    IdealGens,
    buchberger,
    normal_form,
    solve_linear_variables,
    tangent_cone,
)
from richardson.invariants import opposite_invariants, richardson_invariants, schubert_invariants
from richardson.permutations import Permutation, bruhat_leq
from richardson.poly import Context, Polynomial
from richardson.verify import product_iso_report, pullback_ideal


@pytest.fixture
def coefficients(monkeypatch):
    """The type counts of every coefficient given to Polynomial.__init__
    from here on, with memos cleared so nothing is served from a table.

    The first coefficient that is neither an int nor a Fraction fails the
    test where it is made: a float kernel may not finish a completion.
    bool is an int subclass, but no coefficient should ever be one.
    """
    counts: dict[type, int] = {}
    real = Polynomial.__init__

    def counting(self, ctx, terms):
        for c in terms.values():
            kind = type(c)
            assert kind is int or kind is Fraction, f"coefficient {c!r} of type {kind.__name__}"
            counts[kind] = counts.get(kind, 0) + 1
        real(self, ctx, terms)

    clear_memos()
    monkeypatch.setattr(Polynomial, "__init__", counting)
    return counts


S4 = Permutation.all(4)
S4_PAIRS = [(v, w) for v in S4 for w in S4 if bruhat_leq(v, w)]


def test_s4_product_iso_triples_are_exact(coefficients):
    for u in S4:
        for v, w in S4_PAIRS:
            assert product_iso_report(u, v, w).ok
    # 0/+-1 chart matrices: their minors and both chart ideals are all ints
    for u in S4:
        for v, w in S4_PAIRS:
            for I in (pullback_ideal(u, v, w), richardson_ideal_in_chart(v, w, u)):
                assert all(type(c) is int for g in I.generators for c in g.terms.values())


def test_s4_fixed_point_records_are_exact(coefficients):
    records = 0
    for v, s in S4_PAIRS:
        for w in S4:
            if bruhat_leq(s, w):
                richardson_invariants(v, w, s)
                schubert_invariants(w, s)
                opposite_invariants(v, s)
                records += 1
    assert records == 1088


def test_verify_points_s4_is_exact(coefficients, capsys):
    assert run(["verify", "points", "--n", "4", "--exhaustive"]) == 0
    capsys.readouterr()
    assert coefficients.get(Fraction)  # the sampled points are rational


def _random_ideal(ctx, rng):
    """Generators without a constant term whose coefficients, linear ones
    included, are mostly the non-units +-2 and +-3, sometimes a Fraction."""
    gens = []
    for _ in range(rng.randint(2, 3)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(
                (i, rng.randint(1, 2))
                for i in sorted(rng.sample(range(ctx.nvars), rng.randint(1, 2)))
            )
            terms.append((ctx.monomial(exps), rng.choice([-3, -2, -1, 1, 2, 3])))
        if rng.random() < 0.5:
            terms.append((ctx.monomial([(rng.randrange(ctx.nvars), 1)]), rng.choice([-3, -2, 2, 3])))
        if rng.random() < 0.2:
            terms.append((ctx.monomial([(0, 1), (1, 1)]), Fraction(rng.choice([-1, 1]), 2)))
        gens.append(Polynomial.from_terms(ctx, terms))
    return IdealGens(ctx, gens)


def test_dividing_kernel_paths_are_exact_on_random_ideals(coefficients):
    rng = random.Random(2)
    ctxs = (Context(("x", "y", "z")), Context(("x", "y", "z", "w")))
    for trial in range(40):
        ctx = ctxs[trial % 2]
        I = _random_ideal(ctx, rng)
        # one generator first: its completion only divides by its leading coefficient
        for g in I.generators:
            buchberger(IdealGens(ctx, [g]))
        gb = buchberger(I)
        f = _random_ideal(ctx, rng).generators[0]
        normal_form(f, gb)
        J, _ = solve_linear_variables(I)
        tangent_cone(I)
        tangent_cone(J)
    # the divisions by +-2 and +-3 ran
    assert coefficients.get(Fraction, 0) > 100 and coefficients.get(int, 0) > 100
