"""Exact polynomial arithmetic: contracts, canonical form, ring axioms."""

import random
from fractions import Fraction

import pytest

from richardson.poly import (
    Context,
    DEGLEX,
    DEGREVLEX,
    LEX,
    MONOMIAL_ONE,
    Monomial,
    Polynomial,
)

CTX = Context(("x", "y", "z"))
X, Y, Z = (CTX.var(n) for n in ("x", "y", "z"))


def random_poly(ctx, rng, max_terms=5, max_deg=3, zero_ok=True):
    terms = []
    for _ in range(rng.randrange(0 if zero_ok else 1, max_terms + 1)):
        exps = tuple(
            (i, rng.randint(1, max_deg))
            for i in sorted(rng.sample(range(ctx.nvars), rng.randint(0, ctx.nvars)))
        )
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms.append((Monomial(exps), coeff))
    return Polynomial.from_terms(ctx, terms)


def test_additive_inverse():
    assert (X + (-X)).is_zero()


def test_monomial_product():
    assert str(X * Z) == "x*z"


def test_multiplicative_identity():
    f = X - Y * Z
    assert f * CTX.one() == f
    assert CTX.one() * f == f


def test_canonical_string_matches_contract():
    # chart-style naming: low-degree term first
    ctx = Context(("z42", "z43", "z52"))
    f = ctx.var("z42") - ctx.var("z52") * ctx.var("z43")
    assert str(f) == "z42 - z43*z52"


def test_string_roundtrip_forms():
    assert str(CTX.zero()) == "0"
    assert str(CTX.const(Fraction(-3, 2))) == "-3/2"
    assert str(X * X - 2 * Y) == "-2*y + x^2"


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(60):
        a, b, c = (random_poly(CTX, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a - a == CTX.zero()


def test_substitute_is_ring_homomorphism():
    rng = random.Random(23)
    for _ in range(25):
        f = random_poly(CTX, rng)
        g = random_poly(CTX, rng)
        images = {n: random_poly(CTX, rng, max_terms=2, max_deg=2) for n in CTX.names}
        lhs = (f * g).substitute(images)
        rhs = f.substitute(images) * g.substitute(images)
        assert lhs == rhs


def test_substitute_paper_style_identity():
    # z21 = (z21 - z11*z22) + z11*z22 recovers the variable itself
    ctx = Context(("z11", "z21", "z22"))
    z11, z21, z22 = (ctx.var(n) for n in ctx.names)
    assert z21.substitute({"z21": (z21 - z11 * z22) + z11 * z22}) == z21


def test_substitute_identity_and_annihilation():
    f = X * Y + Z
    assert f.substitute({n: CTX.var(n) for n in CTX.names}) == f
    assert (X * Y).substitute({"x": 0, "y": 5}) == CTX.zero()


def test_substitute_missing_image():
    with pytest.raises(ValueError):
        (X + Y).substitute({"x": X})


def test_evaluate():
    f = X - Z * Y
    assert f.evaluate({"x": 3, "z": 1, "y": 2}) == 1
    assert CTX.const(7).evaluate({}) == 7
    assert (X * Y).evaluate({"x": Fraction(1, 2), "y": 4}) == 2
    with pytest.raises(ValueError):
        f.evaluate({"x": 1})


def test_translate():
    t = Context(("z",))
    z = t.var("z")
    assert (z - 1).translate({"z": 1}) == z
    assert (z * z).translate({"z": 1}) == z * z + 2 * z + 1
    f = z * z - 3 * z
    assert f.translate({"z": 0}) == f


def test_translate_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        f = random_poly(CTX, rng)
        center = {n: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for n in CTX.names}
        back = f.translate(center).translate({n: -c for n, c in center.items()})
        assert back == f
        if not f.is_zero():
            assert f.translate(center).evaluate({n: 0 for n in CTX.names}) == f.evaluate(center)


def test_lowest_degree_form():
    f = Y * Y - X * X * X
    assert f.lowest_degree_form() == Y * Y
    g = X * Y + Y * Z
    assert g.lowest_degree_form() == g
    ctx = Context(("z11", "z21", "z22"))
    h = ctx.var("z21") - ctx.var("z11") * ctx.var("z22")
    assert h.lowest_degree_form() == ctx.var("z21")
    with pytest.raises(ValueError):
        CTX.zero().lowest_degree_form()


def test_context_mismatch_rejected():
    other = Context(("x", "y"))
    with pytest.raises(ValueError):
        X + other.var("x")


@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX])
def test_monomial_orders_are_total_multiplicative_with_unit_minimum(order):
    rng = random.Random(97)
    keyf = order.sort_key(CTX)
    monos = []
    for _ in range(40):
        exps = tuple(
            (i, rng.randint(1, 3))
            for i in sorted(rng.sample(range(3), rng.randint(0, 3)))
        )
        monos.append(Monomial(exps))
    for _ in range(300):
        a, b, c = (monos[rng.randrange(len(monos))] for _ in range(3))
        ka, kb = keyf(a), keyf(b)
        # total: keys equal iff monomials equal
        assert (ka == kb) == (a == b)
        # multiplicative
        if ka < kb:
            assert keyf(a * c) < keyf(b * c)
        # 1 is minimum
        if a != MONOMIAL_ONE:
            assert keyf(MONOMIAL_ONE) < keyf(a)


def test_degrevlex_vs_deglex_disagree_somewhere():
    # x*z^2 vs y^2*z: same degree; deglex prefers x first, degrevlex penalizes z
    a = Monomial(((0, 1), (2, 2)))
    b = Monomial(((1, 2), (2, 1)))
    kd = DEGLEX.sort_key(CTX)
    kr = DEGREVLEX.sort_key(CTX)
    assert (kd(a) > kd(b)) != (kr(a) > kr(b))


def test_latex_output():
    ctx = Context(("z42", "z43", "z52"), ("z_{42}", "z_{43}", "z_{52}"))
    f = ctx.var("z42") - ctx.var("z52") * ctx.var("z43")
    assert f.latex() == "z_{42}-z_{43}z_{52}"
