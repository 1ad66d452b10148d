"""Exact polynomial arithmetic: contracts, canonical form, ring axioms."""

import json
import pathlib
import random
from fractions import Fraction

import pytest

from oracles import cone_tuple_key, degrevlex_tuple_key, lcm, packed
from richardson.groebner import _cone_key
from richardson.poly import MONOMIAL_ONE, Context, Polynomial, degrevlex_key

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

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
        terms.append((ctx.monomial(exps), coeff))
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


# the kernel's two orders: int keys, each with its dense tuple reference
# (the cone order reads the last variable as the homogenizing t)
ORDERS = {
    "degrevlex": (degrevlex_key, degrevlex_tuple_key),
    "cone": (lambda ctx: _cone_key(ctx.pack), cone_tuple_key),
}


@pytest.mark.parametrize("order", sorted(ORDERS))
def test_monomial_orders_are_total_multiplicative_with_unit_minimum(order):
    key, reference = ORDERS[order]
    for nvars in (3, 10):
        ctx = Context(tuple(f"x{i}" for i in range(nvars)))
        _check_order(key(ctx), reference(ctx), ctx, random.Random(97 + nvars))


def _check_order(keyf, ref, ctx, rng):
    monos = []
    for _ in range(40):
        exps = tuple(
            (i, rng.randint(1, 3))
            for i in sorted(rng.sample(range(ctx.nvars), rng.randint(0, min(ctx.nvars, 4))))
        )
        monos.append(ctx.monomial(exps))
    for _ in range(300):
        a, b, c = (monos[rng.randrange(len(monos))] for _ in range(3))
        ka, kb = keyf(a), keyf(b)
        # total: keys equal iff monomials equal
        assert (ka == kb) == (a == b)
        # the packed key follows the definition on exponent tuples
        assert (ka > kb) - (ka < kb) == (ref(a) > ref(b)) - (ref(a) < ref(b))
        # multiplicative (a product of packed monomials is their sum)
        if ka < kb:
            assert keyf(a + c) < keyf(b + c)
        # 1 is minimum
        if a != MONOMIAL_ONE:
            assert keyf(MONOMIAL_ONE) < keyf(a)


def _sorts_like_the_tuple_reference(key, reference, seed):
    # on 1..16 variables the int key orders seeded random monomials,
    # exponents 0 and 127 included, like the tuple definition, and tells
    # every two of them apart
    rng = random.Random(seed)
    for nvars in range(1, 17):
        ctx = Context(tuple(f"x{i}" for i in range(nvars)))
        keyf = key(ctx)
        ref = reference(ctx)
        exps = [(0,) * nvars, (127,) * nvars]
        exps += [tuple(rng.choice((0, 0, 1, 2, 3, 126, 127)) for _ in range(nvars))
                 for _ in range(60)]
        exps += [tuple(rng.randint(0, 127) for _ in range(nvars)) for _ in range(60)]
        monos = list({ctx.monomial([(v, e) for v, e in enumerate(x) if e]) for x in exps})
        rng.shuffle(monos)
        assert all(isinstance(keyf(m), int) for m in monos)
        assert sorted(monos, key=keyf) == sorted(monos, key=ref)
        assert len({keyf(m) for m in monos}) == len(monos)


def test_degrevlex_int_key_sorts_like_the_tuple_reference():
    _sorts_like_the_tuple_reference(degrevlex_key, degrevlex_tuple_key, 151)


def test_cone_int_key_sorts_like_the_tuple_reference():
    # the last variable is the homogenizing t; one variable is t alone
    _sorts_like_the_tuple_reference(lambda ctx: _cone_key(ctx.pack), cone_tuple_key, 157)


def test_latex_output():
    ctx = Context(("z42", "z43", "z52"), ("z_{42}", "z_{43}", "z_{52}"))
    f = ctx.var("z42") - ctx.var("z52") * ctx.var("z43")
    assert f.latex() == "z_{42}-z_{43}z_{52}"


def test_exponents_are_bounded_by_127():
    assert (X ** 127).terms == {CTX.monomial(((0, 127),)): 1}
    assert CTX.exponents(next(iter((X ** 100 * Y ** 27 * X ** 27).terms))) == ((0, 127), (1, 27))
    with pytest.raises(OverflowError):
        X ** 128
    with pytest.raises(OverflowError):
        X ** 100 * X ** 28
    with pytest.raises(OverflowError):
        CTX.monomial(((0, 128),))
    with pytest.raises(ValueError):
        CTX.monomial(((0, 0),))


def test_monomial_and_exponents_are_inverse():
    rng = random.Random(3)
    for nvars in (1, 3, 10, 15):
        ctx = Context(tuple(f"x{i}" for i in range(nvars)))
        for _ in range(50):
            pairs = tuple(
                (i, rng.randint(1, 127))
                for i in sorted(rng.sample(range(nvars), rng.randint(0, nvars)))
            )
            assert ctx.exponents(ctx.monomial(pairs)) == pairs


def test_packed_lcm_is_the_fieldwise_max_with_its_degree():
    # the loop-free lcm against the tuple reference, at every field count
    # the kernel meets, with the extreme exponents 0 and 127 and equal inputs
    rng = random.Random(24)
    for nvars in range(1, 17):
        ctx = Context(tuple(f"x{i}" for i in range(nvars)))
        pk = ctx.pack
        draws = [
            tuple(rng.choice((0, 127, rng.randint(0, 127))) for _ in range(nvars))
            for _ in range(40)
        ]
        draws += [(0,) * nvars, (127,) * nvars]
        for a, b in zip(draws, draws[1:] + draws[:1]):
            for x, y in ((a, b), (b, a), (a, a)):
                m = pk.lcm(packed(ctx, x), packed(ctx, y))
                assert m == packed(ctx, lcm(x, y)), (x, y)
                assert m >> pk.degshift == sum(lcm(x, y)), (x, y)


def _golden_poly(ctx, terms):
    return Polynomial.from_terms(
        ctx, ((ctx.monomial(tuple(map(tuple, pairs))), Fraction(c)) for pairs, c in terms)
    )


def _forms(p):
    return {
        "str": str(p),
        "latex": p.latex(),
        "sorted": [[list(map(list, p.ctx.exponents(m))), str(c)] for m, c in p.sorted_terms()],
    }


def test_canonical_forms_match_golden():
    # seeded polynomials in 1, 3, 10 and 15 variables with exponents up to
    # 127, some products and translates, recorded by the tuple-monomial
    # implementation that preceded the packed form
    golden = json.loads((GOLDEN / "poly_forms.json").read_text())
    checked = 0
    for case in golden["contexts"]:
        ctx = Context(case["names"], case["latex_names"])
        polys = [_golden_poly(ctx, p["terms"]) for p in case["polys"]]
        for p, want in zip(polys, case["polys"]):
            assert _forms(p) == want["forms"]
        for prod in case["products"]:
            assert _forms(polys[prod["a"]] * polys[prod["b"]]) == prod["forms"]
        for tr in case["translates"]:
            center = {nm: Fraction(c) for nm, c in tr["center"].items()}
            assert _forms(polys[tr["poly"]].translate(center)) == tr["forms"]
        checked += len(polys) + len(case["products"]) + len(case["translates"])
    assert [len(c["names"]) for c in golden["contexts"]] == [1, 3, 10, 15]
    assert checked >= 100
