"""Groebner kernel against the straightforward pairwise-reduction oracle."""

import random
from fractions import Fraction
from math import comb

import pytest

from oracles import (
    dense,
    divides,
    hilbert_function_by_counting,
    jacobian_corank,
    krull_dimension_by_subsets,
    lcm,
    monomial_key,
    naive_buchberger,
    packed,
    quotient,
    truncated_quotient_dims,
    two_list_normal_form,
)
from richardson import clear_memos
from richardson.charts import chart, generic_matrix, schubert_ideal_in_chart
from richardson.groebner import (
    Q_CONTEXT,
    HilbertData,
    IdealGens,
    all_in_ideal,
    buchberger,
    hilbert_numerator,
    ideal_equal,
    krull_dimension,
    local_hilbert_oracle,
    normal_form,
    solve_linear_variables,
    tangent_cone,
)
import richardson.groebner as gr
import richardson.invariants as rinv
from richardson.invariants import richardson_invariants
from richardson.permutations import Permutation, bruhat_leq
from richardson.poly import Context, Polynomial, degrevlex_key
from richardson.sweep import sweep_images

CTX = Context(("x", "y"))
X, Y = CTX.var("x"), CTX.var("y")
CTX3 = Context(("x", "y", "z"))


def random_poly(ctx, rng, max_terms=4, max_deg=3):
    terms = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(
            (i, rng.randint(1, max_deg))
            for i in sorted(rng.sample(range(ctx.nvars), rng.randint(0, ctx.nvars)))
        )
        terms.append((ctx.monomial(exps), Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    return Polynomial.from_terms(ctx, terms)


def test_principal_monomial_ideal():
    gb = buchberger(IdealGens(CTX, [X]))
    assert [str(g) for g in gb.basis] == ["x"]


def test_zero_ideal():
    gb = buchberger(IdealGens(CTX, []))
    assert gb.basis == ()
    assert not gb.contains_one()


def test_derived_example_matches_oracle():
    gens = [X * X - Y, Y * Y - X]
    expected = naive_buchberger(gens)
    gb = buchberger(IdealGens(CTX, gens))
    assert [str(g) for g in gb.basis] == [str(g) for g in expected]
    assert [str(g) for g in gb.basis] == ["-x + y^2", "-y + x^2"]


def test_engine_agrees_with_oracle_randomized():
    clear_memos()  # every basis below is computed afresh
    rng = random.Random(7)
    for trial in range(25):
        gens = [random_poly(CTX3, rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        expected = naive_buchberger(gens)
        got = buchberger(IdealGens(CTX3, gens))
        assert [str(g) for g in got.basis] == [str(g) for g in expected], f"trial {trial}"


def test_every_spair_of_every_basis_reduces_to_zero():
    clear_memos()  # every basis below is computed afresh
    rng = random.Random(19)
    keyf = degrevlex_key(CTX3)
    for _ in range(15):
        gens = [random_poly(CTX3, rng) for _ in range(rng.randint(1, 3))]
        gb = buchberger(IdealGens(CTX3, gens))
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                f, g = basis[i], basis[j]
                ltf = dense(CTX3, max(f.terms, key=keyf))
                ltg = dense(CTX3, max(g.terms, key=keyf))
                l = lcm(ltf, ltg)
                s = (
                    Polynomial(CTX3, {packed(CTX3, quotient(l, ltf)): Fraction(1)}) * f
                    - Polynomial(CTX3, {packed(CTX3, quotient(l, ltg)): Fraction(1)}) * g
                )
                assert normal_form(s, gb).is_zero()


def test_normal_form_contract():
    gens = [X * X - Y]
    gb = buchberger(IdealGens(CTX, gens))
    assert normal_form(gens[0], gb).is_zero()
    assert normal_form(CTX.one(), buchberger(IdealGens(CTX, []))) == CTX.one()
    assert normal_form(X * X * Y, gb) == Y * Y
    f = X ** 3 * Y - 2 * X + Y
    # f minus its normal form lies in the ideal
    assert all_in_ideal((f - normal_form(f, gb),), gb)


def test_ideal_equal():
    assert ideal_equal(IdealGens(CTX, [X]), IdealGens(CTX, [2 * X]))
    assert not ideal_equal(IdealGens(CTX, [X]), IdealGens(CTX, [X * X]))
    assert ideal_equal(IdealGens(CTX, [X + Y, Y]), IdealGens(CTX, [X, Y]))
    # one generator set inside the other is not one generator set
    I, J = IdealGens(CTX, [X * X - Y, Y * Y]), IdealGens(CTX, [X * X - Y])
    assert not ideal_equal(I, J) and not ideal_equal(J, I)
    assert not ideal_equal(IdealGens(CTX, [X, Y]), IdealGens(CTX, [X]))


def test_ideal_equal_completes_one_basis_for_one_generator_set(monkeypatch):
    runs = []
    real = gr._completion_for
    monkeypatch.setattr(gr, "_completion_for", lambda *args: runs.append(1) or real(*args))
    gens = [X * X - Y, Y * Y - X, X ** 3 - X * Y]
    I = IdealGens(CTX, gens)
    # one generator set is one ideal, in any order: nothing is completed
    assert ideal_equal(I, I) and len(runs) == 0
    assert ideal_equal(I, IdealGens(CTX, gens[::-1])) and len(runs) == 0
    assert ideal_equal(I, IdealGens(CTX, gens[:2])) and len(runs) == 2


def test_ideal_equal_certifies_one_shared_basis(monkeypatch):
    # a basis missing an element is refused by the generators' remainders,
    # also when both ideals share it
    real = gr.buchberger

    def last_dropped(ideal):
        gb = real(ideal)
        return gr.GroebnerBasis(gb.basis[:-1], gb.ctx)

    I = IdealGens(CTX, [X * X - Y, Y * Y - X])
    J = IdealGens(CTX, [X * X - Y, Y * Y - X, X ** 3 - X * Y])  # I + (x^3 - xy) = I
    assert len(real(I).basis) > 1 and real(I).basis == real(J).basis and ideal_equal(I, J)
    monkeypatch.setattr(gr, "buchberger", last_dropped)
    assert not ideal_equal(I, J)


def test_drained_completion_matches_the_oracle_on_product_iso_ideals():
    # both ideals of every S4 product-iso case on [v, w]: 1,344 of the 1,472
    # distinct ones have coordinates to drain, and the basis is the oracle's
    # element for element
    from richardson.charts import richardson_ideal_in_chart
    from richardson.verify import pullback_ideal

    elems = Permutation.all(4)
    ideals = {}
    for u in elems:
        for v in elems:
            for w in elems:
                if bruhat_leq(v, u) and bruhat_leq(u, w):
                    for I in (pullback_ideal(u, v, w), richardson_ideal_in_chart(v, w, u)):
                        ideals.setdefault((I.ctx.names, I.generators), I)
    drained = 0
    for I in ideals.values():
        assert list(buchberger(I).basis) == naive_buchberger(I.generators), I.generators
        drained += gr._drain(I.ctx.pack, [g.terms for g in I.generators])[1] != []
    assert (len(ideals), drained) == (1472, 1344)


def test_drained_completion_matches_the_oracle_on_random_ideals():
    # seeded ideals holding one or two coordinates c*x among random generators
    rng = random.Random(71)
    ctx = Context(("x", "y", "z", "w"))
    for trial in range(60):
        gens = [random_poly(ctx, rng, max_deg=2) for _ in range(rng.randint(1, 3))]
        for v in rng.sample(range(4), rng.randint(1, 2)):
            gens.insert(rng.randrange(len(gens) + 1), rng.choice([1, -2, Fraction(1, 3)]) * ctx.gens()[v])
        I = IdealGens(ctx, gens)
        assert list(buchberger(I).basis) == naive_buchberger(I.generators), f"trial {trial}"


@pytest.mark.parametrize(
    "gens, basis, live",
    [
        ([X, 2 * X], ["x"], 1),  # one x, not two
        ([X, Y + X * X], ["y", "x"], 0),  # y is a coordinate only once x is zero
        ([X * X - Y, Y], ["y", "x^2"], 1),
        ([X, Y, X * Y + X - 3], ["1"], 0),  # the drain leaves a constant
        ([X, Y * Y - 1, Y ** 3 - Y + 1], ["1"], 1),  # the unit ideal in the live variables
        ([], [], 2),
    ],
)
def test_drained_completion_edge_cases(gens, basis, live):
    I = IdealGens(CTX, gens)
    got = buchberger(I).basis
    assert [str(g) for g in got] == basis
    assert list(got) == naive_buchberger(I.generators)
    # the drain that solve_linear_variables and ideal_equal run leaves live variables
    assert CTX.nvars - len(gr._drain(CTX.pack, [g.terms for g in I.generators])[1]) == live


def test_every_variable_drained_keeps_the_basis_order():
    # a basis of coordinates comes back sorted by leading term, as the rest does
    I = IdealGens(CTX3, [CTX3.var(nm) * c for nm, c in (("x", 2), ("z", -1), ("y", 5))])
    got = buchberger(I).basis
    assert [str(g) for g in got] == ["z", "y", "x"]
    assert list(got) == naive_buchberger(I.generators)
    ctx = Context(("a", "b", "c", "d"))
    a, b, c, d = ctx.gens()
    I = IdealGens(ctx, [d, b * b - a * c, b + d * a, c * c - a])
    assert list(buchberger(I).basis) == naive_buchberger(I.generators)


@pytest.mark.parametrize(
    "I, J, equal",
    [
        ([X, Y], [X, Y * Y], False),  # y is a coordinate of I only
        ([X, Y], [Y, X + Y * Y], True),  # x is a coordinate of J once y is drained
        ([X, Y * Y], [X + Y * Y, Y * Y], True),  # x is a coordinate of I only
        ([X], [X + Y * Y], False),
        ([X, X * Y - 1], [Y, X * Y + 2], True),  # both the unit ideal
    ],
)
def test_ideal_equal_drains_only_shared_coordinates(I, J, equal):
    I, J = IdealGens(CTX, I), IdealGens(CTX, J)
    assert ideal_equal(I, J) is equal
    assert ideal_equal(J, I) is equal
    assert (naive_buchberger(I.generators) == naive_buchberger(J.generators)) is equal


def _on_interval_cases(n):
    elems = Permutation.all(n)
    return [
        (u, v, w) for u in elems for v in elems for w in elems if bruhat_leq(v, u) and bruhat_leq(u, w)
    ]


def test_ideal_equal_builds_no_ring(monkeypatch):
    # ideal_equal compares and completes the drained maps where they are:
    # with _restricted raising, every S4 product-iso case on [v, w] and the
    # inputs of the ideal_equal tests above still pass
    from richardson.verify import product_iso_report

    def no_ring(*args):
        raise AssertionError("ideal_equal built a ring")

    monkeypatch.setattr(gr, "_restricted", no_ring)
    cases = _on_interval_cases(4)
    assert len(cases) == 1088 and all(product_iso_report(*case).ok for case in cases)
    test_ideal_equal()
    for I, J, equal in test_ideal_equal_drains_only_shared_coordinates.pytestmark[0].args[1]:
        test_ideal_equal_drains_only_shared_coordinates(I, J, equal)
    test_ideal_equal_completes_one_basis_for_one_generator_set(monkeypatch)
    test_ideal_equal_certifies_one_shared_basis(monkeypatch)  # last: it breaks buchberger


def _drained_pairs():
    """(ctx, drained maps of I, of J, the variables left) of every S4
    product-iso case on [v, w] whose drained generator sets differ, then
    of seeded random pairs that share a coordinate or two."""
    from richardson.charts import richardson_ideal_in_chart
    from richardson.verify import pullback_ideal

    pairs = [
        (pullback_ideal(u, v, w), richardson_ideal_in_chart(v, w, u))
        for u, v, w in _on_interval_cases(4)
    ]
    rng = random.Random(3501)
    ctx = Context(("x", "y", "z", "w"))

    def side(shared):
        return IdealGens(ctx, shared + [random_poly(ctx, rng, max_deg=2) for _ in range(rng.randint(1, 3))])

    for _ in range(60):
        shared = [c * ctx.gens()[v] for c, v in zip((1, -2), rng.sample(range(4), rng.randint(1, 2)))]
        pairs.append((side(shared), side(shared)))
    for I, J in pairs:
        (gi, gj), zeroed = gr._drain(I.ctx.pack, *([g.terms for g in K.generators] for K in (I, J)))
        if {frozenset(t.items()) for t in gi} != {frozenset(t.items()) for t in gj}:
            yield I.ctx, gi, gj, [v for v in range(I.ctx.nvars) if v not in zeroed]


def test_drained_maps_complete_as_in_the_ring_of_the_live_variables():
    # on the drained maps the order of R is the degrevlex order of R', the
    # ring of the variables left: completed in R, each side's basis is the
    # one completed in R' element for element, and so is the remainder of
    # each map of the other side
    cases = 0
    for ctx, gi, gj, live in _drained_pairs():
        for mine, other in ((gi, gj), (gj, gi)):
            whole = buchberger(IdealGens(ctx, [Polynomial(ctx, t) for t in mine]))
            small = buchberger(gr._restricted(ctx, live, mine))
            assert [str(g) for g in whole.basis] == [str(g) for g in small.basis]
            for t in other:
                (g,) = gr._restricted(ctx, live, [t]).generators
                assert str(normal_form(Polynomial(ctx, t), whole)) == str(normal_form(g, small))
        cases += 1
    # the 26 S4 cases that complete (52 completions), and 56 of the 60 random
    # pairs: the other four drain to one generator set
    assert cases == 26 + 56


@pytest.mark.parametrize("cone", [False, True], ids=["degrevlex", "cone-order"])
def test_one_reducer_list_divides_like_the_two_list_scan(cone):
    # random reducer sets, not Groebner bases: the remainder depends on which
    # dividing reducer is taken.  Every monomial reducer divides the leading
    # term of a polynomial one, and the work holds multiples of both
    rng = random.Random(2601 + cone)
    both = differs = 0
    for _ in range(200):
        n = rng.randint(2, 4)
        ctx = Context([f"x{i}" for i in range(n)])
        pk = ctx.pack
        keyf = gr._cone_key(pk) if cone else degrevlex_key(ctx)

        def vec(top):
            return tuple(rng.randint(0, top) for _ in range(n))

        def coeff():
            return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))

        items = []
        for _ in range(rng.randint(1, 3)):
            terms = {packed(ctx, vec(2)): coeff() for _ in range(rng.randint(2, 4))}
            lt = max(terms, key=keyf)
            del terms[lt]
            items.append((lt, terms))
            below = tuple(rng.randint(0, e) for e in dense(ctx, lt))
            if any(below):
                items.append((packed(ctx, below), {}))
        rng.shuffle(items)
        work = {packed(ctx, vec(3)): coeff() for _ in range(rng.randint(1, 4))}
        for lt, _ in rng.sample(items, min(3, len(items))):
            work[packed(ctx, tuple(a + b for a, b in zip(dense(ctx, lt), vec(1))))] = coeff()
        reducers = gr._make_reducers(items, keyf, pk)
        expected = two_list_normal_form(ctx, work, items, keyf)
        assert gr._reduce_raw(work, reducers, keyf, pk) == expected
        # the test can tell the orders apart: a term two kinds of reducer
        # divide, and remainders a key-only order changes
        lts = [(dense(ctx, lt), bool(tail)) for lt, tail in items]
        for m in work:
            hits = {kind for lt, kind in lts if divides(lt, dense(ctx, m))}
            both += hits == {False, True}
        key_only = sorted(reducers, key=lambda e: e[1:3])
        differs += gr._reduce_raw(work, key_only, keyf, pk) != expected
    assert both > 50 and differs > 5


def test_contains_one():
    assert buchberger(IdealGens(CTX, [X, X - 1])).contains_one()
    assert not buchberger(IdealGens(CTX, [])).contains_one()
    assert not buchberger(IdealGens(CTX, [X, Y])).contains_one()


def test_krull_dimension():
    assert krull_dimension(IdealGens(CTX3, [])) == 3
    assert krull_dimension(IdealGens(CTX3, list(CTX3.gens()))) == 0
    assert krull_dimension(IdealGens(CTX, [X * Y])) == 1
    with pytest.raises(ValueError):
        krull_dimension(IdealGens(CTX, [CTX.one()]))


def test_krull_dimension_matches_the_subset_search_on_random_ideals():
    # the reference reads the leading monomials of the textbook Buchberger,
    # so neither the basis nor the Hilbert series comes from the kernel
    rng = random.Random(29)
    ctx4 = Context(("x", "y", "z", "w"))
    dims = []
    for trial in range(60):
        if trial % 3:
            ctx = CTX3 if trial % 2 else ctx4
            I = _random_local_ideal(ctx, rng, trial % 3, trial % 4)
        else:  # constant terms too; four variables make the reference too slow
            ctx = CTX3
            I = IdealGens(ctx, [random_poly(ctx, rng) for _ in range(rng.randint(1, 3))])
        keyf = monomial_key(ctx)
        basis = naive_buchberger(I.generators)
        lead = [dense(ctx, max(g.terms, key=keyf)) for g in basis]
        if any(not any(m) for m in lead):
            with pytest.raises(ValueError):
                krull_dimension(I)
            continue
        dims.append(krull_dimension_by_subsets(lead, ctx.nvars))
        assert krull_dimension(I) == dims[-1], I.generators
    assert len(dims) >= 40 and len(set(dims)) >= 4


def test_krull_dimension_matches_the_subset_search_on_s4_charts(monkeypatch):
    # every chart ideal that verify dimension --n 4 visits, one per S4
    # triple v <= sigma <= w, and its reduced ring, where it reads the dimension
    import io

    import richardson.verify as rverify
    from richardson.cli import run

    def reference(I):
        lead = [dense(I.ctx, m) for m in buchberger(I).leading_monomials()]
        return krull_dimension_by_subsets(lead, I.ctx.nvars)

    charts, seen = [], []

    def solved(I):
        charts.append(I)
        return solve_linear_variables(I)

    def checked(J):
        got = krull_dimension(J)
        assert got == reference(J), J.generators
        seen.append(J)
        return got

    monkeypatch.setattr(rverify, "solve_linear_variables", solved)
    monkeypatch.setattr(rverify, "krull_dimension", checked)
    assert run(["verify", "dimension", "--n", "4", "--exhaustive"], io.StringIO()) == 0
    assert len(charts) == len(seen) == 1088
    for I, J in zip(charts, seen):
        assert solve_linear_variables(I)[0].generators == J.generators
        assert krull_dimension(I) == reference(I) == krull_dimension(J)


def _lift_checked(I, J, images, rng):
    """Give J's variables random rationals, back-substitute through the
    images in reverse, and check that every generator of I vanishes."""
    assert J.generators == ()
    point = {nm: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for nm in J.ctx.names}
    for nm, image in reversed(images):
        assert image.ctx == I.ctx
        point[nm] = image.evaluate(point)
    assert sorted(point) == sorted(I.ctx.names)
    assert all(g.evaluate(point) == 0 for g in I.generators)


def test_solve_linear_variables_cases():
    x, y, z = CTX3.gens()

    def solved(gens):
        J, images = solve_linear_variables(IdealGens(CTX3, gens))
        return (
            "".join(J.ctx.names),
            [str(g) for g in J.generators],
            [(nm, str(image)) for nm, image in images],
        )

    # x occurs in h = x*y, so nothing is solved and I itself comes back
    I = IdealGens(CTX3, [x + x * y])
    J, images = solve_linear_variables(I)
    assert J is I and images == []
    # a non-unit coefficient: x = -y^2/2
    assert solved([2 * x + y * y, x * z]) == ("yz", ["-1/2*y^2*z"], [("x", "-1/2*y^2")])
    # a chained solve: y is in y*z^2 until x = y*z cancels it
    assert solved([x - y * z, y + x * z - y * z * z]) == (
        "z", [], [("x", "y*z"), ("y", "0")]
    )
    # the second generator vanishes once x = y*z is substituted
    assert solved([x - y * z, 2 * x - 2 * y * z, y ** 3]) == ("yz", ["y^3"], [("x", "y*z")])
    # the shortest generator goes first, then the earliest variable
    assert solved([y + x * z + z * z, x + y * y]) == (
        "yz", ["y + z^2 - y^2*z"], [("x", "-y^2")]
    )
    assert solved([x + y, y * z]) == ("yz", ["y*z"], [("x", "-y")])
    # an image holds a variable solved later: x = y*z, then y = z^2
    assert solved([x - y * z, y - z * z]) == ("z", [], [("x", "y*z"), ("y", "z^2")])
    # every variable solved: a ring without variables
    J, images = solve_linear_variables(IdealGens(CTX3, [x, y - x * z, z - x]))
    assert J.ctx.nvars == 0 and J.generators == ()
    assert [nm for nm, _ in images] == ["x", "y", "z"]
    # points of V(J) lift to points of V(I) through the images in reverse
    rng = random.Random(5)
    chains = ([x - y * z, y + x * z - y * z * z], [x - y * z, y - z * z], [x, y - x * z, z - x])
    for gens in chains:
        I = IdealGens(CTX3, gens)
        _lift_checked(I, *solve_linear_variables(I), rng)


def test_solve_linear_variables_keeps_the_local_invariants_randomized():
    # R/I and R'/I' are isomorphic with the origin sent to the origin: the
    # dimension, the cone's H-polynomial, the embedding dimension and the
    # truncated quotient dimensions of the oracle all agree
    rng = random.Random(31)
    lift_rng = random.Random(32)
    ctx4 = Context(("x", "y", "z", "w"))
    shrunk = lifted = 0
    for trial in range(30):
        ctx = CTX3 if trial % 2 else ctx4
        I = _random_linear_ideal(ctx, rng, 1 + trial % 3)
        if buchberger(I).contains_one():
            continue
        J, images = solve_linear_variables(I)
        shrunk += J.ctx.nvars < ctx.nvars
        # one image per dropped variable, each free of the variables solved so far
        assert len(images) == ctx.nvars - J.ctx.nvars
        assert {nm for nm, _ in images} == set(ctx.names) - set(J.ctx.names)
        for k, (nm, image) in enumerate(images):
            assert image.ctx == ctx
            assert not {ctx.names[i] for i in image.variables()} & {m for m, _ in images[:k + 1]}
        if not J.generators:
            _lift_checked(I, J, images, lift_rng)
            lifted += 1
        assert krull_dimension(J) == krull_dimension(I)
        hI, hJ = (hilbert_numerator(tangent_cone(K)) for K in (I, J))
        assert hJ.cancelled_numerator == hI.cancelled_numerator
        assert hJ.series_prefix(5) == hI.series_prefix(5)
        assert local_hilbert_oracle(J, 4) == local_hilbert_oracle(I, 4)
        corank = [jacobian_corank(K.generators, K.ctx.nvars) for K in (I, J)]
        assert corank[0] == corank[1] == hI.series_prefix(1)[1]
    assert shrunk >= 15 and lifted >= 5


def test_kernel_elimination_shares_no_oracle_helper():
    # the kernel's exact elimination and the oracle's series elimination
    # stay two independent codes, so the oracle still checks the kernel
    import ast
    import inspect

    import richardson.groebner as gr

    tree = ast.parse(inspect.getsource(gr.solve_linear_variables))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    oracle_helpers = {
        "_eliminate_linear_variables", "_substitute", "_powers", "local_hilbert_oracle"
    }
    assert names & oracle_helpers == set()


def test_hilbert_polynomial_ring():
    hd = hilbert_numerator(IdealGens(Context(("x",)), []))
    assert str(hd.numerator) == "1"
    assert hd.dimension == 1
    assert hd.series_prefix(4) == [1, 1, 1, 1, 1]


def test_hilbert_single_power():
    ctx = Context(("x",))
    hd = hilbert_numerator(IdealGens(ctx, [ctx.var("x") ** 2]))
    assert str(hd.cancelled_numerator) == "1 + q"
    assert hd.dimension == 0


def test_hilbert_xy():
    hd = hilbert_numerator(IdealGens(CTX, [X * Y]))
    assert str(hd.cancelled_numerator) == "1 + q"
    assert hd.dimension == 1
    assert hd.series_prefix(4) == [1, 2, 2, 2, 2]


def test_hilbert_matches_direct_counting_on_monomial_ideals():
    rng = random.Random(3)
    for _ in range(20):
        monos = []
        for _ in range(rng.randint(1, 4)):
            exps = tuple(
                (i, rng.randint(1, 3))
                for i in sorted(rng.sample(range(3), rng.randint(1, 3)))
            )
            monos.append(CTX3.monomial(exps))
        gens = [Polynomial(CTX3, {m: Fraction(1)}) for m in monos]
        hd = hilbert_numerator(IdealGens(CTX3, gens))
        lead = [dense(CTX3, m) for m in monos]
        assert hd.series_prefix(8) == hilbert_function_by_counting(lead, 3, 8)


def test_hilbert_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        hilbert_numerator(IdealGens(CTX, [X * X - Y]))


def test_tangent_cone_single_generator():
    cone = tangent_cone(IdealGens(CTX, [Y * Y - X ** 3]))
    assert ideal_equal(cone, IdealGens(CTX, [Y * Y]))


def test_tangent_cone_homogeneous_input_unchanged():
    I = IdealGens(CTX3, [CTX3.var("x") * CTX3.var("y"), CTX3.var("z") ** 2])
    assert ideal_equal(tangent_cone(I), I)


def test_tangent_cone_needs_saturation_style_completion():
    # the cone of {y - x^2, y^2} is <y, x^4>, strictly bigger than lowest
    # forms of the generators
    I = IdealGens(CTX, [Y - X * X, Y * Y])
    cone = tangent_cone(I)
    assert ideal_equal(cone, IdealGens(CTX, [Y, X ** 4]))
    counts = local_hilbert_oracle(I, 6)
    assert counts == (1, 2, 3, 4, 4, 4, 4)


def test_tangent_cone_rejects_nonvanishing_generator():
    with pytest.raises(ValueError):
        tangent_cone(IdealGens(CTX, [X - 1]))


def test_the_pair_criteria_prune_a_deep_tangent_cone(monkeypatch):
    # X_456123 at id: the degrevlex basis of its chart ideal forms 13
    # S-polynomials (46 with the product criterion dropped, 31 with the
    # chain criterion dropped, 17 with criterion B dropped), and the cone of
    # its reduced system (12 variables, 10 generators) forms 127 (595
    # without the chain criterion, 154 without B)
    I = schubert_ideal_in_chart(Permutation([4, 5, 6, 1, 2, 3]), Permutation.identity(6))
    J, _ = solve_linear_variables(rinv.localize(I, rinv.ORIGIN))
    assert (J.ctx.nvars, len(J.generators)) == (12, 10)
    formed = []
    real = gr._spoly
    monkeypatch.setattr(gr, "_spoly", lambda *a: formed.append(a) or real(*a))
    buchberger(I)
    assert len(formed) <= 14
    formed.clear()
    assert len(tangent_cone(J).generators) == 28
    assert len(formed) <= 130


def test_ideal_gens_drop_zeros_and_repeats_keeping_first_occurrences():
    gens = [Y, CTX.zero(), X * Y, Y, X - X, Y * X, X, Y + 0]
    assert IdealGens(CTX, gens).generators == (Y, X * Y, X)
    assert IdealGens(CTX, [X, Y]).generators == (X, Y)
    assert IdealGens(CTX, [Y, X]).generators == (Y, X)


def test_series_prefix_of_a_ring_without_variables():
    q = Q_CONTEXT.var("q")
    hd = HilbertData(
        numerator=1 + 2 * q, num_vars=0, dimension=0, cancelled_numerator=1 + 2 * q
    )
    assert hd.series_prefix(0) == [1]
    assert hd.series_prefix(3) == [1, 2, 0, 0]
    point = IdealGens(Context(()), [])
    assert hilbert_numerator(point).series_prefix(4) == [1, 0, 0, 0, 0]
    assert local_hilbert_oracle(point, 4) == (1, 1, 1, 1, 1)


def test_oracle_trivial_cases():
    assert local_hilbert_oracle(IdealGens(Context(("x",)), []), 3) == (1, 2, 3, 4)
    allv = IdealGens(CTX3, list(CTX3.gens()))
    assert local_hilbert_oracle(allv, 4) == (1, 1, 1, 1, 1)


def test_oracle_degree_bound_must_fit_the_packed_fields():
    from richardson.poly import _FIELD_MAX

    cusp = IdealGens(CTX, [Y * Y - X ** 3])
    for bad in (-1, -3, _FIELD_MAX + 1):
        with pytest.raises(ValueError, match=f"got {bad}"):
            local_hilbert_oracle(cusp, bad)
    assert local_hilbert_oracle(cusp, 0) == (1,)


def test_oracle_cusp_plateau():
    counts = local_hilbert_oracle(IdealGens(CTX, [Y * Y - X ** 3]), 5)
    diffs = [counts[0]] + [counts[d] - counts[d - 1] for d in range(1, 6)]
    assert diffs == [1, 2, 2, 2, 2, 2]


def test_oracle_matches_cone_hilbert_function_randomized():
    rng = random.Random(31)
    cases = 0
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(1, 2)):
            g = random_poly(CTX, rng, max_terms=3, max_deg=3)
            g = g - CTX.const(g.constant_term())
            if not g.is_zero():
                gens.append(g)
        if not gens:
            continue
        I = IdealGens(CTX, gens)
        if buchberger(I).contains_one():
            continue
        cone = tangent_cone(I)
        hd = hilbert_numerator(cone)
        counts = local_hilbert_oracle(I, 6)
        diffs = [counts[0]] + [counts[d] - counts[d - 1] for d in range(1, 7)]
        assert diffs == hd.series_prefix(6)
        assert krull_dimension(cone) == krull_dimension(I)
        cases += 1
    assert cases >= 10


def _random_local_ideal(ctx, rng, npolys, nmonos):
    gens = []
    for _ in range(npolys):
        g = random_poly(ctx, rng, max_terms=4, max_deg=2)
        gens.append(g - ctx.const(g.constant_term()))
    for _ in range(nmonos):
        exps = tuple(
            (i, rng.randint(1, 2))
            for i in sorted(rng.sample(range(ctx.nvars), rng.randint(1, ctx.nvars)))
        )
        gens.append(Polynomial(ctx, {ctx.monomial(exps): Fraction(rng.randint(1, 5), rng.randint(1, 3))}))
    return IdealGens(ctx, gens)


def _random_linear_ideal(ctx, rng, npolys):
    """Generators with random, often fractional, linear parts over higher terms
    that reuse the same variables."""
    gens = []
    for _ in range(npolys):
        g = random_poly(ctx, rng, max_terms=3, max_deg=2)
        g = g - ctx.const(g.constant_term())
        for x in ctx.gens():
            if rng.random() < 0.4:
                g = g + Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) * x
        gens.append(g)
    return IdealGens(ctx, gens)


def test_oracle_matches_dense_macaulay_ranks():
    # shapes: polynomial only, monomials mixed in, all monomial, empty
    rng = random.Random(43)
    shapes = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (1, 2), (0, 1), (0, 2), (0, 3), (0, 0)]
    ideals = []
    for trial in range(40):
        npolys, nmonos = shapes[trial % len(shapes)]
        ctx = CTX if trial % 3 == 0 else CTX3
        D = trial % 5 if ctx is CTX3 else 6 - trial % 7
        ideals.append((_random_local_ideal(ctx, rng, npolys, nmonos), D))
    # linear parts, which the oracle eliminates before building its matrix
    ctx4 = Context(("x", "y", "z", "w"))
    for trial in range(40):
        ctx = CTX3 if trial % 2 else ctx4
        D = trial % 6 if ctx is CTX3 else trial % 4
        ideals.append((_random_linear_ideal(ctx, rng, 1 + trial % 3), D))
    x, y, z = CTX3.gens()
    half = Fraction(1, 2)
    for gens, D in [
        ([x - x * y - x * x, y ** 3 - x * z], 5),  # x also occurs in the higher terms
        ([x - x ** 3 + y * y], 6),
        ([x + x * x * z - y * z, z - x * y - z * z], 5),
        ([Fraction(2, 3) * x + y * y, half * y - x * z + z ** 3], 5),  # fractional
        ([Fraction(-3, 2) * x + half * x * x - y ** 3], 6),
        ([x - y + z * z, y - z * x * x, x * x + z ** 3], 5),  # chains of eliminations
        ([x - y - y * y, x + z ** 3], 6),
        ([x - y, x - z * z, y * z], 4),
        # the solved series must be exact: these cancel up to degree 5
        ([2 * x - y * y, x - half * y * y + z ** 3], 5),
        ([x - y * y - x * y, x * x - y ** 4 - 2 * y ** 5], 6),
        # x = y + y^2 + ... needs all D rounds before it cancels the second
        ([x - y - x * y, x - sum(y ** k for k in range(1, 7)) + x * x * z ** 4 - y * y * z ** 4], 6),
        ([x - y * z, y + x * x], 0),  # D = 0
        ([x + y], 0),
        ([x + y * y, y * z], 1),
    ]:
        ideals.append((IdealGens(CTX3, gens), D))
    fractional = linear = 0
    for I, D in ideals:
        fractional += any(c.denominator != 1 for g in I.generators for c in g.terms.values())
        linear += any(g.linear_coefficient(i) for g in I.generators for i in range(I.ctx.nvars))
        expected = truncated_quotient_dims(I.generators, I.ctx.nvars, D)
        assert local_hilbert_oracle(I, D) == tuple(expected), f"D = {D}: {I.generators}"
    assert fractional >= 30 and linear >= 40


def _integer(f):
    return {m: int(c) for m, c in f.terms.items()}


def test_macaulay_key_ignores_names_and_row_order(monkeypatch):
    keys = []
    real = gr._macaulay_counts

    def recording(n, rows, d):
        keys.append(gr._macaulay_key(n, rows, d))
        return real(n, rows, d)

    monkeypatch.setattr(gr, "_macaulay_counts", recording)
    clear_memos()
    abc = Context(("a", "b", "c"))
    x, y, z = CTX3.gens()
    gens = [x * y - z * z + x ** 3, y ** 3 + 2 * x * z]
    for I in (IdealGens(CTX3, gens), IdealGens(abc, [Polynomial(abc, g.terms) for g in gens])):
        assert local_hilbert_oracle(I, 4) == tuple(truncated_quotient_dims(I.generators, 3, 4))
    assert len(keys) == 2 and keys[0] == keys[1]
    rows = [_integer(g) for g in gens]
    key = gr._macaulay_key(3, rows, 4)
    assert key == keys[0] == gr._macaulay_key(3, rows[::-1], 4)
    assert gr._macaulay_key(3, [rows[0], _integer(y ** 3 + 3 * x * z)], 4) != key
    assert gr._macaulay_key(3, [rows[0], _integer(y ** 3 + 2 * y * z)], 4) != key
    assert gr._macaulay_key(3, rows, 5) != key
    assert gr._macaulay_key(2, [], 4) != gr._macaulay_key(3, [], 4)


def test_macaulay_counts_follow_their_key():
    # the empty system has no rows, so only the variable count tells the
    # plane from 3-space; rows one coefficient or one degree bound apart
    # have their own counts
    clear_memos()
    for ctx in (CTX, CTX3):
        n = ctx.nvars
        assert local_hilbert_oracle(IdealGens(ctx, []), 4) == tuple(comb(n + d, n) for d in range(5))
    for gens in ([X * X + Y * Y, 2 * X * X + 2 * Y * Y], [X * X + Y * Y, 2 * X * X - 2 * Y * Y]):
        for D in (3, 4):
            expected = truncated_quotient_dims(gens, 2, D)
            assert local_hilbert_oracle(IdealGens(CTX, gens), D) == tuple(expected)


def test_oracle_never_reaches_the_groebner_kernel(monkeypatch):
    import richardson.groebner as gr

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the Groebner kernel it checks")

    for name in ("buchberger", "_completion_for", "_reduce_raw"):
        monkeypatch.setattr(gr, name, refuse)
    clear_memos()  # no count may come from an earlier call
    assert local_hilbert_oracle(IdealGens(CTX, [Y - X * X, Y * Y]), 6) == (1, 2, 3, 4, 4, 4, 4)
    x, y, z = CTX3.gens()
    gens = [x * y, z * z - x * y * y, y ** 3]
    assert local_hilbert_oracle(IdealGens(CTX3, gens), 4) == tuple(truncated_quotient_dims(gens, 3, 4))


def test_tangent_cone_dimension_matches_oracle_cross_check():
    I = IdealGens(CTX, [Y - X * X, Y * Y])
    assert krull_dimension(tangent_cone(I)) == krull_dimension(I) == 0


_P = Permutation.from_string
# a memoized call, and the module and name of a function it calls once per computation
MEMOIZED_CALLS = {
    "chart": (lambda: chart(_P("3142")), "charts", "Chart"),
    "generic_matrix": (lambda: generic_matrix(_P("3142")), "charts", "Chart"),
    "sweep_images": (lambda: sweep_images(_P("3142")), "sweep", "generic_matrix"),
    "richardson_invariants": (
        lambda: richardson_invariants(_P("1324"), _P("4231"), _P("2413")),
        "invariants",
        "richardson_ideal_in_chart",
    ),
    "_macaulay_counts": (
        lambda: gr._macaulay_counts(2, [_integer(X * X - Y ** 3)], 6), "groebner", "_monomials_upto"
    ),
    "_reduced_invariants": (
        lambda: rinv._reduced_invariants(IdealGens(CTX, [X * X - Y ** 3])),
        "invariants",
        "krull_dimension",
    ),
}


@pytest.mark.parametrize("name", sorted(MEMOIZED_CALLS))
def test_gb_memo_is_atomic_under_threads(name, monkeypatch):
    # 8 threads miss one cold key together: none may wait on another's
    # computation, and every one gets the first object stored
    import importlib
    import threading
    import time

    call, module, inner = MEMOIZED_CALLS[name]
    mod = importlib.import_module(f"richardson.{module}")
    real = getattr(mod, inner)
    together = threading.Barrier(8, timeout=10)

    def all_computing(*args, **kwargs):
        together.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(mod, inner, all_computing)
    clear_memos()
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(call()), daemon=True) for _ in range(8)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + 30
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r is results[0] for r in results)


def test_kernel_products_past_127_raise():
    # homogenizing x - y^127*x^2 needs t^128
    with pytest.raises(OverflowError):
        tangent_cone(IdealGens(CTX, [X - Y ** 127 * X ** 2]))


def test_degrevlex_products_past_127_raise():
    # the degrevlex int key leaves the guard bit alone: reducing x^127*y^2
    # by y^2 - x makes x^128, and the reduction raises
    gb = buchberger(IdealGens(CTX, [Y * Y - X]))
    assert normal_form(X ** 126 * Y ** 2, gb) == X ** 127
    with pytest.raises(OverflowError):
        normal_form(X ** 127 * Y ** 2, gb)
