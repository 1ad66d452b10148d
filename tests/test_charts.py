"""Charts, determinantal ideals, cell identification, point sampling."""

import inspect
import io
import json
import pathlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import (
    lower_left_schubert_minors,
    upper_left_opposite_cell,
    upper_left_opposite_minors,
)
from richardson import clear_memos
from richardson.charts import (
    _essential_schubert_conditions,
    _opposite_index,
    _schubert_index,
    chart,
    generic_matrix,
    identify_cells,
    opposite_ideal_in_chart,
    opposite_minors,
    richardson_ideal_in_chart,
    sample_richardson_point,
    schubert_ideal_in_chart,
    schubert_minors,
)
from richardson.cli import run
from richardson.groebner import IdealGens, buchberger, ideal_equal, krull_dimension
from richardson.permutations import Permutation, bruhat_interval, bruhat_leq
from richardson.sweep import sweep_images

U31542 = Permutation([3, 1, 5, 4, 2])
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_generic_matrix_standard_form():
    x = generic_matrix(U31542)
    assert [str(e) for e in x.rows[0]] == ["z11", "1", "0", "0", "0"]
    assert [str(e) for e in x.rows[1]] == ["z21", "z22", "z23", "z24", "1"]
    assert [str(e) for e in x.rows[2]] == ["1", "0", "0", "0", "0"]
    assert [str(e) for e in x.rows[3]] == ["z41", "z42", "z43", "1", "0"]
    assert [str(e) for e in x.rows[4]] == ["z51", "z52", "1", "0", "0"]


def test_chart_bookkeeping_exhaustive_s4():
    for u in Permutation.all(4):
        ch = chart(u)
        assert len(ch.free_positions) == 6
        assert len(ch.d_down) == u.length()
        assert len(ch.d_up) == 6 - u.length()
        assert ch.d_up.isdisjoint(ch.d_down)
        assert ch.d_up | ch.d_down == set(ch.free_positions)


def test_identity_chart_is_lower_triangular():
    x = generic_matrix(Permutation.identity(3))
    assert [str(e) for e in x.rows[0]] == ["1", "0", "0"]
    assert [str(e) for e in x.rows[2]] == ["z31", "z32", "1"]


def test_schubert_ideal_whole_space():
    w0 = Permutation.longest(3)
    for u in Permutation.all(3):
        assert schubert_ideal_in_chart(w0, u).generators == ()


def test_schubert_ideal_point():
    e = Permutation.identity(3)
    I = schubert_ideal_in_chart(e, e)
    # X_id is the single point idB: every chart variable vanishes
    assert krull_dimension(I) == 0
    ch = chart(e)
    assert ideal_equal(I, IdealGens(ch.ctx, list(ch.ctx.gens())))


def test_schubert_dimension_is_length():
    w = Permutation([1, 3, 2])
    assert krull_dimension(schubert_ideal_in_chart(w, w)) == w.length()


def test_opposite_ideal_examples():
    assert opposite_ideal_in_chart(Permutation.identity(3), Permutation([2, 3, 1])).generators == ()
    s2 = Permutation([2, 1])
    I = opposite_ideal_in_chart(s2, s2)
    assert [str(g) for g in I.generators] == ["z11"]
    v = Permutation([3, 1, 2])
    assert krull_dimension(opposite_ideal_in_chart(v, v)) == 3 - v.length()


def test_richardson_ideal_is_union_of_conditions():
    v = Permutation.identity(3)
    w = Permutation([3, 1, 2])
    u = Permutation([1, 3, 2])
    rich = richardson_ideal_in_chart(v, w, u)
    schub = schubert_ideal_in_chart(w, u)
    assert ideal_equal(rich, schub)  # v = id imposes nothing


def test_richardson_point_case():
    w = Permutation([2, 3, 1, 4])
    I = richardson_ideal_in_chart(w, w, w)
    assert krull_dimension(I) == 0


def test_contains_one_iff_chart_misses_variety_s3():
    elems = Permutation.all(3)
    for v in elems:
        for w in elems:
            if not bruhat_leq(v, w):
                continue
            for u in elems:
                got = buchberger(richardson_ideal_in_chart(v, w, u)).contains_one()
                assert got == (not (bruhat_leq(v, u) and bruhat_leq(u, w)))


def test_pruned_conditions_match_unpruned_ideals():
    # the essential conditions cut out the ideal of every condition, and
    # emit the counted reference's pruned minors one for one
    def check(w, u):
        x = generic_matrix(u)
        schub = schubert_ideal_in_chart(w, u)
        assert schub.generators == tuple(lower_left_schubert_minors(x, w))
        assert ideal_equal(schub, IdealGens(x.ctx, lower_left_schubert_minors(x, w, prune=False)))
        opp = opposite_ideal_in_chart(w, u)
        assert ideal_equal(opp, IdealGens(x.ctx, upper_left_opposite_minors(x, w, prune=False)))

    elems = Permutation.all(3)
    for w in elems:
        for u in elems:
            check(w, u)
    rng = random.Random(7)
    s4 = Permutation.all(4)
    for _ in range(8):
        check(s4[rng.randrange(24)], s4[rng.randrange(24)])


def test_dimension_law_sampled_s4():
    rng = random.Random(3)
    elems = Permutation.all(4)
    checked = 0
    while checked < 10:
        v = elems[rng.randrange(24)]
        w = elems[rng.randrange(24)]
        if not bruhat_leq(v, w):
            continue
        interval = bruhat_interval(v, w)
        sigma = interval[rng.randrange(len(interval))]
        I = richardson_ideal_in_chart(v, w, sigma)
        assert krull_dimension(I) == w.length() - v.length()
        checked += 1


def test_identify_cells_permutation_matrices():
    for n in range(1, 6):
        for sigma in Permutation.all(n):
            m = [
                [Fraction(1 if sigma(j) == i else 0) for j in range(1, n + 1)]
                for i in range(1, n + 1)
            ]
            assert identify_cells(m) == (sigma, sigma)
            assert upper_left_opposite_cell(m) == sigma


def test_generic_matrix_is_one_per_chart():
    x = generic_matrix(U31542)
    assert generic_matrix(U31542) is x
    clear_memos()
    assert generic_matrix(U31542) is not x


def test_chart_ideals_match_a_fresh_matrix_s4():
    # the one matrix of a chart serves every ideal built in it, in any order;
    # each must get the generators a fresh matrix with no minors gives it
    clear_memos()
    fresh = generic_matrix.__wrapped__
    elems = Permutation.all(4)
    for u in elems:
        schub, opp = {}, {}
        for p in elems:
            m = fresh(u)
            schub[p] = IdealGens(m.ctx, schubert_minors(m, p)).generators
            m = fresh(u)
            opp[p] = IdealGens(m.ctx, opposite_minors(m, p)).generators
        for v in elems:
            for w in bruhat_interval(v, Permutation.longest(4)):
                m = fresh(u)
                rich = IdealGens(m.ctx, schubert_minors(m, w) + opposite_minors(m, v))
                assert richardson_ideal_in_chart(v, w, u).generators == rich.generators
                assert schubert_ideal_in_chart(w, u).generators == schub[w]
                assert opposite_ideal_in_chart(v, u).generators == opp[v]


def test_identify_cells_generic_point_has_tau_below_sigma():
    rng = random.Random(5)
    for u in Permutation.all(4)[:8]:
        ch = chart(u)
        point = {
            nm: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for nm in ch.ctx.names
        }
        x = generic_matrix(u)
        m = x.evaluate(point)
        sigma, tau = identify_cells(m)
        assert bruhat_leq(tau, sigma)
        assert bruhat_leq(tau, u) and bruhat_leq(u, sigma)


def test_identify_cells_matches_upper_left_reading():
    # seeded chart points, zeros included so that smaller cells occur too
    rng = random.Random(41)
    taus = set()
    for n in range(2, 6):
        elems = Permutation.all(n)
        for _ in range(40):
            x = generic_matrix(rng.choice(elems))
            point = {
                nm: Fraction(rng.choice([-2, -1, 0, 0, 1, 3]), rng.choice([1, 2]))
                for nm in x.ctx.names
            }
            m = x.evaluate(point)
            tau = identify_cells(m)[1]
            assert tau == upper_left_opposite_cell(m)
            taus.add(tau)
    assert len(taus) >= 30  # the seeded points reach many opposite cells


@pytest.mark.parametrize("prune", [True, False])
def test_opposite_minors_match_upper_left_enumeration_s4(prune):
    # pruned, the reference gives the generators one for one; unpruned,
    # it spans the same ideal
    elems = Permutation.all(4)
    for u in elems:
        x = generic_matrix(u)
        for v in elems:
            expect = IdealGens(x.ctx, upper_left_opposite_minors(x, v, prune))
            got = opposite_ideal_in_chart(v, u)
            assert IdealGens(x.ctx, opposite_minors(x, v)).generators == got.generators
            if prune:
                assert got.generators == expect.generators
            else:
                assert ideal_equal(got, expect)


def test_identify_cells_rejects_singular():
    with pytest.raises(ValueError):
        identify_cells([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])


def test_identify_cells_rejects_a_matrix_that_is_not_square():
    # the first two columns of both would read as the identity of S2
    for m in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [0, 0]], [[1, 0], [0, 1, 0]]):
        with pytest.raises(ValueError, match="square"):
            identify_cells(m)


def test_fixed_points_are_the_interval():
    # the fixed point sigma lies on X_w^v iff the ideal vanishes at the
    # origin of the chart of sigma
    v = Permutation([1, 3, 2])
    w = Permutation([3, 1, 2])
    on = [
        sigma
        for sigma in sorted(Permutation.all(3), key=lambda s: (s.length(), s.window))
        if all(g.evaluate(chart(sigma).origin()) == 0
               for g in richardson_ideal_in_chart(v, w, sigma).generators)
    ]
    assert on == bruhat_interval(v, w)


def test_fixed_point_membership_matches_vanishing_at_origin():
    elems = Permutation.all(3)
    for v in elems:
        for w in elems:
            if not bruhat_leq(v, w):
                continue
            for sigma in elems:
                I = richardson_ideal_in_chart(v, w, sigma)
                ch = chart(sigma)
                vanish = all(g.evaluate(ch.origin()) == 0 for g in I.generators)
                assert vanish == (bruhat_leq(v, sigma) and bruhat_leq(sigma, w))


def test_bruhat_consistency_via_vanishing():
    elems = Permutation.all(4)
    rng = random.Random(11)
    for _ in range(20):
        v = elems[rng.randrange(24)]
        w = elems[rng.randrange(24)]
        I = schubert_ideal_in_chart(w, v)
        ch = chart(v)
        vanish = all(g.evaluate(ch.origin()) == 0 for g in I.generators)
        assert vanish == bruhat_leq(v, w)


def test_sample_point_zero_dimensional_stratum():
    sigma = Permutation([2, 3, 1])
    m = sample_richardson_point(sigma, sigma, seed=0)
    expect = [
        [Fraction(1 if sigma(j) == i else 0) for j in range(1, 4)]
        for i in range(1, 4)
    ]
    assert m == expect


def test_sample_point_big_cell():
    id4 = Permutation.identity(4)
    w0 = Permutation.longest(4)
    m = sample_richardson_point(id4, w0, seed=1)
    assert m is not None
    assert identify_cells(m) == (w0, id4)


def test_sample_point_adjacent_pairs_s4():
    elems = Permutation.all(4)
    rng = random.Random(23)
    found = 0
    for _ in range(40):
        sigma = elems[rng.randrange(24)]
        covers = [
            tau
            for tau in elems
            if bruhat_leq(tau, sigma) and sigma.length() - tau.length() == 1
        ]
        if not covers:
            continue
        tau = covers[rng.randrange(len(covers))]
        m = sample_richardson_point(tau, sigma, seed=rng.randrange(1000))
        if m is None:
            continue
        assert identify_cells(m) == (sigma, tau)
        found += 1
    assert found >= 15


def test_sample_point_general_strata_s4():
    elems = Permutation.all(4)
    rng = random.Random(29)
    hits = 0
    for _ in range(25):
        sigma = elems[rng.randrange(24)]
        below = [tau for tau in elems if bruhat_leq(tau, sigma)]
        tau = below[rng.randrange(len(below))]
        m = sample_richardson_point(tau, sigma, seed=rng.randrange(10000))
        if m is not None:
            assert identify_cells(m) == (sigma, tau)
            hits += 1
    assert hits >= 15


def test_sample_point_rejects_incomparable():
    with pytest.raises(ValueError):
        sample_richardson_point(Permutation([2, 1, 3]), Permutation([1, 3, 2]))


def test_sampler_builds_no_context_once_the_charts_are_warm(monkeypatch):
    # the system lives in the chart of sigma itself: after one call has
    # built the chart, its generic matrix and the index list of tau, a
    # second sample reads them all back
    from richardson import charts

    tau, sigma = Permutation([1, 3, 2, 4]), Permutation([4, 2, 3, 1])
    first = sample_richardson_point(tau, sigma, seed=5)
    assert first is not None

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler built a Context")

    monkeypatch.setattr(charts, "Context", refuse)
    assert sample_richardson_point(tau, sigma, seed=5) == first
    assert identify_cells(sample_richardson_point(tau, sigma, seed=6)) == (sigma, tau)


def test_sample_points_match_golden():
    """Every seeded sample is the exact matrix recorded in the golden file."""
    cases = json.loads((GOLDEN / "sample_points.json").read_text())["cases"]
    for case in cases:
        m = sample_richardson_point(
            Permutation(case["tau"]), Permutation(case["sigma"]), seed=case["seed"]
        )
        got = None if m is None else [[str(c) for c in row] for row in m]
        assert got == case["matrix"], case
    assert [len(c["tau"]) for c in cases] == [3] * 150 + [4] * 150 + [5] * 150


def _minors_by_condition(matrix, conditions):
    # the reference: every minor of every (rows, j, b) condition, built
    # condition by condition with no index list
    return [
        matrix.minor(r, c)
        for rows, j, b in conditions
        for r in combinations(rows, b + 1)
        for c in combinations(range(1, j + 1), b + 1)
    ]


def _check_index_lists(matrix, w):
    n = w.n
    schub = [(range(i, n + 1), j, b) for i, j, b in _essential_schubert_conditions(w)]
    opp = sorted(
        (n + 1 - i, j, b)
        for i, j, b in _essential_schubert_conditions(Permutation.longest(n) * w)
    )
    assert schubert_minors(matrix, w) == _minors_by_condition(matrix, schub)
    assert opposite_minors(matrix, w) == _minors_by_condition(
        matrix, [(range(1, i + 1), j, b) for i, j, b in opp]
    )


def test_index_lists_match_the_condition_by_condition_minors():
    # every (u, w) of S4 on the generic matrix, and a seeded S5 sample on
    # the generic matrix and both sweep images
    elems = Permutation.all(4)
    for u in elems:
        for w in elems:
            _check_index_lists(generic_matrix(u), w)
    rng = random.Random(23)
    elems = Permutation.all(5)
    for _ in range(40):
        u, w = rng.choice(elems), rng.choice(elems)
        for matrix in (generic_matrix(u),) + sweep_images(u):
            _check_index_lists(matrix, w)


def test_index_tables_are_bounded_by_the_permutations():
    clear_memos()
    status = run(["verify", "product-iso", "--n", "4", "--samples", "40", "--seed", "0"],
                 io.StringIO())
    assert status == 0
    tables = [inspect.getclosurevars(f).nonlocals["table"]
              for f in (_schubert_index, _opposite_index)]
    assert all(0 < len(t) <= 24 for t in tables)
    clear_memos()
    assert all(len(t) == 0 for t in tables)
