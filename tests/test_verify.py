"""The verification harness at small scale."""

import dataclasses
import io
import json
import random

import pytest

from oracles import constant_minor_by_scan, jacobian_corank
from richardson import clear_memos, groebner, verify
from richardson.charts import (
    ChartMatrix,
    _opposite_conditions,
    _opposite_index,
    _schubert_conditions,
    _schubert_index,
    _unit_minor,
    generic_matrix,
)
from richardson.cli import run
from richardson.groebner import IdealGens, _q_poly
from richardson.invariants import localize
from richardson.permutations import Permutation, bruhat_leq
from richardson.sweep import sweep_images
from richardson.verify import (
    pattern_smooth,
    product_iso_report,
    pullback_ideal,
    schubert_smoothness_table,
    verify_dimension_law,
    verify_hpoly_factorization,
    verify_kl_vs_h,
    verify_mult_factorization,
    verify_product_iso,
    verify_singular_locus,
    verify_theorem_at_points,
)


def test_product_iso_trivial():
    n = 3
    assert verify_product_iso(
        Permutation([2, 3, 1]), Permutation.identity(n), Permutation.longest(n)
    )


def test_product_iso_lemma_special_case():
    # v = id: the pullback reduces to the Schubert conditions alone
    u = Permutation([2, 3, 1])
    v = Permutation.identity(3)
    w = Permutation([3, 1, 2])
    assert verify_product_iso(u, v, w)
    rep = product_iso_report(u, v, w)
    assert rep.ok and rep.cases == 1
    assert rep.to_json().count("fail") >= 0


def test_pullback_ideal_vanishes_for_whole_space():
    u = Permutation([1, 3, 2])
    pull = pullback_ideal(u, Permutation.identity(3), Permutation.longest(3))
    assert pull.generators == ()


def test_mult_factorization_singular_pair():
    v = Permutation.identity(4)
    w = Permutation([3, 4, 1, 2])
    rep = verify_mult_factorization(v, w)
    assert rep.ok
    assert rep.cases == 14  # the interval below 3412


def test_mult_factorization_trivial():
    w = Permutation([2, 3, 1, 4])
    rep = verify_mult_factorization(w, w)
    assert rep.ok and rep.cases == 1


def test_hpoly_factorization_and_positivity():
    v = Permutation.identity(4)
    w = Permutation([4, 2, 3, 1])
    rep = verify_hpoly_factorization(v, w)
    assert rep.ok
    assert not [f for f in rep.findings if f["kind"] == "negative-h-coefficient"]


def test_singular_locus_pair():
    v = Permutation([1, 3, 2, 4])
    w = Permutation([4, 2, 3, 1])
    rep = verify_singular_locus(v, w)
    assert rep.ok and rep.cases == len(
        __import__("richardson.permutations", fromlist=["x"]).bruhat_interval(v, w)
    )


def test_theorem_at_points_small():
    v = Permutation.identity(3)
    w = Permutation.longest(3)
    rep = verify_theorem_at_points(v, w, trials=6, seed=4)
    assert rep.ok
    assert rep.cases >= 3  # most samples succeed


def test_point_records_are_checked_against_bruhat_order(monkeypatch, tangent_one_too_high):
    import richardson.invariants as rinv

    v, w = Permutation.from_string("1324"), Permutation.from_string("4231")
    clear_memos()
    assert verify_theorem_at_points(v, w, trials=8, seed=3).ok
    # the fixed-point records are memo hits now: each case checks its three
    # point records, the Richardson one and its two factors
    before = rinv.TANGENT_CHECKS
    rep = verify_theorem_at_points(v, w, trials=8, seed=3)
    assert rep.ok and rep.cases >= 6
    assert rinv.TANGENT_CHECKS - before == 3 * rep.cases

    # a tangent space one too large is caught at the first point record
    tangent_one_too_high()
    clear_memos()  # no record computed before the patch may be served
    try:
        with pytest.raises(RuntimeError, match=r"at a point of the stratum .*Bruhat order"):
            verify_theorem_at_points(v, w, trials=8, seed=3)
    finally:
        monkeypatch.undo()
        clear_memos()


def test_point_tangent_dimensions_match_the_jacobian_of_the_unreduced_ideal(monkeypatch):
    # the draws of verify points --n 4 --exhaustive: every point record's
    # tangent dimension, read off its cone, is the Jacobian corank of the
    # localized chart ideal, also where a linear part outlives the solve
    import richardson.invariants as rinv

    records = []
    real = rinv.local_invariants_at

    def recording(I, p):
        inv = real(I, p)
        if any(p.values()):  # a point record; a fixed-point one is at the origin
            records.append((I, p, inv))
        return inv

    monkeypatch.setattr(rinv, "local_invariants_at", recording)
    elems = Permutation.all(4)
    for v in elems:
        for w in elems:
            if bruhat_leq(v, w):
                assert verify_theorem_at_points(v, w, trials=5, seed=0).ok
    linear = 0
    for I, p, inv in records:
        I0 = localize(I, p)
        assert inv.tangent_dim == jacobian_corank(I0.generators, I0.ctx.nvars), (I, p)
        J, _ = groebner.solve_linear_variables(I0)
        linear += any(g.linear_coefficient(i) for g in J.generators for i in range(J.ctx.nvars))
    assert len(records) == 2835 and linear >= 22


def test_theorem_at_points_rejects_unknown_laws_before_sampling(monkeypatch):
    import richardson.verify as rv

    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the law names were checked")

    monkeypatch.setattr(rv, "sample_richardson_point", refuse)
    monkeypatch.setattr(rv, "bruhat_interval", refuse)
    v, w = Permutation.from_string("123"), Permutation.from_string("321")
    for properties, bad in ((("nope",), "'nope'"), (("mult", "hpoly", "x"), "'hpoly', 'x'")):
        with pytest.raises(ValueError, match=bad):
            verify_theorem_at_points(v, w, trials=1, properties=properties)


def test_theorem_at_points_no_strata():
    w = Permutation([2, 1, 3])
    rep = verify_theorem_at_points(w, w, trials=3, seed=0)
    assert rep.cases == 0
    assert any(f["kind"] == "no-strata" for f in rep.findings)


def test_kl_vs_h_requires_covexillary():
    with pytest.raises(ValueError):
        verify_kl_vs_h(Permutation([3, 4, 1, 2]))


def test_kl_vs_h_singular_covexillary():
    rep = verify_kl_vs_h(Permutation([4, 2, 3, 1]))
    assert rep.ok
    assert rep.cases == 20  # size of [id, 4231]


def test_smoothness_table_n3():
    rep = schubert_smoothness_table(3)
    assert rep.ok and rep.cases == 6


def test_pattern_smooth():
    assert pattern_smooth(Permutation.longest(4))
    assert pattern_smooth(Permutation([2, 1, 4, 3]))
    assert pattern_smooth(Permutation([3, 4, 1, 2])) is False
    assert pattern_smooth(Permutation([4, 2, 3, 1])) is False


def test_dimension_law_pair():
    v = Permutation([1, 3, 2, 4])
    w = Permutation([3, 4, 2, 1])
    rep = verify_dimension_law(v, w)
    assert rep.ok


def test_report_json_is_deterministic_and_excludes_wall_time():
    v = Permutation.identity(3)
    w = Permutation([3, 1, 2])
    a = verify_mult_factorization(v, w)
    b = verify_mult_factorization(v, w)
    assert a.wall_time is not None
    assert a.to_json() == b.to_json()
    assert "wall" not in a.to_json()
    payload = json.loads(a.to_json())
    assert payload["ok"] is True
    assert payload["check"] == "mult"


def test_report_merge_and_text():
    v = Permutation.identity(3)
    a = verify_mult_factorization(v, Permutation([3, 1, 2]))
    b = verify_mult_factorization(v, Permutation([2, 3, 1]))
    cases = a.cases + b.cases
    a.merge(b)
    assert a.cases == cases
    text = a.to_text()
    assert "status: PASS" in text


# ---------------------------------------------------------------------------
# Failure paths: a patched record or chart ideal breaks one law, and the
# report must say so exactly as the reference reports below do
# ---------------------------------------------------------------------------


def _verify_json(argv):
    buf = io.StringIO()
    return run(argv.split(), buf), buf.getvalue()


_BROKEN_TRIPLE = ("123", "321", "132")

_FIXED_POINT_FAILURES = {
    "mult": '{"cases":44,"check":"mult","failures":[{"case":{"sigma":"132","v":"123","w":"321"},"opposite_mult":1,"richardson_mult":2,"schubert_mult":1}],"findings":[],"ok":false,"params":{"exhaustive":true,"n":3,"samples":null,"seed":0}}\n',
    "hpoly": '{"cases":44,"check":"hpoly","failures":[{"case":{"sigma":"132","v":"123","w":"321"},"opposite_h":[1],"richardson_h":[1,-1],"schubert_h":[1]}],"findings":[{"case":{"sigma":"132","v":"123","w":"321"},"h":[1,-1],"kind":"negative-h-coefficient"}],"ok":false,"params":{"exhaustive":true,"n":3,"samples":null,"seed":0}}\n',
    "singlocus": '{"cases":44,"check":"singlocus","failures":[{"case":{"sigma":"132","v":"123","w":"321"},"opposite_smooth":true,"richardson_smooth":false,"schubert_smooth":true}],"findings":[],"ok":false,"params":{"exhaustive":true,"n":3,"samples":null,"seed":0}}\n',
}


@pytest.mark.parametrize("check", sorted(_FIXED_POINT_FAILURES))
def test_fixed_point_law_failure_report(check, monkeypatch):
    real = verify.richardson_invariants

    def broken(v, w, sigma):
        rec = real(v, w, sigma)
        if (str(v), str(w), str(sigma)) != _BROKEN_TRIPLE:
            return rec
        # wrong in every law at once; H = 1 - q also has a negative coefficient
        return dataclasses.replace(
            rec, multiplicity=rec.multiplicity + 1, smooth=not rec.smooth,
            h_polynomial=_q_poly([1, -1]),
        )

    monkeypatch.setattr(verify, "richardson_invariants", broken)
    assert _verify_json(f"verify {check} --n 3 --exhaustive") == (1, _FIXED_POINT_FAILURES[check])


_POINTS_FAILURE = '{"cases":1,"check":"points","failures":[{"at_point":1,"case":{"point":{"z21":"-2/3"},"sigma":"312","tau":"213","v":"213","w":"312"},"property":"mult","via_fixed_points":2,"via_point_factors":1},{"at_point":[1],"case":{"point":{"z21":"-2/3"},"sigma":"312","tau":"213","v":"213","w":"312"},"property":"h","via_fixed_points":[1,1],"via_point_factors":[1]},{"at_point":true,"case":{"point":{"z21":"-2/3"},"sigma":"312","tau":"213","v":"213","w":"312"},"property":"smooth","via_fixed_points":false,"via_point_factors":true}],"findings":[],"ok":false,"params":{"exhaustive":false,"n":3,"samples":1,"seed":0}}\n'


def test_points_law_failure_report(monkeypatch):
    real = verify.schubert_invariants

    def broken(w, sigma):
        rec = real(w, sigma)
        return dataclasses.replace(
            rec, multiplicity=rec.multiplicity + 1, smooth=not rec.smooth,
            h_polynomial=rec.h_polynomial * _q_poly([1, 1]),
        )

    monkeypatch.setattr(verify, "schubert_invariants", broken)
    argv = "verify points --n 3 --samples 1 --trials 1 --seed 0"
    assert _verify_json(argv) == (1, _POINTS_FAILURE)


def test_product_iso_failure_report(monkeypatch):
    real = verify.richardson_ideal_in_chart

    def one_generator_short(v, w, u):
        ideal = real(v, w, u)
        return IdealGens(ideal.ctx, ideal.generators[:-1])

    monkeypatch.setattr(verify, "richardson_ideal_in_chart", one_generator_short)
    builds = []
    real_reducers = groebner._basis_reducers
    monkeypatch.setattr(groebner, "_basis_reducers", lambda gb: builds.append(gb) or real_reducers(gb))
    u, v, w = (Permutation.from_string(s) for s in ("123", "123", "213"))
    assert product_iso_report(u, v, w).to_json() == (
        '{"cases":1,"check":"product-iso","failures":[{"case":{"u":"123","v":"123","w":"213"},'
        '"pullback_basis":["z32","z31"],"pullback_in_richardson":false,'
        '"richardson_basis":["z31","z21*z32"],"richardson_in_pullback":true}],'
        '"findings":[],"ok":false,"params":{"n":3,"u":"123","v":"123","w":"213"}}'
    )
    # the bases differ, so ideal_equal builds no reducers: one build per side
    assert len(builds) == 2 and builds[0] != builds[1]
    assert verify_product_iso(u, v, w) is False


def test_product_iso_certificate_catches_a_lost_basis_element(monkeypatch):
    # a completion that drops the last element of its basis drops it on both
    # sides alike, so the two bases still agree; only the generators that no
    # longer reduce to zero show the fault.  Once the coordinates are
    # drained no S3 completion keeps two elements, so S4 is in the range
    real = groebner._completion_for

    def last_dropped(*args):
        out = real(*args)
        return out[:-1] if len(out) >= 2 else out

    triples = _triples(3) + _triples(4)
    assert len(triples) == 114 + 5112
    monkeypatch.setattr(groebner, "_completion_for", last_dropped)
    clear_memos()
    try:
        assert any(not product_iso_report(*t).ok for t in triples)
    finally:
        monkeypatch.undo()
        clear_memos()  # no broken basis may outlive the patch


def _triples(n):
    elems = Permutation.all(n)
    return [(u, v, w) for u in elems for v in elems for w in elems if bruhat_leq(v, w)]


def test_constant_minor_exactly_off_the_interval():
    # the chart of u misses X_w^v exactly when u is not in [v, w]; the scan
    # must see that on both sides from the minors alone
    rng = random.Random(47)
    s5 = Permutation.all(5)
    draws = [tuple(rng.choice(s5) for _ in range(3)) for _ in range(3000)]
    triples = _triples(3) + _triples(4) + [(u, v, w) for u, v, w in draws if bruhat_leq(v, w)]
    assert len(triples) == 114 + 5112 + 817
    found = set()
    for u, v, w in triples:
        off = not (bruhat_leq(v, u) and bruhat_leq(u, w))
        pull_side, rich_side = verify._minor_sides(u, v, w)
        assert verify._constant_minor(pull_side) == off, (u, v, w)
        assert verify._constant_minor(rich_side) == off, (u, v, w)
        found.add((off, bruhat_leq(u, w)))
        _assert_located_minors_are_units(u, v, w)
    # both ways off the interval occur: u not below w, and u not above v only
    assert found == {(False, True), (True, False), (True, True)}


def _assert_located_minors_are_units(u, v, w):
    # each located minor is a (b+1)-minor of the first condition u violates,
    # in its side's own index list and +-1 on x, eta1(x) and eta2(x); the
    # scan of every listed minor finds a constant exactly where one is located
    x = generic_matrix(u)
    up, down = sweep_images(u)
    units = (x.ctx.one(), -x.ctx.one())
    schubert, opposite = _schubert_index(w), _opposite_index(v)
    for conditions, index, on in (
        (_schubert_conditions(w), schubert, bruhat_leq(u, w)),
        (_opposite_conditions(v), opposite, bruhat_leq(v, u)),
    ):
        at = _unit_minor(conditions, u)
        assert (at is None) == on, (u, v, w)
        if on:
            continue
        b = next(b for rows, j, b in conditions if sum(u(k) in rows for k in range(1, j + 1)) > b)
        assert len(at[0]) == len(at[1]) == b + 1, (u, v, w, at)
        assert at in index, (u, v, w, at)
        assert all(m.minor(*at) in units for m in (x, up, down)), (u, v, w, at)
    pull_side, rich_side = verify._minor_sides(u, v, w)
    assert constant_minor_by_scan(((up, schubert), (down, opposite))) == verify._constant_minor(pull_side)
    assert constant_minor_by_scan(((x, schubert), (x, opposite))) == verify._constant_minor(rich_side)


def test_product_iso_off_the_interval_computes_only_located_minors(monkeypatch):
    # off [v, w] no ideal is built or completed, and from cold tables the
    # 4,024 S4 cases add 200 minor-table entries (734 when each side's whole
    # index list was scanned)
    def refuse(*args):
        raise AssertionError("an ideal was built off the interval")

    elems = Permutation.all(4)
    off = [(u, v, w) for u, v, w in _triples(4) if not (bruhat_leq(v, u) and bruhat_leq(u, w))]
    assert len(off) == 4024
    clear_memos()
    for name in ("pullback_ideal", "richardson_ideal_in_chart"):
        monkeypatch.setattr(verify, name, refuse)
    monkeypatch.setattr(groebner, "_completion_for", refuse)
    assert all(product_iso_report(u, v, w).ok for u, v, w in off)
    matrices = [m for u in elems for m in (generic_matrix(u),) + sweep_images(u)]
    assert sum(len(m._det_memo) for m in matrices) == 200


def test_product_iso_completes_only_on_the_interval(monkeypatch):
    # off [v, w] the case passes on its constant minors, with no ideal built
    # or completed; on it the case runs the full check, whose 1,088 cases
    # take 52 completions with or without the scan (1,114 when equal
    # drained generator sets were completed too, 1,472 with no drain)
    calls = {"completion": 0, "richardson": 0}

    def counted(name, fn):
        def inner(*args):
            calls[name] += 1
            return fn(*args)
        return inner

    clear_memos()
    monkeypatch.setattr(groebner, "_completion_for", counted("completion", groebner._completion_for))
    monkeypatch.setattr(
        verify, "richardson_ideal_in_chart", counted("richardson", verify.richardson_ideal_in_chart)
    )
    on = {"cases": 0, "completion": 0, "richardson": 0}
    for u, v, w in _triples(4):
        before = dict(calls)
        assert product_iso_report(u, v, w).ok
        if bruhat_leq(v, u) and bruhat_leq(u, w):
            on["cases"] += 1
            for name in calls:
                on[name] += calls[name] - before[name]
        else:
            assert calls == before, (u, v, w)
    assert on == {"cases": 1088, "completion": 52, "richardson": 1088}


@pytest.mark.parametrize(
    "u, entry, pullback_basis",
    [
        # 213 is in [123, 231]: a sweep onto the fixed point w0, outside
        # X_231, puts a constant minor on the pullback side only
        ("213", "one", ["1"]),
        # 312 is not: a sweep onto the zero matrix leaves the constant on
        # the Richardson side only
        ("312", "zero", []),
    ],
)
def test_product_iso_needs_a_constant_minor_on_both_sides(monkeypatch, u, entry, pullback_basis):
    u, v, w = Permutation.from_string(u), Permutation.identity(3), Permutation.from_string("231")
    up, _ = verify.sweep_images(u)
    w0 = Permutation.longest(3)
    rows = [
        [getattr(up.ctx, entry)() if w0(j) == i else up.ctx.zero() for j in (1, 2, 3)]
        for i in (1, 2, 3)
    ]
    broken = ChartMatrix(up.chart, rows)
    monkeypatch.setattr(verify, "sweep_images", lambda _: (broken, broken))
    report = product_iso_report(u, v, w)
    assert not report.ok
    assert report.failures[0]["pullback_basis"] == pullback_basis


def test_product_iso_size_mismatch():
    with pytest.raises(ValueError):
        verify_product_iso(Permutation.identity(3), Permutation.identity(4), Permutation.identity(4))
    with pytest.raises(ValueError):
        product_iso_report(Permutation.identity(3), Permutation.identity(4), Permutation.identity(4))
