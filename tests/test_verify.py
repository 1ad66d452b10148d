"""The verification harness at small scale."""

import dataclasses
import io
import json

import pytest

from richardson import verify
from richardson.cli import run
from richardson.groebner import IdealGens, _q_poly
from richardson.permutations import Permutation
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

    def broken(v, w, sigma, oracle):
        rec = real(v, w, sigma, oracle)
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

    def broken(w, sigma, oracle):
        rec = real(w, sigma, oracle)
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
    u, v, w = (Permutation.from_string(s) for s in ("123", "123", "213"))
    assert product_iso_report(u, v, w).to_json() == (
        '{"cases":1,"check":"product-iso","failures":[{"case":{"u":"123","v":"123","w":"213"},'
        '"pullback_basis":["z32","z31"],"pullback_in_richardson":false,'
        '"richardson_basis":["z31","z21*z32"],"richardson_in_pullback":true}],'
        '"findings":[],"ok":false,"params":{"n":3,"u":"123","v":"123","w":"213"}}'
    )
    assert verify_product_iso(u, v, w) is False


def test_product_iso_size_mismatch():
    with pytest.raises(ValueError):
        verify_product_iso(Permutation.identity(3), Permutation.identity(4), Permutation.identity(4))
    with pytest.raises(ValueError):
        product_iso_report(Permutation.identity(3), Permutation.identity(4), Permutation.identity(4))
