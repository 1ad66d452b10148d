"""Local invariants: dimension, tangent space, multiplicity, H-polynomial."""

import random
from fractions import Fraction

import pytest

from richardson import clear_memos
from richardson.charts import chart, schubert_ideal_in_chart
from richardson.groebner import IdealGens
from richardson.invariants import (
    local_invariants_at,
    localize,
    opposite_invariants,
    parabolic_invariants,
    richardson_invariants,
    richardson_invariants_at_point,
    schubert_invariants,
    tangent_dim_at,
)
from richardson.permutations import Permutation, bruhat_leq
from richardson.poly import Context


CTX = Context(("x", "y"))
X, Y = CTX.var("x"), CTX.var("y")


def test_localize():
    I = IdealGens(CTX, [X - 1])
    J = localize(I, {"x": 1, "y": 0})
    assert [str(g) for g in J.generators] == ["x"]
    K = IdealGens(CTX, [X * Y])
    assert localize(K, {"x": 0, "y": 0}).generators == K.generators
    with pytest.raises(ValueError):
        localize(I, {"x": 0, "y": 0})
    # at the origin the ideal comes back as it is, after the constant-term check
    origin = {"x": 0, "y": 0}
    L = IdealGens(CTX, [Y - X * X, X * Y + Fraction(1, 2) * Y ** 3])
    assert localize(L, origin) is L
    for gens in ([X * Y + 3], [X, Y - Fraction(1, 2)]):
        with pytest.raises(ValueError):
            localize(IdealGens(CTX, gens), origin)


def test_tangent_dim():
    assert tangent_dim_at(IdealGens(CTX, []), {"x": 0, "y": 0}) == 2
    assert tangent_dim_at(IdealGens(CTX, [X]), {"x": 0, "y": 0}) == 1
    # cusp: singular at origin, smooth elsewhere
    cusp = IdealGens(CTX, [Y * Y - X ** 3])
    assert tangent_dim_at(cusp, {"x": 0, "y": 0}) == 2
    assert tangent_dim_at(cusp, {"x": 1, "y": 1}) == 1


def test_local_invariants_cusp():
    inv = local_invariants_at(IdealGens(CTX, [Y * Y - X ** 3]), {"x": 0, "y": 0})
    assert inv.dimension == 1
    assert inv.multiplicity == 2
    assert str(inv.h_polynomial) == "1 + q"
    assert not inv.smooth
    assert inv.h_polynomial.evaluate({"q": 1}) == inv.multiplicity


def test_local_invariants_smooth_ambient():
    w0 = Permutation.longest(4)
    inv = schubert_invariants(w0, Permutation([2, 1, 4, 3]))
    assert inv.smooth and inv.multiplicity == 1 and str(inv.h_polynomial) == "1"
    assert inv.dimension == 6


def test_golden_singular_schubert_values():
    # the two singular length-4/5 classes of S4, at the deepest point
    id4 = Permutation.identity(4)
    a = schubert_invariants(Permutation([3, 4, 1, 2]), id4)
    assert (a.dimension, a.tangent_dim, a.multiplicity) == (4, 5, 2)
    assert str(a.h_polynomial) == "1 + q"
    b = schubert_invariants(Permutation([4, 2, 3, 1]), id4)
    assert (b.dimension, b.tangent_dim, b.multiplicity) == (5, 6, 2)
    assert str(b.h_polynomial) == "1 + q"


def test_smooth_iff_mult_one_sampled_s4():
    rng = random.Random(2)
    elems = Permutation.all(4)
    for _ in range(25):
        w = elems[rng.randrange(24)]
        below = [s for s in elems if bruhat_leq(s, w)]
        sigma = below[rng.randrange(len(below))]
        inv = schubert_invariants(w, sigma)
        assert inv.smooth == (inv.multiplicity == 1)
        assert inv.smooth == (str(inv.h_polynomial) == "1")
        assert inv.h_polynomial.evaluate({"q": 1}) == inv.multiplicity


def test_open_cell_point_is_smooth():
    w = Permutation([2, 3, 1, 4])
    assert schubert_invariants(w, w).smooth
    v = Permutation([1, 3, 2, 4])
    assert richardson_invariants(v, w, w).smooth
    assert richardson_invariants(v, w, v).smooth


def test_w0_flip_symmetry_all_s4_pairs():
    w0 = Permutation.longest(4)
    elems = Permutation.all(4)
    for v in elems:
        for tau in elems:
            if not bruhat_leq(v, tau):
                continue
            o = opposite_invariants(v, tau)
            s = schubert_invariants(w0 * v, w0 * tau)
            assert o.multiplicity == s.multiplicity
            assert o.h_polynomial == s.h_polynomial
            assert o.dimension == s.dimension
            assert o.tangent_dim == s.tangent_dim


def test_multiplicity_from_oracle_growth():
    # the Hilbert function of the tangent cone eventually agrees with a
    # polynomial of degree dim-1 whose normalized leading coefficient is
    # the multiplicity; fitting on degrees 3..6 means the (dim-1)-th
    # finite difference there equals mult exactly
    from richardson.charts import richardson_ideal_in_chart
    from richardson.groebner import local_hilbert_oracle

    cases = [
        (IdealGens(CTX, [Y * Y - X ** 3]), 1, 2),
        (
            richardson_ideal_in_chart(
                Permutation.identity(4), Permutation([3, 4, 1, 2]), Permutation.identity(4)
            ),
            4,
            2,
        ),
    ]
    for ideal, dim, mult in cases:
        counts = local_hilbert_oracle(ideal, 6)
        hf = [counts[0]] + [counts[d] - counts[d - 1] for d in range(1, 7)]
        window = hf[3:7]
        for _ in range(dim - 1):
            window = [b - a for a, b in zip(window, window[1:])]
        assert window
        assert all(x == mult for x in window), (dim, mult, hf)


def test_preconditions():
    w = Permutation([1, 3, 2])
    with pytest.raises(ValueError):
        schubert_invariants(w, Permutation([3, 2, 1]))
    with pytest.raises(ValueError):
        richardson_invariants(Permutation([3, 1, 2]), Permutation([3, 2, 1]), Permutation([1, 2, 3]))


def test_richardson_at_origin_matches_fixed_point():
    v = Permutation([1, 3, 2, 4])
    w = Permutation([4, 2, 3, 1])
    sigma = Permutation([2, 4, 1, 3])
    ch = chart(sigma)
    point = {nm: Fraction(0) for nm in ch.ctx.names}
    inv, got_sigma, got_tau = richardson_invariants_at_point(v, w, sigma, point)
    fixed = richardson_invariants(v, w, sigma)
    assert got_sigma == sigma and got_tau == sigma
    assert inv == fixed


def test_richardson_at_point_v_identity_reduces_to_schubert():
    from richardson.charts import sample_richardson_point

    v = Permutation.identity(4)
    w = Permutation([4, 2, 3, 1])
    sigma = Permutation([3, 2, 1, 4])
    tau = Permutation([2, 1, 3, 4])
    m = sample_richardson_point(tau, sigma, seed=3)
    assert m is not None
    ch = chart(sigma)
    point = {ch.var_name(i, j): m[i - 1][j - 1] for (i, j) in ch.free_positions}
    inv, got_sigma, got_tau = richardson_invariants_at_point(v, w, sigma, point)
    assert (got_sigma, got_tau) == (sigma, tau)
    schub = local_invariants_at(schubert_ideal_in_chart(w, sigma), point)
    assert inv.multiplicity == schub.multiplicity
    assert inv.h_polynomial == schub.h_polynomial


def test_oracle_counter_increments():
    import richardson.invariants as rinv

    before = rinv.ORACLE_CHECKS
    local_invariants_at(IdealGens(CTX, [Y * Y - X ** 3]), {"x": 0, "y": 0})
    assert rinv.ORACLE_CHECKS == before + 1


def test_fixed_point_memo_is_keyed_on_the_oracle_degree():
    import richardson.invariants as rinv

    v, w, sigma = Permutation([1, 2, 3]), Permutation([3, 2, 1]), Permutation([2, 1, 3])
    clear_memos()
    first = richardson_invariants(v, w, sigma, oracle=2)
    before = rinv.ORACLE_CHECKS
    assert richardson_invariants(v, w, sigma, oracle=5) == first
    assert rinv.ORACLE_CHECKS == before + 1
    assert richardson_invariants(v, w, sigma, oracle=5) == first
    assert rinv.ORACLE_CHECKS == before + 1
    assert richardson_invariants(v, w, sigma, oracle=None) == first
    assert rinv.ORACLE_CHECKS == before + 1


def test_fixed_point_records_are_checked_against_bruhat_order(monkeypatch):
    import richardson.invariants as rinv

    v, w, sigma = Permutation([1, 3, 2, 4]), Permutation([4, 2, 3, 1]), Permutation([2, 4, 1, 3])
    clear_memos()
    before = rinv.TANGENT_CHECKS
    oracle_before = rinv.ORACLE_CHECKS
    richardson_invariants(v, w, sigma)
    schubert_invariants(w, sigma, oracle=None)
    opposite_invariants(v, sigma)
    richardson_invariants(v, w, sigma)  # a memo hit is not checked again
    assert rinv.TANGENT_CHECKS == before + 3
    assert rinv.ORACLE_CHECKS == oracle_before + 2

    # a tangent space one too large is caught at every kind of record
    corank = rinv._jacobian_corank
    monkeypatch.setattr(rinv, "_jacobian_corank", lambda gb, n: corank(gb, n) + 1)
    clear_memos()  # a record that fails its check is never stored
    for record in (
        lambda: richardson_invariants(v, w, sigma),
        lambda: schubert_invariants(w, sigma),
        lambda: opposite_invariants(v, sigma, oracle=None),
    ):
        with pytest.raises(RuntimeError, match="Bruhat order"):
            record()


def test_parabolic_trivial_cases():
    v = Permutation([1, 3, 2, 4])
    w = Permutation([4, 2, 3, 1])
    sigma = Permutation([2, 4, 1, 3])
    assert parabolic_invariants(v, w, sigma, set()) == richardson_invariants(v, w, sigma)
    id4 = Permutation.identity(4)
    whole = parabolic_invariants(id4, Permutation.longest(4), sigma, {1, 2, 3})
    assert whole.smooth and whole.multiplicity == 1 and whole.dimension == 0


def test_parabolic_grassmannian_divisor():
    # the Schubert divisor of Gr(2,4): dimension 3, multiplicity 2 at the
    # deepest fixed point, smooth at the others
    id4 = Permutation.identity(4)
    w = Permutation([2, 4, 1, 3])
    J = {1, 3}
    deep = parabolic_invariants(id4, w, id4, J)
    assert deep.dimension == 3
    assert deep.multiplicity == 2
    assert str(deep.h_polynomial) == "1 + q"
    assert not deep.smooth
    other = parabolic_invariants(id4, w, Permutation([2, 4, 1, 3]), J)
    assert other.smooth and other.dimension == 3


def test_parabolic_rejects_point_off_variety():
    id4 = Permutation.identity(4)
    with pytest.raises(ValueError):
        parabolic_invariants(
            Permutation([2, 4, 1, 3]), Permutation([2, 4, 1, 3]), id4, {1, 3}
        )


def _reflections_times(sigma: Permutation) -> list[Permutation]:
    """t * sigma for every transposition t of values.

    Right multiplication gives the same counts below: sigma * t equals
    (sigma t sigma^-1) * sigma, and conjugation permutes the reflections.
    """
    n = sigma.n
    return [sigma.swap_values(a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


def test_tangent_dim_matches_reflection_count_s4():
    # Lakshmibai-Seshadri: dim T_sigma X_w = #{t : t sigma <= w}, and
    # dually dim T_tau X^v = #{t : v <= t tau}; independent of the ideals
    elems = Permutation.all(4)
    pairs = [(a, b) for a in elems for b in elems if bruhat_leq(a, b)]
    assert len(pairs) == 213
    for sigma, w in pairs:
        count = sum(1 for ts in _reflections_times(sigma) if bruhat_leq(ts, w))
        assert schubert_invariants(w, sigma, oracle=None).tangent_dim == count
    for v, tau in pairs:
        count = sum(1 for tt in _reflections_times(tau) if bruhat_leq(v, tt))
        assert opposite_invariants(v, tau, oracle=None).tangent_dim == count
