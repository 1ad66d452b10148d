"""Local invariants: dimension, tangent space, multiplicity, H-polynomial."""

import io
import random
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import brute_coset, jacobian_corank, subword_bruhat_leq, tangent_count_by_reflections
from richardson import clear_memos
from richardson.charts import chart, richardson_ideal_in_chart, schubert_ideal_in_chart
from richardson.groebner import (
    ORACLE_DEGREE,
    IdealGens,
    buchberger,
    hilbert_numerator,
    krull_dimension,
    solve_linear_variables,
    tangent_cone,
)
from richardson.invariants import (
    LocalInvariants,
    NotOnVariety,
    _bruhat_check,
    _reduced_key,
    local_invariants_at,
    localize,
    opposite_invariants,
    parabolic_invariants,
    richardson_invariants,
    richardson_invariants_at_point,
    schubert_invariants,
)
from richardson.permutations import Permutation, bruhat_interval, bruhat_leq, coset_reps
from richardson.poly import Context, Polynomial


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
    # a name outside the ring raises, at the origin and away from it
    for point in ({"x": 0, "y": 0, "z": 3}, {"x": 1, "y": 0, "z": 3}):
        with pytest.raises(ValueError, match="'z'"):
            localize(K, point)


def test_tangent_dim():
    def tangent_dim(I, p):
        return local_invariants_at(I, p).tangent_dim

    assert tangent_dim(IdealGens(CTX, []), {"x": 0, "y": 0}) == 2
    assert tangent_dim(IdealGens(CTX, [X]), {"x": 0, "y": 0}) == 1
    # cusp: singular at origin, smooth elsewhere
    cusp = IdealGens(CTX, [Y * Y - X ** 3])
    assert tangent_dim(cusp, {"x": 0, "y": 0}) == 2
    assert tangent_dim(cusp, {"x": 1, "y": 1}) == 1


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


def test_richardson_at_point_rejects_names_outside_the_chart():
    v, w, u = Permutation([1, 3, 2, 4]), Permutation([4, 2, 3, 1]), Permutation([2, 4, 1, 3])
    with pytest.raises(ValueError, match="z99"):
        richardson_invariants_at_point(v, w, u, {"z99": 5})
    # row 2 of the chart of 2413 has its 1 in column 1: z21 is no coordinate
    with pytest.raises(ValueError, match="z21"):
        richardson_invariants_at_point(v, w, u, {"z11": 1, "z21": 0})


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


def test_richardson_at_point_checks_the_record_against_bruhat_order(monkeypatch, tangent_one_too_high):
    # the record at a point of the stratum (tau, sigma) must have dimension
    # l(w) - l(v) and tangent dimension #{t : t sigma <= w} + #{t : v <= t tau} - 6
    import richardson.invariants as rinv
    from richardson.charts import sample_richardson_point

    v, tau, sigma, w = (Permutation.from_string(s) for s in ("2134", "2314", "3214", "4231"))
    assert bruhat_leq(v, tau) and bruhat_leq(tau, sigma) and bruhat_leq(sigma, w)
    m = sample_richardson_point(tau, sigma, seed=5)
    assert m is not None
    ch = chart(sigma)
    point = {ch.var_name(i, j): m[i - 1][j - 1] for (i, j) in ch.free_positions}
    before = rinv.TANGENT_CHECKS
    inv, got_sigma, got_tau = richardson_invariants_at_point(v, w, sigma, point)
    assert (got_sigma, got_tau) == (sigma, tau)
    assert inv.dimension == w.length() - v.length()
    assert rinv.TANGENT_CHECKS == before + 1

    # a tangent space one too large raises
    tangent_one_too_high()
    clear_memos()  # no record computed before the patch may be served
    try:
        with pytest.raises(RuntimeError, match=r"at a point of the stratum \(2314, 3214\)"):
            richardson_invariants_at_point(v, w, sigma, point)
    finally:
        monkeypatch.undo()
        clear_memos()


def test_solved_ring_keeps_the_dimension_of_the_chart():
    # verify dimension reads krull_dimension on the ring solve_linear_variables
    # leaves: R/I and R'/I' are isomorphic, so both give l(w) - l(v)
    shrunk = 0
    for v, sigma, w in [*_s4_triples(), *_s5_sample_triples(200, 17)]:
        I = richardson_ideal_in_chart(v, w, sigma)
        J, _ = solve_linear_variables(I)
        assert krull_dimension(I) == krull_dimension(J) == w.length() - v.length(), (v, sigma, w)
        shrunk += J.ctx.nvars < I.ctx.nvars
    assert shrunk > 1000


def test_oracle_counter_increments():
    import richardson.invariants as rinv

    before = rinv.ORACLE_CHECKS
    local_invariants_at(IdealGens(CTX, [Y * Y - X ** 3]), {"x": 0, "y": 0})
    assert rinv.ORACLE_CHECKS == before + 1


def test_fixed_point_records_are_checked_against_bruhat_order(tangent_one_too_high):
    import richardson.invariants as rinv

    v, w, sigma = Permutation([1, 3, 2, 4]), Permutation([4, 2, 3, 1]), Permutation([2, 4, 1, 3])
    clear_memos()
    before = rinv.TANGENT_CHECKS
    oracle_before = rinv.ORACLE_CHECKS
    richardson_invariants(v, w, sigma)
    schubert_invariants(w, sigma)
    opposite_invariants(v, sigma)
    richardson_invariants(v, w, sigma)  # a memo hit is not checked again
    assert rinv.TANGENT_CHECKS == before + 3
    assert rinv.ORACLE_CHECKS == oracle_before + 3

    # a tangent space one too large is caught at every kind of record
    tangent_one_too_high()
    clear_memos()  # a record that fails its check is never stored
    for record in (
        lambda: richardson_invariants(v, w, sigma),
        lambda: schubert_invariants(w, sigma),
        lambda: opposite_invariants(v, sigma),
    ):
        with pytest.raises(RuntimeError, match="Bruhat order"):
            record()


def test_schubert_and_opposite_records_are_richardson_records():
    # X_w = X_w^id and X^v = X_w0^v: each is served the one record of its triple
    id4, w0 = Permutation.identity(4), Permutation.longest(4)
    w, sigma = Permutation([4, 2, 3, 1]), Permutation([2, 1, 4, 3])
    v, tau = Permutation([1, 3, 2, 4]), Permutation([2, 4, 1, 3])
    clear_memos()
    assert schubert_invariants(w, sigma) is richardson_invariants(id4, w, sigma)
    clear_memos()
    assert opposite_invariants(v, tau) is richardson_invariants(v, w0, tau)


def test_cold_verify_mult_computes_one_record_per_chain():
    # the Schubert and opposite records of every case are Richardson
    # records of S3 cases too, so a cold run checks each chain once
    import richardson.invariants as rinv
    from richardson.cli import run

    elems = Permutation.all(3)
    chains = sum(
        1 for v in elems for s in elems for w in elems if bruhat_leq(v, s) and bruhat_leq(s, w)
    )
    clear_memos()
    before = rinv.TANGENT_CHECKS
    assert run(["verify", "mult", "--n", "3", "--exhaustive"], io.StringIO()) == 0
    assert rinv.TANGENT_CHECKS - before == chains


def _s4_triples():
    elems = Permutation.all(4)
    return [
        (v, s, w)
        for v in elems
        for s in elems
        if bruhat_leq(v, s)
        for w in elems
        if bruhat_leq(s, w)
    ]


def _reduced_systems(triples):
    """The distinct reduced systems of the fixed-point records of the triples."""
    systems = {}
    for v, sigma, w in triples:
        J, _ = solve_linear_variables(richardson_ideal_in_chart(v, w, sigma))
        systems.setdefault(_reduced_key(J), J)
    return systems


def _s5_sample_triples(size, seed):
    """A seeded sample of the S5 triples v <= sigma <= w."""
    elems = Permutation.all(5)
    triples = [
        (v, s, w)
        for v in elems
        for w in elems
        if bruhat_leq(v, w)
        for s in bruhat_interval(v, w)
    ]
    return random.Random(seed).sample(triples, size)


def test_reduced_ring_records_match_the_unreduced_kernel_s4():
    # a record is computed on the reduced ring of its chart ideal; the
    # kernel on the whole chart must give the same three values
    shrunk = 0
    for v, sigma, w in _s4_triples():
        I = richardson_ideal_in_chart(v, w, sigma)
        I0 = localize(I, {nm: 0 for nm in I.ctx.names})
        rec = richardson_invariants(v, w, sigma)
        assert krull_dimension(I0) == rec.dimension
        assert hilbert_numerator(tangent_cone(I0)).cancelled_numerator == rec.h_polynomial
        assert jacobian_corank(I0.generators, I0.ctx.nvars) == rec.tangent_dim
        shrunk += solve_linear_variables(I0)[0].ctx.nvars < I0.ctx.nvars
    assert shrunk > 1000


def test_the_oracle_checks_the_whole_chart(monkeypatch):
    # the kernel works on the reduced ring, the oracle on the chart ideal
    # with all n(n-1)/2 variables and its own series elimination
    import richardson.invariants as rinv

    seen = []
    oracle = rinv.local_hilbert_oracle
    monkeypatch.setattr(
        rinv, "local_hilbert_oracle", lambda I, d: seen.append(I.ctx.nvars) or oracle(I, d)
    )
    clear_memos()
    triples = _s4_triples()[::40]
    for v, sigma, w in triples:
        richardson_invariants(v, w, sigma)
    assert seen == [6] * len(triples)


def test_reduced_key_ignores_names_and_generator_order():
    abc, xyz = Context(("a", "b", "c")), Context(("x", "y", "z"))
    a, b, c = abc.gens()
    gens = [a * b - c ** 2, b ** 3 + 2 * a * c]
    key = _reduced_key(IdealGens(abc, gens))
    assert _reduced_key(IdealGens(xyz, [Polynomial(xyz, g.terms) for g in gens])) == key
    assert _reduced_key(IdealGens(abc, gens[::-1])) == key
    assert _reduced_key(IdealGens(abc, [a * b - c ** 2, b ** 3 + 3 * a * c])) != key
    assert _reduced_key(IdealGens(abc, [a * b - c ** 2, b ** 3 + 2 * b * c])) != key
    assert _reduced_key(IdealGens(CTX, [])) != _reduced_key(IdealGens(Context(("x", "y", "z")), []))


def test_reduced_systems_with_different_keys_get_their_own_records():
    # the empty system has no terms, so only the variable count tells the
    # plane from 3-space; two systems one coefficient apart differ in dimension
    clear_memos()
    dims = [
        local_invariants_at(IdealGens(Context(names), []), dict.fromkeys(names, 0)).dimension
        for names in (("x", "y"), ("x", "y", "z"))
    ]
    assert dims == [2, 3]
    origin = {"x": 0, "y": 0}
    circle = local_invariants_at(IdealGens(CTX, [X * X + Y * Y, 2 * X * X + 2 * Y * Y]), origin)
    point = local_invariants_at(IdealGens(CTX, [X * X + Y * Y, 2 * X * X - 2 * Y * Y]), origin)
    assert (circle.dimension, circle.multiplicity) == (1, 2)
    assert (point.dimension, point.multiplicity) == (0, 4)


def test_a_top_component_off_the_point_raises():
    # V(x(y-1), z(y-1)) is the plane y = 1 and the y-axis: dim R/I is 2, but
    # only the line passes through the origin, where the cone has dimension 1
    xyz = Context(("x", "y", "z"))
    x, y, z = xyz.gens()
    I = IdealGens(xyz, [x * (y - 1), z * (y - 1)])
    assert krull_dimension(I) == 2
    clear_memos()
    with pytest.raises(RuntimeError, match=r"2 factors of \(1-q\) cancelled, expected 1: "
                       r"either a top-dimensional component of V\(I\) misses the point"):
        local_invariants_at(I, {"x": 0, "y": 0, "z": 0})


def test_every_record_runs_its_checks_and_each_reduced_system_runs_once(monkeypatch):
    # S4 has 1,088 records and 21 reduced systems: every record solves its
    # own series and is checked twice, each system meets the kernel and the
    # Macaulay stage once
    import richardson.groebner as gr
    import richardson.invariants as rinv

    def counting(module, name, keyf=None):
        seen = []
        real = getattr(module, name)

        def call(*args):
            seen.append(keyf(*args) if keyf else None)
            return real(*args)

        monkeypatch.setattr(module, name, call)
        return seen

    series = counting(gr, "_eliminate_linear_variables")
    macaulay_keys = counting(gr, "_macaulay_counts", gr._macaulay_key)
    macaulay_runs = counting(gr, "_monomials_upto")  # once per run of the Macaulay stage
    kernel_keys = counting(rinv, "_reduced_invariants", rinv._reduced_key)
    kernel_runs = counting(rinv, "krull_dimension")  # once per run of the kernel
    clear_memos()
    triples = _s4_triples()
    oracle_before, tangent_before = rinv.ORACLE_CHECKS, rinv.TANGENT_CHECKS
    for v, sigma, w in triples:
        richardson_invariants(v, w, sigma)
    assert len(series) == len(macaulay_keys) == len(kernel_keys) == len(triples) == 1088
    assert rinv.ORACLE_CHECKS - oracle_before == len(triples)
    assert rinv.TANGENT_CHECKS - tangent_before == len(triples)
    assert len(kernel_runs) == len(set(kernel_keys)) == 21
    assert len(macaulay_runs) == len(set(macaulay_keys)) == 21


def test_only_the_record_table_grows_with_the_records():
    # bases and oracle calls keep nothing: after every S4 triple the record
    # table is the one memo table as large as the record count
    import inspect

    import richardson.invariants as rinv
    from richardson import memo

    clear_memos()
    triples = _s4_triples()
    for v, sigma, w in triples:
        richardson_invariants(v, w, sigma)
    records = inspect.getclosurevars(rinv._fixed_point_invariants).nonlocals["table"]
    assert len(records) == len(triples) == 1088
    large = [table for table in memo._TABLES if len(table) >= len(triples)]
    assert len(large) == 1 and large[0] is records


def test_each_reduced_system_runs_two_completions(monkeypatch):
    # one for J and one for its tangent cone, whose forms are already a
    # basis of the cone; an empty J is its own cone, so it runs one
    import richardson.groebner as gr
    import richardson.invariants as rinv

    systems = _reduced_systems(_s4_triples())
    assert len(systems) == 21
    runs = []
    real = gr._completion_for
    monkeypatch.setattr(gr, "_completion_for", lambda *args: runs.append(1) or real(*args))
    clear_memos()
    for J in systems.values():
        before = len(runs)
        rinv._reduced_invariants(J)
        assert len(runs) - before == (2 if J.generators else 1)
        rinv._reduced_invariants(J)
        assert len(runs) - before == (2 if J.generators else 1)


def test_one_cone_completion_gives_the_cone_hilbert_data():
    # a record reads the cone's Hilbert data off the leading monomials of
    # tangent_cone's forms; the reference completes those forms once more
    import richardson.invariants as rinv

    s4 = _reduced_systems(_s4_triples())
    s5 = _reduced_systems(_s5_sample_triples(400, 3))
    assert len(s4) == 21 and len(s5) >= 40
    clear_memos()
    for J in [*s4.values(), *s5.values()]:
        inv, prefix = rinv._reduced_invariants(J)
        hd = hilbert_numerator(tangent_cone(J))
        assert (inv.dimension, inv.h_polynomial) == (hd.dimension, hd.cancelled_numerator), J.generators
        assert prefix == hd.series_prefix(ORACLE_DEGREE), J.generators


def test_fixed_point_reduced_systems_are_torus_graded():
    # in the chart of sigma, z_ij has torus weight e_i - e_sigma(j); paired
    # with lambda_i = sigma^-1(i) it is the positive grading
    # omega(z_ij) = sigma^-1(i) - j.  Minors are omega-homogeneous, and the
    # linear solve keeps them so, since a solved x and its image share a weight
    def degrees(I, omega):
        return [
            {sum(e * omega[I.ctx.names[k]] for k, e in I.ctx.exponents(m)) for m in g.terms}
            for g in I.generators
        ]

    for v, sigma, w in [*_s4_triples(), *_s5_sample_triples(400, 3)]:
        inv, ch = sigma.inverse(), chart(sigma)
        omega = {nm: inv(i) - j for nm, (i, j) in zip(ch.ctx.names, ch.free_positions)}
        assert all(weight >= 1 for weight in omega.values())
        I = richardson_ideal_in_chart(v, w, sigma)
        J, _ = solve_linear_variables(I)
        for ideal in (I, J):
            assert all(len(d) == 1 for d in degrees(ideal, omega)), (v, sigma, w)


def _pins_tangent_count(v, w, sigma, count):
    d = w.length() - v.length()
    _bruhat_check(LocalInvariants(d, count, count == d, 1, None), v, w, sigma)
    for wrong in (count - 1, count + 1):
        with pytest.raises(RuntimeError, match="Bruhat order"):
            _bruhat_check(LocalInvariants(d, wrong, wrong == d, 1, None), v, w, sigma)


def test_bruhat_check_counts_the_reflections_of_the_reference():
    # the check reads rank tables of windows; the reference builds every
    # t sigma as a Permutation, on S4 with subword Bruhat order as well
    for v, sigma, w in _s4_triples():
        count = tangent_count_by_reflections(v, w, sigma)
        assert count == tangent_count_by_reflections(v, w, sigma, subword_bruhat_leq)
        _pins_tangent_count(v, w, sigma, count)
    rng = random.Random(13)
    elems = Permutation.all(5)
    for _ in range(300):
        sigma = rng.choice(elems)
        v = rng.choice([z for z in elems if bruhat_leq(z, sigma)])
        w = rng.choice([z for z in elems if bruhat_leq(sigma, z)])
        _pins_tangent_count(v, w, sigma, tangent_count_by_reflections(v, w, sigma))


def test_point_records_solve_every_variable_s4():
    # X_w^w is the point w: its reduced ring has no variables left
    for w in Permutation.all(4):
        I = richardson_ideal_in_chart(w, w, w)
        assert solve_linear_variables(I)[0].ctx.nvars == 0
        rec = richardson_invariants(w, w, w)
        assert (rec.dimension, rec.tangent_dim, rec.multiplicity) == (0, 0, 1)
        assert rec.smooth and str(rec.h_polynomial) == "1"


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


def test_parabolic_representative_is_the_minimal_one_s4(monkeypatch):
    # the record is computed at the minimal representative of sigma W_J
    # exactly when the coset meets [v_min, w_max]; the brute-force rule
    # picks the shortest member inside the interval, or finds none.  A
    # triple (v, w, sigma) reaches the rule only through (v_min, w_max,
    # sigma), so one triple per class covers every triple of S4
    import richardson.invariants as rinv

    upstairs = []
    record = LocalInvariants(5, 5, True, 1, Context(()).one())
    monkeypatch.setattr(
        rinv, "richardson_invariants", lambda v, w, sigma: upstairs.append(sigma) or record
    )
    elems = Permutation.all(4)
    for J in (set(c) for k in range(4) for c in combinations((1, 2, 3), k)):
        mins = {coset_reps(v, J)[0] for v in elems}
        maxes = {coset_reps(w, J)[1] for w in elems}
        for sigma in elems:
            coset = brute_coset(sigma, J)
            for v_min in mins:
                for w_max in maxes:
                    inside = [s for s in coset if bruhat_leq(v_min, s) and bruhat_leq(s, w_max)]
                    upstairs.clear()
                    if inside:
                        parabolic_invariants(v_min, w_max, sigma, J)
                        assert upstairs == [min(inside, key=lambda s: (s.length(), s.window))]
                    else:
                        with pytest.raises(NotOnVariety):
                            parabolic_invariants(v_min, w_max, sigma, J)
                        assert upstairs == []


def test_tangent_dim_matches_reflection_count_s4():
    # Lakshmibai-Seshadri: dim T_sigma X_w = #{t : t sigma <= w}, and
    # dually dim T_tau X^v = #{t : v <= t tau}; independent of the ideals
    elems = Permutation.all(4)
    pairs = [(a, b) for a in elems for b in elems if bruhat_leq(a, b)]
    assert len(pairs) == 213
    id4, w0 = Permutation.identity(4), Permutation.longest(4)
    for sigma, w in pairs:
        count = tangent_count_by_reflections(id4, w, sigma)
        assert schubert_invariants(w, sigma).tangent_dim == count
    for v, tau in pairs:
        count = tangent_count_by_reflections(v, w0, tau)
        assert opposite_invariants(v, tau).tangent_dim == count


def _mask_by_scan(sigma, keep):
    """Bit k set iff keep(t sigma), t the k-th transposition (a b), a < b, in
    lexicographic order, each t sigma built by Permutation.swap_values."""
    pairs = combinations(range(1, sigma.n + 1), 2)
    return sum(1 << k for k, (a, b) in enumerate(pairs) if keep(sigma.swap_values(a, b)))


@pytest.mark.parametrize("n", [4, 5])
def test_reflection_masks_match_a_scan_on_every_pair(n):
    # the Bruhat check's per-pair tables: for x <= y, _below_mask(x, y) marks
    # the t with t x <= y and _above_mask(x, y) those with x <= t y; their
    # popcounts are the Lakshmibai-Seshadri counts of X_y at x and X^x at y
    import richardson.invariants as rinv

    elems = Permutation.all(n)
    ident, w0 = Permutation.identity(n), Permutation.longest(n)
    pairs = [(x, y) for x in elems for y in elems if bruhat_leq(x, y)]
    assert len(pairs) == {4: 213, 5: 3781}[n]
    clear_memos()
    for x, y in pairs:
        below = rinv._below_mask(x.window, y.window)
        above = rinv._above_mask(x.window, y.window)
        assert below == _mask_by_scan(x, lambda t: bruhat_leq(t, y)), (x, y)
        assert above == _mask_by_scan(y, lambda t: bruhat_leq(x, t)), (x, y)
        assert below.bit_count() == tangent_count_by_reflections(ident, y, x)
        assert above.bit_count() == tangent_count_by_reflections(x, w0, y)


def test_reflection_masks_are_cleared_and_records_checked_again():
    import inspect

    import richardson.invariants as rinv

    v, w, sigma = Permutation([1, 3, 2, 4]), Permutation([4, 2, 3, 1]), Permutation([2, 4, 1, 3])
    tables = [inspect.getclosurevars(f).nonlocals["table"] for f in (rinv._below_mask, rinv._above_mask)]
    clear_memos()
    richardson_invariants(v, w, sigma)
    assert [dict(t) for t in tables] == [
        {(sigma.window, w.window): rinv._below_mask(sigma.window, w.window)},
        {(v.window, sigma.window): rinv._above_mask(v.window, sigma.window)},
    ]
    clear_memos()
    assert [len(t) for t in tables] == [0, 0]
    tangent_before, oracle_before = rinv.TANGENT_CHECKS, rinv.ORACLE_CHECKS
    richardson_invariants(v, w, sigma)
    assert rinv.TANGENT_CHECKS == tangent_before + 1
    assert rinv.ORACLE_CHECKS == oracle_before + 1
    assert [len(t) for t in tables] == [1, 1]


def test_the_cone_series_is_expanded_once_per_reduced_system_and_degree(monkeypatch):
    # S4's 1,088 records: 21 reduced systems, each expanded once, to the
    # oracle degree, and every record still checked by the oracle
    import richardson.groebner as gr
    import richardson.invariants as rinv

    degrees = []
    real = gr.HilbertData.series_prefix
    monkeypatch.setattr(gr.HilbertData, "series_prefix",
                        lambda hd, upto: degrees.append(upto) or real(hd, upto))
    clear_memos()
    triples = _s4_triples()
    before = rinv.ORACLE_CHECKS
    for v, sigma, w in triples:
        richardson_invariants(v, w, sigma)
    assert degrees == [6] * 21
    assert rinv.ORACLE_CHECKS - before == len(triples) == 1088
