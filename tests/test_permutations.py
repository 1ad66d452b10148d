"""Symmetric-group layer: lengths, Bruhat order, cosets, patterns, KL."""

import inspect
import random

import pytest

import richardson.permutations as perm
from richardson import clear_memos

from oracles import (
    brute_coset_min_max,
    counting_opposite_rank,
    kl_by_descent,
    kl_by_inversion,
    subword_bruhat_leq,
    subword_interval,
)
from richardson.permutations import (
    Permutation,
    bruhat_interval,
    bruhat_leq,
    contains_pattern,
    coset_reps,
    is_covexillary,
    kl_polynomial,
    lower_covers,
    opposite_rank,
    schubert_rank,
    w_j_longest_length,
)


def test_window_validation():
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])
    with pytest.raises(ValueError):
        Permutation([0, 1])


def test_window_validation_after_the_window_table_is_filled():
    # valid windows are validated once and then served from a table; a bad
    # window is never stored, so it raises however many good ones came first
    for n in range(1, 7):
        Permutation.all(n)
    for bad in ([1, 1, 3], [0, 1, 2], [2, 3], (1, 2, 2), "11"):
        with pytest.raises(ValueError):
            Permutation(bad)
    for n in range(1, 9):
        assert Permutation.identity(n).window == tuple(range(1, n + 1))
        assert Permutation.longest(n).window == tuple(range(n, 0, -1))
        assert Permutation.identity(n) is Permutation.identity(n)
    table = inspect.getclosurevars(perm._checked_window).nonlocals["table"]
    assert (1, 1, 3) not in table and (2, 3) not in table


def test_parse_and_print():
    assert str(Permutation.from_string("31542")) == "31542"
    big = Permutation.from_string("10,3,1,2,4,5,6,7,8,9")
    assert big.n == 10 and str(big) == "10,3,1,2,4,5,6,7,8,9"
    for blank in ("", " ", "\t\n"):
        with pytest.raises(ValueError, match="empty permutation window"):
            Permutation.from_string(blank)


def test_length():
    assert Permutation.identity(5).length() == 0
    assert Permutation.longest(6).length() == 15
    assert Permutation([3, 1, 5, 4, 2]).length() == 5


def test_rank_matrices():
    n = 4
    w0 = Permutation.longest(n)
    r = schubert_rank(w0)
    assert all(
        r[i - 1][j - 1] == min(j, n - i + 1) for i in range(1, n + 1) for j in range(1, n + 1)
    )
    rid = opposite_rank(Permutation.identity(n))
    assert all(
        rid[i - 1][j - 1] == min(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
    )
    s2 = Permutation([2, 1])
    assert schubert_rank(s2)[1][0] == 1
    assert schubert_rank(Permutation([1, 2]))[1][0] == 0


def test_opposite_rank_matches_counting_s1_to_s5():
    for n in range(1, 6):
        for v in Permutation.all(n):
            assert opposite_rank(v) == counting_opposite_rank(v)


def test_bruhat_basics():
    w = Permutation([4, 2, 3, 1])
    assert bruhat_leq(Permutation.identity(4), w)
    assert not bruhat_leq(Permutation([2, 1]), Permutation([1, 2]))


def test_bruhat_matches_subword_oracle_s3_s4():
    for n in (3, 4):
        elems = Permutation.all(n)
        for v in elems:
            for w in elems:
                assert bruhat_leq(v, w) == subword_bruhat_leq(v, w)


def test_s3_has_19_comparable_pairs():
    elems = Permutation.all(3)
    assert sum(1 for v in elems for w in elems if bruhat_leq(v, w)) == 19


def test_bruhat_length_monotone():
    elems = Permutation.all(4)
    for v in elems:
        for w in elems:
            if v != w and bruhat_leq(v, w):
                assert v.length() < w.length()


def test_intervals():
    w = Permutation([2, 3, 1, 4])
    assert bruhat_interval(w, w) == [w]
    assert len(bruhat_interval(Permutation.identity(4), Permutation.longest(4))) == 24
    iv = bruhat_interval(Permutation([1, 3, 2]), Permutation([3, 1, 2]))
    assert [str(s) for s in iv] == ["132", "312"]
    assert bruhat_interval(Permutation([2, 1, 3]), Permutation([1, 3, 2])) == []


@pytest.fixture(scope="module")
def subword_order():
    """The subword Bruhat order on S4 and S5, as a table of windows."""
    return {
        (v.window, w.window): subword_bruhat_leq(v, w)
        for n in (4, 5)
        for v in Permutation.all(n)
        for w in Permutation.all(n)
    }


@pytest.mark.parametrize("n", [4, 5])
def test_intervals_match_subword_oracle(n, subword_order):
    def leq(a, b):
        return subword_order[a.window, b.window]

    elems = Permutation.all(n)
    for v in elems:
        for w in elems:
            # the oracle is empty exactly when v !<= w
            assert bruhat_interval(v, w) == subword_interval(v, w, leq)


@pytest.mark.parametrize("n", [4, 5])
def test_lower_covers_are_covers(n, subword_order):
    for z in Permutation.all(n):
        covers = lower_covers(z)
        assert len(set(covers)) == len(covers)
        for c in covers:
            assert c.length() == z.length() - 1
            assert subword_order[c.window, z.window]
        # every element one shorter and below z is one of them
        assert sorted(covers) == sorted(
            c for c in Permutation.all(n)
            if c.length() == z.length() - 1 and subword_order[c.window, z.window]
        )


def test_packed_order_matches_subword_oracle_s4_s5(subword_order):
    for (v, w), expected in subword_order.items():
        assert bruhat_leq(Permutation(v), Permutation(w)) == expected


def _entrywise_leq(v: Permutation, w: Permutation) -> bool:
    """r_v <= r_w entry by entry, counting #{k <= j : x(k) >= i} directly."""
    n = v.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rv = sum(1 for x in v.window[:j] if x >= i)
            rw = sum(1 for x in w.window[:j] if x >= i)
            if rv > rw:
                return False
    return True


@pytest.mark.parametrize("n", [15, 16, 17])
def test_packed_order_matches_entrywise_ranks_past_the_field_width_step(n):
    # fields are 5 bits wide at n = 15 and 6 bits wide at n = 16, 17; each
    # v is w after a few position swaps, mostly downward, so both answers occur
    rng = random.Random(n)
    answers = []
    for _ in range(40):
        w = list(range(1, n + 1))
        rng.shuffle(w)
        v = list(w)
        for _ in range(rng.randrange(1, 7)):
            i, j = sorted(rng.sample(range(n), 2))
            if (v[i] > v[j]) == (rng.random() < 0.8):
                v[i], v[j] = v[j], v[i]
        a = Permutation.from_string(",".join(map(str, v)))
        b = Permutation.from_string(",".join(map(str, w)))
        for x, y in ((a, b), (b, a)):
            expected = _entrywise_leq(x, y)
            assert bruhat_leq(x, y) == expected, (str(x), str(y))
            answers.append(expected)
    assert True in answers and False in answers


def test_size_mismatch_raises():
    short, long_ = Permutation([2, 1]), Permutation([1, 3, 2])
    for f in (bruhat_leq, bruhat_interval, kl_polynomial):
        with pytest.raises(ValueError):
            f(short, long_)


def test_kl_recursion_builds_no_permutation(monkeypatch):
    # P(id, w0) = 1 returns through the extremal-pair reduction and walks no
    # cover, so the recursion is driven by 45312, whose P = 1 + q^2 recurses
    ident, w0 = Permutation.identity(5), Permutation.longest(5)
    w = Permutation([4, 5, 3, 1, 2])
    clear_memos()
    built = []
    init = Permutation.__init__

    def counting_init(self, window):
        built.append(window)
        init(self, window)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    assert kl_polynomial(ident, w).coefficients == (1, 0, 1)
    assert kl_polynomial(ident, w0).coefficients == (1,)
    assert built == []
    tables = [inspect.getclosurevars(f).nonlocals["table"]
              for f in (perm._covers, perm._length, perm._rank_word)]
    assert all(0 < len(t) <= 120 for t in tables)
    clear_memos()
    assert all(len(t) == 0 for t in tables)


def test_coset_reps_trivial():
    w = Permutation([3, 1, 4, 2])
    assert coset_reps(w, set()) == (w, w)
    lo, hi = coset_reps(Permutation.identity(4), {1, 2, 3})
    assert lo == Permutation.identity(4) and hi == Permutation.longest(4)


def test_coset_reps_match_brute_force():
    rng = random.Random(13)
    elems = Permutation.all(4)
    for _ in range(25):
        w = elems[rng.randrange(len(elems))]
        J = set(j for j in (1, 2, 3) if rng.random() < 0.5)
        lo, hi = coset_reps(w, J)
        blo, bhi = brute_coset_min_max(w, J)
        assert lo == blo and hi == bhi
        assert hi.length() - lo.length() == w_j_longest_length(4, J)
        # descent characterization
        assert not any(lo(j) > lo(j + 1) for j in J)
        assert all(hi(j) > hi(j + 1) for j in J)


def test_contains_pattern():
    w = Permutation([3, 1, 5, 4, 2])
    assert contains_pattern(w, Permutation([1]))
    assert not contains_pattern(Permutation.identity(4), Permutation([2, 1]))
    assert not contains_pattern(w, Permutation([3, 4, 1, 2]))
    assert contains_pattern(w, Permutation([2, 3, 1]))
    assert is_covexillary(w)
    assert not is_covexillary(Permutation([3, 4, 1, 2]))
    with pytest.raises(ValueError):
        contains_pattern(Permutation([2, 1]), Permutation([2, 1, 3]))


def test_kl_trivial_values():
    w = Permutation([4, 2, 3, 1])
    assert kl_polynomial(w, w).coefficients == (1,)
    v = Permutation([2, 1, 3, 4])
    assert kl_polynomial(w, v).coefficients == (0,)


def test_kl_classic_singular_example():
    got = kl_polynomial(Permutation.identity(4), Permutation([3, 4, 1, 2]))
    assert got.coefficients == (1, 1)
    assert str(got) == "1 + q"


def test_kl_matches_inversion_solver_on_s4():
    elems = Permutation.all(4)
    for v in elems:
        for w in elems:
            assert kl_polynomial(v, w).coefficients == tuple(kl_by_inversion(v, w))


def test_kl_invariants_s4():
    elems = Permutation.all(4)
    for v in elems:
        for w in elems:
            p = kl_polynomial(v, w).coefficients
            if bruhat_leq(v, w):
                assert p[0] == 1
                if v != w:
                    # degree bound: strict half of the length gap
                    deg = len(p) - 1
                    assert 2 * deg < w.length() - v.length() or deg == 0
                assert p == kl_polynomial(v.inverse(), w.inverse()).coefficients
            else:
                assert p == (0,)


def test_kl_s5_spot_values():
    # the 45312 interval carries the first coefficient-2 polynomial in S_5
    v = Permutation.identity(5)
    w = Permutation([4, 5, 3, 1, 2])
    assert kl_polynomial(v, w).coefficients == tuple(kl_by_inversion(v, w))


def test_kl_matches_inversion_solver_on_s5_sample():
    # gaps below 3 are answered without recursion; all 2439 others take
    # minutes against the solver, so a seeded sample of them is checked
    elems = Permutation.all(5)
    pairs = [
        (v, w)
        for v in elems
        for w in elems
        if bruhat_leq(v, w) and w.length() - v.length() >= 3
    ]
    for v, w in random.Random(5).sample(pairs, 120):
        assert kl_polynomial(v, w).coefficients == tuple(kl_by_inversion(v, w))


def test_kl_matches_the_descent_recursion_on_s5_and_an_s6_sample():
    # the two-branch recursion without reductions, on the oracles' own Bruhat
    # order and intervals: every S5 pair, then a seeded S6 sample of gap >= 3
    memo = {}
    elems = Permutation.all(5)
    for v in elems:
        for w in elems:
            assert kl_polynomial(v, w).coefficients == kl_by_descent(v, w, memo), (str(v), str(w))
    elems = Permutation.all(6)
    rng = random.Random(37)
    checked = 0
    while checked < 500:
        v, w = rng.choice(elems), rng.choice(elems)
        if bruhat_leq(v, w) and w.length() - v.length() >= 3:
            assert kl_polynomial(v, w).coefficients == kl_by_descent(v, w, memo), (str(v), str(w))
            checked += 1


def test_kl_reduction_keeps_the_memo_small():
    # both halves of the extremal-pair reduction: P(id, 564123) fills 74
    # entries of the KL table, 301 without the right-descent half
    clear_memos()
    table = inspect.getclosurevars(perm._kl_coeffs).nonlocals["table"]
    got = kl_polynomial(Permutation.identity(6), Permutation([5, 6, 4, 1, 2, 3]))
    assert got.coefficients == (1, 0, 2)
    assert 0 < len(table) <= 80
    clear_memos()


def test_kl_s6_spot_values():
    ident = Permutation.identity(6)
    assert kl_polynomial(ident, Permutation([4, 5, 6, 1, 2, 3])).coefficients == (1, 4, 4, 1)
    assert kl_polynomial(ident, Permutation.longest(6)).coefficients == (1,)
