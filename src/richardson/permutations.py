"""Symmetric-group combinatorics for flag-variety geometry.

Permutations are one-indexed windows in one-line notation; ``Permutation
([3, 1, 5, 4, 2])`` is the map 1->3, 2->1, 3->5, 4->4, 5->2.  The module
provides lengths, rank matrices and Bruhat order, intervals, parabolic
coset representatives, pattern containment, and Kazhdan-Lusztig
polynomials via the classical descent recursion.

Rank-matrix convention, fixed package-wide: the permutation matrix of w
has a 1 in row w(k), column k.  Schubert conditions bound ranks of
lower-left justified submatrices (rows i..n, columns 1..j); opposite
conditions bound upper-left submatrices.  Reversing the rows (left
multiplication by w0) swaps the two, so the opposite table is read off
the Schubert one: r'_v(i,j) = j - r_v(i+1,j), with row n+1 zero.

Bruhat order is v <= w iff r_v <= r_w entrywise, tested on packed rank
words.  The rank word of a window holds its n^2 rank entries row by row,
one field of b = n.bit_length() + 1 bits each; an entry is at most
n < 2^(b-1), so the top bit of every field is a zero guard bit.  With G
the mask of the guard bits, v <= w iff ((word(w) | G) - word(v)) & G == G:
each field computes 2^(b-1) + r_w - r_v, which never borrows from the
field above and keeps its guard bit exactly when r_v <= r_w.  So one
subtraction compares the whole tables.  Intervals and the Kazhdan-Lusztig
recursion run on windows (tuples), with memoized rank words, lengths and
lower covers, at most n! entries per table and size; Permutation objects
are built only for what the public functions return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations as _itperms

from .memo import memoized


class Permutation:
    """An element of S_n in one-line notation.

    >>> w = Permutation([3, 1, 5, 4, 2])
    >>> w(1), w(5)
    (3, 2)
    >>> w.length()
    5
    >>> str(w.inverse())
    '25143'
    """

    __slots__ = ("window", "_inv")

    def __init__(self, window):
        win = tuple(int(x) for x in window)
        if sorted(win) != list(range(1, len(win) + 1)):
            raise ValueError(f"not a permutation window: {win}")
        self.window = win
        self._inv = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def longest(n: int) -> "Permutation":
        return Permutation(range(n, 0, -1))

    @staticmethod
    def from_string(s: str) -> "Permutation":
        """Parse one-line notation; windows past S_9 use comma separation.

        >>> Permutation.from_string("31542").window
        (3, 1, 5, 4, 2)
        >>> Permutation.from_string("10,3,1,2,4,5,6,7,8,9").n
        10
        """
        s = s.strip()
        if "," in s:
            return Permutation(int(p) for p in s.split(","))
        return Permutation(int(ch) for ch in s)

    @staticmethod
    def all(n: int):
        """Every element of S_n, in lexicographic window order."""
        return [Permutation(w) for w in _itperms(range(1, n + 1))]

    # -- basics -----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        return self.window[i - 1]

    def inverse(self) -> "Permutation":
        if self._inv is None:
            inv = [0] * self.n
            for i, v in enumerate(self.window):
                inv[v - 1] = i + 1
            self._inv = Permutation(inv)
        return self._inv

    def length(self) -> int:
        return _length(self.window)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(self.window[v - 1] for v in other.window)

    def swap_values(self, a: int, b: int) -> "Permutation":
        """Left multiplication by the transposition of values a and b."""
        sub = {a: b, b: a}
        return Permutation(sub.get(v, v) for v in self.window)

    def swap_positions(self, i: int, j: int) -> "Permutation":
        """Right multiplication by the transposition of positions i and j."""
        win = list(self.window)
        win[i - 1], win[j - 1] = win[j - 1], win[i - 1]
        return Permutation(win)

    def right_descents(self) -> list[int]:
        return [j for j in range(1, self.n) if self.window[j - 1] > self.window[j]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __lt__(self, other) -> bool:  # lexicographic; used only for determinism
        return self.window < other.window

    def __str__(self) -> str:
        if self.n <= 9:
            return "".join(str(v) for v in self.window)
        return ",".join(str(v) for v in self.window)

    def __repr__(self) -> str:
        return f"Permutation({self})"


def _field_width(n: int) -> int:
    """Bits per field of a rank word: n.bit_length() hold 0..n, one more is the guard."""
    return n.bit_length() + 1


@memoized()
def _guard(n: int) -> int:
    """The guard mask of S_n: the top bit of each of the n^2 fields."""
    b = _field_width(n)
    return sum(1 << (k * b + b - 1) for k in range(n * n))


# at most n! entries for each size n in use
@memoized()
def _rank_word(window: tuple[int, ...]) -> int:
    """schubert_rank of the window packed row by row, entry (i, j) in field (i-1)n + j-1."""
    b = _field_width(len(window))
    word = shift = 0
    for i in range(1, len(window) + 1):
        count = 0
        for x in window:
            count += x >= i
            word |= count << shift
            shift += b
    return word


def _leq(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    """Bruhat order on windows of one size, by one subtraction of rank words."""
    guard = _guard(len(w))
    return ((_rank_word(w) | guard) - _rank_word(v)) & guard == guard


def _rank_entries(window: tuple[int, ...]) -> list[int]:
    """The fields of the rank word, in row-major order."""
    n = len(window)
    b = _field_width(n)
    word = _rank_word(window)
    mask = (1 << b) - 1
    return [(word >> (k * b)) & mask for k in range(n * n)]


def schubert_rank(w: Permutation) -> tuple[tuple[int, ...], ...]:
    """r_w(i,j) = #{k <= j : w(k) >= i} (lower-left justified ranks)."""
    n = w.n
    flat = _rank_entries(w.window)
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


def opposite_rank(v: Permutation) -> tuple[tuple[int, ...], ...]:
    """r'_v(i,j) = #{k <= j : v(k) <= i} (upper-left justified ranks).

    The columns 1..j hold j ones, r_v(i+1,j) of them in rows below i, so
    r'_v(i,j) = j - r_v(i+1,j) with row n+1 zero.
    """
    n = v.n
    flat = _rank_entries(v.window) + [0] * n
    return tuple(
        tuple(j + 1 - flat[i * n + j] for j in range(n)) for i in range(1, n + 1)
    )


def bruhat_leq(v: Permutation, w: Permutation) -> bool:
    """v <= w iff r_v <= r_w entrywise, tested on packed rank words.

    >>> bruhat_leq(Permutation.identity(3), Permutation([3, 1, 2]))
    True
    >>> bruhat_leq(Permutation([2, 1]), Permutation([1, 2]))
    False
    """
    if v.n != w.n:
        raise ValueError("size mismatch")
    return _leq(v.window, w.window)


# at most n! entries for each size n in use
@memoized()
def _length(window: tuple[int, ...]) -> int:
    """The number of inversions of the window."""
    n = len(window)
    return sum(1 for i in range(n) for j in range(i + 1, n) if window[i] > window[j])


# at most n! entries for each size n in use
@memoized()
def _covers(window: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The windows covered by the window in Bruhat order (see lower_covers)."""
    n = len(window)
    out = []
    for i in range(n):
        top = window[i]
        below = 0  # largest value under top seen strictly between i and j
        for j in range(i + 1, n):
            x = window[j]
            if below < x < top:
                cover = list(window)
                cover[i], cover[j] = x, top
                out.append(tuple(cover))
                below = x
    return tuple(out)


def lower_covers(z: Permutation) -> list[Permutation]:
    """The elements covered by z in Bruhat order.

    They are z with positions i < j swapped, where z(i) > z(j) and no
    position between them holds a value strictly between the two; each has
    length l(z) - 1.

    >>> [str(c) for c in lower_covers(Permutation([3, 1, 2]))]
    ['132', '213']
    """
    return [Permutation(c) for c in _covers(z.window)]


def _interval(v: tuple[int, ...], w: tuple[int, ...]):
    """Yield (sigma, l(sigma)) for the windows sigma in [v, w], level by level from w down.

    Bruhat intervals are graded, so every sigma in [v, w] lies on a chain
    of covers from w down to v that stays inside [v, w].  The walk starts
    at w and goes down one length at a time, keeping the lower covers of
    the current level that lie above v, until it reaches length l(v).
    Nothing is yielded unless v <= w.
    """
    if not _leq(v, w):
        return
    guard = _guard(len(w))
    low = _rank_word(v)
    top = _length(w)
    level = [w]
    yield w, top
    for length in range(top - 1, _length(v) - 1, -1):
        below = dict.fromkeys(c for z in level for c in _covers(z))
        # the packed test of _leq(v, c), with v's word and the mask read once
        level = [c for c in below if ((_rank_word(c) | guard) - low) & guard == guard]
        for c in level:
            yield c, length


def bruhat_interval(v: Permutation, w: Permutation) -> list[Permutation]:
    """All sigma with v <= sigma <= w, sorted by (length, window); empty iff v !<= w.

    >>> [str(s) for s in bruhat_interval(Permutation([1, 3, 2]), Permutation([3, 2, 1]))]
    ['132', '231', '312', '321']
    """
    if v.n != w.n:
        raise ValueError("size mismatch")
    ranked = sorted((length, z) for z, length in _interval(v.window, w.window))
    return [Permutation(z) for _, z in ranked]


def permutation_from_schubert_rank(rank) -> Permutation:
    """Inverse of schubert_rank; raises if no permutation matches."""
    n = len(rank)
    window = []
    for j in range(1, n + 1):
        hits = [
            i
            for i in range(1, n + 1)
            if rank[i - 1][j - 1] - (rank[i - 1][j - 2] if j > 1 else 0) == 1
        ]
        if not hits:
            raise ValueError("rank table is not a permutation rank matrix")
        window.append(max(hits))
    w = Permutation(window)
    if schubert_rank(w) != tuple(tuple(r) for r in rank):
        raise ValueError("rank table is not a permutation rank matrix")
    return w


def coset_reps(w: Permutation, J: frozenset[int] | set[int]) -> tuple[Permutation, Permutation]:
    """Minimal- and maximal-length representatives of the coset w W_J.

    J is a set of simple-reflection indices (1..n-1, acting on positions);
    the minimal representative sorts each J-block of the window ascending,
    the maximal one descending.
    """
    n = w.n
    bad = [j for j in J if not 1 <= j <= n - 1]
    if bad:
        raise ValueError(f"simple reflection indices out of range: {bad}")
    blocks = _j_blocks(n, J)
    lo = list(w.window)
    hi = list(w.window)
    for block in blocks:
        vals = sorted(w.window[p - 1] for p in block)
        for p, v in zip(block, vals):
            lo[p - 1] = v
        for p, v in zip(block, reversed(vals)):
            hi[p - 1] = v
    return Permutation(lo), Permutation(hi)


def _j_blocks(n: int, J) -> list[list[int]]:
    """Maximal position blocks glued by the simple reflections in J."""
    blocks = []
    cur = [1]
    for p in range(2, n + 1):
        if (p - 1) in J:
            cur.append(p)
        else:
            blocks.append(cur)
            cur = [p]
    blocks.append(cur)
    return [b for b in blocks if len(b) > 1]


def w_j_longest_length(n: int, J) -> int:
    """Length of the longest element of the parabolic subgroup W_J."""
    return sum(len(b) * (len(b) - 1) // 2 for b in _j_blocks(n, J))


def contains_pattern(w: Permutation, p: Permutation) -> bool:
    """True iff some subsequence of w is order-isomorphic to p.

    >>> contains_pattern(Permutation([3, 1, 5, 4, 2]), Permutation([3, 4, 1, 2]))
    False
    >>> contains_pattern(Permutation([4, 2, 3, 1]), Permutation([4, 2, 3, 1]))
    True
    """
    k = p.n
    if k > w.n:
        raise ValueError("pattern longer than the permutation")
    pat = p.window
    win = w.window
    for idx in combinations(range(w.n), k):
        vals = [win[i] for i in idx]
        ranks = sorted(range(k), key=lambda t: vals[t])
        iso = [0] * k
        for r, t in enumerate(ranks, start=1):
            iso[t] = r
        if tuple(iso) == pat:
            return True
    return False


def is_covexillary(w: Permutation) -> bool:
    """Avoidance of the pattern 3412."""
    if w.n < 4:
        return True
    return not contains_pattern(w, Permutation([3, 4, 1, 2]))


# ---------------------------------------------------------------------------
# Kazhdan-Lusztig polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KLPolynomial:
    """Coefficients (ascending in q) of P_{v,w}, with the pair attached."""

    coefficients: tuple[int, ...]
    v: Permutation
    w: Permutation

    def __str__(self) -> str:
        if not any(self.coefficients):
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            elif d == 1:
                parts.append("q" if c == 1 else f"{c}*q")
            else:
                parts.append(f"q^{d}" if c == 1 else f"{c}*q^{d}")
        return " + ".join(parts)


def _poly_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _poly_shift(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    if a == (0,):
        return a
    return tuple([0] * k + list(a))


def _poly_scale(a: tuple[int, ...], c: int) -> tuple[int, ...]:
    if c == 0:
        return (0,)
    return tuple(c * x for x in a)


def _swap_values(window: tuple[int, ...], s: int) -> tuple[int, ...]:
    """s * window: the values s and s + 1 trade places."""
    out = list(window)
    out[window.index(s)], out[window.index(s + 1)] = s + 1, s
    return tuple(out)


@memoized(lambda v, w: (v, w))
def _kl_coeffs(v: tuple[int, ...], w: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of P_{v,w} for windows v, w of one size."""
    if not _leq(v, w):
        return (0,)
    lw = _length(w)
    if lw - _length(v) <= 2:
        # degree bound forces a constant, and the constant term is 1
        return (1,)
    # descend on the leftmost left descent s of w: s + 1 stands left of s
    s = next(s for s in range(1, len(w)) if w.index(s + 1) < w.index(s))
    sw = _swap_values(w, s)
    sv = _swap_values(v, s)
    if v.index(s + 1) < v.index(s):  # sv < v
        # q^0 P_{sv,sw} + q P_{v,sw}
        out = _poly_add(_kl_coeffs(sv, sw), _poly_shift(_kl_coeffs(v, sw), 1))
    else:
        out = _poly_add(_poly_shift(_kl_coeffs(sv, sw), 1), _kl_coeffs(v, sw))
    # mu corrections over the z in [v, sw] with sz < z and l(w) - l(z) even
    for z, lz in _interval(v, sw):
        if (lw - lz) % 2 != 0 or z.index(s + 1) > z.index(s):
            continue
        pz = _kl_coeffs(z, sw)
        mu_deg = (lw - 2 - lz) // 2  # (l(sw) - l(z) - 1) / 2, as l(sw) = l(w) - 1
        mu = pz[mu_deg] if mu_deg < len(pz) else 0
        if mu == 0:
            continue
        corr = _poly_scale(_poly_shift(_kl_coeffs(v, z), (lw - lz) // 2), -mu)
        out = _poly_add(out, corr)
    return out


def kl_polynomial(v: Permutation, w: Permutation) -> KLPolynomial:
    """The Kazhdan-Lusztig polynomial P_{v,w}(q).

    Computed by the classical recursion on a left descent of w, with
    mu-coefficient corrections, on windows; results are memoized across
    calls.
    """
    if v.n != w.n:
        raise ValueError("size mismatch")
    return KLPolynomial(_kl_coeffs(v.window, w.window), v, w)
