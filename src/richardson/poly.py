"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are exact rationals of two types: a Python int, or a
`fractions.Fraction` (reduced, positive denominator).  Construction
(`Context.const`, `Polynomial.from_terms`, a product with a scalar) makes
every integral coefficient an int, and sums and products of ints stay ints,
so chart matrices, their sweeps and minors carry ints only.  A Fraction
appears where the Groebner kernel divides by a coefficient other than +-1,
and arithmetic on Fractions may leave one whose denominator is 1.  No
coefficient is ever a float: no `/` has two int operands.  An int and a
Fraction of the same value compare, hash, print and key alike, so which
type holds a value changes no result.

A monomial is one packed integer: the exponent of variable i sits in
bits 8i..8i+7, whose top bit is a guard that stays clear (so every
exponent lies in 0..127), and the total degree sits above the last
variable's field.  A product of monomials is one integer addition,
divisibility is one masked subtraction, and a polynomial is a map from
packed monomials to nonzero coefficients, which the Groebner kernel and
the oracle use as it is.  The layout depends on the variable count, so a
monomial means something only together with its Context:
`Context.monomial` packs sparse (variable, exponent) pairs and
`Context.exponents` reads them back.  A product whose exponent would pass
127 raises OverflowError.  The kernel has two monomial orders, each one
integer key with no cache: degrevlex (degrevlex_key), the order of its
bases, and the cone order of its one tangent-cone completion, which adds
a field to that key (groebner._cone_key).  So its sorts and heaps compare
plain ints.  All values are immutable after construction and may be
shared freely between threads; every operation is a pure function
returning a canonical result, so two equal polynomials have equal term
maps (the same monomials, with values equal as numbers).

Variables are interned integer indices inside a :class:`Context`; chart
variables use row-major naming over free positions, e.g. ``z42``.  The
canonical text form lists terms by ascending total degree with the
earliest context variable first inside a degree (``z42 - z52*z43``); all
golden-file tests pin that form.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .memo import memoized

Coeff = Union[Fraction, int]


def _exact(c) -> Coeff:
    """The coefficient c in its exact form: an int when c is integral, else
    a Fraction.

    >>> _exact(Fraction(4, 2)), _exact(True), _exact(Fraction(1, 2))
    (2, 1, Fraction(1, 2))
    """
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


_FIELD_BITS = 8  # one byte per field: _Pack.lcm sums the bytes for the degree
_FIELD_MAX = (1 << (_FIELD_BITS - 1)) - 1  # guard bit must stay free
_FIELD_MASK = (1 << _FIELD_BITS) - 1

MONOMIAL_ONE = 0


class _Pack:
    """The packed-monomial layout for one variable count (it holds no caches)."""

    __slots__ = ("n", "shifts", "degshift", "himask", "lowmask", "units", "unit_index")

    def __init__(self, nvars: int):
        self.n = nvars
        self.shifts = tuple(i * _FIELD_BITS for i in range(nvars))
        self.degshift = nvars * _FIELD_BITS
        self.himask = sum(1 << (s + _FIELD_BITS - 1) for s in self.shifts)  # the guard bits
        self.lowmask = sum(_FIELD_MAX << s for s in self.shifts)  # the exponent bits
        self.units = tuple((1 << s) | (1 << self.degshift) for s in self.shifts)  # the variables
        self.unit_index = {unit: v for v, unit in enumerate(self.units)}  # variable -> index

    def divides(self, b: int, a: int) -> bool:
        """b | a, one masked subtraction (fields below the guard bit)."""
        hi = self.himask
        return ((a | hi) - b) & hi == hi

    def lcm(self, a: int, b: int) -> int:
        """The fieldwise max, with no loop: (a | guards) - b keeps a field's
        guard bit exactly when a's field is at least b's, and guard minus
        guard >> 7 turns each kept guard into that field's exponent mask,
        which selects a's field; b fills the others.  The degree is the sum
        of the exponent fields, which are the bytes of the result."""
        if a == b:
            return a
        low = self.lowmask
        a &= low
        b &= low
        ge = ((a | self.himask) - b) & self.himask
        out = b ^ ((a ^ b) & (ge - (ge >> (_FIELD_BITS - 1))))
        return out | (sum(out.to_bytes(self.n, "little")) << self.degshift)

    def support_mask(self, a: int) -> int:
        """The guard bit of every variable of a: adding 127 to a field of at
        most 127 reaches its guard bit exactly when the field is nonzero."""
        low = self.lowmask
        return ((a & low) + low) & self.himask


# a pack holds no caches, so a Context may keep its pack past clear_memos()
@memoized()
def _pack_for(nvars: int) -> _Pack:
    return _Pack(nvars)


def _repacker(src: _Pack, dst: _Pack, live: Sequence[int]):
    """The map of monomials from layout src to layout dst that makes variable
    live[k] variable k and drops the others.

    The degree field sits above the last variable, so one integer means
    different monomials in packs of different sizes: a monomial changes
    packs only through this map.
    """
    moves = [(src.shifts[v], dst.shifts[k]) for k, v in enumerate(live)]
    dstdeg = dst.degshift
    fm = _FIELD_MASK

    def move(a: int) -> int:
        out = deg = 0
        for s, t in moves:
            e = (a >> s) & fm
            out |= e << t
            deg += e
        return out | (deg << dstdeg)

    return move


class Context:
    """An ordered tuple of variable names shared by a family of polynomials."""

    __slots__ = ("names", "latex_names", "pack", "_index", "_gens")

    def __init__(self, names: Iterable[str], latex_names: Iterable[str] | None = None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names in context")
        self.latex_names = tuple(latex_names) if latex_names is not None else self.names
        if len(self.latex_names) != len(self.names):
            raise ValueError("latex name count mismatch")
        self.pack = _pack_for(len(self.names))
        # both built on first use: a reduced ring is built for every record
        # and rarely names a variable
        self._index: dict[str, int] | None = None
        self._gens: tuple[Polynomial, ...] | None = None

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        if self._index is None:
            self._index = {nm: k for k, nm in enumerate(self.names)}
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def monomial(self, pairs: Iterable[tuple[int, int]]) -> int:
        """The packed monomial of sparse (variable index, exponent) pairs."""
        shifts = self.pack.shifts
        out = deg = 0
        for v, e in pairs:
            if e > _FIELD_MAX:
                raise OverflowError(f"exponent {e} exceeds {_FIELD_MAX}")
            if e < 1 or (out >> shifts[v]) & _FIELD_MASK:
                raise ValueError(f"bad exponent pair {(v, e)}")
            out |= e << shifts[v]
            deg += e
        return out | (deg << self.pack.degshift)

    def exponents(self, m: int) -> tuple[tuple[int, int], ...]:
        """The sparse (variable index, exponent) pairs of a packed monomial."""
        out = []
        fields = m & self.pack.lowmask
        v = 0
        while fields:
            e = fields & _FIELD_MASK
            if e:
                out.append((v, e))
            fields >>= _FIELD_BITS
            v += 1
        return tuple(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Context({list(self.names)!r})"

    def var(self, name: str) -> "Polynomial":
        return Polynomial(self, {self.pack.units[self.index(name)]: 1})

    def gens(self) -> tuple["Polynomial", ...]:
        if self._gens is None:
            self._gens = tuple(self.var(nm) for nm in self.names)
        return self._gens

    def const(self, c: Coeff) -> "Polynomial":
        c = _exact(c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {MONOMIAL_ONE: c})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)


def degrevlex_key(ctx: Context):
    """Packed monomial -> int key of degrevlex in the context order
    (ascending = smaller), the order of every basis buchberger returns.

    The key is the monomial XOR the exponent mask: the degree field stays
    on top and each exponent e reads as 127 - e, the last variable most
    significant, which orders monomials exactly like the tuple
    (deg, -a_{n-1}, ..., -a_0).  It needs no cache.
    """
    return ctx.pack.lowmask.__xor__


class Polynomial:
    """Sparse polynomial: a map from packed monomials to nonzero rational
    coefficients, each an int or a Fraction (see the module docstring).

    The constructor takes the map as it is; Polynomial.from_terms and
    Context.const put each coefficient in exact form first.
    """

    __slots__ = ("ctx", "terms", "_hash", "_key")

    def __init__(self, ctx: Context, terms: dict[int, Coeff]):
        self.ctx = ctx
        self.terms = terms
        self._hash = None
        self._key = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_terms(ctx: Context, items: Iterable[tuple[int, Coeff]]) -> "Polynomial":
        terms: dict[int, Coeff] = {}
        for m, c in items:
            c = _exact(c)
            if c == 0:
                continue
            acc = terms.get(m)
            if acc is None:
                terms[m] = c
            else:
                acc += c
                if acc == 0:
                    del terms[m]
                else:
                    terms[m] = acc
        return Polynomial(ctx, terms)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        """No term has a variable; the zero polynomial counts as constant."""
        return all(m == MONOMIAL_ONE for m in self.terms)

    def constant_term(self) -> Coeff:
        return self.terms.get(MONOMIAL_ONE, 0)

    def is_homogeneous(self) -> bool:
        ds = self.ctx.pack.degshift
        return len({m >> ds for m in self.terms}) <= 1

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> self.ctx.pack.degshift

    def min_degree(self) -> int:
        if not self.terms:
            return -1
        return min(self.terms) >> self.ctx.pack.degshift

    def variables(self) -> frozenset[int]:
        seen = 0
        for m in self.terms:
            seen |= m
        return frozenset(v for v, _ in self.ctx.exponents(seen))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Polynomial"):
        # one shared Context is the common case: no name tuples to compare
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ValueError("polynomials have mismatched variable contexts")

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ctx.const(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc += c
                if acc == 0:
                    del out[m]
                else:
                    out[m] = acc
        return Polynomial(self.ctx, out)

    def __radd__(self, other) -> "Polynomial":
        return self.__add__(other)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        """self - other in one pass, with the terms in the order of
        self + (-other): the longer map's terms first."""
        if not isinstance(other, Polynomial):
            other = self.ctx.const(other)
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) < len(b):
            out, rest, combine = {m: -c for m, c in b.items()}, a, operator.add
        else:
            out, rest, combine = dict(a), b, operator.sub
        for m, c in rest.items():
            acc = out.get(m)
            if acc is None:
                out[m] = combine(0, c)
            else:
                acc = combine(acc, c)
                if acc == 0:
                    del out[m]
                else:
                    out[m] = acc
        return Polynomial(self.ctx, out)

    def __rsub__(self, other) -> "Polynomial":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = _exact(other)
            if c == 0:
                return Polynomial(self.ctx, {})
            return Polynomial(self.ctx, {m: cc * c for m, cc in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        hi = self.ctx.pack.himask
        out: dict[int, Coeff] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                if m & hi:
                    raise OverflowError(f"an exponent of the product exceeds {_FIELD_MAX}")
                c = ca * cb
                acc = out.get(m)
                if acc is None:
                    out[m] = c
                else:
                    acc += c
                    if acc == 0:
                        del out[m]
                    else:
                        out[m] = acc
        return Polynomial(self.ctx, out)

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative power")
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == self.ctx.const(other)
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ctx.names, frozenset(self.terms.items())))
        return self._hash

    # -- the operations behind ideal transport ---------------------------

    def substitute(self, assignment: Mapping[str, "Polynomial | Coeff"]) -> "Polynomial":
        """Simultaneous substitution of every variable occurring in self.

        Values may be polynomials (all in one shared target context) or
        plain rationals.  Raises if some occurring variable has no image.
        """
        target = None
        for val in assignment.values():
            if isinstance(val, Polynomial):
                target = val.ctx
                break
        if target is None:
            target = self.ctx
        images: dict[int, Polynomial] = {}
        for name, val in assignment.items():
            i = self.ctx.index(name)
            if not isinstance(val, Polynomial):
                val = target.const(val)
            elif val.ctx != target:
                raise ValueError("substitution images live in mismatched contexts")
            images[i] = val
        missing = self.variables() - images.keys()
        if missing:
            names = sorted(self.ctx.names[i] for i in missing)
            raise ValueError(f"missing substitution image for {names}")
        out = target.zero()
        pow_cache: dict[tuple[int, int], Polynomial] = {}
        for m, c in self.terms.items():
            piece = target.const(c)
            for v, e in self.ctx.exponents(m):
                p = pow_cache.get((v, e))
                if p is None:
                    p = images[v] ** e
                    pow_cache[(v, e)] = p
                piece = piece * p
            out = out + piece
        return out

    def evaluate(self, point: Mapping[str, Coeff]) -> Fraction:
        """Exact value at a rational point covering every occurring variable."""
        vals: dict[int, Fraction] = {}
        for name, v in point.items():
            vals[self.ctx.index(name)] = Fraction(v)
        missing = self.variables() - vals.keys()
        if missing:
            names = sorted(self.ctx.names[i] for i in missing)
            raise ValueError(f"missing value for {names}")
        total = Fraction(0)
        for m, c in self.terms.items():
            acc = c
            for v, e in self.ctx.exponents(m):
                acc *= vals[v] ** e
            total += acc
        return total

    def translate(self, center: Mapping[str, Coeff]) -> "Polynomial":
        """Return f(z + center): moves the point `center` to the origin."""
        vals: dict[int, Fraction] = {}
        for name, v in center.items():
            vals[self.ctx.index(name)] = Fraction(v)
        missing = self.variables() - vals.keys()
        if missing:
            names = sorted(self.ctx.names[i] for i in missing)
            raise ValueError(f"missing center value for {names}")
        assignment = {
            self.ctx.names[i]: self.ctx.var(self.ctx.names[i]) + vals[i]
            for i in self.variables()
        }
        if not assignment:
            return self
        return self.substitute(assignment)

    def lowest_degree_form(self) -> "Polynomial":
        """The homogeneous component of minimal total degree (input nonzero)."""
        if not self.terms:
            raise ValueError("zero polynomial has no lowest-degree form")
        d = self.min_degree()
        ds = self.ctx.pack.degshift
        return Polynomial(self.ctx, {m: c for m, c in self.terms.items() if m >> ds == d})

    def linear_coefficient(self, var_index: int) -> Coeff:
        return self.terms.get(self.ctx.pack.units[var_index], 0)

    # -- canonical text form ----------------------------------------------

    def key(self) -> tuple:
        """Canonical hashable key (used by memo tables and dedup).

        Computed once, like the hash: a polynomial is never changed after
        construction, and a chart's minors are shared by many ideals.
        """
        if self._key is None:
            self._key = (
                self.ctx.names,
                tuple(sorted((m, c.numerator, c.denominator) for m, c in self.terms.items())),
            )
        return self._key

    def sorted_terms(self) -> list[tuple[int, Coeff]]:
        """Terms in canonical order: ascending degree, earliest variables first."""
        ds = self.ctx.pack.degshift
        shifts = self.ctx.pack.shifts
        return sorted(
            self.terms.items(),
            key=lambda it: (it[0] >> ds, tuple(-((it[0] >> s) & _FIELD_MASK) for s in shifts)),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                self.ctx.names[v] if e == 1 else f"{self.ctx.names[v]}^{e}"
                for v, e in self.ctx.exponents(m)
            )
            if not mono:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append((" + " if c > 0 else " - ") + body)
        return "".join(parts)

    def latex(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            mono = "".join(
                self.ctx.latex_names[v] if e == 1 else f"{self.ctx.latex_names[v]}^{{{e}}}"
                for v, e in self.ctx.exponents(m)
            )
            if not mono:
                body = _latex_frac(abs(c))
            elif abs(c) == 1:
                body = mono
            else:
                body = _latex_frac(abs(c)) + mono
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+" if c > 0 else "-") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"<Polynomial {self}>"


def _latex_frac(c: Coeff) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"
