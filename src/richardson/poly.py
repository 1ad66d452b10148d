"""Exact sparse multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` (arbitrary precision, always reduced,
positive denominator), monomials are sorted tuples of (variable index,
positive exponent) pairs.  All values are immutable after construction and
may be shared freely between threads; every operation is a pure function
returning a canonical result, so two equal polynomials have identical term
maps.

Variables are interned integer indices inside a :class:`Context`; chart
variables use row-major naming over free positions, e.g. ``z42``.  The
canonical text form lists terms by ascending total degree with the
earliest context variable first inside a degree (``z42 - z52*z43``); all
golden-file tests pin that form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

from .memo import memoized

Coeff = Union[Fraction, int]


class Context:
    """An ordered tuple of variable names shared by a family of polynomials."""

    __slots__ = ("names", "latex_names", "_index", "_gens")

    def __init__(self, names: Iterable[str], latex_names: Iterable[str] | None = None):
        self.names = tuple(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names in context")
        self.latex_names = tuple(latex_names) if latex_names is not None else self.names
        if len(self.latex_names) != len(self.names):
            raise ValueError("latex name count mismatch")
        self._index = {nm: k for k, nm in enumerate(self.names)}
        self._gens: tuple[Polynomial, ...] | None = None

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Context) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"Context({list(self.names)!r})"

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        return Polynomial(self, {Monomial(((i, 1),)): Fraction(1)})

    def gens(self) -> tuple["Polynomial", ...]:
        if self._gens is None:
            self._gens = tuple(self.var(nm) for nm in self.names)
        return self._gens

    def const(self, c: Coeff) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {MONOMIAL_ONE: c})

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def extend(self, extra: Iterable[str], latex_extra: Iterable[str] | None = None) -> "Context":
        extra = tuple(extra)
        latex_extra = tuple(latex_extra) if latex_extra is not None else extra
        return Context(self.names + extra, self.latex_names + latex_extra)


class Monomial:
    """A product of variable powers, stored sparsely with no zero exponents."""

    __slots__ = ("exps", "degree", "_hash")

    def __init__(self, exps: tuple[tuple[int, int], ...]):
        self.exps = exps
        self.degree = sum(e for _, e in exps)
        self._hash = hash(exps)

    @staticmethod
    def var(i: int, e: int = 1) -> "Monomial":
        if e <= 0:
            raise ValueError("exponent must be positive")
        return Monomial(((i, e),))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exps, other.exps
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            va, ea = a[i]
            vb, eb = b[j]
            if va < vb:
                out.append(a[i]); i += 1
            elif va > vb:
                out.append(b[j]); j += 1
            else:
                out.append((va, ea + eb)); i += 1; j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial(tuple(out))

    def divides(self, other: "Monomial") -> bool:
        b = dict(other.exps)
        for v, e in self.exps:
            if b.get(v, 0) < e:
                return False
        return True

    def divide(self, other: "Monomial") -> "Monomial":
        """self / other; raises if not divisible."""
        a = dict(self.exps)
        for v, e in other.exps:
            r = a.get(v, 0) - e
            if r < 0:
                raise ValueError("monomial not divisible")
            if r == 0:
                del a[v]
            else:
                a[v] = r
        return Monomial(tuple(sorted(a.items())))

    def lcm(self, other: "Monomial") -> "Monomial":
        a = dict(self.exps)
        for v, e in other.exps:
            if a.get(v, 0) < e:
                a[v] = e
        return Monomial(tuple(sorted(a.items())))

    def dense(self, nvars: int) -> tuple[int, ...]:
        out = [0] * nvars
        for v, e in self.exps:
            out[v] = e
        return tuple(out)

    def support(self) -> frozenset[int]:
        return frozenset(v for v, _ in self.exps)

    def __repr__(self) -> str:
        return f"Monomial({self.exps!r})"


MONOMIAL_ONE = Monomial(())


class MonomialOrder:
    """A total multiplicative order on monomials with 1 as minimum.

    ``kind`` is one of ``lex``, ``deglex`` (degree then lexicographic) or
    ``degrevlex``.  ``priority`` lists variable indices from most to least
    significant; by default the context order is used.
    """

    __slots__ = ("kind", "priority")

    KINDS = ("lex", "deglex", "degrevlex")

    def __init__(self, kind: str = "degrevlex", priority: tuple[int, ...] | None = None):
        if kind not in self.KINDS:
            raise ValueError(f"unknown monomial order kind {kind!r}")
        self.kind = kind
        self.priority = tuple(priority) if priority is not None else None

    @property
    def tag(self) -> str:
        if self.priority is None:
            return self.kind
        return self.kind + ":" + ",".join(map(str, self.priority))

    def sort_key(self, ctx: Context):
        """Memoized monomial -> sortable key function (ascending = smaller)."""
        cache = _sort_keys(self.tag, ctx.names)
        n = ctx.nvars
        prio = self.priority if self.priority is not None else tuple(range(n))
        if sorted(prio) != list(range(n)):
            raise ValueError("priority is not a permutation of the context variables")
        kind = self.kind

        def key(m: Monomial):
            k = cache.get(m)
            if k is None:
                d = m.dense(n)
                v = tuple(d[p] for p in prio)
                if kind == "lex":
                    k = v
                elif kind == "deglex":
                    k = (m.degree,) + v
                else:  # degrevlex: last-priority variable is cheapest
                    k = (m.degree,) + tuple(-x for x in reversed(v))
                cache[m] = k
            return k

        return key

    def __repr__(self) -> str:
        return f"MonomialOrder({self.tag!r})"


@memoized(lambda tag, names: (tag, names))
def _sort_keys(tag: str, names: tuple[str, ...]) -> dict:
    """The monomial -> sort key cache that every order tagged tag shares on a context."""
    return {}


DEGREVLEX = MonomialOrder("degrevlex")
DEGLEX = MonomialOrder("deglex")
LEX = MonomialOrder("lex")


class Polynomial:
    """Sparse polynomial: a map from monomials to nonzero rational coefficients."""

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: Context, terms: dict[Monomial, Fraction]):
        self.ctx = ctx
        self.terms = terms
        self._hash = None

    # -- construction helpers -------------------------------------------

    @staticmethod
    def from_terms(ctx: Context, items: Iterable[tuple[Monomial, Coeff]]) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for m, c in items:
            c = Fraction(c)
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
        return all(m.degree == 0 for m in self.terms)

    def constant_term(self) -> Fraction:
        return self.terms.get(MONOMIAL_ONE, Fraction(0))

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def min_degree(self) -> int:
        if not self.terms:
            return -1
        return min(m.degree for m in self.terms)

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(v for v, _ in m.exps)
        return frozenset(out)

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx:
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
        if not isinstance(other, Polynomial):
            other = self.ctx.const(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other) -> "Polynomial":
        return self.__neg__().__add__(other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            c = Fraction(other)
            if c == 0:
                return Polynomial(self.ctx, {})
            return Polynomial(self.ctx, {m: cc * c for m, cc in self.terms.items()})
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[Monomial, Fraction] = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma * mb
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
            for v, e in m.exps:
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
            for v, e in m.exps:
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
        return Polynomial(self.ctx, {m: c for m, c in self.terms.items() if m.degree == d})

    def linear_coefficient(self, var_index: int) -> Fraction:
        return self.terms.get(Monomial(((var_index, 1),)), Fraction(0))

    def degree_in(self, var_index: int) -> int:
        d = 0
        for m in self.terms:
            for v, e in m.exps:
                if v == var_index and e > d:
                    d = e
        return d

    def coefficient_of_var(self, var_index: int) -> "Polynomial":
        """Coefficient polynomial of var^1 (input must have degree <= 1 in var)."""
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            exps = dict(m.exps)
            e = exps.pop(var_index, 0)
            if e == 0:
                continue
            if e > 1:
                raise ValueError("degree in variable exceeds 1")
            out[Monomial(tuple(sorted(exps.items())))] = c
        return Polynomial(self.ctx, out)

    def drop_var(self, var_index: int) -> "Polynomial":
        """Terms not involving the given variable."""
        return Polynomial(
            self.ctx,
            {m: c for m, c in self.terms.items() if all(v != var_index for v, _ in m.exps)},
        )

    # -- canonical text form ----------------------------------------------

    def key(self) -> tuple:
        """Canonical hashable key (used by memo tables and dedup)."""
        return (
            self.ctx.names,
            tuple(sorted((m.exps, (c.numerator, c.denominator)) for m, c in self.terms.items())),
        )

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical order: ascending degree, earliest variables first."""
        n = self.ctx.nvars
        return sorted(
            self.terms.items(),
            key=lambda it: (it[0].degree, tuple(-x for x in it[0].dense(n))),
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            mono = "*".join(
                self.ctx.names[v] if e == 1 else f"{self.ctx.names[v]}^{e}"
                for v, e in m.exps
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
                for v, e in m.exps
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


def _latex_frac(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return f"\\tfrac{{{c.numerator}}}{{{c.denominator}}}"
