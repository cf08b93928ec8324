"""Truncated multivariate power series with exact rational-function coefficients.

An HSeries lives in C(Z_1,...,Z_m)[x_1,...,x_r] / (x_1^{c_1},...,x_r^{c_r})
where the x_i are the capped formal variables (the deformation variable h is
one of them) and the Z_j are uncapped ring variables handled inside RatFunc.
A cap of c keeps exponents 0..c-1.

The caps are fixed once per computation: a cap set is one interned ``Caps``
object, shared by every series, operator and state built over it.  Binary
operations require both operands to hold the same object and raise
ValueError otherwise; ``with_caps`` is the one explicit conversion.  Terms
are keyed by monomial numbers of the caps, numbered so that a product of
two monomials is numbered by the sum of their numbers, and only products
can leave the caps.

Two loops multiply.  ``HSeries.__mul__`` tests every pair of terms against
the caps.  ``_join``, the one contraction of operators and states, indexes
the right operand's terms by match key, each bucket sorted by exponent of
h, and ends each left term's walk at the cap of h, so it never forms the
pairs past that cap (most pairs of a contraction with an R-matrix, which
is 1 + O(h)).  Neither multiplies an exact one.  They stay two because a
single product of two series gains nothing from an index it must first
build and sort: ``__mul__`` routed through ``_join`` made the benchmark's
``module_suite`` and ``rmatrix_suite`` 0.8-4.5% slower.

All values are immutable and hold only nonzero coefficients.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from fractions import Fraction
from math import factorial
from operator import itemgetter

from .ratfunc import RatFunc

__all__ = ["Caps", "HSeries"]


class Caps(Mapping):
    """One cap set, interned: equal cap sets are the same object.

    A read-only mapping from the capped variables, ``names`` in sorted
    order, to their caps; it compares equal to the plain dict.  A monomial
    is numbered in mixed radix, digit i running over 0..2*c_i - 2, so that
    the numbers of two monomials within the caps add without carrying.
    ``monos`` maps the number of each monomial within the caps to its
    exponent tuple and ``index`` maps back; the constant monomial is 0.
    ``h_cap`` is the cap of h and ``h_orders`` maps the number of each
    monomial within the caps to its exponent of h, read at h's position
    among the names; without h they are 1 and 0.
    """

    __slots__ = ("names", "_caps", "monos", "index", "h_cap", "h_orders")
    _interned = {}

    def __init__(self, items: tuple):
        if any(not isinstance(c, int) or c < 1 for _, c in items):
            raise ValueError(f"caps must be integers >= 1: {dict(items)}")
        self.names = tuple(n for n, _ in items)
        self._caps = dict(items)
        strides = [1]
        for _, cap in reversed(items[1:]):
            strides.insert(0, strides[0] * (2 * cap - 1))
        self.index = {
            mono: sum(e * s for e, s in zip(mono, strides))
            for mono in itertools.product(*(range(c) for _, c in items))}
        self.monos = {k: mono for mono, k in self.index.items()}
        at = self.names.index("h") if "h" in self._caps else None
        self.h_cap = self._caps.get("h", 1)
        self.h_orders = {k: 0 if at is None else mono[at]
                         for k, mono in self.monos.items()}

    @staticmethod
    def of(caps) -> "Caps":
        """The interned cap set of a dict (or of a Caps, returned as is)."""
        if type(caps) is Caps:
            return caps
        key = tuple(sorted(caps.items()))
        found = Caps._interned.get(key)
        if found is None:
            found = Caps._interned.setdefault(key, Caps(key))
        return found

    def match(self, other: "Caps") -> "Caps":
        """Self, if ``other`` is the same cap set; a mismatch raises."""
        if other is not self:
            raise ValueError(f"caps differ: {self._caps} and {dict(other)}; "
                             "convert one side explicitly with with_caps")
        return self

    def __getitem__(self, name):
        return self._caps[name]

    def __iter__(self):
        return iter(self.names)

    def __len__(self):
        return len(self.names)

    __hash__ = object.__hash__      # equal cap sets are one object

    def __repr__(self):
        return f"Caps({self._caps})"


def _series(caps: Caps, terms: dict) -> "HSeries":
    """A series from its caps and its number-keyed nonzero terms, as is."""
    out = object.__new__(HSeries)
    out.caps = caps
    out.terms = terms
    return out


def _add_into(terms: dict, k: int, coeff: RatFunc):
    """terms[k] += coeff, keeping only nonzero values (coefficients, or
    the series of an operator's entries)."""
    if k in terms:
        coeff = terms[k] + coeff
        if coeff.is_zero():
            del terms[k]
            return
    terms[k] = coeff


def _flush(caps: Caps, acc: dict) -> dict:
    """Key -> term dict as key -> series over ``caps``, empty ones dropped."""
    return {key: _series(caps, terms) for key, terms in acc.items() if terms}


# a term entry of ``_join``'s index by its first field, the exponent of h
_h_order = itemgetter(0)


def _join(caps: Caps, left, right) -> dict:
    """The one contraction of the package: ``left`` and ``right`` are
    streams of (match, kept, series) triples, and every pair with equal
    ``match`` adds a * b (a from ``left``) at the key ``kept_left |
    kept_right``.  Returns key -> series over ``caps``, keys whose
    products cancelled dropped.

    The right stream is indexed by its terms, not its series: the bucket
    of a match key holds one (h-order, monomial number, kept, coefficient)
    entry per term of its series, sorted by the exponent of h.  The walk of
    a left term of h-order e over its bucket stops at the first entry whose
    h-order reaches h_cap - e, so no pair past the cap of h is formed.  Every other
    capped variable is tested per pair through ``caps.monos``, and no
    exact one is multiplied."""
    cap, orders, within = caps.h_cap, caps.h_orders, caps.monos
    index = {}
    for match, kept, b in right:
        bucket = index.get(match)
        if bucket is None:
            bucket = index[match] = []
        for j, c in b.terms.items():
            bucket.append((orders[j], j, kept, c))
    for bucket in index.values():
        bucket.sort(key=_h_order)
    acc = {}
    for match, kept, a in left:
        bucket = index.get(match)
        if bucket is None:
            continue
        for i, c1 in a.terms.items():
            room = cap - orders[i]      # the h-orders a partner may have
            one = None              # c1.is_one(), asked when a pair fits
            for e, j, other, c2 in bucket:
                if e >= room:
                    break
                if i + j in within:
                    if one is None:
                        one = c1.is_one()
                    _add_into(acc.setdefault(kept | other, {}), i + j,
                              c2 if one else c1 if c2.is_one() else c1 * c2)
    return _flush(caps, acc)


class HSeries:
    """Truncated series: monomial number of its caps -> nonzero RatFunc."""

    __slots__ = ("caps", "terms")

    def __init__(self, caps, terms: dict):
        """``terms`` maps exponent tuples, aligned with the sorted cap names,
        to coefficients; monomials beyond a cap are zero and are dropped."""
        self.caps = caps = Caps.of(caps)
        self.terms = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(caps) or min(mono, default=0) < 0:
                raise ValueError(f"{mono} is not a monomial in {caps.names}")
            if isinstance(coeff, (int, Fraction)):
                coeff = RatFunc.const(coeff)
            if mono in caps.index and not coeff.is_zero():
                self.terms[caps.index[mono]] = coeff

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value, caps) -> "HSeries":
        if isinstance(value, (int, Fraction)):
            value = RatFunc.const(value)
        return _series(Caps.of(caps), {} if value.is_zero() else {0: value})

    @staticmethod
    def zero(caps) -> "HSeries":
        return _series(Caps.of(caps), {})

    @staticmethod
    def one(caps) -> "HSeries":
        return HSeries.const(1, caps)

    @staticmethod
    def capped_var(name: str, caps) -> "HSeries":
        caps = Caps.of(caps)
        if name not in caps:
            raise KeyError(f"no cap declared for formal variable {name!r}")
        k = caps.index.get(tuple(int(n == name) for n in caps.names))
        return _series(caps, {} if k is None else {k: RatFunc.one()})

    @staticmethod
    def exp_shift(linear: dict, caps) -> "HSeries":
        """exp(sum coeff*var) for a linear form in the capped variables.

        ``linear`` maps variable names (h included) to rational coefficients;
        half-integer coefficients are exact.  The coefficient of
        prod x_n^e_n is prod c_n^e_n / e_n!, and the monomial's number is
        the sum of e_n times the number of x_n.
        """
        caps = Caps.of(caps)
        terms = {0: Fraction(1)}
        for name, coeff in linear.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if name not in caps:
                raise KeyError(f"no cap declared for formal variable {name!r}")
            step = caps.index[tuple(int(n == name) for n in caps.names)] \
                if caps[name] > 1 else 0
            powers = [coeff ** e / factorial(e) for e in range(caps[name])]
            terms = {k + e * step: c * p for k, c in terms.items()
                     for e, p in enumerate(powers)}
        return _series(caps, {k: RatFunc.const(c) for k, c in terms.items()})

    # -- caps ---------------------------------------------------------

    def _operand(self, other) -> "HSeries":
        """``other`` as a series over these caps; other caps raise, and an
        operand that is not a series or a coefficient gives NotImplemented,
        so that the other operand's reflected operation runs."""
        if isinstance(other, HSeries):
            self.caps.match(other.caps)
            return other
        if isinstance(other, (int, Fraction, RatFunc)):
            return HSeries.const(other, self.caps)
        return NotImplemented

    def with_caps(self, caps) -> "HSeries":
        """Re-truncate into the given cap set (must cover all used variables)."""
        caps = Caps.of(caps)
        if caps is self.caps:
            return self
        terms = {}
        for k, coeff in self.terms.items():
            exps = dict(zip(self.caps.names, self.caps.monos[k]))
            if any(e and n not in caps for n, e in exps.items()):
                raise KeyError(f"variables {exps} not covered by new caps")
            j = caps.index.get(tuple(exps.get(n, 0) for n in caps.names))
            if j is not None:
                terms[j] = coeff
        return _series(caps, terms)

    # the name the benchmark tracer (perfbench/tracer.py) patches
    _remap = with_caps

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        if other is NotImplemented:
            return other
        terms = dict(self.terms)
        for k, coeff in other.terms.items():
            _add_into(terms, k, coeff)
        return _series(self.caps, terms)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.caps, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = self._operand(other)
        return other if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        if type(other) is not HSeries:
            if isinstance(other, (int, Fraction, RatFunc)):
                return self.map_coeffs(lambda c: c * other)
            other = self._operand(other)
            if other is NotImplemented:
                return other
        caps, terms = self.caps.match(other.caps), {}
        within = caps.monos
        for i, c1 in self.terms.items():
            one = None              # c1.is_one(), asked when a term fits
            for j, c2 in other.terms.items():
                if i + j in within:
                    if one is None:
                        one = c1.is_one()
                    _add_into(terms, i + j,
                              c2 if one else c1 if c2.is_one() else c1 * c2)
        return _series(caps, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = HSeries.one(self.caps)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def inv(self) -> "HSeries":
        """Multiplicative inverse, by Neumann iteration around the constant term."""
        c0 = self.terms.get(0)
        if c0 is None:
            raise ZeroDivisionError(
                "series is not invertible: constant coefficient is 0")
        c0inv = RatFunc.one() / c0
        rest = _series(self.caps, {k: c for k, c in self.terms.items() if k})
        t = rest * -c0inv         # minus the nilpotent part of self/c0
        acc = power = HSeries.one(self.caps)
        while True:
            power = power * t
            if power.is_zero():
                break
            acc = acc + power
        return acc * c0inv

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            return self * (RatFunc.one() / other)
        other = self._operand(other)
        return other if other is NotImplemented else self * other.inv()

    def __eq__(self, other):
        if not isinstance(other, (HSeries, int, Fraction, RatFunc)):
            return NotImplemented
        return self.terms == self._operand(other).terms

    def __hash__(self):
        raise TypeError("HSeries is unhashable; compare by equality")

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        terms = self.terms
        return len(terms) == 1 and 0 in terms and terms[0].is_one()

    # -- substitution and extraction ----------------------------------

    def map_coeffs(self, fn) -> "HSeries":
        return _series(self.caps, {k: d for k, c in self.terms.items()
                                   if not (d := fn(c)).is_zero()})

    def subs_ring_var(self, name: str, value: RatFunc) -> "HSeries":
        """Exact substitution of an uncapped ring variable in every coefficient."""
        return self.map_coeffs(RatFunc.substitution(name, value))

    def subst_mult(self, name: str, factor: "HSeries") -> "HSeries":
        """Replace the ring variable ``name`` by name*factor, re-expanded.

        ``factor`` must have constant term 1, as every ``exp_shift`` has;
        typical use is Z -> Z*exp(a*h).  By Taylor's formula the result is
        sum_k (name^k / k!) d^k/d(name)^k self * (factor - 1)^k.
        """
        f = self._operand(factor)
        if f is NotImplemented:
            raise TypeError(f"cannot substitute by a {type(factor).__name__}")
        f0 = f.terms.get(0)
        if f0 is None or not f0.is_one():
            raise ValueError("substitution factor must have constant term 1")
        caps = self.caps
        t = f - 1               # nilpotent
        z = RatFunc.var(name)
        within = caps.monos
        out = HSeries.zero(caps)
        tpow = HSeries.one(caps)
        deriv = self        # k-th derivative of self in ``name``
        k = 0
        while True:
            if k:
                tpow = tpow * t
                if tpow.is_zero():
                    break
                # only coefficients that some term of t^k keeps within the
                # caps are differentiated; the terms of a later power of t
                # are sums with terms of t^k, so it can use no others
                deriv = _series(caps, {
                    j: d for j, c in deriv.terms.items()
                    if any(i + j in within for i in tpow.terms)
                    and not (d := c.diff(name)).is_zero()})
            out = out + deriv * (z ** k * Fraction(1, factorial(k))) * tpow
            k += 1
        return out

    def coeff(self, monomial: dict) -> RatFunc:
        """Exact coefficient of a capped-variable monomial."""
        caps = self.caps
        for n, e in monomial.items():
            if n not in caps:
                raise KeyError(f"unknown capped variable {n!r}")
            if e >= caps[n]:
                raise ValueError(
                    f"monomial exponent {n}^{e} is at or beyond the cap {caps[n]}")
        k = caps.index[tuple(monomial.get(n, 0) for n in caps.names)]
        return self.terms.get(k, RatFunc.zero())

    def by_degree(self) -> list:
        """(d, part) pairs, by increasing d, of the nonzero parts of self
        homogeneous of total degree d in the capped variables."""
        monos = self.caps.monos
        parts = {}
        for k, coeff in self.terms.items():
            parts.setdefault(sum(monos[k]), {})[k] = coeff
        return [(d, _series(self.caps, terms))
                for d, terms in sorted(parts.items())]

    def diff_capped(self, name: str) -> "HSeries":
        """d/d(name) for a capped variable; the cap of ``name`` drops by one.

        The top retained exponent of ``name`` carries no information about the
        derivative's top coefficient, so the result is honest only with the
        reduced cap.
        """
        if name not in self.caps:
            raise KeyError(f"unknown capped variable {name!r}")
        if self.caps[name] < 2:
            raise ValueError(f"cap of {name!r} too small to differentiate")
        caps = Caps.of({**self.caps, name: self.caps[name] - 1})
        idx = caps.names.index(name)
        monos = self.caps.monos
        terms = {}
        for k, coeff in self.terms.items():
            mono = monos[k]
            e = mono[idx]
            if e:
                m2 = mono[:idx] + (e - 1,) + mono[idx + 1:]
                terms[caps.index[m2]] = coeff * e
        return _series(caps, terms)

    def diff_ring_var(self, name: str) -> "HSeries":
        """d/d(name) for an uncapped ring variable (no cap loss)."""
        return self.map_coeffs(lambda c: c.diff(name))

    # -- printing / serialization -------------------------------------

    def _sorted_terms(self):
        """(exponent tuple, coefficient) pairs by total degree, then
        lexicographically."""
        monos = self.caps.monos
        return sorted(((monos[k], c) for k, c in self.terms.items()),
                      key=lambda mc: (sum(mc[0]), mc[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            factors = [f"{n}^{e}" if e > 1 else n
                       for n, e in zip(self.caps.names, mono) if e]
            coeff = repr(coeff)
            if "/" in coeff or " " in coeff:
                coeff = f"({coeff})"
            parts.append("*".join([coeff] + factors))
        return " + ".join(parts)

    def to_data(self):
        caps = [[n, self.caps[n]] for n in self.caps.names]
        terms = [[list(m), c.to_data()] for m, c in self._sorted_terms()]
        return [caps, terms]
