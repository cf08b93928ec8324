"""Truncated multivariate power series with exact rational-function coefficients.

An HSeries lives in C(Z_1,...,Z_m)[x_1,...,x_r] / (x_1^{c_1},...,x_r^{c_r})
where the x_i are the capped formal variables (the deformation variable h is
one of them) and the Z_j are uncapped ring variables handled inside RatFunc.
A cap of c keeps exponents 0..c-1.

All values are immutable; every operation prunes monomials that violate a cap
immediately, so truncation errors cannot accumulate.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .ratfunc import RatFunc

__all__ = ["HSeries"]


def _fact_inv(k: int) -> Fraction:
    return Fraction(1, factorial(k))


class HSeries:
    """Truncated series: dict of capped-variable monomials to RatFunc."""

    __slots__ = ("caps", "names", "terms")

    def __init__(self, caps: dict, terms: dict):
        self.caps = dict(caps)
        self.names = tuple(sorted(self.caps))
        pruned = {}
        for mono, coeff in terms.items():
            if any(e >= self.caps[n] for n, e in zip(self.names, mono)):
                continue
            if isinstance(coeff, (int, Fraction)):
                coeff = RatFunc.const(coeff)
            if not coeff.is_zero():
                pruned[mono] = coeff
        self.terms = pruned

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value, caps: dict) -> "HSeries":
        if isinstance(value, (int, Fraction)):
            value = RatFunc.const(value)
        zero = (0,) * len(caps)
        return HSeries(caps, {zero: value})

    @staticmethod
    def zero(caps: dict) -> "HSeries":
        return HSeries(caps, {})

    @staticmethod
    def one(caps: dict) -> "HSeries":
        return HSeries.const(1, caps)

    @staticmethod
    def capped_var(name: str, caps: dict) -> "HSeries":
        if name not in caps:
            raise KeyError(f"no cap declared for formal variable {name!r}")
        names = tuple(sorted(caps))
        mono = tuple(1 if n == name else 0 for n in names)
        return HSeries(caps, {mono: RatFunc.one()})

    @staticmethod
    def exp_shift(linear: dict, caps: dict) -> "HSeries":
        """exp(sum coeff*var) for a linear form in the capped variables.

        ``linear`` maps variable names (h included) to rational coefficients;
        half-integer coefficients are exact.
        """
        out = HSeries.one(caps)
        for name, coeff in linear.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if name not in caps:
                raise KeyError(f"no cap declared for formal variable {name!r}")
            x = HSeries.capped_var(name, caps)
            term = HSeries.one(caps)
            acc = HSeries.one(caps)
            k = 0
            while True:
                k += 1
                term = term * x * (coeff * _fact_inv(k) * factorial(k - 1))
                if term.is_zero():
                    break
                acc = acc + term
            out = out * acc
        return out

    # -- cap/variable unification -------------------------------------

    def _remap(self, caps: dict) -> "HSeries":
        names = tuple(sorted(caps))
        if names == self.names and all(caps[n] == self.caps[n] for n in names):
            return self
        pos = {n: i for i, n in enumerate(names)}
        terms = {}
        for mono, coeff in self.terms.items():
            m2 = [0] * len(names)
            for n, e in zip(self.names, mono):
                m2[pos[n]] = e
            terms[tuple(m2)] = coeff
        return HSeries(caps, terms)

    def _unify(self, other):
        if not isinstance(other, HSeries):
            other = HSeries.const(other, self.caps)
        if self.caps == other.caps:
            return self, other
        caps = dict(self.caps)
        for n, c in other.caps.items():
            caps[n] = min(c, caps[n]) if n in caps else c
        return self._remap(caps), other._remap(caps)

    def with_caps(self, caps: dict) -> "HSeries":
        """Re-truncate into the given cap set (must cover all used variables)."""
        for n, e in zip(self.names, map(max, zip(*self.terms))) if self.terms else []:
            if e and n not in caps:
                raise KeyError(f"variable {n!r} not covered by new caps")
        return self._remap(dict(caps))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._unify(other)
        terms = dict(a.terms)
        for mono, coeff in b.terms.items():
            terms[mono] = terms[mono] + coeff if mono in terms else coeff
        return HSeries(a.caps, terms)

    __radd__ = __add__

    def __neg__(self):
        return HSeries(self.caps, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._unify(other)
        return a + (-b)

    def __rsub__(self, other):
        a, b = self._unify(other)
        return b + (-a)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            if isinstance(other, (int, Fraction)):
                other = RatFunc.const(other)
            return HSeries(self.caps,
                           {m: c * other for m, c in self.terms.items()})
        a, b = self._unify(other)
        if a.is_one():
            return b
        if b.is_one():
            return a
        caps = a.caps
        names = a.names
        terms = {}
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                mono = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
                if any(e >= caps[n] for n, e in zip(names, mono)):
                    continue
                prod = c1 * c2
                terms[mono] = terms[mono] + prod if mono in terms else prod
        return HSeries(caps, terms)

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
        zero = (0,) * len(self.names)
        c0 = self.terms.get(zero)
        if c0 is None or c0.is_zero():
            raise ZeroDivisionError(
                f"series is not invertible: constant coefficient is {c0 or 0}")
        c0inv = RatFunc.one() / c0
        rest = HSeries(self.caps,
                       {m: c for m, c in self.terms.items() if m != zero})
        t = rest * c0inv          # nilpotent part of self/c0
        acc = HSeries.one(self.caps)
        power = HSeries.one(self.caps)
        sign = -1
        while True:
            power = power * t
            if power.is_zero():
                break
            acc = acc + power * sign
            sign = -sign
        return acc * c0inv

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            if isinstance(other, (int, Fraction)):
                other = RatFunc.const(other)
            return self * (RatFunc.one() / other)
        a, b = self._unify(other)
        return a * b.inv()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, RatFunc)):
            other = HSeries.const(other, self.caps)
        if not isinstance(other, HSeries):
            return NotImplemented
        a, b = self._unify(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("HSeries is unhashable; compare by equality")

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        c = self.terms.get((0,) * len(self.names))
        return c is not None and c.is_one()

    # -- substitution and extraction ----------------------------------

    def map_coeffs(self, fn) -> "HSeries":
        return HSeries(self.caps, {m: fn(c) for m, c in self.terms.items()})

    def subs_ring_var(self, name: str, value: RatFunc) -> "HSeries":
        """Exact substitution of an uncapped ring variable in every coefficient."""
        return self.map_coeffs(lambda c: c.subs_var(name, value))

    def subst_mult(self, name: str, factor: "HSeries") -> "HSeries":
        """Replace the ring variable ``name`` by name*factor, re-expanded.

        ``factor`` must be a unit whose constant coefficient is itself free of
        ``name``; typical use is Z -> Z*exp(a*h).
        """
        a, f = self._unify(factor)
        caps, names = a.caps, a.names
        zero = (0,) * len(names)
        f0 = f.terms.get(zero)
        if f0 is None or f0.is_zero():
            raise ZeroDivisionError(
                "substitution factor is not a unit (zero constant coefficient)")
        if name in f0.trim().vars:
            raise ValueError(
                f"substitution factor constant term depends on {name!r}")
        t = (f * (RatFunc.one() / f0)) - 1     # nilpotent mod caps
        zf0 = RatFunc.var(name) * f0
        out = HSeries.zero(caps)
        tpow = HSeries.one(caps)
        deriv = a           # k-th derivative of a in ``name``
        k = 0
        while True:
            if k:
                tpow = tpow * t
                if tpow.is_zero():
                    break
                deriv = deriv.map_coeffs(lambda c: c.diff(name))
            scale = (zf0 ** k) * _fact_inv(k)
            out = out + deriv.map_coeffs(
                lambda d: d.subs_var(name, zf0) * scale) * tpow
            k += 1
        return out

    def coeff(self, monomial: dict) -> RatFunc:
        """Exact coefficient of a capped-variable monomial."""
        for n, e in monomial.items():
            if n not in self.caps:
                raise KeyError(f"unknown capped variable {n!r}")
            if e >= self.caps[n]:
                raise ValueError(
                    f"monomial exponent {n}^{e} is at or beyond the cap {self.caps[n]}")
        mono = tuple(monomial.get(n, 0) for n in self.names)
        return self.terms.get(mono, RatFunc.zero())

    def classical_part(self) -> RatFunc:
        """Coefficient of h^0 restricted to the zero monomial in all capped vars."""
        return self.coeff({})

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
        caps = dict(self.caps)
        caps[name] -= 1
        idx = self.names.index(name)
        terms = {}
        for mono, coeff in self.terms.items():
            e = mono[idx]
            if e == 0:
                continue
            m2 = mono[:idx] + (e - 1,) + mono[idx + 1:]
            c2 = coeff * e
            terms[m2] = terms[m2] + c2 if m2 in terms else c2
        return HSeries(caps, terms)

    def diff_ring_var(self, name: str) -> "HSeries":
        """d/d(name) for an uncapped ring variable (no cap loss)."""
        return self.map_coeffs(lambda c: c.diff(name))

    # -- printing / serialization -------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (sum(m), m)):
            factors = [f"{n}^{e}" if e > 1 else n
                       for n, e in zip(self.names, mono) if e]
            coeff = repr(self.terms[mono])
            if "/" in coeff or " " in coeff:
                coeff = f"({coeff})"
            parts.append("*".join([coeff] + factors))
        return " + ".join(parts)

    def to_data(self):
        caps = [[n, self.caps[n]] for n in self.names]
        terms = [[list(m), self.terms[m].to_data()]
                 for m in sorted(self.terms, key=lambda m: (sum(m), m))]
        return [caps, terms]

    @staticmethod
    def from_data(data) -> "HSeries":
        caps_list, terms = data
        caps = {n: c for n, c in caps_list}
        return HSeries(caps, {tuple(m): RatFunc.from_data(c) for m, c in terms})
