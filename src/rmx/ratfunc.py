"""Exact multivariate rational functions over Q.

RatFunc is the coefficient field for every truncated object in the
package: a fully reduced fraction of multivariate polynomials with
arbitrary-precision rational coefficients, held as an element of a sympy
sparse rational-function field.  The wrapper adds variable-set
unification, substitution of a variable by another rational function, and
a deterministic serialization.

Canonical form.  A value N/D is stored with

* N and D having integer coefficients and no common polynomial factor,
* the integer coefficients of N and D together having gcd 1, and
* the leading coefficient of D under graded-lex order positive;

zero is 0/1.  This pair is unique for each rational function, so equality,
hashing, printing and serialization are structural.  It is exactly the form
sympy's ``cancel`` returns.

Which operations reduce by gcd.  Sums and products of two fractions with
non-integer denominators, quotients and derivatives go through sympy, which
cancels by a polynomial gcd.  The other operations rebuild the canonical
form directly, because no polynomial common factor can appear:

* multiplying N/D by a rational constant p/q only rescales N and D, so at
  most an integer content has to be divided out;
* adding P/d with d an integer (a polynomial or a constant) gives
  (d*N + D*P)/(d*D), and gcd(d*N + D*P, D) = gcd(d*N, D) = 1 over Q;
* lifting to more variables, or dropping variables that do not occur,
  keeps gcd, content and the graded-lex leading term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from sympy import QQ
from sympy.polys.fields import field as _mkfield

__all__ = ["RatFunc"]

_QQ = QQ.dtype


@lru_cache(maxsize=None)
def _field_for(names: tuple):
    if not names:
        raise ValueError("constants have no field; they are Fractions")
    return _mkfield(",".join(names), QQ, order="grlex")[0]


def _lift_poly(poly, new_ring, idx_map):
    nvars = len(new_ring.gens)
    data = {}
    for monom, coeff in poly.terms():
        m2 = [0] * nvars
        for i, e in enumerate(monom):
            m2[idx_map[i]] = e
        data[tuple(m2)] = coeff
    return new_ring.dtype(data)


def _qq_to_fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


# -- canonical-form arithmetic without gcd ------------------------------
#
# The helpers below take and return canonical field elements and their
# polynomials, whose coefficients are integers, so ``c.numerator`` is the
# whole coefficient.

def _content(poly, g=0):
    """gcd of ``g`` and the coefficients of ``poly``; stops early at 1."""
    for c in poly.values():
        g = gcd(g, c.numerator)
        if g == 1:
            break
    return g


def _scale(poly, mul, div=1):
    """``poly * mul / div`` for integers ``mul``, ``div`` with exact quotients."""
    if mul == div:
        return poly
    if div == 1:
        return poly.ring.dtype({m: _QQ(c.numerator * mul)
                                for m, c in poly.items()})
    return poly.ring.dtype({m: _QQ(c.numerator * mul // div)
                            for m, c in poly.items()})


def _const_elem(fld, c: Fraction):
    """The constant ``c`` as a canonical element of ``fld``."""
    if not c:
        return fld.zero
    ring = fld.ring
    return fld.raw_new(ring.dtype({ring.zero_monom: _QQ(c.numerator)}),
                       ring.dtype({ring.zero_monom: _QQ(c.denominator)}))


def _ground(poly):
    """The integer value of a nonzero constant polynomial."""
    return next(iter(poly.values())).numerator


def _is_const(f) -> bool:
    return f.numer.is_ground and f.denom.is_ground


def _mul_const(f, p: int, q: int):
    """f * p/q with gcd(p, q) = 1, q > 0 and f, p nonzero.

    With f = N/D, the product p*N / (q*D) is reduced over Q[x]; since
    gcd(p, q) = 1 and gcd(cont N, cont D) = 1, its joint integer content is
    gcd(p, cont D) * gcd(q, cont N).
    """
    num, den = f.numer, f.denom
    g_p = _content(den, p) if p not in (1, -1) else 1
    g_q = _content(num, q) if q != 1 else 1
    return f.raw_new(_scale(num, p // g_p, g_q), _scale(den, q // g_q, g_p))


def _mul(f, g):
    if not f or not g:
        return f.field.zero
    if _is_const(g):
        return _mul_const(f, _ground(g.numer), _ground(g.denom))
    if _is_const(f):
        return _mul_const(g, _ground(f.numer), _ground(f.denom))
    return f * g


def _add_intden(f, g):
    """f + g where the denominator of g is a (positive) integer.

    With f = N/D and g = P/d the sum (d*N + D*P)/(d*D) has no polynomial
    common factor, and d*D keeps a positive leading coefficient, so only
    the joint integer content is divided out.
    """
    num_f, den_f = f.numer, f.denom
    d = _ground(g.denom)
    if den_f.is_ground:
        prod = _scale(g.numer, _ground(den_f))
    elif g.numer.is_ground:
        prod = _scale(den_f, _ground(g.numer))
    else:
        prod = den_f * g.numer
    num = _scale(num_f, d) + prod
    if not num:
        return f.field.zero
    den = _scale(den_f, d)
    content = _content(num, _content(den))
    if content != 1:
        num = _scale(num, 1, content)
        den = _scale(den, 1, content)
    return f.raw_new(num, den)


def _add(f, g):
    if not g:
        return f
    if not f:
        return g
    if g.denom.is_ground:
        return _add_intden(f, g)
    if f.denom.is_ground:
        return _add_intden(g, f)
    return f + g


class RatFunc:
    """A reduced fraction of multivariate polynomials over Q.

    Immutable.  ``vars`` is the sorted tuple of variable names; a value
    with ``vars == ()`` is a plain rational constant (stored as
    ``fractions.Fraction``), which keeps scalar-heavy computations off
    the polynomial path.
    """

    __slots__ = ("vars", "_val")

    def __init__(self, names, val):
        self.vars = tuple(names)
        self._val = val

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc((), Fraction(c))

    @staticmethod
    def var(name: str) -> "RatFunc":
        fld = _field_for((name,))
        return RatFunc((name,), fld.gens[0])

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc((), Fraction(0))

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc((), Fraction(1))

    # -- unification --------------------------------------------------

    def lift(self, names) -> "RatFunc":
        """Return self viewed in the field with variables ``names``."""
        names = tuple(names)
        if names == self.vars:
            return self
        if not names:
            return RatFunc((), self.as_fraction())
        fld = _field_for(names)
        if not self.vars:
            return RatFunc(names, _const_elem(fld, self._val))
        # ``names`` is sorted and contains self.vars, so the embedding keeps
        # the variable order and with it the graded-lex leading terms.
        idx_map = [names.index(v) for v in self.vars]
        num = _lift_poly(self._val.numer, fld.ring, idx_map)
        den = _lift_poly(self._val.denom, fld.ring, idx_map)
        return RatFunc(names, fld.raw_new(num, den))

    def _unify(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc.const(other)
        if self.vars == other.vars:
            return self, other
        names = tuple(sorted(set(self.vars) | set(other.vars)))
        return self.lift(names), other.lift(names)

    def trim(self) -> "RatFunc":
        """Drop variables that no longer occur (after cancellation)."""
        if not self.vars:
            return self
        used = set()
        for poly in (self._val.numer, self._val.denom):
            for monom in poly.monoms():
                for name, e in zip(self.vars, monom):
                    if e:
                        used.add(name)
        if len(used) == len(self.vars):
            return self
        if not used:
            return RatFunc((), self.as_fraction())
        names = tuple(sorted(used))
        fld = _field_for(names)
        keep = [i for i, v in enumerate(self.vars) if v in used]

        def shrink(poly):
            return fld.ring.dtype({tuple(monom[i] for i in keep): coeff
                                   for monom, coeff in poly.terms()})

        return RatFunc(names, fld.raw_new(shrink(self._val.numer),
                                          shrink(self._val.denom)))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        if not self.vars:
            return self._val == 0
        return not self._val

    def is_one(self) -> bool:
        if not self.vars:
            return self._val == 1
        return self._val == self._val.field.one

    def is_constant(self) -> bool:
        if not self.vars:
            return True
        v = self._val
        return v.denom.is_ground and v.numer.is_ground

    def as_fraction(self) -> Fraction:
        if not self.vars:
            return self._val
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        num = self._val.numer.LC if self._val.numer else QQ(0)
        return _qq_to_fraction(num) / _qq_to_fraction(self._val.denom.LC)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        a, b = self._unify(other)
        if not a.vars:
            return RatFunc((), a._val + b._val)
        return RatFunc(a.vars, _add(a._val, b._val))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._unify(other)
        if not a.vars:
            return RatFunc((), a._val - b._val)
        return RatFunc(a.vars, _add(a._val, -b._val))

    def __rsub__(self, other):
        a, b = self._unify(other)
        if not a.vars:
            return RatFunc((), b._val - a._val)
        return RatFunc(a.vars, _add(b._val, -a._val))

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc.const(other)
        if not other.vars and self.vars:
            return self._scaled(other._val)
        if not self.vars and other.vars:
            return other._scaled(self._val)
        a, b = self._unify(other)
        if not a.vars:
            return RatFunc((), a._val * b._val)
        return RatFunc(a.vars, _mul(a._val, b._val))

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "RatFunc":
        if not c:
            return RatFunc(self.vars, self._val.field.zero)
        if not self._val:
            return self
        return RatFunc(self.vars, _mul_const(self._val, c.numerator, c.denominator))

    def __truediv__(self, other):
        a, b = self._unify(other)
        if b.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        return RatFunc(a.vars, a._val / b._val)

    def __rtruediv__(self, other):
        if self.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        a, b = self._unify(other)
        return RatFunc(a.vars, b._val / a._val)

    def __neg__(self):
        return RatFunc(self.vars, -self._val)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers")
        if n < 0 and self.is_zero():
            raise ZeroDivisionError("negative power of zero")
        val = self._val
        if n == 0 and self.vars:
            return RatFunc(self.vars, val.field.one)
        if n < 0 and self.vars:
            # sympy's negative power swaps N and D without fixing the sign
            # of the new denominator's leading coefficient.
            num, den = val.numer, val.denom
            if num.LC < 0:
                num, den = -num, -den
            val, n = val.raw_new(den, num), -n
        return RatFunc(self.vars, val ** n)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if isinstance(other, (int, Fraction)):
                other = RatFunc.const(other)
            else:
                return NotImplemented
        a, b = self._unify(other)
        return a._val == b._val

    def __hash__(self):
        t = self.trim()
        if not t.vars:
            return hash(t._val)
        return hash((t.vars, tuple(t._val.numer.terms()), tuple(t._val.denom.terms())))

    # -- calculus / substitution --------------------------------------

    def diff(self, name: str) -> "RatFunc":
        """Partial derivative with respect to the ring variable ``name``."""
        if name not in self.vars:
            return RatFunc.zero()
        fld = _field_for(self.vars)
        return RatFunc(self.vars, self._val.diff(fld.gens[self.vars.index(name)]))

    def subs_var(self, name: str, value: "RatFunc") -> "RatFunc":
        """Substitute ``name`` by ``value`` (an arbitrary RatFunc).

        Raises ZeroDivisionError if the substituted denominator vanishes.
        """
        if name not in self.vars:
            return self
        names = tuple(sorted((set(self.vars) - {name}) | set(value.vars)))
        idx = self.vars.index(name)

        def eval_poly(poly):
            acc = RatFunc.zero()
            powers = {0: RatFunc.one()}

            def vpow(e):
                if e not in powers:
                    powers[e] = value ** e
                return powers[e]

            for monom, coeff in poly.terms():
                term = RatFunc.const(_qq_to_fraction(coeff))
                for v, e in zip(self.vars, monom):
                    if v == name or e == 0:
                        continue
                    term = term * RatFunc.var(v) ** e
                term = term * vpow(monom[idx])
                acc = acc + term
            return acc

        num = eval_poly(self._val.numer)
        den = eval_poly(self._val.denom)
        if den.is_zero():
            raise ZeroDivisionError(
                f"substitution {name} -> {value} annihilates a denominator")
        out = num / den
        return out.trim()

    # -- structure inspection -----------------------------------------

    def numer_terms(self):
        """Deterministic (monomial-dict, Fraction) view of the numerator."""
        return self._poly_terms(0)

    def denom_terms(self):
        return self._poly_terms(1)

    def _poly_terms(self, which):
        if not self.vars:
            val = self._val if which == 0 else Fraction(1)
            return [] if val == 0 else [({}, val)]
        poly = self._val.numer if which == 0 else self._val.denom
        out = []
        for monom, coeff in sorted(poly.terms()):
            md = {v: e for v, e in zip(self.vars, monom) if e}
            out.append((md, _qq_to_fraction(coeff)))
        return out

    def denom_is_monomial(self) -> bool:
        """True iff the reduced denominator is a single term c*prod(v^e)."""
        if not self.vars:
            return True
        return len(self.denom_terms()) == 1

    def denom_monomial_exponent(self, name: str) -> int:
        """Exponent of ``name`` in a monomial denominator."""
        terms = self.denom_terms()
        if len(terms) != 1:
            raise ValueError("denominator is not a monomial")
        return terms[0][0].get(name, 0)

    def remove_denominator_factor(self, factor: "RatFunc"):
        """Return (k, rest) with den = factor^k * rest, factor not dividing rest."""
        if not self.vars:
            return 0, self
        f = factor.lift(self.vars)
        if f._val.denom != f._val.denom.ring.one:
            raise ValueError(
                f"factor must be a polynomial with integer coefficients: {factor}")
        fp = f._val.numer
        den = self._val.denom
        k = 0
        while True:
            q, r = divmod(den, fp)
            if r or not q:
                break
            den = q
            k += 1
        fld = _field_for(self.vars)
        return k, RatFunc(self.vars, fld.new(self._val.numer, den))

    # -- printing / serialization -------------------------------------

    def _poly_str(self, terms):
        if not terms:
            return "0"
        parts = []
        for md, coeff in terms:
            factors = []
            if not md or abs(coeff) != 1:
                factors.append(str(coeff))
            for v in sorted(md):
                e = md[v]
                factors.append(v if e == 1 else f"{v}^{e}")
            body = "*".join(factors) if factors else "1"
            if coeff == 1 and md:
                parts.append(body)
            elif coeff == -1 and md:
                parts.append("-" + "*".join(
                    v if md[v] == 1 else f"{v}^{md[v]}" for v in sorted(md)))
            else:
                parts.append(body)
        s = parts[0]
        for p in parts[1:]:
            s += " - " + p[1:] if p.startswith("-") else " + " + p
        return s

    def __repr__(self):
        num = self._poly_str(self.numer_terms())
        den_terms = self.denom_terms()
        if len(den_terms) == 1 and den_terms[0] == ({}, Fraction(1)):
            return num
        return f"({num})/({self._poly_str(den_terms)})"

    def to_data(self):
        """Deterministic plain-data form: [vars, num-terms, den-terms]."""
        t = self.trim()

        def enc(terms):
            return [[sorted(md.items()), [v.numerator, v.denominator]]
                    for md, v in terms]

        return [list(t.vars), enc(t.numer_terms()), enc(t.denom_terms())]

    @staticmethod
    def from_data(data) -> "RatFunc":
        names, num, den = data
        names = tuple(names)

        def dec(terms):
            acc = RatFunc.zero()
            for md, (p, q) in terms:
                term = RatFunc.const(Fraction(p, q))
                for v, e in md:
                    term = term * RatFunc.var(v) ** e
                acc = acc + term
            return acc

        numer = dec(num)
        if not den or den == [[[], [1, 1]]]:
            return numer
        return numer / dec(den)
