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

Denominator factorizations.  Each field keeps a registry of the irreducible
denominator factors met in it: primitive integer polynomials with a positive
graded-lex leading coefficient, appended as they are found and never
removed.  A value carries its denominator as a pair ``(c, (e_0, e_1, ...))``
meaning D = c * p_0^e_0 * p_1^e_1 * ..., where c is the positive integer
content of D and p_i is the registry's i-th factor.  In the R-matrix
computations these are a few monomials and binomials such as ``1 - z``,
``u - v`` and ``u*v - 1``.

Which operations reduce by gcd.  Sums, differences, products and
derivatives do not: they cancel by exact trial division against the known
factors only, then divide out the joint integer content.  The sign needs no
fixing, because every factor has a positive leading coefficient.

* N1/D1 + N2/D2: the common denominator takes the larger exponent of each
  factor.  Only a factor with the same positive exponent on both sides is
  tried: where the exponents differ, the new numerator is a unit times the
  other side's numerator modulo that factor, which it does not divide.
* N1/D1 * N2/D2: N1 is tried against the factors of D2 that D1 lacks, and
  N2 against those of D1 that D2 lacks; exponents add.
* d/dx of N/(c * prod p^e): with R the product of the factors that contain
  x, it is (N' R - N sum e p' R/p) / (c prod p^e R).  No factor of R divides
  that numerator, so only the factors free of x are tried.
* Multiplying N/D by a rational constant p/q only rescales N and D; adding
  P/d with d an integer (a polynomial or a constant) gives
  (d*N + D*P)/(d*D), and gcd(d*N + D*P, D) = gcd(d*N, D) = 1 over Q.  Both
  keep the factorization up to the content, as do negation, positive powers
  and lifting to more variables (which keeps gcd, content and the
  graded-lex leading term).

A value that arrives without a factorization (from ``var``, ``/``,
``subs_var``, ``from_data``, ``trim`` or a negative power) gets one on its
first use in a sum, product or derivative of fractions: its denominator is
divided by the registry's factors, and what is left is split with sympy's
``factor_list``, whose new factors join the registry.  Quotients,
``subs_var``, ``from_data`` and ``remove_denominator_factor`` still reduce
by sympy's gcd.
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


def _quotient(f, p):
    """``f / p`` if ``p`` divides ``f``, else None.

    ``p`` is primitive and both have integer coefficients, so by Gauss's
    lemma an exact quotient has integer coefficients too; the division stops
    at the first leading term that ``p``'s does not divide over Z.
    """
    ring = f.ring
    lead, mdiv = ring.leading_expv, ring.monomial_div
    if len(p) == 1:
        # an irreducible monomial is a variable: shift every exponent
        (lm, _), = p.items()
        q = {}
        for m, c in f.items():
            qm = mdiv(m, lm)
            if qm is None:
                return None
            q[qm] = c
        return ring.dtype(q)
    mmul = ring.monomial_mul
    lm = lead(p)
    lc = p[lm].numerator
    tail = [(m, c.numerator) for m, c in p.items() if m != lm]
    rem = {m: c.numerator for m, c in f.items()}
    q = {}
    while rem:
        m = lead(rem)
        qm = mdiv(m, lm)
        if qm is None:
            return None
        c, r = divmod(rem.pop(m), lc)
        if r:
            return None
        q[qm] = _QQ(c)
        for pm, pc in tail:
            km = mmul(pm, qm)
            v = rem.get(km, 0) - pc * c
            if v:
                rem[km] = v
            else:
                del rem[km]
    return ring.dtype(q)


def _times(poly, factors, exps):
    """``poly * prod factors[i]**exps[i]``."""
    for p, e in zip(factors, exps):
        if e:
            poly = poly * (p if e == 1 else p ** e)
    return poly


def _cancel(num, den, p, e):
    """Divide ``num`` and ``den`` by ``p`` as often as ``p`` divides ``num``,
    at most ``e`` times; ``p**e`` divides ``den``.  Returns the new
    ``(num, den, e)``."""
    while e:
        q = _quotient(num, p)
        if q is None:
            break
        num, den, e = q, _quotient(den, p), e - 1
    return num, den, e


def _padded(exps, n):
    return list(exps) + [0] * (n - len(exps))


def _primitive(poly):
    """(unit, g) with poly = unit * g, g primitive over Z with a positive
    leading coefficient and ``unit`` rational."""
    den = 1
    for c in poly.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in poly.values():
        num = gcd(num, c.numerator * (den // c.denominator))
    if poly.LC < 0:
        num = -num
    g = poly.ring.dtype({m: _QQ(c.numerator * (den // c.denominator) // num)
                         for m, c in poly.items()})
    return _QQ(num, den), g


class _Registry:
    """The irreducible denominator factors met in one field, append-only,
    and the interned factorization pairs that index into them."""

    __slots__ = ("ring", "factors", "pairs", "lifts")

    def __init__(self, ring):
        self.ring = ring
        self.factors = []   # primitive, irreducible, positive leading coeff
        self.pairs = {}     # (content, exponents) -> itself
        self.lifts = {}     # source names -> our index of each source factor

    def pair(self, content, exps):
        """The interned pair; trailing zero exponents are dropped."""
        exps = list(exps)
        while exps and not exps[-1]:
            exps.pop()
        key = (content, tuple(exps))
        return self.pairs.setdefault(key, key)

    def index(self, poly):
        """The index of ``poly``, registered if it is new."""
        for i, p in enumerate(self.factors):
            if p == poly:
                return i
        self.factors.append(poly)
        return len(self.factors) - 1

    def factorize(self, den):
        """The pair of a canonical denominator ``den``; ValueError if its
        content is not a positive integer."""
        if any(c.denominator != 1 for c in den.values()):
            # trial division below is exact only over Z
            raise ValueError(f"denominator is not canonical: {den}")
        exps = []
        for p in self.factors:
            e = 0
            while not den.is_ground:
                q = _quotient(den, p)
                if q is None:
                    break
                den, e = q, e + 1
            exps.append(e)
        content = den.LC
        if not den.is_ground:
            content, parts = den.factor_list()
            for poly, k in parts:
                unit, poly = _primitive(poly)
                content *= unit ** k
                i = self.index(poly)
                exps += [0] * (i + 1 - len(exps))
                exps[i] += k
        if content.denominator != 1 or content <= 0:
            raise ValueError(
                f"denominator is not canonical: its content is {content}")
        return self.pair(int(content.numerator), exps)

    def lifted(self, pair, src, idx_map):
        """``pair`` from the field over ``src`` moved into this one, whose
        variables contain ``src``'s at positions ``idx_map``."""
        content, exps = pair
        where = self.lifts.setdefault(src, [])
        factors = _registry(src).factors
        while len(where) < len(exps):
            where.append(self.index(_lift_poly(factors[len(where)], self.ring,
                                               idx_map)))
        out = [0] * len(self.factors)
        for i, e in zip(where, exps):
            out[i] = e
        return self.pair(content, out)


@lru_cache(maxsize=None)
def _registry(names: tuple) -> _Registry:
    return _Registry(_field_for(names).ring)


# -- arithmetic on values with the same variables ------------------------

def _negated(a):
    return RatFunc(a.vars, -a._val, a._fac)


def _rescaled(a, val, mul, div):
    """``val``, whose denominator is a's times ``mul / div``, carrying a's
    factorization with the content rescaled."""
    if a._fac is None:
        return RatFunc(a.vars, val)
    content, exps = a._fac
    return RatFunc(a.vars, val,
                   _registry(a.vars).pair(content * mul // div, exps))


def _finish(a, reg, num, den, content, exps):
    """The value num/den with den = content * prod p**exps over ``reg``'s
    factors, after dividing out the joint integer content."""
    g = _content(num, content)
    if g != 1:
        num, den, content = _scale(num, 1, g), _scale(den, 1, g), content // g
    return RatFunc(a.vars, a._val.raw_new(num, den), reg.pair(content, exps))


def _mul_const(a, p: int, q: int):
    """a * p/q with gcd(p, q) = 1, q > 0 and a, p nonzero.

    With a = N/D, the product p*N / (q*D) is reduced over Q[x]; since
    gcd(p, q) = 1 and gcd(cont N, cont D) = 1, its joint integer content is
    gcd(p, cont D) * gcd(q, cont N).
    """
    f = a._val
    num, den = f.numer, f.denom
    g_p = _content(den, p) if p not in (1, -1) else 1
    g_q = _content(num, q) if q != 1 else 1
    return _rescaled(a, f.raw_new(_scale(num, p // g_p, g_q),
                                  _scale(den, q // g_q, g_p)), q // g_q, g_p)


def _mul(a, b):
    f, g = a._val, b._val
    if not f or not g:
        return RatFunc(a.vars, f.field.zero)
    if _is_const(g):
        return _mul_const(a, _ground(g.numer), _ground(g.denom))
    if _is_const(f):
        return _mul_const(b, _ground(f.numer), _ground(f.denom))
    return _mul_fractions(a, b)


def _mul_fractions(a, b):
    """a * b: each numerator is tried against the other side's factors that
    its own denominator lacks."""
    c1, ea = a._factors()
    c2, eb = b._factors()
    n = max(len(ea), len(eb))
    ea, eb = _padded(ea, n), _padded(eb, n)
    reg = _registry(a.vars)
    factors = reg.factors
    num1, den1, num2, den2 = a._val.numer, a._val.denom, b._val.numer, \
        b._val.denom
    for i, p in enumerate(factors[:n]):
        if eb[i] and not ea[i]:
            num1, den2, eb[i] = _cancel(num1, den2, p, eb[i])
        elif ea[i] and not eb[i]:
            num2, den1, ea[i] = _cancel(num2, den1, p, ea[i])
    return _finish(a, reg, num1 * num2, den1 * den2, c1 * c2,
                   [x + y for x, y in zip(ea, eb)])


def _add_intden(a, b):
    """a + b where the denominator of b is a (positive) integer.

    With a = N/D and b = P/d the sum (d*N + D*P)/(d*D) has no polynomial
    common factor, and d*D keeps a positive leading coefficient, so only
    the joint integer content is divided out.
    """
    f, g = a._val, b._val
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
        return RatFunc(a.vars, f.field.zero)
    den = _scale(den_f, d)
    content = _content(num, _content(den))
    if content != 1:
        num = _scale(num, 1, content)
        den = _scale(den, 1, content)
    return _rescaled(a, f.raw_new(num, den), d, content)


def _add(a, b):
    f, g = a._val, b._val
    if not g:
        return a
    if not f:
        return b
    if g.denom.is_ground:
        return _add_intden(a, b)
    if f.denom.is_ground:
        return _add_intden(b, a)
    return _add_fractions(a, b)


def _add_fractions(a, b):
    """a + b over the common denominator with the larger exponent of each
    factor; only factors with equal exponents on both sides can cancel."""
    c1, ea = a._factors()
    c2, eb = b._factors()
    n = max(len(ea), len(eb))
    ea, eb = _padded(ea, n), _padded(eb, n)
    reg = _registry(a.vars)
    factors = reg.factors
    content = c1 // gcd(c1, c2) * c2
    up_a = [max(y - x, 0) for x, y in zip(ea, eb)]
    up_b = [max(x - y, 0) for x, y in zip(ea, eb)]
    num = _scale(_times(a._val.numer, factors, up_a), content // c1) \
        + _scale(_times(b._val.numer, factors, up_b), content // c2)
    if not num:
        return RatFunc(a.vars, a._val.field.zero)
    den = _scale(_times(a._val.denom, factors, up_a), content // c1)
    exps = [max(x, y) for x, y in zip(ea, eb)]
    for i, p in enumerate(factors[:n]):
        if ea[i] and ea[i] == eb[i]:
            num, den, exps[i] = _cancel(num, den, p, exps[i])
    return _finish(a, reg, num, den, content, exps)


def _diff(a, i):
    """The derivative of a by its ``i``-th variable."""
    content, exps = a._factors()
    reg = _registry(a.vars)
    factors = reg.factors
    num, den = a._val.numer, a._val.denom
    # R is the product of the factors that contain the variable
    in_r = [int(e > 0 and factors[k].degree(i) > 0)
            for k, e in enumerate(exps)]
    # (N' R - N sum e p' R/p) / (D R)
    new = _times(num.diff(i), factors, in_r)
    for k, e in enumerate(exps):
        if in_r[k]:
            others = [int(j != k and r) for j, r in enumerate(in_r)]
            new = new - _scale(_times(num * factors[k].diff(i), factors,
                                      others), e)
    if not new:
        return RatFunc(a.vars, a._val.field.zero)
    den = _times(den, factors, in_r)
    exps = [e + r for e, r in zip(exps, in_r)]
    for k, p in enumerate(factors[:len(exps)]):
        if exps[k] and not in_r[k]:
            new, den, exps[k] = _cancel(new, den, p, exps[k])
    return _finish(a, reg, new, den, content, exps)


class RatFunc:
    """A reduced fraction of multivariate polynomials over Q.

    Immutable.  ``vars`` is the sorted tuple of variable names; a value
    with ``vars == ()`` is a plain rational constant (stored as
    ``fractions.Fraction``), which keeps scalar-heavy computations off
    the polynomial path.
    """

    __slots__ = ("vars", "_val", "_fac")

    def __init__(self, names, val, fac=None):
        self.vars = tuple(names)
        self._val = val
        self._fac = fac     # the denominator's (content, exponents), or None

    def _factors(self):
        """The denominator's factorization, recovered on first use."""
        if self._fac is None:
            self._fac = _registry(self.vars).factorize(self._val.denom)
        return self._fac

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
        fac = None if self._fac is None else _registry(names).lifted(
            self._fac, self.vars, idx_map)
        return RatFunc(names, fld.raw_new(num, den), fac)

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
        return _add(a, b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._unify(other)
        if not a.vars:
            return RatFunc((), a._val - b._val)
        return _add(a, _negated(b))

    def __rsub__(self, other):
        a, b = self._unify(other)
        if not a.vars:
            return RatFunc((), b._val - a._val)
        return _add(b, _negated(a))

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
        return _mul(a, b)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "RatFunc":
        if not c:
            return RatFunc(self.vars, self._val.field.zero)
        if not self._val:
            return self
        return _mul_const(self, c.numerator, c.denominator)

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
        return _negated(self)

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
            return RatFunc(self.vars, val.raw_new(den, num) ** -n)
        if self._fac is None:
            return RatFunc(self.vars, val ** n)
        content, exps = self._fac
        return RatFunc(self.vars, val ** n, _registry(self.vars).pair(
            content ** n, [e * n for e in exps]))

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
        return _diff(self, self.vars.index(name))

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
