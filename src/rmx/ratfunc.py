"""Exact multivariate rational functions over Q.

RatFunc is the coefficient field for every truncated object in the
package.  The wrapper adds variable-set unification, substitution of a
variable by another rational function, and a deterministic serialization.

Representation.  A value without variables is a ``fractions.Fraction``.  A
value N/D over a sorted tuple of variables is held once, as

* its numerator N, a polynomial with integer coefficients in the sympy
  ``PolyRing`` over ZZ with graded-lex order for that tuple, and
* its denominator's factorization, a pair ``(c, (e_0, e_1, ...))`` meaning
  D = c * p_0^e_0 * p_1^e_1 * ..., where c is a positive integer and p_i is
  the i-th factor in the registry of that tuple.

Each tuple of variables keeps a registry of the irreducible denominator
factors met over it: primitive integer polynomials with a positive
graded-lex leading coefficient, appended as they are found and never
removed.  In the R-matrix computations these are a few monomials and
binomials such as ``1 - z``, ``u - v`` and ``u*v - 1``.

Canonical form.  Every value is kept with

* N and D having no common polynomial factor,
* the integer coefficients of N and D together having gcd 1, and
* the leading coefficient of D under graded-lex order positive (it is,
  since c and every factor's leading coefficient are positive);

zero is 0/1.  This pair is unique for each rational function, and so is
its factorization over a registry, so equality is structural.  It is
exactly the form sympy's ``cancel`` returns.  The expanded denominator is
built only where it is needed: by ``denom_terms`` (and through it ``repr``,
``to_data`` and failure witnesses), by ``hash`` and as the numerator of a
reciprocal.  ``denom_is_monomial`` and ``remove_denominator_factor`` read
the factorization.  Integers read out of the ring are converted with
``int``: sympy's ZZ may use gmpy2's or flint's integer type, which would
otherwise leak into ``Fraction``s and serialized data.

No operation reduces by a polynomial gcd.  Each cancels by exact trial
division against the registry's factors only, then divides out the joint
integer content:

* N1/D1 + N2/D2: the common denominator takes the larger exponent of each
  factor.  Only a factor with the same positive exponent on both sides is
  tried: where the exponents differ, the new numerator is a unit times the
  other side's numerator modulo that factor, which it does not divide.
* N1/D1 * N2/D2: N1 is tried against the factors of D2 that D1 lacks, and
  N2 against those of D1 that D2 lacks; exponents add.
* d/dx of N/(c * prod p^e): with R the product of the factors that contain
  x, it is (N' R - N sum e p' R/p) / (c prod p^e R).  No factor of R divides
  that numerator, so only the factors free of x are tried.
* a / b is a times the reciprocal of b = N/D, which is D/N with the sign
  moved so that the new denominator's leading coefficient is positive.  N
  is split by trial division against the registry; what is left, if it is
  not a constant, has a factor the registry does not hold, and only then is
  it split by sympy's ``factor_list``, whose factors join the registry.
  Negative powers, ``subs_var`` and ``from_data`` divide this way; nothing
  else factors.
* An ``int`` or ``Fraction`` operand is not lifted to the variables.  A
  product with it rescales the numerator and the content; a sum adds it as
  the value p/q over the same variables, which has no factors, so only the
  joint content can cancel.
* Multiplying by a constant, negation, a positive power and moving to a
  larger or smaller variable tuple (``lift``, ``trim``) only rescale the
  numerator and the content, multiply exponents, or map factors into the
  other registry; none of them changes a graded-lex leading term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from sympy import ZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring as _mkring

__all__ = ["RatFunc"]


@lru_cache(maxsize=None)
def _ring_for(names: tuple):
    if not names:
        raise ValueError("constants have no ring; they are Fractions")
    return _mkring(",".join(names), ZZ, grlex)[0]


def _moved(poly, ring, pos):
    """``poly`` in ``ring``, where its variable i is ``ring``'s variable
    ``pos[i]``; a variable with no position must not occur in ``poly``."""
    nvars = len(ring.gens)
    data = {}
    for monom, coeff in poly.items():
        m2 = [0] * nvars
        for i, e in enumerate(monom):
            if e:
                m2[pos[i]] = e
        data[tuple(m2)] = coeff
    return ring.dtype(data)


# -- integer polynomial helpers -----------------------------------------

def _content(poly, g=0):
    """gcd of ``g`` and the coefficients of ``poly``; stops early at 1."""
    for c in poly.values():
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _scale(poly, mul, div=1):
    """``poly * mul / div`` for integers ``mul``, ``div`` with exact quotients."""
    if mul == div:
        return poly
    if div == 1:
        return poly.ring.dtype({m: c * mul for m, c in poly.items()})
    return poly.ring.dtype({m: c * mul // div for m, c in poly.items()})


def _quotient(f, p):
    """``f / p`` if ``p`` divides ``f``, else None.

    ``p`` is primitive, so by Gauss's lemma an exact quotient has integer
    coefficients too; the division stops at the first leading term that
    ``p``'s does not divide over Z.
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
    lc = p[lm]
    tail = [(m, c) for m, c in p.items() if m != lm]
    rem = dict(f)
    q = {}
    while rem:
        m = lead(rem)
        qm = mdiv(m, lm)
        if qm is None:
            return None
        c, r = divmod(rem.pop(m), lc)
        if r:
            return None
        q[qm] = c
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


def _cancel(num, p, e):
    """Divide ``num`` by ``p`` as often as ``p`` divides it, at most ``e``
    times.  Returns the new ``(num, e)``."""
    while e:
        q = _quotient(num, p)
        if q is None:
            break
        num, e = q, e - 1
    return num, e


def _padded(exps, n):
    return list(exps) + [0] * (n - len(exps))


class _Registry:
    """The irreducible denominator factors met over one variable tuple,
    append-only, and the interned factorization pairs that index into them."""

    __slots__ = ("ring", "factors", "pairs", "moves")

    def __init__(self, names):
        self.ring = _ring_for(names)
        self.factors = []   # primitive, irreducible, positive leading coeff
        self.pairs = {}     # (content, exponents) -> itself
        self.moves = {}     # source names -> {source index: our index}

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

    def expand(self, pair):
        """The denominator that ``pair`` describes, multiplied out."""
        content, exps = pair
        return _times(self.ring.ground_new(content), self.factors, exps)

    def factorize(self, den):
        """The pair of ``den``, a nonzero polynomial with a positive leading
        coefficient; ValueError if its content is not positive."""
        exps = []
        for p in self.factors:
            e = 0
            while not den.is_ground:
                q = _quotient(den, p)
                if q is None:
                    break
                den, e = q, e + 1
            exps.append(e)
        content = int(den.LC)
        if not den.is_ground:
            # what is left has a factor the registry does not hold
            content, parts = den.factor_list()
            content = int(content)
            for poly, k in parts:
                if poly.LC < 0:
                    poly, content = -poly, content * (-1) ** k
                i = self.index(poly)
                exps += [0] * (i + 1 - len(exps))
                exps[i] += k
        if content <= 0:
            raise ValueError(
                f"denominator is not canonical: its content is {content}")
        return self.pair(content, exps)

    def moved(self, pair, src, pos):
        """``pair`` from the registry over ``src`` brought into this one;
        ``src``'s variable i is our variable ``pos[i]``, and every factor
        ``pair`` uses contains only variables with a position."""
        content, exps = pair
        where = self.moves.setdefault(src, {})
        factors = _registry(src).factors
        out = []
        for i, e in enumerate(exps):
            if e:
                j = where.get(i)
                if j is None:
                    j = where[i] = self.index(_moved(factors[i], self.ring,
                                                     pos))
                out += [0] * (j + 1 - len(out))
                out[j] = e
        return self.pair(content, out)


@lru_cache(maxsize=None)
def _registry(names: tuple) -> _Registry:
    return _Registry(names)


# -- arithmetic on values with the same variables ------------------------

def _const_in(names, c: Fraction):
    """The constant ``c`` as a value over ``names``."""
    return RatFunc(names, _ring_for(names).ground_new(c.numerator),
                   _registry(names).pair(c.denominator, ()))


def _zero(names):
    return _const_in(names, Fraction(0))


def _finish(names, reg, num, content, exps):
    """The value num / (content * prod p**exps) over ``reg``'s factors, after
    dividing out the joint integer content."""
    g = _content(num, content)
    if g != 1:
        num, content = _scale(num, 1, g), content // g
    return RatFunc(names, num, reg.pair(content, exps))


def _mul_const(a, p: int, q: int):
    """a * p/q with gcd(p, q) = 1, q > 0 and a, p nonzero.

    With a = N/(c * prod), the product p*N / (q*c * prod) is reduced over
    Q[x]; since gcd(p, q) = 1 and gcd(cont N, c) = 1, its joint integer
    content is gcd(p, c) * gcd(q, cont N).
    """
    content, exps = a._fac
    g_p = gcd(p, content)
    g_q = _content(a._num, q) if q != 1 else 1
    return RatFunc(a.vars, _scale(a._num, p // g_p, g_q),
                   _registry(a.vars).pair(content // g_p * (q // g_q), exps))


def _is_const(a) -> bool:
    return a._num.is_ground and not a._fac[1]


def _mul(a, b):
    if not a._num or not b._num:
        return _zero(a.vars)
    if _is_const(b):
        return _mul_const(a, int(b._num.LC), b._fac[0])
    if _is_const(a):
        return _mul_const(b, int(a._num.LC), a._fac[0])
    return _mul_fractions(a, b)


def _mul_fractions(a, b):
    """a * b: each numerator is tried against the other side's factors that
    its own denominator lacks."""
    c1, ea = a._fac
    c2, eb = b._fac
    n = max(len(ea), len(eb))
    ea, eb = _padded(ea, n), _padded(eb, n)
    reg = _registry(a.vars)
    num1, num2 = a._num, b._num
    for i, p in enumerate(reg.factors[:n]):
        if eb[i] and not ea[i]:
            num1, eb[i] = _cancel(num1, p, eb[i])
        elif ea[i] and not eb[i]:
            num2, ea[i] = _cancel(num2, p, ea[i])
    return _finish(a.vars, reg, num1 * num2, c1 * c2,
                   [x + y for x, y in zip(ea, eb)])


def _add(a, b):
    """a + b over the common denominator with the larger exponent of each
    factor; only factors with equal exponents on both sides can cancel."""
    if not b._num:
        return a
    if not a._num:
        return b
    c1, ea = a._fac
    c2, eb = b._fac
    n = max(len(ea), len(eb))
    ea, eb = _padded(ea, n), _padded(eb, n)
    reg = _registry(a.vars)
    factors = reg.factors
    content = c1 // gcd(c1, c2) * c2
    up_a = [max(y - x, 0) for x, y in zip(ea, eb)]
    up_b = [max(x - y, 0) for x, y in zip(ea, eb)]
    num = _scale(_times(a._num, factors, up_a), content // c1) \
        + _scale(_times(b._num, factors, up_b), content // c2)
    if not num:
        return _zero(a.vars)
    exps = [max(x, y) for x, y in zip(ea, eb)]
    for i, p in enumerate(factors[:n]):
        if ea[i] and ea[i] == eb[i]:
            num, exps[i] = _cancel(num, p, exps[i])
    return _finish(a.vars, reg, num, content, exps)


def _diff(a, i):
    """The derivative of a by its ``i``-th variable."""
    content, exps = a._fac
    reg = _registry(a.vars)
    factors = reg.factors
    num = a._num
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
        return _zero(a.vars)
    exps = [e + r for e, r in zip(exps, in_r)]
    for k, p in enumerate(factors[:len(exps)]):
        if exps[k] and not in_r[k]:
            new, exps[k] = _cancel(new, p, exps[k])
    return _finish(a.vars, reg, new, content, exps)


class RatFunc:
    """A reduced fraction of multivariate polynomials over Q.

    Immutable.  ``vars`` is the sorted tuple of variable names; a value
    with ``vars == ()`` is a plain rational constant (stored as
    ``fractions.Fraction``), which keeps scalar-heavy computations off
    the polynomial path.
    """

    __slots__ = ("vars", "_num", "_fac")

    def __init__(self, names, num, fac=None):
        self.vars = tuple(names)
        self._num = num     # the numerator, or the Fraction of a constant
        self._fac = fac     # the denominator's (content, exponents)

    def _den(self):
        """The expanded denominator."""
        return _registry(self.vars).expand(self._fac)

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc((), Fraction(c))

    @staticmethod
    def var(name: str) -> "RatFunc":
        names = (name,)
        return RatFunc(names, _ring_for(names).gens[0],
                       _registry(names).pair(1, ()))

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc((), Fraction(0))

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc((), Fraction(1))

    # -- unification --------------------------------------------------

    def lift(self, names) -> "RatFunc":
        """Return self viewed over the variables ``names``."""
        names = tuple(names)
        if names == self.vars:
            return self
        if not names:
            return RatFunc((), self.as_fraction())
        if not self.vars:
            return _const_in(names, self._num)
        # ``names`` is sorted and contains self.vars, so the embedding keeps
        # the variable order and with it the graded-lex leading terms.
        pos = [names.index(v) for v in self.vars]
        return RatFunc(names, _moved(self._num, _ring_for(names), pos),
                       _registry(names).moved(self._fac, self.vars, pos))

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
        factors = _registry(self.vars).factors
        used = set()
        for poly in [self._num] + [factors[i]
                                   for i, e in enumerate(self._fac[1]) if e]:
            for monom in poly:
                used.update(i for i, e in enumerate(monom) if e)
        if len(used) == len(self.vars):
            return self
        if not used:
            return RatFunc((), self.as_fraction())
        names = tuple(v for i, v in enumerate(self.vars) if i in used)
        pos = [names.index(v) if v in names else None for v in self.vars]
        return RatFunc(names, _moved(self._num, _ring_for(names), pos),
                       _registry(names).moved(self._fac, self.vars, pos))

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        return self._num == 1 and self._fac in (None, (1, ()))

    def is_constant(self) -> bool:
        return not self.vars or _is_const(self)

    def as_fraction(self) -> Fraction:
        if not self.vars:
            return self._num
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(int(self._num.LC), self._fac[0])

    # -- arithmetic ---------------------------------------------------

    def _plus(self, c: Fraction) -> "RatFunc":
        if not self.vars:
            return RatFunc((), self._num + c)
        return _add(self, _const_in(self.vars, c))

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return self._plus(Fraction(other))
        if not other.vars:
            return self._plus(other._num)
        if not self.vars:
            return other._plus(self._num)
        a, b = self._unify(other)
        return _add(a, b)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            return self._plus(-Fraction(other))
        return self + -other

    def __rsub__(self, other):
        return (-self)._plus(Fraction(other))

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return self._scaled(Fraction(other))
        if not other.vars:
            return self._scaled(other._num)
        if not self.vars:
            return other._scaled(self._num)
        a, b = self._unify(other)
        return _mul(a, b)

    __rmul__ = __mul__

    def _scaled(self, c: Fraction) -> "RatFunc":
        if not self.vars:
            return RatFunc((), self._num * c)
        if not c:
            return _zero(self.vars)
        if not self._num:
            return self
        return _mul_const(self, c.numerator, c.denominator)

    def _reciprocal(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        if not self.vars:
            return RatFunc((), 1 / self._num)
        reg = _registry(self.vars)
        num, den = self._num, reg.expand(self._fac)
        if num.LC < 0:
            num, den = -num, -den
        return RatFunc(self.vars, den, reg.factorize(num))

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc.const(other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __neg__(self):
        return RatFunc(self.vars, -self._num, self._fac)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("only integer powers")
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return self._reciprocal() ** -n
        if not self.vars:
            return RatFunc((), self._num ** n)
        if n == 0:
            return _const_in(self.vars, Fraction(1))
        content, exps = self._fac
        return RatFunc(self.vars, self._num ** n, _registry(self.vars).pair(
            content ** n, [e * n for e in exps]))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if isinstance(other, (int, Fraction)):
                other = RatFunc.const(other)
            else:
                return NotImplemented
        a, b = self._unify(other)
        return a._num == b._num and a._fac == b._fac

    def __hash__(self):
        t = self.trim()
        if not t.vars:
            return hash(t._num)
        return hash((t.vars, tuple(t._num.terms()), tuple(t._den().terms())))

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
        idx = self.vars.index(name)
        powers = {0: RatFunc.one()}

        def eval_poly(poly):
            acc = RatFunc.zero()
            for monom, coeff in poly.terms():
                term = RatFunc.const(int(coeff))
                for v, e in zip(self.vars, monom):
                    if v == name or e == 0:
                        continue
                    term = term * RatFunc.var(v) ** e
                e = monom[idx]
                if e not in powers:
                    powers[e] = value ** e
                acc = acc + term * powers[e]
            return acc

        # the denominator vanishes iff one of its factors does
        content, exps = self._fac
        out = eval_poly(self._num) * Fraction(1, content)
        for p, e in zip(_registry(self.vars).factors, exps):
            if e:
                d = eval_poly(p)
                if d.is_zero():
                    raise ZeroDivisionError(
                        f"substitution {name} -> {value} annihilates a "
                        "denominator")
                out = out * d ** -e
        return out.trim()

    # -- structure inspection -----------------------------------------

    def numer_terms(self):
        """Deterministic (monomial-dict, Fraction) view of the numerator."""
        if not self.vars:
            return [({}, self._num)] if self._num else []
        return self._poly_terms(self._num)

    def denom_terms(self):
        if not self.vars:
            return [({}, Fraction(1))]
        return self._poly_terms(self._den())

    def _poly_terms(self, poly):
        out = []
        for monom, coeff in sorted(poly.terms()):
            md = {v: e for v, e in zip(self.vars, monom) if e}
            out.append((md, Fraction(int(coeff))))
        return out

    def denom_is_monomial(self) -> bool:
        """True iff the reduced denominator is a single term c*prod(v^e)."""
        if not self.vars:
            return True
        factors = _registry(self.vars).factors
        return all(len(factors[i]) == 1
                   for i, e in enumerate(self._fac[1]) if e)

    def denom_monomial_exponent(self, name: str) -> int:
        """Exponent of ``name`` in a monomial denominator."""
        terms = self.denom_terms()
        if len(terms) != 1:
            raise ValueError("denominator is not a monomial")
        return terms[0][0].get(name, 0)

    def remove_denominator_factor(self, factor: "RatFunc"):
        """Return (k, rest) with self = rest / factor^k and factor not dividing
        rest's denominator."""
        if not self.vars:
            return 0, self
        f = factor.lift(self.vars)
        if f._fac != (1, ()) or f._num.is_ground:
            raise ValueError("factor must be a non-constant polynomial with "
                             f"integer coefficients: {factor}")
        fp = f._num
        sign = -1 if fp.LC < 0 else 1
        reg = _registry(self.vars)
        unit, mult = reg.factorize(fp * sign)
        content, exps = self._fac
        n = max(len(exps), len(mult))
        exps, mult = _padded(exps, n), _padded(mult, n)
        k = min(e // m for e, m in zip(exps, mult) if m)
        if not k:
            return 0, self
        rest = RatFunc(self.vars, self._num, reg.pair(
            content, [e - k * m for e, m in zip(exps, mult)]))
        return k, rest._scaled(Fraction((sign * unit) ** k))

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
