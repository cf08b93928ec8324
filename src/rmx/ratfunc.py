"""Exact multivariate rational functions over Q.

RatFunc is the coefficient field for every truncated object in the
package.  The wrapper adds variable-set unification, substitution of a
variable by another rational function, and a deterministic serialization.

Representation.  A value without variables is a ``fractions.Fraction``.  A
value N/D over a sorted tuple of variables is held once, as

* its numerator N, a polynomial with integer coefficients: a plain ``dict``
  from packed monomial to nonzero ``int`` coefficient (see below), and
* its denominator's factorization, a pair ``(c, (e_0, e_1, ...))`` meaning
  D = c * p_0^e_0 * p_1^e_1 * ..., where c is a positive integer and p_i is
  the i-th factor in the registry of that tuple.

Packed monomials (Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  A monomial in n
variables is one ``int`` whose 16-bit fields run [total degree | e_0 | e_1
| ... | e_{n-1}] from the most significant down.  The product of two
monomials is the sum of their ints, and graded-lex order (total degree
first, then lexicographic with the first variable most significant) is the
order of the ints.  The top bit of each field is a guard: a quotient m - l
is a monomial exactly when no guard bit of the difference is set.  A
product or power whose total degree would reach 2^15 raises ValueError
instead of wrapping into the next field.

Each tuple of variables keeps a registry of the irreducible denominator
factors met over it: primitive integer polynomials with a positive
graded-lex leading coefficient, appended as they are found and never
removed.  In the R-matrix computations these are a few monomials and
binomials such as ``1 - z``, ``u - v`` and ``u*v - 1``.  The registry also
forms each power p_i^e (e >= 2) that a sum or an expansion uses once, and
keeps it.

Canonical form.  Every value is kept with

* N and D having no common polynomial factor,
* the integer coefficients of N and D together having gcd 1, and
* the leading coefficient of D under graded-lex order positive (it is,
  since c and every factor's leading coefficient are positive);

zero is 0/1.  This pair is unique for each rational function, and so is
its factorization over a registry, so equality and hashing are structural.
It is exactly the form sympy's ``cancel`` returns.  The expanded
denominator is built only where it is needed: by ``denom_terms`` (and
through it ``repr``, ``to_data`` and failure witnesses) and as the
numerator of a reciprocal.  ``denom_is_monomial``,
``denom_is_monomial_in`` and ``remove_denominator_factor`` read the
factorization.

No operation reduces by a polynomial gcd.  Each cancels by exact trial
division against the registry's factors only, then divides out the joint
integer content:

* N1/D1 + N2/D2: the common denominator takes the larger exponent of each
  factor.  Equal exponent tuples go straight to one scaled numerator sum;
  otherwise one walk of the two tuples multiplies, at each factor whose
  exponents differ, only the lower side's numerator, by the registry's
  power of that factor for the difference.  Only a factor with the same
  positive exponent on both sides is tried: where the exponents differ,
  the new numerator is a unit times the other side's numerator modulo that
  factor, which it does not divide.
* N1/D1 * N2/D2: one walk of the two exponent tuples tries N1 against the
  factors of D2 that D1 lacks, and N2 against those of D1 that D2 lacks;
  exponents add.
* d/dx of N/(c * prod p^e): one walk of the exponents collects the factors
  that contain x, building their product R and S = sum e p' R/p one factor
  at a time; the result is (N' R - N S) / (c prod p^e R).  No factor of R
  divides that numerator, so only the factors free of x are tried.
* a / b is a times the reciprocal of b = N/D, which is D/N with the sign
  moved so that the new denominator's leading coefficient is positive.  N
  is split by trial division against the registry; what is left, if it is
  not a constant, has factors the registry does not hold.  Three exact
  rules split it: a monomial splits into its variables; a polynomial in
  one variable gives up its rational roots, and a leftover of degree 2 or
  3 with no rational root is irreducible; a primitive polynomial of degree
  1 in some variable whose coefficient of that variable's first or zeroth
  power is an integer is irreducible.  Only what these rules cannot settle
  is split by sympy's ``factor_list``, imported there and nowhere else, so
  sympy is the fallback for factorization (and the oracle of the tests),
  not a dependency of the arithmetic.  New factors join the registry.
  Negative powers and the term-by-term substitution divide this way, and
  ``substitution`` factors A - B below; nothing else factors.
* ``substitution`` of X by a nonconstant Laurent monomial A/B with
  coefficient 1, which ``subs_var`` uses for such values, maps two shapes
  by packed exponents: p(X)/(c (X-1)^r) over X alone goes to
  s^r p~ B^(r-d) / (c (s (A-B))^r), p~ = B^d p(A/B) and d the degree of p,
  with no trial division (``_MonomialImage`` says why); a polynomial over
  a larger tuple, when B = 1, maps each term p X^e rest to p rest A^e.
  Every other coefficient, and every other value, 0 and 1 included, is
  substituted term by term, by arithmetic on rational functions.
* ``pole_at_one`` writes p(X)/(c (X-1)^r) over X alone from integer
  coefficients that its caller, the Q[w, 1/w] kernel of ``rmatrix``, has
  already put in canonical form; it divides nothing.
* An ``int`` or ``Fraction`` operand is not lifted to the variables.  A
  product with it rescales the numerator and the content; a sum adds it as
  the value p/q over the same variables, which has no factors, so only the
  joint content can cancel.
* Multiplying by a constant, negation, a positive power and moving to a
  larger or smaller variable tuple (``lift``, ``trim``) only rescale the
  numerator and the content, multiply exponents, or map factors into the
  other registry; none of them changes a graded-lex leading term.

The memo of sums and products.  In the operator products of the R-matrix
and state checks, most sums and products of values with variables repeat
one already computed.  So ``+`` and ``*`` of two values that both have
variables (``-`` too, as a sum with the negation) are computed once per pair
of operand values:

* A value's key is (variables, numerator items, denominator pair).
  Canonical form makes it unique: two values over the same variables are
  equal exactly when their keys are.  The variables belong in the key,
  since a packed monomial and a factor's index mean something only over
  its tuple.  The key is formed the first time the value reaches ``+``,
  ``*`` or ``hash`` and cached on its ``_key`` slot, so hashing and the
  memo share it.
* The sum table and the product table map the pair of the two operands'
  keys, taken before the operands are moved to their common variables, to
  the result.  An entry holds the keys and the result, not the operands.
* A sum or product with an ``int``, a ``Fraction`` or a value without
  variables takes the constant paths above and is not memoised; caching
  those gains nothing measurable.  Nor are quotients, powers, derivatives
  or substitutions.
* The tables last for the whole process, shared by every check run in it.
  When one of them reaches ``_MEMO_BOUND`` (131,072) entries, both are
  emptied together.  Threads that race on the tables can compute a result
  twice, but an entry never pairs a key with a wrong result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, isqrt

__all__ = ["RatFunc"]


# -- packed monomials ----------------------------------------------------

FIELD_BITS = 16
_FIELD = (1 << FIELD_BITS) - 1
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1


class _Packing:
    """Packed monomials in ``n`` variables: field shifts, the guard mask and
    the generators (each with its total-degree bit)."""

    __slots__ = ("shifts", "top", "limit", "guards", "gens")

    def __init__(self, n):
        self.top = n * FIELD_BITS
        self.shifts = tuple((n - 1 - i) * FIELD_BITS for i in range(n))
        # the smallest int whose total degree exceeds MAX_DEGREE
        self.limit = (MAX_DEGREE + 1) << self.top
        guard = 1 << (FIELD_BITS - 1)
        self.guards = sum(guard << (k * FIELD_BITS) for k in range(n + 1))
        self.gens = tuple((1 << self.top) | (1 << s) for s in self.shifts)

    def pack(self, exps) -> int:
        """The packed monomial of the exponent vector ``exps``."""
        deg = sum(exps)
        if min(exps, default=0) < 0 or deg > MAX_DEGREE:
            raise ValueError(f"monomial exponents {tuple(exps)} do not fit "
                             f"a packed field (total degree at most "
                             f"{MAX_DEGREE})")
        m = deg << self.top
        for e, s in zip(exps, self.shifts):
            m |= e << s
        return m

    def unpack(self, m) -> tuple:
        return tuple((m >> s) & _FIELD for s in self.shifts)


@lru_cache(maxsize=None)
def _packing(n: int) -> _Packing:
    if not n:
        raise ValueError("constants have no monomials; they are Fractions")
    return _Packing(n)


def _overflow(m, pk):
    return ValueError(f"exponent overflow: total degree {m >> pk.top} does "
                      f"not fit a packed field (at most {MAX_DEGREE})")


def _fits(poly, reg):
    """``poly``, over ``reg``'s packing; ValueError if a total degree
    overflowed its field."""
    if poly and max(poly) >= reg.pk.limit:
        raise _overflow(max(poly), reg.pk)
    return poly


def _moved(poly, src, dst, pos):
    """``poly`` over packing ``src`` moved to packing ``dst``, where its
    variable i is ``dst``'s variable ``pos[i]``; a variable with no position
    must not occur in ``poly``.  The total degree is kept."""
    pairs = [(s, dst.shifts[p]) for s, p in zip(src.shifts, pos)
             if p is not None]
    out = {}
    for m, c in poly.items():
        m2 = (m >> src.top) << dst.top
        for s, d in pairs:
            m2 |= ((m >> s) & _FIELD) << d
        out[m2] = c
    return out


# -- integer polynomials: dict packed monomial -> nonzero int ------------

def _is_ground(f) -> bool:
    return not f or (len(f) == 1 and 0 in f)


def _lc(f) -> int:
    """The graded-lex leading coefficient of a nonzero ``f``."""
    return f[max(f)]


def _neg(f):
    return {m: -c for m, c in f.items()}


def _add_polys(f, g, sign=1):
    """``f + sign * g``."""
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, 0) + sign * c
        if v:
            out[m] = v
        else:
            del out[m]
    return out


def _mul_polys(f, g, pk):
    """``f * g``; ValueError if the product's degree overflows a field."""
    if not f or not g:
        return {}
    if max(f) + max(g) >= pk.limit:
        raise _overflow(max(f) + max(g), pk)
    if len(f) > len(g):
        f, g = g, f
    if len(f) == 1:
        (m1, c1), = f.items()
        return {m1 + m: c1 * c for m, c in g.items()}
    out = {}
    get = out.get
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _pow_poly(f, n, pk):
    """``f ** n`` for ``n >= 1``."""
    if max(f) * n >= pk.limit:
        raise _overflow(max(f) * n, pk)
    if len(f) == 1:
        (m, c), = f.items()
        return {m * n: c ** n}
    out = None
    while True:
        if n & 1:
            out = f if out is None else _mul_polys(out, f, pk)
        n >>= 1
        if not n:
            return out
        f = _mul_polys(f, f, pk)


def _diff_poly(f, i, pk):
    """The derivative of ``f`` by its ``i``-th variable."""
    s, gen = pk.shifts[i], pk.gens[i]
    out = {}
    for m, c in f.items():
        e = (m >> s) & _FIELD
        if e:
            out[m - gen] = c * e
    return out


def _degree(f, i, pk) -> int:
    s = pk.shifts[i]
    return max(((m >> s) & _FIELD for m in f), default=0)


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
        return {m: c * mul for m, c in poly.items()}
    return {m: c * mul // div for m, c in poly.items()}


def _quotient(f, p, pk):
    """``f / p`` if ``p`` divides ``f``, else None.

    ``p`` is primitive, so by Gauss's lemma an exact quotient has integer
    coefficients too; the division stops at the first leading term that
    ``p``'s does not divide over Z.
    """
    guards = pk.guards
    if len(p) == 1:
        # an irreducible monomial is a variable: shift every exponent
        lm, = p
        q = {}
        for m, c in f.items():
            qm = m - lm
            if qm & guards:
                return None
            q[qm] = c
        return q
    lm = max(p)
    lc = p[lm]
    tail = [(m, c) for m, c in p.items() if m != lm]
    rem = dict(f)
    q = {}
    while rem:
        m = max(rem)
        qm = m - lm
        if qm & guards:
            return None
        c, r = divmod(rem.pop(m), lc)
        if r:
            return None
        q[qm] = c
        for pm, pc in tail:
            km = pm + qm
            v = rem.get(km, 0) - pc * c
            if v:
                rem[km] = v
            else:
                del rem[km]
    return q


def _cancel(num, p, e, pk):
    """Divide ``num`` by ``p`` as often as ``p`` divides it, at most ``e``
    times.  Returns the new ``(num, e)``."""
    while e:
        q = _quotient(num, p, pk)
        if q is None:
            break
        num, e = q, e - 1
    return num, e


# -- splitting a new denominator into irreducible factors ---------------

# Rational roots are searched only among the divisors of coefficients up to
# this size; a larger one sends the polynomial to the fallback.
_ROOT_SEARCH = 10 ** 8


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if not n % d]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(coeffs):
    """The candidate roots p/q, as coprime pairs with q > 0, of the integer
    polynomial sum coeffs[k] x^k (nonzero constant and leading terms), or
    None if a coefficient is too large to search."""
    a0, an = coeffs[0], coeffs[-1]
    if abs(a0) > _ROOT_SEARCH or abs(an) > _ROOT_SEARCH:
        return None
    found = []
    for q in _divisors(an):
        for p in _divisors(a0):
            if gcd(p, q) != 1:
                continue
            for sp in (p, -p):
                # q^n f(sp/q) = sum a_k sp^k q^(n-k)
                if not sum(a * sp ** k * q ** (len(coeffs) - 1 - k)
                           for k, a in enumerate(coeffs)):
                    found.append((sp, q))
    return found


def _split_univariate(f, i, pk):
    """Irreducible factors of a primitive ``f`` in the ``i``-th variable
    only, with positive leading coefficients, as a list of (factor, k), and
    the part left for the fallback (or None)."""
    s = pk.shifts[i]
    deg = _degree(f, i, pk)
    coeffs = [0] * (deg + 1)
    for m, c in f.items():
        coeffs[(m >> s) & _FIELD] = c
    roots = _rational_roots(coeffs)
    if roots is None:
        return [], f
    parts = []
    for p, q in roots:
        linear = {pk.gens[i]: q, 0: -p}
        f, k = _cancel(f, linear, deg, pk)
        parts.append((linear, deg - k))
        deg = _degree(f, i, pk)
    if deg == 0:
        return parts, None
    if deg <= 3:
        # no rational root left, so no linear factor: irreducible
        return parts + [(f, 1)], None
    return parts, f


def _linear_with_integer_coefficient(f, used, pk) -> bool:
    """True iff ``f`` has degree 1 in some variable x and, writing f = a*x
    + b, ``a`` is an integer or ``b`` is a nonzero integer."""
    for i in used:
        if _degree(f, i, pk) != 1:
            continue
        s, gen = pk.shifts[i], pk.gens[i]
        first = [m for m in f if (m >> s) & _FIELD]
        zeroth = [m for m in f if not (m >> s) & _FIELD]
        if first == [gen] or zeroth == [0]:
            return True
    return False


def _factor_by_sympy(f, names, pk):
    """sympy's ``factor_list`` of ``f``: (content, [(factor, k)])."""
    from sympy import ZZ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import ring

    r = ring(",".join(names), ZZ, grlex)[0]
    content, parts = r.from_dict({pk.unpack(m): c
                                  for m, c in f.items()}).factor_list()
    return int(content), [({pk.pack(e): int(c) for e, c in poly.items()}, k)
                          for poly, k in parts]


def _split(f, names, pk):
    """(content, [(factor, k)]) with f = content * prod factor**k, each
    factor primitive, irreducible and with a positive leading coefficient;
    ``f`` is not a constant."""
    parts = []
    # a monomial factor splits into its variables
    for i, s in enumerate(pk.shifts):
        e = min((m >> s) & _FIELD for m in f)
        if e:
            shift = e * pk.gens[i]
            f = {m - shift: c for m, c in f.items()}
            parts.append(({pk.gens[i]: 1}, e))
    content = _content(f)
    if _lc(f) < 0:
        content = -content
    f = _scale(f, 1, content)
    if _is_ground(f):
        return content, parts
    acc = 0
    for m in f:
        acc |= m
    used = [i for i, s in enumerate(pk.shifts) if (acc >> s) & _FIELD]
    rest = f
    if len(used) == 1:
        found, rest = _split_univariate(f, used[0], pk)
        parts += found
    elif _linear_with_integer_coefficient(f, used, pk):
        parts.append((f, 1))
        rest = None
    if rest is not None:
        unit, found = _factor_by_sympy(rest, names, pk)
        for poly, k in found:
            if _lc(poly) < 0:
                poly, unit = _neg(poly), unit * (-1) ** k
            parts.append((poly, k))
        content *= unit
    return content, parts


class _Registry:
    """The irreducible denominator factors met over one variable tuple,
    append-only, their powers that have been used, each formed once, and
    the interned factorization pairs that index into the factors."""

    __slots__ = ("names", "pk", "factors", "powers", "pairs", "moves")

    def __init__(self, names):
        self.names = names
        self.pk = _packing(len(names))
        self.factors = []   # primitive, irreducible, positive leading coeff
        self.powers = {}    # (index, exponent >= 2) -> that factor's power
        self.pairs = {}     # (content, exponents) -> itself
        self.moves = {}     # source names -> {source index: our index}

    def power(self, i, e):
        """Factor ``i`` to the power ``e`` >= 1, shared: never mutate it."""
        if e == 1:
            return self.factors[i]
        p = self.powers.get((i, e))
        if p is None:
            p = self.powers[i, e] = _pow_poly(self.factors[i], e, self.pk)
        return p

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
        out = {0: content}
        for i, e in enumerate(exps):
            if e:
                out = _mul_polys(out, self.power(i, e), self.pk)
        return out

    def factorize(self, den):
        """The pair of ``den``, a nonzero polynomial with a positive leading
        coefficient; ValueError if its content is not positive."""
        exps = []
        for p in self.factors:
            e = 0
            while not _is_ground(den):
                q = _quotient(den, p, self.pk)
                if q is None:
                    break
                den, e = q, e + 1
            exps.append(e)
        if _is_ground(den):
            content = den.get(0, 0)
        else:
            # what is left has factors the registry does not hold
            content, parts = _split(den, self.names, self.pk)
            for poly, k in parts:
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
        source = _registry(src)
        out = []
        for i, e in enumerate(exps):
            if e:
                j = where.get(i)
                if j is None:
                    j = where[i] = self.index(_moved(
                        source.factors[i], source.pk, self.pk, pos))
                out += [0] * (j + 1 - len(out))
                out[j] = e
        return self.pair(content, out)


@lru_cache(maxsize=None)
def _registry(names: tuple) -> _Registry:
    return _Registry(names)


# -- arithmetic on values with the same variables ------------------------

def _const_in(names, c: Fraction):
    """The constant ``c`` as a value over ``names``."""
    return RatFunc(names, {0: c.numerator} if c else {},
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
    """a * p/q with gcd(p, q) = 1, q > 0 and a, p nonzero; a itself for
    p/q = 1, so that the product is not rebuilt and re-interned.

    With a = N/(c * prod), the product p*N / (q*c * prod) is reduced over
    Q[x]; since gcd(p, q) = 1 and gcd(cont N, c) = 1, its joint integer
    content is gcd(p, c) * gcd(q, cont N).
    """
    if p == q == 1:
        return a
    content, exps = a._fac
    g_p = gcd(p, content)
    g_q = _content(a._num, q) if q != 1 else 1
    return RatFunc(a.vars, _scale(a._num, p // g_p, g_q),
                   _registry(a.vars).pair(content // g_p * (q // g_q), exps))


def _is_const(a) -> bool:
    return _is_ground(a._num) and not a._fac[1]


def _mul(a, b):
    if not a._num or not b._num:
        return _zero(a.vars)
    if _is_const(b):
        return _mul_const(a, b._num[0], b._fac[0])
    if _is_const(a):
        return _mul_const(b, a._num[0], a._fac[0])
    return _mul_fractions(a, b)


def _mul_fractions(a, b):
    """a * b: each numerator is tried against the other side's factors that
    its own denominator lacks."""
    c1, ea = a._fac
    c2, eb = b._fac
    reg = _registry(a.vars)
    factors, pk = reg.factors, reg.pk
    num1, num2 = a._num, b._num
    exps = []
    for i, (x, y) in enumerate(zip_longest(ea, eb, fillvalue=0)):
        if not x and y:
            num1, y = _cancel(num1, factors[i], y, pk)
        elif x and not y:
            num2, x = _cancel(num2, factors[i], x, pk)
        exps.append(x + y)
    return _finish(a.vars, reg, _mul_polys(num1, num2, pk), c1 * c2, exps)


def _add(a, b):
    """a + b over the common denominator with the larger exponent of each
    factor; only factors with equal exponents on both sides can cancel."""
    if not b._num:
        return a
    if not a._num:
        return b
    c1, ea = a._fac
    c2, eb = b._fac
    reg = _registry(a.vars)
    pk = reg.pk
    content = c1 // gcd(c1, c2) * c2
    num1, num2 = a._num, b._num
    if ea == eb:
        exps = list(ea)
        tried = range(len(exps))
    else:
        # the side with the lower exponent takes the difference
        exps, tried = [], []
        for i, (x, y) in enumerate(zip_longest(ea, eb, fillvalue=0)):
            if x < y:
                num1 = _mul_polys(num1, reg.power(i, y - x), pk)
            elif y < x:
                num2 = _mul_polys(num2, reg.power(i, x - y), pk)
            elif x:
                tried.append(i)
            exps.append(max(x, y))
    num = _add_polys(_scale(num1, content // c1), _scale(num2, content // c2))
    if not num:
        return _zero(a.vars)
    for i in tried:
        if exps[i]:
            num, exps[i] = _cancel(num, reg.factors[i], exps[i], pk)
    return _finish(a.vars, reg, num, content, exps)


def _diff(a, i):
    """The derivative of a by its ``i``-th variable."""
    content, exps = a._fac
    reg = _registry(a.vars)
    factors, pk = reg.factors, reg.pk
    s = pk.shifts[i]
    # R, the product of the factors p that contain the variable, and
    # S = sum e p' R/p, one such factor at a time (None while R = 1)
    r = sums = None
    free, exps = [], list(exps)
    for k, e in enumerate(exps):
        if not e:
            continue
        p = factors[k]
        if not any((m >> s) & _FIELD for m in p):
            free.append(k)
            continue
        dp = _scale(_diff_poly(p, i, pk), e)
        if r is None:
            r, sums = p, dp
        else:
            sums = _add_polys(_mul_polys(sums, p, pk), _mul_polys(r, dp, pk))
            r = _mul_polys(r, p, pk)
        exps[k] += 1
    # (N' R - N S) / (D R)
    num = a._num
    new = _diff_poly(num, i, pk)
    if r is not None:
        new = _add_polys(_mul_polys(new, r, pk), _mul_polys(num, sums, pk), -1)
    if not new:
        return _zero(a.vars)
    for k in free:
        new, exps[k] = _cancel(new, factors[k], exps[k], pk)
    return _finish(a.vars, reg, new, content, exps)


class _MonomialImage:
    """Substitution of X by a nonconstant Laurent monomial A/B with
    coefficient 1 (A and B coprime monomials, not both 1), by packed
    exponents for the two coefficient shapes that the checks substitute:

    (a) p(X)/(c (X-1)^r), r >= 0, over X alone.  With d the degree of p and
        p~ = B^d p(A/B), which sends each term p_e X^e to p_e A^e B^(d-e),

            p(A/B) / (c (A/B - 1)^r) = s^r p~ B^(r-d) / (c (s (A-B))^r),

        where s makes the leading coefficient of s (A - B) positive, and
        B^(r-d) goes to the denominator, as its variables, when r < d.  No
        two terms of p~ collide, as A != B.  s (A - B) is primitive; it is
        factored over the registry of A/B's variables once per image.  p~
        is divisible by no factor q of A - B, since p~ = B^d p(1) != 0
        where A = B and p(1) != 0 when r > 0, nor by any variable of B,
        since p~ = p_d A^d != 0 where that variable vanishes, so nothing is
        trial-divided.  Nor is the result trimmed: unless it is a constant,
        p~ holds A^d and the denominator (A - B)^r, and B^(r-d) sits on one
        side when r != d.  The joint integer content is divided out.
    (b) a polynomial over a larger tuple, when B = 1: each term p X^e rest
        maps to p rest A^e over the other variables and those of A, summing
        terms that collide.  The image can lose variables, so it is
        trimmed.

    Every other coefficient, with any other denominator factor or over a
    larger tuple when B != 1, goes term by term (``_subs_by_terms``).
    """

    __slots__ = ("name", "value", "a", "b", "shape_a", "moves")

    @staticmethod
    def of(name, value) -> "_MonomialImage | None":
        """The image for X = ``name`` -> ``value`` (trimmed), or None
        unless ``value`` is a nonconstant Laurent monomial with coefficient
        1."""
        if not value.vars or value._fac[0] != 1 or len(value._num) != 1:
            return None
        (a, coeff), = value._num.items()
        reg = _registry(value.vars)
        if coeff != 1 or not all(len(reg.factors[i]) == 1
                                 for i, e in enumerate(value._fac[1]) if e):
            return None
        b = sum(e * next(iter(reg.factors[i]))
                for i, e in enumerate(value._fac[1]) if e)
        return _MonomialImage(name, value, a, b)

    def __init__(self, name, value, a, b):
        self.name, self.value = name, value
        self.a, self.b = a, b   # packed over value.vars
        self.shape_a = None     # shape (a)'s setting, once met
        self.moves = {}         # source tuple -> shape (b)'s setting

    def _set_shape_a(self):
        """Shape (a)'s setting: the index of X - 1 over (X,), s, the
        exponents of s (A - B), and the (index, exponent) of each variable
        of B, over the registry of A/B's variables."""
        reg = _registry(self.value.vars)
        pk = reg.pk
        diff = {self.a: 1, self.b: -1}
        s = 1 if _lc(diff) > 0 else -1
        bvars = [(reg.index({pk.gens[v]: 1}), x)
                 for v, x in enumerate(pk.unpack(self.b)) if x]
        self.shape_a = (_registry((self.name,)).index(_X_MINUS_ONE), s,
                   reg.factorize(_scale(diff, s))[1], bvars)

    def _move(self, src):
        """Shape (b)'s setting for values over ``src``: the target tuple and
        its registry, X's field and generator, the total-degree shifts of
        both packings, the moves of the other fields, and A packed over the
        target."""
        i = src.index(self.name)
        others = src[:i] + src[i + 1:]
        vnames = self.value.vars
        names = tuple(sorted(set(others) | set(vnames)))
        spk, reg = _registry(src).pk, _registry(names)
        pk = reg.pk
        a = self.a
        if names != vnames:
            a, = _moved({a: 1}, _packing(len(vnames)), pk,
                        [names.index(v) for v in vnames])
        move = self.moves[src] = (
            names, reg, spk.shifts[i], spk.gens[i], spk.top, pk.top,
            [(spk.shifts[src.index(v)], pk.shifts[names.index(v)])
             for v in others], a)
        return move

    def __call__(self, c: "RatFunc") -> "RatFunc":
        if self.name not in c.vars:
            return c
        num = c._num
        content, exps = c._fac
        if not exps and (not num or len(num) == 1 and 0 in num):
            return c.trim()     # a constant
        if len(c.vars) == 1:
            if self.shape_a is None:
                self._set_shape_a()
            at = self.shape_a[0]
            if len(exps) <= at + 1 and not any(exps[:at]):
                return self._one_variable(num, content,
                                          exps[at] if exps else 0)
        elif not exps and not self.b:
            return self._polynomial(c.vars, num, content)
        return _subs_by_terms(c, self.name, self.value)

    def _one_variable(self, num, content, r):
        """Shape (a): p(X) = ``num`` over ``content`` (X - 1)^r."""
        _, s, dexps, bvars = self.shape_a
        names = self.value.vars
        reg = _registry(names)
        d = max(num) & _FIELD   # the leading term has the top degree
        k = r - d
        a, b = self.a, self.b
        base, step = (d + max(k, 0)) * b, a - b
        sign = -1 if s < 0 and r & 1 else 1
        num = _fits({base + (m & _FIELD) * step: sign * coeff
                     for m, coeff in num.items()}, reg)
        den = [r * x for x in dexps]
        if k < 0:
            for i, x in bvars:
                den += [0] * (i + 1 - len(den))
                den[i] -= k * x
        return _finish(names, reg, num, content, den)

    def _polynomial(self, src, num, content):
        """Shape (b): ``num`` / ``content`` over ``src``."""
        names, reg, sx, gx, stop, dtop, pairs, a = (self.moves.get(src)
                                                    or self._move(src))
        out = {}
        for m, coeff in num.items():
            e = (m >> sx) & _FIELD
            m -= e * gx
            t = (m >> stop) << dtop
            for s, ds in pairs:
                t |= ((m >> s) & _FIELD) << ds
            t += e * a
            out[t] = out.get(t, 0) + coeff
        if len(out) < len(num):
            out = {m: coeff for m, coeff in out.items() if coeff}
        if not out:
            return RatFunc.zero()
        return _finish(names, reg, _fits(out, reg), content, ()).trim()


def _subs_by_terms(c, name, value):
    """c with ``name`` -> ``value``, an arbitrary RatFunc, by arithmetic on
    rational functions: each term of the numerator and of each denominator
    factor is rebuilt, and each factor's image is inverted."""
    if name not in c.vars:
        return c
    idx = c.vars.index(name)
    powers = {0: RatFunc.one()}
    unpack = _registry(c.vars).pk.unpack

    def eval_poly(poly):
        acc = RatFunc.zero()
        for m, coeff in poly.items():
            monom = unpack(m)
            term = RatFunc.const(coeff)
            for v, e in zip(c.vars, monom):
                if v == name or e == 0:
                    continue
                term = term * RatFunc.var(v) ** e
            e = monom[idx]
            if e not in powers:
                powers[e] = value ** e
            acc = acc + term * powers[e]
        return acc

    # the denominator vanishes iff one of its factors does
    content, exps = c._fac
    out = eval_poly(c._num) * Fraction(1, content)
    for p, e in zip(_registry(c.vars).factors, exps):
        if e:
            d = eval_poly(p)
            if d.is_zero():
                raise ZeroDivisionError(
                    f"substitution {name} -> {value} annihilates a "
                    "denominator")
            out = out * d ** -e
    return out.trim()


# X - 1 over the one variable X, packed
_X_MINUS_ONE = {_packing(1).gens[0]: 1, 0: -1}


# -- the memo of sums and products ---------------------------------------

# Both tables are emptied together when one reaches this many entries; the
# tables of hexagon B1 L=4 end at 118,928 sums and 21,770 products.
_MEMO_BOUND = 131072
_SUMS = {}          # (key of a, key of b) -> a + b
_PRODUCTS = {}      # (key of a, key of b) -> a * b


def _forget():
    """Empty both tables."""
    _SUMS.clear()
    _PRODUCTS.clear()


def _key_of(a):
    """The structural key of ``a``, a canonical value with variables:
    (variables, numerator items, denominator pair), formed once per value."""
    key = a._key
    if key is None:
        key = a._key = (a.vars, frozenset(a._num.items()), a._fac)
    return key


def _memoised(table, kernel, a, b):
    """``kernel`` of ``a`` and ``b``, two values with variables, over their
    common variables, computed once per pair of operand keys."""
    key = (_key_of(a), _key_of(b))
    out = table.get(key)
    if out is None:
        out = kernel(*a._unify(b))
        if len(table) >= _MEMO_BOUND:
            _forget()
        table[key] = out
    return out


class RatFunc:
    """A reduced fraction of multivariate polynomials over Q.

    Immutable.  ``vars`` is the sorted tuple of variable names; a value
    with ``vars == ()`` is a plain rational constant (stored as
    ``fractions.Fraction``), which keeps scalar-heavy computations off
    the polynomial path.
    """

    __slots__ = ("vars", "_num", "_fac", "_key")

    def __init__(self, names, num, fac=None):
        self.vars = tuple(names)
        self._num = num     # the numerator, or the Fraction of a constant
        self._fac = fac     # the denominator's (content, exponents)
        self._key = None    # the structural key, once it is formed

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
        return RatFunc(names, {_packing(1).gens[0]: 1},
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
        return self._over(names, pos)

    def _over(self, names, pos):
        """Self over ``names``, where our variable i is its ``pos[i]``."""
        src, dst = _registry(self.vars), _registry(names)
        return RatFunc(names, _moved(self._num, src.pk, dst.pk, pos),
                       dst.moved(self._fac, self.vars, pos))

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
        reg = _registry(self.vars)
        acc = 0
        for poly in [self._num] + [reg.factors[i]
                                   for i, e in enumerate(self._fac[1]) if e]:
            for m in poly:
                acc |= m
        used = [i for i, s in enumerate(reg.pk.shifts) if (acc >> s) & _FIELD]
        if len(used) == len(self.vars):
            return self
        if not used:
            return RatFunc((), self.as_fraction())
        names = tuple(self.vars[i] for i in used)
        pos = [names.index(v) if v in names else None for v in self.vars]
        return self._over(names, pos)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def is_one(self) -> bool:
        if not self.vars:
            return self._num == 1
        return self._num == {0: 1} and self._fac == (1, ())

    def is_constant(self) -> bool:
        return not self.vars or _is_const(self)

    def as_fraction(self) -> Fraction:
        if not self.vars:
            return self._num
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self._num.get(0, 0), self._fac[0])

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
        return _memoised(_SUMS, _add, self, other)

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
        return _memoised(_PRODUCTS, _mul, self, other)

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
        if _lc(num) < 0:
            num, den = _neg(num), _neg(den)
        return RatFunc(self.vars, den, reg.factorize(num))

    def __truediv__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc.const(other)
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __neg__(self):
        if not self.vars:
            return RatFunc((), -self._num)
        return RatFunc(self.vars, _neg(self._num), self._fac)

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
        if not self._num:
            return self
        content, exps = self._fac
        reg = _registry(self.vars)
        return RatFunc(self.vars, _pow_poly(self._num, n, reg.pk), reg.pair(
            content ** n, [e * n for e in exps]))

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            if isinstance(other, (int, Fraction)):
                other = RatFunc.const(other)
            else:
                return NotImplemented
        if self.vars != other.vars and not (self.vars and other.vars):
            # a constant against a value with variables compares unlifted
            a, c = (self, other._num) if self.vars else (other, self._num)
            return _is_const(a) and a.as_fraction() == c
        a, b = self._unify(other)
        return a._num == b._num and a._fac == b._fac

    def __hash__(self):
        t = self.trim()
        if not t.vars:
            return hash(t._num)
        return hash(_key_of(t))

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
        return RatFunc.substitution(name, value)(self)

    @staticmethod
    def substitution(name: str, value: "RatFunc"):
        """The map c -> c.subs_var(name, value), set up once for many c.

        When ``value`` is a nonconstant Laurent monomial A/B with
        coefficient 1, p(X)/(c (X-1)^r) over X alone, and a polynomial over
        a larger tuple when B = 1, map by packed exponents (see
        ``_MonomialImage``); every other c, and every c for any other
        ``value``, 0 and 1 among them, is substituted term by term.
        """
        value = value.trim()
        image = _MonomialImage.of(name, value)
        if image is None:
            return lambda c: _subs_by_terms(c, name, value)
        return image

    @staticmethod
    def pole_at_one(name: str, coeffs: list, content: int, r: int):
        """p(X) / (content (X - 1)^r) over X = ``name`` alone, p's integer
        coefficients listed by X-degree in ``coeffs``, held as given: the
        caller vouches for the canonical form (content > 0, joint integer
        content 1, p(1) != 0 when r > 0), so nothing is trial-divided."""
        names = (name,)
        reg = _registry(names)
        x = reg.pk.gens[0]
        num = _fits({e * x: c for e, c in enumerate(coeffs) if c}, reg)
        exps = [0] * reg.index(_X_MINUS_ONE) + [r]
        return RatFunc(names, num, reg.pair(content, exps))

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
        unpack = _registry(self.vars).pk.unpack
        out = []
        for monom, coeff in sorted((unpack(m), c) for m, c in poly.items()):
            md = {v: e for v, e in zip(self.vars, monom) if e}
            out.append((md, Fraction(coeff)))
        return out

    def denom_is_monomial(self) -> bool:
        """True iff the reduced denominator is a single term c*prod(v^e)."""
        if not self.vars:
            return True
        factors = _registry(self.vars).factors
        return all(len(factors[i]) == 1
                   for i, e in enumerate(self._fac[1]) if e)

    def denom_is_monomial_in(self, name: str) -> bool:
        """True iff the reduced denominator is c*name^e for some e >= 0."""
        if not self.vars:
            return True
        reg = _registry(self.vars)
        var = ({reg.pk.gens[self.vars.index(name)]: 1} if name in self.vars
               else None)
        return all(reg.factors[i] == var
                   for i, e in enumerate(self._fac[1]) if e)

    def remove_denominator_factor(self, factor: "RatFunc"):
        """Return (k, rest) with self = rest / factor^k and factor not dividing
        rest's denominator."""
        if not self.vars:
            return 0, self
        f = factor.trim()
        if not f.vars or f._fac != (1, ()):
            raise ValueError("factor must be a non-constant polynomial with "
                             f"integer coefficients: {factor}")
        if not set(f.vars) <= set(self.vars):
            # it has a variable that self's denominator lacks
            return 0, self
        fp = f.lift(self.vars)._num
        sign = -1 if _lc(fp) < 0 else 1
        reg = _registry(self.vars)
        unit, mult = reg.factorize(_scale(fp, sign))
        content, exps = self._fac
        both = list(zip_longest(exps, mult, fillvalue=0))
        k = min(e // m for e, m in both if m)
        if not k:
            return 0, self
        rest = RatFunc(self.vars, self._num, reg.pair(
            content, [e - k * m for e, m in both]))
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
        if self.is_constant():      # held over variables or not, alike
            return str(self.as_fraction())
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
