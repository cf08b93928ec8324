"""Constant operators, normalizing series and R-matrices of types B, C, D.

Everything is computed in exponential coordinates: an additive spectral
argument a enters through its multiplicative image x = e^{-a}, which is a
monomial in ring variables Z_i = e^{-u_i} times exp of a linear form in the
capped formal variables (h included).  The normalizing series g1 solves

    g1(z, h) * g1(z*e^{-kappa*h}, h)
        = 1 / ((1 - z*e^{-h})(1 - z*e^{h})(1 - z*e^{-kappa*h})(1 - z*e^{kappa*h}))

one h-order at a time; each h-order is rational in z with denominator a
power of (1 - z).  With g1 = sum g_l h^l and theta = z d/dz, the h^j
coefficient of g1(z e^{-kappa h}) is S_j = sum_m ((-kappa)^m / m!)
theta^m g_{j-m}, and order l reads 2 g0 g_l = rhs_l - g0 (S_l - g_l) -
sum_{0<i<l} g_i S_{l-i}, whose right side holds only lower orders; each
theta^m g_i is computed once.  A gate checks rhs_l = sum_{i<=l} g_i S_{l-i}
at every order by exact equality.

The right side, the solve and the gate run in the ring Q[w, 1/w] with
w = z - 1 (``_Laurent``), where theta is (1 + w) d/dw and a value's
canonical form is a dict of integers over one denominator, so no step
divides or factors.  Each h-order then becomes a RatFunc over ("z",),
p(z) / (c (z - 1)^r), and those form ``Normalizer.g1``.

Each h-order n/d of g1 must have integer coefficients, and three facts
are read from their lists by z-degree: d is c (z - 1)^r; n(0)/d(0) is 1
at h^0 and 0 above; and d * oracle = n up to the oracle's z-degree, where
the oracle is the same equation solved independently, as a plain power
series in z and h in exact integers (each h-order l scaled by s^l * l!,
so products are binomial-weighted convolutions).

The R-matrix is R(x) = e^{(1+2kappa)h/2} g1(x) R+(x), where

    R+(x) = q^{-1}(x-1)(x-xi) Rconst - (q^{-2}-1)(x-xi) P + xi(q^{-2}-1)(x-1) Q

combines three constant operators with three scalar series.  Its entries
fall into groups by their exact coefficient triple in (Rconst, P, Q), and
every entry of a group shares one combination of the three series.

R depends on its argument only through the one variable x.  So once per
(type, normaliser), the value of each group of R at x = z is formed in
Q[w, 1/w] under caps h^L, as s = prefactor * g1(z) times the group's
combination of R+(z).  A build at x = mono * e^E, E a linear form in the
capped variables, instantiates these values in two exact steps, and
``g1_at`` evaluates g1 by the same two steps:

1. the dilation expansion F(z e^E) = sum_m (E^m / m!) theta^m F(z) with
   theta = z d/dz, where theta^m F is formed in Q[w, 1/w], cached with F
   and converted once into a series of RatFuncs over ("z",), and E^m / m!
   is the part of e^E of total degree m; each output coefficient is
   combined in the field of z alone;
2. z -> mono, once per output coefficient, by one ``RatFunc.substitution``
   per build.  For a Laurent monomial with coefficient 1, which every
   argument the checks build is, the canonical form is written down from
   packed exponents with no trial division; any other mono is substituted
   term by term.

Builds are cached per (type, normaliser, argument, caps), so an R-matrix
that a check uses twice, such as R_12(u) on both sides of Yang-Baxter, is
built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd

from .hseries import Caps, HSeries
from .lietype import LieTypeData
from .ratfunc import RatFunc
from .tensorop import TensorOp, _grouped, _operator

__all__ = ["Arg", "build_constant_ops", "solve_normalizer", "Normalizer",
           "rmatrix", "rhat_inv", "m_diag", "diag_op", "NormalizerError"]


class NormalizerError(RuntimeError):
    """Rational and series solutions of the functional equation disagree."""


@dataclass(frozen=True)
class Arg:
    """Multiplicative spectral argument x = mono * exp(sum coeff*var).

    ``mono`` is a RatFunc monomial (possibly with negative exponents) in the
    ring variables; ``shift`` maps capped-variable names to rational
    coefficients of the exponent.  The additive argument a corresponds to
    x = e^{-a}, so negation of a inverts mono and flips the shift.
    """

    mono: RatFunc
    shift: tuple = ()       # sorted tuple of (name, Fraction) pairs

    @staticmethod
    def make(mono, shift=None) -> "Arg":
        if isinstance(mono, str):
            mono = RatFunc.var(mono)
        if isinstance(mono, (int, Fraction)):
            mono = RatFunc.const(mono)
        items = tuple(sorted((n, Fraction(c)) for n, c in (shift or {}).items()
                             if Fraction(c) != 0))
        return Arg(mono, items)

    def shift_dict(self) -> dict:
        return dict(self.shift)

    def neg(self) -> "Arg":
        return Arg(RatFunc.one() / self.mono,
                   tuple((n, -c) for n, c in self.shift))

    def plus(self, extra: dict) -> "Arg":
        d = self.shift_dict()
        for n, c in extra.items():
            d[n] = d.get(n, Fraction(0)) + Fraction(c)
        return Arg.make(self.mono, d)


def _q(caps, power=Fraction(1)):
    # q = e^{h/2}
    return HSeries.exp_shift({"h": Fraction(power) / 2}, caps)


def build_constant_ops(ltd: LieTypeData, caps: dict) -> dict:
    """The operators P, Q, Rconst and the diagonal matrix M = diag(e^{bar_i h/2})."""
    N = ltd.N
    one = HSeries.one(caps)
    q = _q(caps)
    qinv = _q(caps, -1)
    qmqinv = q - qinv

    p_entries = {}
    q_entries = {}
    r_entries = {}
    for i in range(N):
        for j in range(N):
            p_entries[((i, j), (j, i))] = one
            coeff = HSeries.exp_shift(
                {"h": (ltd.bar[i] - ltd.bar[j]) / 2}, caps) * (ltd.eps[i] * ltd.eps[j])
            q_entries[((ltd.iprime(i), i), (ltd.iprime(j), j))] = coeff

    def add_r(row, col, val):
        key = (row, col)
        r_entries[key] = r_entries[key] + val if key in r_entries else val

    for i in range(N):
        if i != ltd.iprime(i):
            add_r((i, i), (i, i), q)
            ip = ltd.iprime(i)
            add_r((i, ip), (i, ip), qinv)
        else:
            # middle index of an odd-size type B matrix
            add_r((i, i), (i, i), one)
        for j in range(N):
            if j != i and j != ltd.iprime(i):
                add_r((i, j), (i, j), one)
    for i in range(N):
        for j in range(N):
            if i < j:
                add_r((i, j), (j, i), qmqinv)
            elif i > j:
                coeff = HSeries.exp_shift(
                    {"h": (ltd.bar[i] - ltd.bar[j]) / 2}, caps) \
                    * (-ltd.eps[i] * ltd.eps[j])
                add_r((ltd.iprime(i), i), (ltd.iprime(j), j), qmqinv * coeff)

    return {
        "P": TensorOp(N, 2, caps, p_entries),
        "Q": TensorOp(N, 2, caps, q_entries),
        "Rconst": TensorOp(N, 2, caps, r_entries),
        "M": m_diag(ltd, caps),
    }


def m_diag(ltd: LieTypeData, caps: dict) -> list:
    return [HSeries.exp_shift({"h": ltd.bar[i] / 2}, caps) for i in range(ltd.N)]


def diag_op(N: int, caps: dict, diag) -> TensorOp:
    """The single-slot diagonal operator with the given entries, such as
    M = diag_op(ltd.N, caps, m_diag(ltd, caps))."""
    return TensorOp(N, 1, caps, {((i,), (i,)): diag[i] for i in range(N)})


class _Laurent:
    """An element p / d of Q[w, 1/w], w = z - 1: ``terms`` maps the
    w-exponents of p, of either sign, to its nonzero ``int`` coefficients,
    ``den`` is the positive ``int`` d, and those integers have joint
    content 1, so the form is canonical and equality is structural; zero
    is {} over 1.  Every h-order of g1, of its theta-images and of R's
    template values has its only pole at z = 1, so lies in this ring."""

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int = 1):
        # ``terms`` holds no zero; the joint content is divided out here
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
            den //= g
        self.terms, self.den = terms, den

    @staticmethod
    def const(c) -> "_Laurent":
        c = Fraction(c)
        return _Laurent({0: c.numerator} if c else {}, c.denominator)

    def __eq__(self, other):
        return self.terms == other.terms and self.den == other.den

    __hash__ = None

    def __neg__(self):
        return _Laurent({e: -c for e, c in self.terms.items()}, self.den)

    def __add__(self, other):
        if not other.terms:
            return self
        if not self.terms:
            return other
        d1, d2 = self.den, other.den
        den = d1 // gcd(d1, d2) * d2
        s1, s2 = den // d1, den // d2
        out = {e: s1 * c for e, c in self.terms.items()}
        for e, c in other.terms.items():
            c = out.get(e, 0) + s2 * c
            if c:
                out[e] = c
            else:
                del out[e]
        return _Laurent(out, den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return _Laurent({e: c for e, c in out.items() if c},
                        self.den * other.den)

    def theta(self) -> "_Laurent":
        """theta = z d/dz = (1 + w) d/dw, one pass over the terms."""
        out = {}
        for e, c in self.terms.items():
            if e:
                out[e - 1] = out.get(e - 1, 0) + e * c
                out[e] = out.get(e, 0) + e * c
        return _Laurent({e: c for e, c in out.items() if c}, self.den)

    def ratfunc(self) -> RatFunc:
        """Self as the RatFunc p~(z) / (d (z - 1)^r) over ("z",), where r
        is the order of the pole at w = 0 and p~(z) = w^r p(w) expanded
        in z.  When r > 0, p~ is nonzero at z = 1, and taking w to z - 1
        keeps the content of p~, so the form is canonical as it stands."""
        terms = self.terms
        r = max(0, -min(terms, default=0))
        coeffs = [0] * (max(terms, default=0) + r + 1)
        for e, b in terms.items():
            k = e + r       # b w^k = b (z - 1)^k
            for j in range(k + 1):
                coeffs[j] += -b * comb(k, j) if (k - j) & 1 \
                    else b * comb(k, j)
        return RatFunc.pole_at_one("z", coeffs, self.den, r)


_W_ZERO = _Laurent({})


def _hmul(a: list, b: list) -> list:
    """The product of two series in h truncated after h^(L-1), each a list
    of its L h-orders in Q[w, 1/w]."""
    out = []
    for l in range(len(a)):
        acc = _W_ZERO
        for i in range(l + 1):
            if a[i].terms and b[l - i].terms:
                acc = acc + a[i] * b[l - i]
        out.append(acc)
    return out


def _hexp(c, L: int) -> list:
    """e^{c h} by h-order, to h^(L-1)."""
    c = Fraction(c)
    return [_Laurent.const(c ** j / factorial(j)) for j in range(L)]


def _hseries(orders: list, caps: Caps) -> HSeries:
    """The h-orders ``orders`` in Q[w, 1/w] as a series over ``caps`` =
    {h: L}, each nonzero one as a RatFunc over ("z",)."""
    return HSeries(caps, {(l,): c.ratfunc()
                          for l, c in enumerate(orders) if c.terms})


class _Dilations:
    """A series F = sum_l F_l h^l, each F_l in Q[w, 1/w], and its images
    theta^m F under theta = z d/dz, each computed on first use in
    Q[w, 1/w] and converted once into a series of RatFuncs over ("z",)
    under ``caps`` = {h: L}.  F at x = mono * e^E is

        F(z e^E) = sum_m (E^m / m!) theta^m F(z),  then z -> mono,

    the Taylor series of F(z e^t) in t; the sum is finite because E, a
    linear form in the capped variables, is nilpotent."""

    def __init__(self, orders: list, caps: Caps):
        self._caps = caps
        self._orders = [list(orders)]   # theta^m F's h-orders, by m
        self._thetas = {}               # m -> theta^m F as an HSeries

    def theta(self, m: int) -> HSeries:
        found = self._thetas.get(m)
        if found is None:
            orders = self._orders
            while len(orders) <= m:
                orders.append([c.theta() for c in orders[-1]])
            found = self._thetas[m] = _hseries(orders[m], self._caps)
        return found


def _point(arg: Arg, caps: Caps, L: int) -> tuple:
    """What evaluation at x = ``arg`` under ``caps`` needs: the weights
    (m, E^m / m!), read off e^E by total degree, and the map z -> mono
    of the coefficients."""
    if caps.get("h", 0) > L:
        raise ValueError(f"normalizer solved to order {L} only")
    if (1 - arg.mono).is_zero():
        raise ZeroDivisionError(
            "R-matrix pole: argument equals 1 at order zero")
    weights = HSeries.exp_shift(arg.shift_dict(), caps).by_degree()
    return weights, RatFunc.substitution("z", arg.mono)


def _evaluate(dil: _Dilations, point: tuple, caps: Caps) -> HSeries:
    """F(x) for the F of ``dil``: the dilation expansion, combined in the
    field of z, then one substitution per coefficient."""
    weights, sub = point
    out = None
    for m, weight in weights:
        term = weight * dil.theta(m)._remap(caps)
        out = term if out is None else out + term
    return out.map_coeffs(sub)


@dataclass(frozen=True, eq=False)
class Normalizer:
    """The solved g1; hashed by identity, as each is solved once per
    (type, L, oracle z-degree).  ``g1`` is the series the gates and the
    checks read; ``orders`` holds its h-orders in Q[w, 1/w], from which
    ``g1_at`` and the R-matrix templates work."""

    ltd: LieTypeData
    L: int
    g1: HSeries            # rational per h-order, ring variable "z"
    oracle_degree: int
    orders: tuple          # the h-orders of g1 as _Laurent values

    @cached_property
    def _dilations(self) -> _Dilations:
        return _Dilations(self.orders, self.g1.caps)

    def g1_at(self, arg: Arg, caps: dict) -> HSeries:
        """Evaluate g1 at a multiplicative argument, exactly, by the route
        of every R-matrix build."""
        caps = Caps.of(caps)
        return _evaluate(self._dilations, _point(arg, caps, self.L), caps)


def solve_normalizer(ltd: LieTypeData, L: int = 4, z_degree_oracle: int = 10) -> Normalizer:
    if L < 1:
        raise ValueError("order cap must be at least 1")
    if z_degree_oracle < 1:
        # below 1 the oracle keeps at most the z^0 terms, which the at-0
        # check already covers
        raise ValueError("series oracle degree must be at least 1")
    return _solve_normalizer_cached(ltd, L, z_degree_oracle)


def _rhs_orders(kappa, L: int) -> list:
    """The h-orders, to h^(L-1), of the functional equation's right side
    1 / prod_b (1 - z e^{b h}), b = -1, 1, -kappa, kappa, in Q[w, 1/w]:
    the h^0 part of each factor is -w, and its h^j part is
    -(1 + w) b^j / j!, so the product starts at w^4."""
    one_plus_w = _Laurent({0: 1, 1: 1})
    prod = [_Laurent({0: 1})] + [_W_ZERO] * (L - 1)
    for b in (-1, 1, -kappa, kappa):
        factor = [-c * one_plus_w for c in _hexp(b, L)]
        factor[0] = _Laurent({1: -1})
        prod = _hmul(prod, factor)
    inv0 = _Laurent({-4: 1})
    out = [inv0]
    for l in range(1, L):
        acc = _W_ZERO
        for j in range(1, l + 1):
            acc = acc + prod[j] * out[l - j]
        out.append(-(inv0 * acc))
    return out


@lru_cache(maxsize=None)
def _solve_normalizer_cached(ltd, L, dz) -> Normalizer:
    kappa = ltd.kappa
    rhs = _rhs_orders(kappa, L)
    weights = [_Laurent.const(Fraction(-kappa) ** m / factorial(m))
               for m in range(L)]
    g0 = _Laurent({-2: 1})                 # 1 / (1 - z)^2 = w^-2
    half_inv_g0 = _Laurent({2: 1}, 2)      # w^2 / 2
    # thetas[i, m] = theta^m g_i, each formed once from theta^(m-1) g_i
    g, shifted, thetas = [g0], [g0], {(0, 0): g0}
    for l in range(1, L):
        # order l: 2 g0 g_l = rhs_l - g0 (S_l - g_l) - sum_{0<i<l} g_i S_{l-i},
        # where S_l - g_l = sum_{m>=1} ((-kappa)^m / m!) theta^m g_{l-m}
        tail = _W_ZERO
        for m in range(1, l + 1):
            t = thetas[l - m, m] = thetas[l - m, m - 1].theta()
            tail = tail + weights[m] * t
        known = g0 * tail
        for i in range(1, l):
            known = known + g[i] * shifted[l - i]
        g.append((rhs[l] - known) * half_inv_g0)
        thetas[l, 0] = g[l]
        shifted.append(tail + g[l])
    _check_functional_equation(g, shifted, rhs)
    g1 = _hseries(g, Caps.of({"h": L}))
    _check_against_oracle(g1, kappa, L, dz)
    return Normalizer(ltd, L, g1, dz, tuple(g))


def _check_functional_equation(g: list, shifted: list, rhs: list):
    """Raise NormalizerError at the first h-order l where rhs_l differs
    from sum_{i<=l} g_i S_{l-i}, the h^l coefficient of
    g1(z) g1(z e^{-kappa h}); lists are indexed by h-order, hold values
    in Q[w, 1/w] and are compared by exact, structural equality."""
    for l, want in enumerate(rhs):
        got = g[0] * shifted[l]
        for i in range(1, l + 1):
            got = got + g[i] * shifted[l - i]
        if got != want:
            raise NormalizerError(f"functional equation fails at h^{l}")


def _zmul(a: list, b: list, dz: int) -> list:
    """Product of two z-coefficient lists, truncated after z^dz."""
    out = [0] * (dz + 1)
    for i, x in enumerate(a[:dz + 1]):
        if x:
            for j, y in enumerate(b[:dz + 1 - i]):
                out[i + j] += x * y
    return out


def _eorder(A: list, B: list, l: int, dz: int) -> list:
    """Order l of the product of two scaled (h, z) arrays: the
    binomial-weighted convolution sum_j C(l, j) A[j] B[l-j]."""
    out = [0] * (dz + 1)
    for j in range(l + 1):
        c = comb(l, j)
        for m, x in enumerate(_zmul(A[j], B[l - j], dz)):
            out[m] += c * x
    return out


def _integer_oracle(kappa, L: int, dz: int) -> tuple:
    """g1 as a plain power series in z and h, solved in exact integers.

    Returns (s, G) with G[l][m] = s^l * l! * [h^l z^m] g1 for l < L and
    m <= dz.  In these coordinates a product is the binomial-weighted
    convolution of ``_eorder`` (the exponential-generating-function form,
    Knuth, TAOCP vol. 2, 4.7), e^{c m h} is the array (s c m)^l, and
    z -> z e^{-kappa h} multiplies the z^m terms by e^{-kappa m h}.  s
    starts at the denominator of kappa (1 or 2, as 2*kappa must be an
    integer), the least that keeps these integral, and doubles whenever
    the division by 2 of a solve step leaves a remainder: doubling s
    multiplies every order l by 2^l, so the step is then exact.  No series
    or rational-function arithmetic is involved.
    """
    kappa = Fraction(kappa)
    if kappa.denominator > 2:
        raise NormalizerError(f"2*kappa = {2 * kappa} is not an integer")
    s = kappa.denominator
    rhs = [[int(l == m == 0) for m in range(dz + 1)] for l in range(L)]
    for b in (-1, 1, -kappa, kappa):
        sb = int(s * b)
        geometric = [[(sb * m) ** l for m in range(dz + 1)] for l in range(L)]
        rhs = [_eorder(rhs, geometric, l, dz) for l in range(L)]
    G = [[m + 1 for m in range(dz + 1)]] + [[0] * (dz + 1)
                                            for _ in range(1, L)]
    for l in range(1, L):
        sk = int(-s * kappa)
        # g(z e^{-kappa h}) from the orders below l (G[l] is still zero)
        shifted = [[sum(comb(i, j) * G[j][m] * (sk * m) ** (i - j)
                        for j in range(i + 1)) for m in range(dz + 1)]
                   for i in range(l + 1)]
        known = _eorder(G, shifted, l, dz)
        # the h^l terms give 2 g0 g_l = rhs_l - known, and 1/g0 = (1 - z)^2
        num = _zmul([1, -2, 1], [r - k for r, k in zip(rhs[l], known)], dz)
        if any(x % 2 for x in num):
            s *= 2
            rhs = [[x << j for x in row] for j, row in enumerate(rhs)]
            G = [[x << j for x in row] for j, row in enumerate(G)]
            num = [x << l for x in num]
        G[l] = [x // 2 for x in num]
    return s, G


def _z_coeffs(terms, cl) -> list:
    """Integer coefficients by z-degree of numer_terms/denom_terms of
    ``cl``; a coefficient that is not an integer raises."""
    out = []
    for md, coeff in terms:
        if set(md) - {"z"}:
            raise NormalizerError(f"unexpected variables in {cl}")
        if coeff.denominator != 1:
            raise NormalizerError(
                f"coefficient {coeff} of {cl} is not an integer")
        e = md.get("z", 0)
        out += [0] * (e + 1 - len(out))
        out[e] = coeff.numerator
    return out


def _check_against_oracle(g: HSeries, kappa, L: int, dz: int):
    """Raise NormalizerError unless every h-order n/d of ``g`` has the
    integer coefficient lists by z-degree that the oracle predicts.  Three
    facts are read from the two lists: d = c (z - 1)^r, so the order's only
    pole is at z = 1; n(0)/d(0) is 1 at h^0 and 0 above; and up to z^dz the
    expansion equals the oracle's, d * G[l] = s^l l! n there."""
    s, G = _integer_oracle(kappa, L, dz)
    for l in range(L):
        cl = g.coeff({"h": l})
        num = _z_coeffs(cl.numer_terms(), cl) + [0] * (dz + 1)
        den = _z_coeffs(cl.denom_terms(), cl)
        r = len(den) - 1
        if den != [den[r] * comb(r, k) * (-1) ** (r - k)
                   for k in range(r + 1)]:
            raise NormalizerError(
                f"h^{l} coefficient denominator is not a power of (1-z): {cl}")
        want = 1 if l == 0 else 0
        if num[0] != want * den[0]:
            raise NormalizerError(
                f"h^{l} coefficient is {Fraction(num[0], den[0])} at z = 0, "
                f"expected {want}")
        scale = s ** l * factorial(l)
        if _zmul(den, G[l], dz) != [scale * n for n in num[:dz + 1]]:
            raise NormalizerError(
                f"series oracle disagrees with the rational solution "
                f"at h^{l}")


def rmatrix(ltd: LieTypeData, norm: Normalizer, arg: Arg, caps: dict) -> TensorOp:
    """e^{(1+2kappa)h/2} * g1(x) * R+(x, e^{h/2}) at x = the given argument."""
    return _build(ltd, norm, arg, Caps.of(caps))


@lru_cache(maxsize=None)
def _r_template(ltd: LieTypeData, norm: Normalizer) -> tuple:
    """Per group of R's entries, the dilations of its value at x = z under
    caps h^L, e^{(1+2kappa)h/2} g1(z) times the group's combination of
    R+(z), with the group's unshifted packed keys.  The values are formed
    from ``norm.orders`` in Q[w, 1/w], where x = z is 1 + w."""
    L = norm.L
    caps = Caps.of({"h": L})
    ops = build_constant_ops(ltd, caps)
    names = ("Rconst", "P", "Q")
    groups, series = {}, [_grouped(caps, ops[n].entries) for n in names]
    for key in sorted(set().union(*series)):
        coeffs = tuple(s.get(key, HSeries(caps, {})) for s in series)
        exact = tuple(frozenset(c.terms.items()) for c in coeffs)
        groups.setdefault(exact, (coeffs, []))[1].append(key)

    def scalar(series):
        return [_Laurent.const(series.coeff({"h": l}).as_fraction())
                for l in range(L)]

    xi = _hexp(-ltd.kappa, L)
    qinv2m1 = [_W_ZERO] + _hexp(-1, L)[1:]
    s = _hmul(_hexp(Fraction(1, 2) + ltd.kappa, L), norm.orders)
    # s * R+(z): three scalar series, then one combination per group;
    # x - 1 = w, and x - xi is w at h^0 and -xi above
    xm1 = [_Laurent({1: 1})] + [_W_ZERO] * (L - 1)
    s_xmxi = _hmul(s, [_Laurent({1: 1})] + [-c for c in xi[1:]])
    a = _hmul(_hmul(s_xmxi, xm1), _hexp(Fraction(-1, 2), L))
    b = _hmul(s_xmxi, qinv2m1)
    c = _hmul(_hmul(s, xm1), _hmul(xi, qinv2m1))
    out = []
    for (rc, pc, qc), keys in groups.values():
        val = [u - v + t for u, v, t in zip(_hmul(scalar(rc), a),
                                            _hmul(scalar(pc), b),
                                            _hmul(scalar(qc), c))]
        if any(v.terms for v in val):
            out.append((_Dilations(val, caps), tuple(keys)))
    return tuple(out)


@lru_cache(maxsize=None)
def _build(ltd: LieTypeData, norm: Normalizer, arg: Arg,
           caps: Caps) -> TensorOp:
    # one build per (type, normaliser, argument, caps): operators are
    # immutable, so every caller can share it
    point, width = _point(arg, caps, norm.L), caps.width
    entries = {}
    for dil, keys in _r_template(ltd, norm):
        terms = _evaluate(dil, point, caps).terms.items()
        entries.update({key << width | j: c for key in keys for j, c in terms})
    return _operator(ltd.N, 2, caps, entries)


def rhat_inv(ltd: LieTypeData, norm: Normalizer, arg: Arg, caps: dict) -> TensorOp:
    """Inverse through unitarity: P * R(-a) * P, that is R(-a) with its two
    slots exchanged."""
    return rmatrix(ltd, norm, arg.neg(), caps).swap_slots(1, 2)
