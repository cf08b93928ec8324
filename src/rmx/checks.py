"""The check registry and the named checks for the R-matrix identities.

Every check evaluates both sides exactly at finite truncation order and
reports the number of nonzero residual entries with one witness.  ``CHECKS``
maps each name to its check function; the function's keyword signature is
the check's parameter schema.  This module registers the Yang-Baxter
equation, crossing symmetry, unitarity, the normalizer functional equation
and its product chain, the inverse transposed chain identity, and the
correspondence between the additive and multiplicative R-matrix pictures;
importing ``rmx`` also imports ``module_checks``, which registers the rest.
"""

from __future__ import annotations

import functools
import inspect
from fractions import Fraction

from .hseries import HSeries
from .lietype import lie_type_data
from .ratfunc import RatFunc
from .report import CheckReport, timed_report
from .rmatrix import Arg, diag_op, m_diag, rhat_inv, rmatrix, solve_normalizer
from .script import evaluate_sides, parse_script
from .tensorop import TensorOp

__all__ = ["CHECKS", "CHECK_NAMES", "builtin_check", "evaluate",
           "correspondence_check", "prefactor_substitute", "clear_pole",
           "pole_order", "PolynomialityError"]

CHECKS = {}     # check name -> check function


def register(name):
    """Register ``body(family, n, L, **params) -> (verdict, count, witness)``
    as check ``name``; the check function has the body's signature and
    reports the arguments it is passed as its params."""
    def add(body):
        @functools.wraps(body)
        def check(family, n, **kwargs):
            params = {"family": family, "n": n, **kwargs}
            return timed_report(name, params,
                                lambda: body(family, n, **kwargs))
        CHECKS[name] = check
        return body
    return add


class PolynomialityError(RuntimeError):
    """Prefactor too small: a coefficient is not polynomial/Laurent as required."""


def _context(family, n, L, caps_extra=None):
    """(type data, normaliser solved to order L, caps h^L plus
    ``caps_extra``) of a check."""
    ltd = lie_type_data(family, n)
    norm = solve_normalizer(ltd, L=L)
    caps = {"h": L, **(caps_extra or {})}
    return ltd, norm, caps


def _verdict(count: int, witness):
    """(verdict, count, witness) of a residual of ``count`` nonzero
    entries: "pass" iff there are none."""
    return ("pass" if count == 0 else "fail"), count, witness


def _scalar_residual(lhs: HSeries, rhs: HSeries):
    if lhs == rhs:
        return "pass", 0, None
    return "fail", 1, repr(lhs - rhs)


def script_params(script) -> dict:
    """The params of a parsed identity script's report."""
    return {"family": script.family, "n": script.n, "L": script.order,
            "slots": script.slots}


def evaluate(script, name="script") -> CheckReport:
    """Evaluate a parsed identity script to a report."""
    params = script_params(script)

    def run():
        lhs, rhs = evaluate_sides(script)
        return _verdict(*lhs.residual(rhs))

    return timed_report(name, params, run)


# ---------------------------------------------------------- script checks

# name -> (slots, spectral variables, identity); {kappa} is the type's
# crossing shift, which is positive.
_SCRIPT_CHECKS = {
    "ybe_hat": (
        3, "u v", "Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == "
                  "Rhat[2,3](v) * Rhat[1,3](u+v) * Rhat[1,2](u)"),
    "crossing_hat": (
        2, "u", "Rhat[1,2](u) * conjM[1](Rhat[1,2](u+{kappa}h)^t[1]) == 1"),
    "unitarity_hat": (2, "u", "Rhat[1,2](u) * Rhat[2,1](-u) == 1"),
}


def _script_body(slots, spectral, identity):
    def run(family, n, L):
        kappa = lie_type_data(family, n).kappa
        script = parse_script(
            f"type {family} {n}\norder {L}\nslots {slots}\n"
            f"spectral {spectral}\ncheck {identity.format(kappa=kappa)}\n")
        lhs, rhs = evaluate_sides(script)
        return _verdict(*lhs.residual(rhs))
    return run


for _name, _row in _SCRIPT_CHECKS.items():
    register(_name)(_script_body(*_row))


@register("gfunc")
def _check_gfunc(family, n, L):
    # the defining functional equation of the normalizing series, on purpose
    # by subst_mult's Taylor expansion: a route the dilation solve never takes
    ltd, norm, caps = _context(family, n, L)
    g = norm.g1
    lhs = g * g.subst_mult("z", HSeries.exp_shift({"h": -ltd.kappa}, caps))
    rhs = HSeries.one(caps)
    for a in (-1, 1, -ltd.kappa, ltd.kappa):
        rhs = rhs * (1 - HSeries.const(RatFunc.var("z"), caps)
                     * HSeries.exp_shift({"h": Fraction(a)}, caps))
    return _scalar_residual(lhs, rhs.inv())


@register("g_one")
def _check_g_one(family, n, L):
    # e^{(1+2k)h} g1(Z) g1(1/Z) (Z-e^{-h})(Z-e^{-kh})(1/Z-e^{-h})(1/Z-e^{-kh}) = 1
    ltd, norm, caps = _context(family, n, L)
    Z = RatFunc.var("Z")
    g_pos = norm.g1_at(Arg.make(Z), caps)
    g_neg = norm.g1_at(Arg.make(1 / Z), caps)
    lhs = HSeries.exp_shift({"h": 1 + 2 * ltd.kappa}, caps) * g_pos * g_neg
    for mono in (Z, 1 / Z):
        for a in (-1, -ltd.kappa):
            lhs = lhs * (HSeries.const(mono, caps)
                         - HSeries.exp_shift({"h": Fraction(a)}, caps))
    return _scalar_residual(lhs, HSeries.one(caps))


@register("csuni")
def _check_csuni(family, n, L, k=1, c=Fraction(1)):
    # inverse chain * M * transposed shifted inverse chain = M
    ltd, norm, caps = _context(family, n, L)
    m = k + 1
    mslot = m
    u = RatFunc.var("u")
    hc2 = Fraction(c) / 2

    def chain(extra_shift):
        # R(-u+v_k+...)^-1 ... R(-u+v_1+...)^-1 embedded at (i, k+1)
        return TensorOp.chain(ltd.N, m, caps, [
            (rhat_inv(ltd, norm, Arg.make(RatFunc.var(f"v{i}") / u,
                                          {"h": -(hc2 + extra_shift)}), caps),
             (i, mslot))
            for i in range(k, 0, -1)])

    mop = diag_op(ltd.N, caps, m_diag(ltd, caps)).embed((mslot,), m)
    lhs = chain(Fraction(0)) * mop \
        * chain(-ltd.kappa).transpose_slot(mslot, ltd)
    return _verdict(*lhs.residual(mop))


# ------------------------------------------------- prefactor calculus

def _coeff_is_poly_x_laurent_y(coeff: RatFunc, xname: str, yname: str) -> bool:
    if not coeff.denom_is_monomial():
        return False
    terms = coeff.denom_terms()
    (md, _), = terms
    return all(v == yname for v in md)


def prefactor_substitute(op: TensorOp, r: int, xname: str, yname: str,
                         zname: str) -> TensorOp:
    """Multiply by (x-y)^r, verify each coefficient is polynomial in x and
    Laurent in y, then substitute y = x*z exactly.

    Raises PolynomialityError if any coefficient fails the shape test; the
    substitution is only defined on the verified decomposition.
    """
    x = RatFunc.var(xname)
    y = RatFunc.var(yname)
    scaled = op.scale((x - y) ** r)
    for key, series in scaled.items():
        for k, coeff in series.terms.items():
            if not _coeff_is_poly_x_laurent_y(coeff, xname, yname):
                raise PolynomialityError(
                    f"entry {key}, monomial {series.caps.monos[k]}: "
                    f"coefficient {coeff} is "
                    f"not polynomial in {xname} / Laurent in {yname}")
    return scaled.subs_ring_var(yname, x * RatFunc.var(zname))


def pole_order(coeffs, factor: RatFunc) -> int:
    """The largest multiplicity of the polynomial ``factor`` in the
    denominator of any of ``coeffs``."""
    return max((c.remove_denominator_factor(factor)[0] for c in coeffs),
               default=0)


def clear_pole(op: TensorOp, r_start: int, r_max: int, xname: str,
               yname: str, zname: str):
    """(r, prefactor_substitute(op, r, ...)) for the least admissible r in
    r_start..r_max, or None if there is none.

    Scaling by (x-y)^r clears x - y from a denominator exactly when r is at
    least its multiplicity there, and it cannot remove any other factor, so
    the least admissible r is r* = max(r_start, the largest multiplicity),
    or there is none.
    """
    x, y = RatFunc.var(xname), RatFunc.var(yname)
    r = max(r_start, pole_order(
        (c for s in op.entries.values() for c in s.terms.values()), x - y))
    if r > r_max:
        return None
    try:
        return r, prefactor_substitute(op, r, xname, yname, zname)
    except PolynomialityError:
        return None


def correspondence_check(family, n, alpha, a=2, b=2, l=3, r_start=0,
                         r_max=16) -> CheckReport:
    """Match the multiplicative R-matrix at x*e^{u-v+alpha*h}/y against the
    additive one at -z0-u+v-alpha*h after clearing the (x-y) pole and
    substituting y = x*e^{-z0}, coefficientwise mod the caps."""
    if a < 1 or b < 1 or l < 1:
        raise ValueError("caps and order must be at least 1")
    alpha = Fraction(alpha)
    params = {"family": family, "n": n, "alpha": alpha, "a": a, "b": b,
              "l": l, "r_start": r_start, "r_max": r_max}

    def run():
        ltd, norm, caps = _context(family, n, l, {"u": a, "v": b})
        x = RatFunc.var("x")
        y = RatFunc.var("y")
        lhs_raw = rmatrix(ltd, norm, Arg.make(
            x / y, {"u": 1, "v": -1, "h": alpha}), caps)
        found = clear_pole(lhs_raw, r_start, r_max, "x", "y", "Z0")
        if found is None:
            return ("inconclusive", 0,
                    f"no admissible prefactor exponent r <= {r_max}")
        r, lhs = found
        z0 = RatFunc.var("Z0")
        rhs = rmatrix(ltd, norm, Arg.make(
            1 / z0, {"u": 1, "v": -1, "h": alpha}), caps)
        rhs = rhs.scale(x ** r * (1 - z0) ** r)
        verdict, count, witness = _verdict(*lhs.residual(rhs))
        if verdict == "pass":
            witness = f"r={r}"
            return "pass", 0, witness
        return verdict, count, witness

    return timed_report("correspondence", params, run)


CHECKS["correspondence"] = correspondence_check


def order_keyword(check) -> str:
    """The keyword under which ``check`` takes its truncation order."""
    return "l" if "l" in inspect.signature(check).parameters else "L"


def builtin_check(name, family, n, L=3, **kwargs) -> CheckReport:
    """Run the registered check ``name`` at order ``L``, passed under the
    check's own order keyword; KeyError for an unknown name, TypeError for
    an argument the check does not take."""
    check = CHECKS[name]
    return check(family, n, **{order_keyword(check): L}, **kwargs)


CHECK_NAMES = tuple(sorted(name for name, fn in CHECKS.items()
                           if fn.__module__ == __name__))
