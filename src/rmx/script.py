"""Textual DSL for tensor-identity scripts.

A script consists of declaration lines followed by a single check line:

    type C 1
    order 3
    slots 3
    spectral u v
    formal w : 2
    check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == \
          Rhat[2,3](v) * Rhat[1,3](u+v) * Rhat[1,2](u)

Declarations:
    type FAMILY RANK      classical type (B, C or D) and rank
    order L               h-adic order cap (keeps h^0 .. h^{L-1}), L >= 1
    slots m               total tensor slot count
    spectral NAME...      spectral variables, multiplicative ring coordinates
    formal NAME : CAP     truncation-capped formal variable, CAP >= 1

Each name is declared at most once; h is predeclared and cannot be declared.

Expression grammar (products bind left; no user bindings, no control flow):
    expr     := term ('*' term)*
    term     := factor postfix*
    postfix  := '^' 't' '[' INT ']'   twisted partial transpose in a slot
              | '^' '-1'              inverse (h-adic Neumann)
    factor   := '1' | RATIONAL | '(' expr ')' | atom
    atom     := 'Rhat' '[' INT ',' INT ']' '(' linform ')'
              | 'M' '[' INT ']' | 'P' '[' INT ',' INT ']'
              | 'conjM' '[' INT ']' '(' expr ')'
              | 'odotLR' '[' INT (',' INT)* ']' '(' expr ';' expr ')'
              | 'odotRL' '[' INT (',' INT)* ']' '(' expr ';' expr ')'
    linform  := ['-'] sterm (('+'|'-') sterm)*
    sterm    := [RATIONAL] NAME | RATIONAL
    RATIONAL := INT | INT '/' INT

R-matrix arguments are additive linear forms in the spectral variables, h
and the formal variables; the evaluator passes them through the exponential
coordinate map.  Spectral coefficients must be integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hseries import HSeries
from .lietype import lie_type_data
from .ratfunc import RatFunc
from .rmatrix import Arg, diag_op, m_diag, rmatrix, solve_normalizer
from .tensorop import TensorOp

__all__ = ["parse_script", "print_script", "ScriptError", "EvalError",
           "IdentityScript", "evaluate_sides"]


class ScriptError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class EvalError(RuntimeError):
    pass


# ---------------------------------------------------------------- AST

@dataclass(frozen=True)
class LinForm:
    coeffs: tuple            # sorted ((name, Fraction), ...)


@dataclass(frozen=True)
class RAtom:
    slots: tuple
    arg: LinForm


@dataclass(frozen=True)
class MAtom:
    slot: int


@dataclass(frozen=True)
class PAtom:
    slots: tuple


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Scalar:
    value: Fraction


@dataclass(frozen=True)
class Prod:
    factors: tuple


@dataclass(frozen=True)
class Inv:
    expr: object


@dataclass(frozen=True)
class Transpose:
    expr: object
    slot: int


@dataclass(frozen=True)
class ConjM:
    slot: int
    expr: object


@dataclass(frozen=True)
class Odot:
    mode: str                # "LR" or "RL"
    first_slots: tuple
    left: object
    right: object


@dataclass(frozen=True)
class IdentityScript:
    family: str
    n: int
    order: int
    slots: int
    spectral: tuple
    formal: tuple            # ((name, cap), ...)
    lhs: object
    rhs: object


# ---------------------------------------------------------------- tokenizer

_SYMBOLS = ("==", "^", "*", "(", ")", "[", "]", ",", ";", "+", "-", "/", ":")


def _tokenize(text: str):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            if ch.isalpha() or ch == "_":
                end = col
                while end < len(line) and (line[end].isalnum() or line[end] == "_"):
                    end += 1
                tokens.append(("name", line[col:end], lineno, col + 1))
                col = end
            elif ch.isdigit():
                end = col
                while end < len(line) and line[end].isdigit():
                    end += 1
                tokens.append(("int", line[col:end], lineno, col + 1))
                col = end
            else:
                for sym in _SYMBOLS:
                    if line.startswith(sym, col):
                        tokens.append(("sym", sym, lineno, col + 1))
                        col += len(sym)
                        break
                else:
                    raise ScriptError(f"unexpected character {ch!r}", lineno, col + 1)
        tokens.append(("newline", "", lineno, len(line) + 1))
    tokens.append(("eof", "", lineno if text else 1, 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message):
        kind, val, line, col = self.peek()
        raise ScriptError(message, line, col)

    def expect_sym(self, sym):
        kind, val, line, col = self.peek()
        if kind != "sym" or val != sym:
            self.error(f"expected {sym!r}")
        return self.next()

    def expect_int(self):
        kind, val, line, col = self.peek()
        if kind != "int":
            self.error("expected an integer")
        self.next()
        return int(val)

    def expect_name(self):
        kind, val, line, col = self.peek()
        if kind != "name":
            self.error("expected a name")
        self.next()
        return val

    def skip_newlines(self):
        while self.peek()[0] == "newline":
            self.next()

    def end_line(self):
        kind = self.peek()[0]
        if kind == "eof":
            return
        if kind != "newline":
            self.error("unexpected trailing input")
        self.next()

    # -- declarations -------------------------------------------------

    def parse(self) -> IdentityScript:
        family = n = order = slots = None
        spectral = []
        formal = []
        lhs = rhs = None
        while True:
            self.skip_newlines()
            kind, val, line, col = self.peek()
            if kind == "eof":
                break
            if kind != "name":
                self.error("expected a declaration or check line")
            if val == "type":
                self.next()
                family = self.expect_name()
                n = self.expect_int()
                self.end_line()
            elif val == "order":
                self.next()
                order = self.expect_int()
                self.end_line()
            elif val == "slots":
                self.next()
                slots = self.expect_int()
                self.end_line()
            elif val == "spectral":
                self.next()
                while self.peek()[0] == "name":
                    spectral.append(self.expect_name())
                self.end_line()
            elif val == "formal":
                self.next()
                name = self.expect_name()
                self.expect_sym(":")
                cap = self.expect_int()
                formal.append((name, cap))
                self.end_line()
            elif val == "check":
                self.next()
                lhs = self.parse_expr()
                self.expect_sym("==")
                rhs = self.parse_expr()
                self.end_line()
                self.skip_newlines()
                if self.peek()[0] != "eof":
                    self.error("only one check line is allowed")
                break
            else:
                self.error(f"unknown declaration {val!r}")
        if family is None or n is None:
            raise ScriptError("missing type declaration", 1, 1)
        if order is None:
            raise ScriptError("missing order declaration", 1, 1)
        if slots is None:
            raise ScriptError("missing slots declaration", 1, 1)
        if lhs is None:
            raise ScriptError("missing check line", 1, 1)
        script = IdentityScript(family, n, order, slots, tuple(spectral),
                                tuple(formal), lhs, rhs)
        _validate(script)
        return script

    # -- expressions --------------------------------------------------

    def parse_expr(self):
        factors = [self.parse_term()]
        while self.peek()[:2] == ("sym", "*"):
            self.next()
            factors.append(self.parse_term())
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[:2] == ("sym", "^"):
            self.next()
            kind, val, line, col = self.peek()
            if kind == "name" and val == "t":
                self.next()
                self.expect_sym("[")
                slot = self.expect_int()
                self.expect_sym("]")
                node = Transpose(node, slot)
            elif kind == "sym" and val == "-":
                self.next()
                kind2, val2, _, _ = self.peek()
                if kind2 != "int" or val2 != "1":
                    self.error("expected 1 after ^-")
                self.next()
                node = Inv(node)
            else:
                self.error("expected t[slot] or -1 after ^")
        return node

    def parse_factor(self):
        kind, val, line, col = self.peek()
        if kind == "sym" and val == "(":
            self.next()
            node = self.parse_expr()
            self.expect_sym(")")
            return node
        if kind == "int":
            value = Fraction(self.expect_int())
            if self.peek()[:2] == ("sym", "/"):
                self.next()
                value /= self.expect_int()
            if value == 1:
                return One()
            return Scalar(value)
        if kind != "name":
            self.error("expected an operator atom")
        if val == "Rhat":
            self.next()
            self.expect_sym("[")
            i = self.expect_int()
            self.expect_sym(",")
            j = self.expect_int()
            self.expect_sym("]")
            self.expect_sym("(")
            arg = self.parse_linform()
            self.expect_sym(")")
            return RAtom((i, j), arg)
        if val == "M":
            self.next()
            self.expect_sym("[")
            slot = self.expect_int()
            self.expect_sym("]")
            return MAtom(slot)
        if val == "P":
            self.next()
            self.expect_sym("[")
            i = self.expect_int()
            self.expect_sym(",")
            j = self.expect_int()
            self.expect_sym("]")
            return PAtom((i, j))
        if val == "conjM":
            self.next()
            self.expect_sym("[")
            slot = self.expect_int()
            self.expect_sym("]")
            self.expect_sym("(")
            inner = self.parse_expr()
            self.expect_sym(")")
            return ConjM(slot, inner)
        if val in ("odotLR", "odotRL"):
            self.next()
            self.expect_sym("[")
            first = [self.expect_int()]
            while self.peek()[:2] == ("sym", ","):
                self.next()
                first.append(self.expect_int())
            self.expect_sym("]")
            self.expect_sym("(")
            left = self.parse_expr()
            self.expect_sym(";")
            right = self.parse_expr()
            self.expect_sym(")")
            return Odot(val[-2:], tuple(first), left, right)
        self.error(f"unknown atom {val!r}")

    def parse_linform(self):
        coeffs = {}
        sign = 1
        if self.peek()[:2] == ("sym", "-"):
            self.next()
            sign = -1
        while True:
            coeff = Fraction(sign)
            kind, val, line, col = self.peek()
            if kind == "int":
                num = self.expect_int()
                if self.peek()[:2] == ("sym", "/"):
                    self.next()
                    den = self.expect_int()
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
                kind, val, line, col = self.peek()
            if kind == "name":
                name = self.expect_name()
                coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
            else:
                # bare constant terms are not meaningful in an argument
                self.error("expected a variable name in the argument")
            kind, val, line, col = self.peek()
            if kind == "sym" and val in ("+", "-"):
                sign = 1 if val == "+" else -1
                self.next()
                continue
            break
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return LinForm(items)


def parse_script(text: str) -> IdentityScript:
    return _Parser(text).parse()


def _validate(script: IdentityScript):
    try:
        lie_type_data(script.family, script.n)
    except ValueError as exc:
        raise ScriptError(str(exc), 1, 1) from None
    if script.order < 1:
        raise ScriptError("order must be at least 1", 1, 1)
    for name, cap in script.formal:
        if cap < 1:
            raise ScriptError(f"cap of {name!r} must be at least 1", 1, 1)
    declared = {"h"}        # the deformation parameter is always declared
    for name in script.spectral + tuple(n for n, _ in script.formal):
        if name in declared:
            raise ScriptError(f"variable {name!r} is already declared", 1, 1)
        declared.add(name)
    m = script.slots

    def check_expr(node):
        if isinstance(node, RAtom):
            i, j = node.slots
            if not (1 <= i <= m and 1 <= j <= m) or i == j:
                raise ScriptError(f"slot pair ({i},{j}) out of range for m={m}", 1, 1)
            for name, coeff in node.arg.coeffs:
                if name not in declared:
                    raise ScriptError(f"undeclared variable {name!r}", 1, 1)
                if name in script.spectral and coeff.denominator != 1:
                    raise ScriptError(
                        f"spectral coefficient for {name!r} must be an integer", 1, 1)
        elif isinstance(node, (MAtom, ConjM)):
            if not 1 <= node.slot <= m:
                raise ScriptError(f"slot {node.slot} out of range for m={m}", 1, 1)
        elif isinstance(node, PAtom):
            i, j = node.slots
            if not (1 <= i <= m and 1 <= j <= m) or i == j:
                raise ScriptError(f"slot pair ({i},{j}) out of range for m={m}", 1, 1)
        elif isinstance(node, Transpose):
            if not 1 <= node.slot <= m:
                raise ScriptError(f"slot {node.slot} out of range for m={m}", 1, 1)
        elif isinstance(node, Odot):
            for s in node.first_slots:
                if not 1 <= s <= m:
                    raise ScriptError(f"slot {s} out of range for m={m}", 1, 1)
        for child in ("expr", "left", "right"):
            if hasattr(node, child):
                check_expr(getattr(node, child))
        if isinstance(node, Prod):
            for f in node.factors:
                check_expr(f)

    check_expr(script.lhs)
    check_expr(script.rhs)


# ---------------------------------------------------------------- printer

def _print_linform(lf: LinForm) -> str:
    parts = []
    for name, coeff in lf.coeffs:
        if coeff == 1:
            body = name
        elif coeff == -1:
            body = f"-{name}"
        elif coeff.denominator == 1:
            body = f"{coeff}{name}"
        else:
            body = f"{coeff.numerator}/{coeff.denominator}{name}"
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts) if parts else "0"


def _print_expr(node, top=False) -> str:
    if isinstance(node, One):
        return "1"
    if isinstance(node, Scalar):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(node, RAtom):
        return f"Rhat[{node.slots[0]},{node.slots[1]}]({_print_linform(node.arg)})"
    if isinstance(node, MAtom):
        return f"M[{node.slot}]"
    if isinstance(node, PAtom):
        return f"P[{node.slots[0]},{node.slots[1]}]"
    if isinstance(node, ConjM):
        return f"conjM[{node.slot}]({_print_expr(node.expr, top=True)})"
    if isinstance(node, Odot):
        slots = ",".join(str(s) for s in node.first_slots)
        return (f"odot{node.mode}[{slots}]({_print_expr(node.left, top=True)}; "
                f"{_print_expr(node.right, top=True)})")
    if isinstance(node, Inv):
        return f"{_print_expr(node.expr)}^-1"
    if isinstance(node, Transpose):
        return f"{_print_expr(node.expr)}^t[{node.slot}]"
    if isinstance(node, Prod):
        body = " * ".join(_print_expr(f) for f in node.factors)
        return body if top else f"({body})"
    raise TypeError(f"cannot print {node!r}")


def print_script(script: IdentityScript) -> str:
    lines = [f"type {script.family} {script.n}",
             f"order {script.order}",
             f"slots {script.slots}"]
    if script.spectral:
        lines.append("spectral " + " ".join(script.spectral))
    for name, cap in script.formal:
        lines.append(f"formal {name} : {cap}")
    lines.append(f"check {_print_expr(script.lhs, top=True)} == "
                 f"{_print_expr(script.rhs, top=True)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- evaluator

class _Context:
    def __init__(self, script: IdentityScript):
        self.script = script
        self.ltd = lie_type_data(script.family, script.n)
        self.norm = solve_normalizer(self.ltd, L=script.order)
        self.caps = {"h": script.order, **dict(script.formal)}
        self.m = script.slots
        self.mdiag = m_diag(self.ltd, self.caps)

    def arg_of(self, lf: LinForm) -> Arg:
        mono = RatFunc.one()
        shift = {}
        for name, coeff in lf.coeffs:
            if name in self.script.spectral:
                mono = mono * RatFunc.var(name) ** int(coeff)
            else:
                shift[name] = -coeff
        return Arg.make(mono, shift)

    def eval(self, node) -> TensorOp:
        ltd, caps, m = self.ltd, self.caps, self.m
        if isinstance(node, One):
            return TensorOp.identity(ltd.N, m, caps)
        if isinstance(node, Scalar):
            return TensorOp.identity(ltd.N, m, caps).scale(node.value)
        if isinstance(node, RAtom):
            try:
                r = rmatrix(ltd, self.norm, self.arg_of(node.arg), caps)
            except ZeroDivisionError as exc:
                raise EvalError(
                    f"Rhat[{node.slots[0]},{node.slots[1]}]"
                    f"({_print_linform(node.arg)}): {exc}") from exc
            return r.embed(node.slots, m)
        if isinstance(node, MAtom):
            return diag_op(ltd.N, caps, self.mdiag).embed((node.slot,), m)
        if isinstance(node, PAtom):
            p = TensorOp(ltd.N, 2, caps,
                         {((i, j), (j, i)): HSeries.one(caps)
                          for i in range(ltd.N) for j in range(ltd.N)})
            return p.embed(node.slots, m)
        if isinstance(node, Prod):
            out = self.eval(node.factors[0])
            for f in node.factors[1:]:
                out = out * self.eval(f)
            return out
        if isinstance(node, Inv):
            return self.eval(node.expr).inv()
        if isinstance(node, Transpose):
            return self.eval(node.expr).transpose_slot(node.slot, ltd)
        if isinstance(node, ConjM):
            return self.eval(node.expr).conj_diag(self.mdiag, node.slot, 1)
        if isinstance(node, Odot):
            return self.eval(node.left).odot(self.eval(node.right),
                                             node.first_slots, node.mode)
        raise TypeError(f"cannot evaluate {node!r}")


def evaluate_sides(script: IdentityScript):
    """Evaluate both sides; returns (lhs, rhs) TensorOps."""
    ctx = _Context(script)
    return ctx.eval(script.lhs), ctx.eval(script.rhs)
