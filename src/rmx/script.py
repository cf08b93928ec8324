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
The check line comes last, after ``type``, ``order`` and ``slots``.

Expression grammar (products bind left; no user bindings, no control flow):
    expr     := term ('*' term)*
    term     := factor postfix*
    postfix  := '^' 't' '[' INT ']'   twisted partial transpose in a slot
              | '^' '-1'              inverse (h-adic Neumann)
    factor   := RATIONAL | '(' expr ')' | atom
    atom     := NAME '[' INT (',' INT)* ']' ['(' arg (';' arg)* ')']
    arg      := linform | expr, as the atom's entry of _ATOMS says
    linform  := ['-'] sterm (('+'|'-') sterm)*
    sterm    := [RATIONAL] NAME | RATIONAL
    RATIONAL := INT | INT '/' INT

Every atom is one entry of ``_ATOMS``: its name, its number of slot indices
(two distinct slots, one slot, or one or more) and the kinds of its
arguments:

    Rhat[i,j](linform)          R-matrix in slots i, j
    M[i]                        diagonal matrix M in slot i
    P[i,j]                      flip of slots i, j
    conjM[i](expr)              M-conjugation of expr in slot i
    odotLR[i,...](expr; expr)   ordered slot product, first block i, ...
    odotRL[i,...](expr; expr)   the same in the opposite order

R-matrix arguments are additive linear forms in the spectral variables, h
and the formal variables; the evaluator passes them through the exponential
coordinate map.  Spectral coefficients must be integers.

``^-1`` inverts only an operator whose constant part (h and the formal
variables at 0) is a nonzero scalar times the identity, as for a product of
R-matrices; ``P[1,2]^-1`` raises ``ValueError: constant part is not scalar;
cannot invert``, which ``rmx suite`` reports as an ``error``.

Each rule is enforced where its token is parsed, so a ``ScriptError``
names the line and column of the offending token: a declaration's value, a
zero denominator, a slot index (or the ``[`` of a slot pair), a name in a
linear form, or the ``check`` token or end of input for a missing
declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hseries import HSeries
from .lietype import lie_type_data
from .ratfunc import RatFunc
from .rmatrix import Arg, diag_op, m_diag, rmatrix, solve_normalizer
from .tensorop import TensorOp

__all__ = ["parse_script", "ScriptError", "EvalError", "IdentityScript",
           "evaluate_sides"]


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
class Atom:
    name: str
    slots: tuple
    args: tuple              # LinForm or expression nodes, as _ATOMS says


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
class IdentityScript:
    family: str
    n: int
    order: int
    slots: int
    spectral: tuple
    formal: tuple            # ((name, cap), ...)
    lhs: object
    rhs: object


# atom name -> (slot indices: 2 distinct, 1, or None for one or more,
#               argument kinds, each parsed by the _Parser method parse_KIND)
_ATOMS = {
    "Rhat": (2, ("linform",)),
    "M": (1, ()),
    "P": (2, ()),
    "conjM": (1, ("expr",)),
    "odotLR": (None, ("expr", "expr")),
    "odotRL": (None, ("expr", "expr")),
}


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
        self.family = self.n = self.order = self.m = None
        self.spectral = []
        self.formal = []
        self.declared = {"h"}   # the deformation parameter is always declared

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        kind, val, line, col = tok or self.peek()
        raise ScriptError(message, line, col) from None

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

    def expect_positive(self, message):
        tok = self.peek()
        value = self.expect_int()
        if value < 1:
            self.error(message, tok)
        return value

    def expect_name(self):
        kind, val, line, col = self.peek()
        if kind != "name":
            self.error("expected a name")
        self.next()
        return val

    def declare(self):
        tok = self.peek()
        name = self.expect_name()
        if name in self.declared:
            self.error(f"variable {name!r} is already declared", tok)
        self.declared.add(name)
        return name

    def expect_slot(self):
        tok = self.peek()
        slot = self.expect_int()
        if not 1 <= slot <= self.m:
            self.error(f"slot {slot} out of range for m={self.m}", tok)
        return slot

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
        while True:
            self.skip_newlines()
            tok = kind, val, line, col = self.peek()
            if kind == "eof" or (kind, val) == ("name", "check"):
                for value, what in ((self.family, "type"),
                                    (self.order, "order"), (self.m, "slots")):
                    if value is None:
                        self.error(f"missing {what} declaration")
            if kind == "eof":
                self.error("missing check line")
            if kind != "name":
                self.error("expected a declaration or check line")
            if {"type": self.family, "order": self.order,
                    "slots": self.m}.get(val) is not None:
                self.error(f"{val!r} is already declared", tok)
            self.next()
            if val == "type":
                at = self.peek()
                family = self.expect_name()
                n = self.expect_int()
                try:
                    lie_type_data(family, n)
                except ValueError as exc:
                    self.error(str(exc), at)
                self.family, self.n = family, n
            elif val == "order":
                self.order = self.expect_positive("order must be at least 1")
            elif val == "slots":
                self.m = self.expect_positive("slots must be at least 1")
            elif val == "spectral":
                while self.peek()[0] == "name":
                    self.spectral.append(self.declare())
            elif val == "formal":
                name = self.declare()
                self.expect_sym(":")
                self.formal.append(
                    (name, self.expect_positive(f"cap of {name!r} must be at least 1")))
            elif val == "check":
                lhs = self.parse_expr()
                self.expect_sym("==")
                rhs = self.parse_expr()
                self.end_line()
                self.skip_newlines()
                if self.peek()[0] != "eof":
                    self.error("only one check line is allowed")
                return IdentityScript(self.family, self.n, self.order, self.m,
                                      tuple(self.spectral), tuple(self.formal),
                                      lhs, rhs)
            else:
                self.error(f"unknown declaration {val!r}", tok)
            self.end_line()

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
                slot = self.expect_slot()
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
                value /= self.expect_positive("zero denominator")
            return Scalar(value)
        if kind != "name":
            self.error("expected an operator atom")
        if val not in _ATOMS:
            self.error(f"unknown atom {val!r}")
        self.next()
        count, kinds = _ATOMS[val]
        bracket = self.expect_sym("[")
        if count == 2:
            i = self.expect_int()
            self.expect_sym(",")
            j = self.expect_int()
            if not (1 <= i <= self.m and 1 <= j <= self.m) or i == j:
                self.error(f"slot pair ({i},{j}) out of range for m={self.m}",
                           bracket)
            slots = [i, j]
        else:
            slots = [self.expect_slot()]
            while count is None and self.peek()[:2] == ("sym", ","):
                self.next()
                slots.append(self.expect_slot())
        self.expect_sym("]")
        args = []
        for k, arg_kind in enumerate(kinds):
            self.expect_sym(";" if k else "(")
            args.append(getattr(self, "parse_" + arg_kind)())
        if kinds:
            self.expect_sym(")")
        return Atom(val, tuple(slots), tuple(args))

    def parse_linform(self):
        coeffs = {}
        first = {}               # name -> its first token, for errors
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
                    den = self.expect_positive("zero denominator")
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
                kind, val, line, col = self.peek()
            if kind == "name":
                first.setdefault(val, self.peek())
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
        for name, coeff in items:
            if name not in self.declared:
                self.error(f"undeclared variable {name!r}", first[name])
            if name in self.spectral and coeff.denominator != 1:
                self.error(f"spectral coefficient for {name!r} must be an integer",
                           first[name])
        return LinForm(items)


def parse_script(text: str) -> IdentityScript:
    return _Parser(text).parse()


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
        if isinstance(node, Scalar):
            one = TensorOp.identity(ltd.N, m, caps)
            return one if node.value == 1 else one.scale(node.value)
        if isinstance(node, Prod):
            out = self.eval(node.factors[0])
            for f in node.factors[1:]:
                out = out * self.eval(f)
            return out
        if isinstance(node, Inv):
            return self.eval(node.expr).inv()
        if isinstance(node, Transpose):
            return self.eval(node.expr).transpose_slot(node.slot, ltd)
        if not isinstance(node, Atom):
            raise TypeError(f"cannot evaluate {node!r}")
        name, slots, args = node.name, node.slots, node.args
        if name == "Rhat":
            try:
                r = rmatrix(ltd, self.norm, self.arg_of(args[0]), caps)
            except ZeroDivisionError as exc:
                raise EvalError(f"{name}[{','.join(map(str, slots))}]"
                                f"({_print_linform(args[0])}): {exc}") from exc
            return r.embed(slots, m)
        if name == "M":
            return diag_op(ltd.N, caps, self.mdiag).embed(slots, m)
        if name == "P":
            p = TensorOp(ltd.N, 2, caps,
                         {((i, j), (j, i)): HSeries.one(caps)
                          for i in range(ltd.N) for j in range(ltd.N)})
            return p.embed(slots, m)
        if name == "conjM":
            return self.eval(args[0]).conj_diag(self.mdiag, slots[0], 1)
        return self.eval(args[0]).odot(self.eval(args[1]), slots, name[-2:])


def evaluate_sides(script: IdentityScript):
    """Evaluate both sides; returns (lhs, rhs) TensorOps."""
    ctx = _Context(script)
    return ctx.eval(script.lhs), ctx.eval(script.rhs)
