from fractions import Fraction

import pytest

from rmx.script import (Atom, EvalError, IdentityScript, Inv, LinForm, Prod,
                        Scalar, ScriptError, Transpose, evaluate_sides,
                        parse_script)

YBE = """\
type C 1
order 3
slots 3
spectral u v
check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == Rhat[2,3](v) * Rhat[1,3](u+v) * Rhat[1,2](u)
"""


def _lin(**coeffs):
    return LinForm(tuple(sorted((name, Fraction(c))
                                for name, c in coeffs.items())))


def _rhat(i, j, **coeffs):
    return Atom("Rhat", (i, j), (_lin(**coeffs),))


def test_parse_ybe():
    assert parse_script(YBE) == IdentityScript(
        "C", 1, 3, 3, ("u", "v"), (),
        Prod((_rhat(1, 2, u=1), _rhat(1, 3, u=1, v=1), _rhat(2, 3, v=1))),
        Prod((_rhat(2, 3, v=1), _rhat(1, 3, u=1, v=1), _rhat(1, 2, u=1))))


def test_parse_postfix_and_formal():
    text = """\
type B 1
order 2
slots 2
spectral u
formal w : 2
check Rhat[1,2](u+1/2h-w)^t[1]^-1 * M[1] == conjM[2](P[1,2] * 1/2)
"""
    # postfixes apply left to right: the transpose first, then the inverse
    r = _rhat(1, 2, u=1, h=Fraction(1, 2), w=-1)
    assert parse_script(text) == IdentityScript(
        "B", 1, 2, 2, ("u",), (("w", 2),),
        Prod((Inv(Transpose(r, 1)), Atom("M", (1,), ()))),
        Atom("conjM", (2,), (Prod((Atom("P", (1, 2), ()),
                                   Scalar(Fraction(1, 2)))),)))


def test_parse_odot():
    text = """\
type C 1
order 2
slots 2
spectral u
check odotLR[1](Rhat[1,2](u); M[2]) == odotRL[2](Rhat[2,1](-u); P[1,2])
"""
    script = parse_script(text)
    assert script.lhs == Atom("odotLR", (1,),
                              (_rhat(1, 2, u=1), Atom("M", (2,), ())))
    assert script.rhs == Atom("odotRL", (2,),
                              (_rhat(2, 1, u=-1), Atom("P", (1, 2), ())))


def test_parse_error_position():
    bad = YBE.replace("Rhat[1,2](u) ", "Rhat[1,2](u ")
    with pytest.raises(ScriptError) as err:
        parse_script(bad)
    assert err.value.line == 5
    assert err.value.col > 1


def test_unknown_atom():
    bad = YBE.replace("Rhat[1,2](u)", "Rwhat[1,2](u)", 1)
    with pytest.raises(ScriptError, match="unknown atom"):
        parse_script(bad)


def test_undeclared_variable():
    bad = YBE.replace("spectral u v", "spectral u")
    with pytest.raises(ScriptError, match="undeclared variable"):
        parse_script(bad)


def test_slot_out_of_range():
    bad = YBE.replace("Rhat[2,3](v) ==", "Rhat[2,4](v) ==")
    with pytest.raises(ScriptError, match="out of range"):
        parse_script(bad)


def test_missing_declarations():
    with pytest.raises(ScriptError, match="missing type"):
        parse_script("order 2\nslots 2\ncheck 1 == 1\n")


@pytest.mark.parametrize("old,new,match", [
    ("type C 1", "type C 0", "rank must be at least 1"),
    ("type C 1", "type D 1", "type D requires rank at least 2"),
    ("order 3", "order 0", "order must be at least 1"),
    ("slots 3", "slots 0", "slots must be at least 1"),
    ("spectral u v", "spectral u v\nformal w : 0", "cap of 'w'"),
    ("spectral u v", "spectral u v\nformal u : 2", "'u' is already declared"),
    ("spectral u v", "spectral u v\nformal h : 5", "'h' is already declared"),
], ids=["rank", "type", "order", "slots", "cap", "twice", "h"])
def test_bad_declaration_is_a_script_error(old, new, match):
    with pytest.raises(ScriptError, match=match):
        parse_script(YBE.replace(old, new))


def test_fractional_spectral_coefficient_rejected():
    bad = YBE.replace("Rhat[1,3](u+v) * Rhat[2,3](v) ==",
                      "Rhat[1,3](1/2u+v) * Rhat[2,3](v) ==")
    with pytest.raises(ScriptError, match="must be an integer"):
        parse_script(bad)


def test_trivial_script_evaluates_equal():
    text = """\
type C 1
order 2
slots 2
spectral u
check Rhat[1,2](u) == Rhat[1,2](u)
"""
    lhs, rhs = evaluate_sides(parse_script(text))
    assert lhs == rhs


def test_pole_surfaces_as_eval_error():
    # the message names the atom with its argument's linear form reduced
    for atom, shown in (("Rhat[1,2](u-u+h)", "Rhat[1,2](h)"),
                        ("Rhat[1,2](u-u)", "Rhat[1,2](0)"),
                        ("Rhat[2,1](1/2h-u+u-h)", "Rhat[2,1](-1/2h)")):
        text = ("type C 1\norder 2\nslots 2\nspectral u\n"
                f"check {atom} == 1\n")
        with pytest.raises(EvalError) as err:
            evaluate_sides(parse_script(text))
        assert str(err.value) == (f"{shown}: R-matrix pole: "
                                  "argument equals 1 at order zero")


def test_reassociation_invariance():
    text1 = """\
type C 1
order 2
slots 2
spectral u
check (Rhat[1,2](u) * M[1]) * M[2] == Rhat[1,2](u) * (M[1] * M[2])
"""
    lhs, rhs = evaluate_sides(parse_script(text1))
    assert lhs == rhs


SMALL = """\
type C 1
order 2
slots 2
spectral u
check Rhat[1,2](u) == Rhat[1,2](u)
"""


@pytest.mark.parametrize("old,new,line,col", [
    ("order 2", "order 0", 2, 7),
    ("slots 2", "slots 0", 3, 7),
    ("== Rhat[1,2](u)", "== Rhat[1,3](u)", 5, 27),
    ("Rhat[1,2](u) ==", "Rhat[1,2](w) ==", 5, 17),
    ("spectral u\n", "spectral u\nformal u : 2\n", 5, 8),
    ("Rhat[1,2](u) ==", "Rhat[1,2](u)^t[3] ==", 5, 22),
    ("slots 2\nspectral u\n", "", 3, 1),
    ("== Rhat[1,2](u)", "== 1/0", 5, 25),
    ("Rhat[1,2](u) ==", "Rhat[1,2](1/0u) ==", 5, 19),
], ids=["order", "slots", "slot-pair", "undeclared", "twice", "transpose",
        "missing", "zero-denominator", "zero-denominator-in-argument"])
def test_script_error_names_the_offending_token(old, new, line, col):
    with pytest.raises(ScriptError) as err:
        parse_script(SMALL.replace(old, new))
    assert (err.value.line, err.value.col) == (line, col)


@pytest.mark.parametrize("old,new,line,col", [
    ("type C 1\n", "type C 1\ntype B 1\n", 2, 1),
    ("order 2\n", "order 2\norder 3\n", 3, 1),
    ("slots 2\n", "slots 2\nslots 3\n", 4, 1),
], ids=["type", "order", "slots"])
def test_repeated_declaration_is_a_script_error(old, new, line, col):
    keyword = old.split()[0]
    with pytest.raises(ScriptError, match=f"'{keyword}' is already declared"
                       ) as err:
        parse_script(SMALL.replace(old, new))
    assert (err.value.line, err.value.col) == (line, col)
