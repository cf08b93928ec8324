import pytest

from rmx.script import (EvalError, ScriptError, evaluate_sides, parse_script,
                        print_script)

YBE = """\
type C 1
order 3
slots 3
spectral u v
check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == Rhat[2,3](v) * Rhat[1,3](u+v) * Rhat[1,2](u)
"""


def test_parse_roundtrip():
    script = parse_script(YBE)
    assert script.family == "C" and script.n == 1
    assert script.order == 3 and script.slots == 3
    assert script.spectral == ("u", "v")
    printed = print_script(script)
    assert parse_script(printed) == script


def test_roundtrip_with_postfix_and_formal():
    text = """\
type B 1
order 2
slots 2
spectral u
formal w : 2
check Rhat[1,2](u+1/2h-w)^t[1]^-1 * M[1] == conjM[2](P[1,2] * 1/2)
"""
    script = parse_script(text)
    printed = print_script(script)
    assert parse_script(printed) == script


def test_odot_roundtrip():
    text = """\
type C 1
order 2
slots 2
spectral u
check odotLR[1](Rhat[1,2](u); M[2]) == odotRL[2](Rhat[2,1](-u); P[1,2])
"""
    script = parse_script(text)
    assert parse_script(print_script(script)) == script


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
    ("spectral u v", "spectral u v\nformal w : 0", "cap of 'w'"),
    ("spectral u v", "spectral u v\nformal u : 2", "'u' is already declared"),
    ("spectral u v", "spectral u v\nformal h : 5", "'h' is already declared"),
], ids=["rank", "type", "order", "cap", "twice", "h"])
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
    text = """\
type C 1
order 2
slots 2
spectral u
check Rhat[1,2](u-u+h) == 1
"""
    with pytest.raises(EvalError, match=r"Rhat\[1,2\]"):
        evaluate_sides(parse_script(text))


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
    ("== Rhat[1,2](u)", "== Rhat[1,3](u)", 5, 27),
    ("Rhat[1,2](u) ==", "Rhat[1,2](w) ==", 5, 17),
    ("spectral u\n", "spectral u\nformal u : 2\n", 5, 8),
    ("Rhat[1,2](u) ==", "Rhat[1,2](u)^t[3] ==", 5, 22),
    ("slots 2\nspectral u\n", "", 3, 1),
], ids=["order", "slot-pair", "undeclared", "twice", "transpose", "missing"])
def test_script_error_names_the_offending_token(old, new, line, col):
    with pytest.raises(ScriptError) as err:
        parse_script(SMALL.replace(old, new))
    assert (err.value.line, err.value.col) == (line, col)
