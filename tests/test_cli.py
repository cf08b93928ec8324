import json
from fractions import Fraction

import pytest

from rmx.checks import (CHECKS, CHECK_NAMES, builtin_check,
                        correspondence_check)
from rmx.cli import main
from rmx.module_checks import MODULE_CHECK_NAMES, weak_assoc_chain

PERTURBED = """\
type C 1
order 2
slots 3
spectral u v
check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == Rhat[2,3](v) * Rhat[1,3](u-v) * Rhat[1,2](u)
"""


def test_check_pass_exit_zero(capsys):
    code = main(["check", "unitarity_hat", "--family", "C", "--n", "1",
                 "--order", "2", "--format", "json"])
    out = capsys.readouterr().out
    reports = json.loads(out)
    assert code == 0
    assert reports[0]["verdict"] == "pass"
    assert list(reports[0]) == ["name", "params", "verdict",
                                "residual_count", "witness", "elapsed_ms"]


def test_check_module_layer(capsys):
    code = main(["check", "tminus_vacuum", "--order", "2", "--level", "1"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_check_inconclusive_exit_two(capsys):
    code = main(["check", "correspondence", "--family", "C", "--n", "1",
                 "--order", "2", "--r-max", "0"])
    assert code == 2
    assert "INCONCLUSIVE" in capsys.readouterr().out


def test_unknown_check_usage_error(capsys):
    code = main(["check", "nope"])
    assert code == 64
    assert "unknown check" in capsys.readouterr().err


def test_bad_caps_usage_error():
    assert main(["check", "unitarity_hat", "--caps", "u=x"]) == 64


def test_bad_level_usage_error():
    assert main(["check", "csuni", "--level", "frog"]) == 64


def test_suite_with_negative_control(tmp_path, capsys):
    suite = [
        {"name": "unitarity_hat", "family": "C", "n": 1, "order": 2},
        {"name": "perturbed_ybe", "script": PERTURBED},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code = main(["suite", str(path), "--format", "json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [r["name"] for r in reports] == ["unitarity_hat", "perturbed_ybe"]
    assert reports[0]["verdict"] == "pass"
    assert reports[1]["verdict"] == "fail"
    assert reports[1]["residual_count"] > 0


POLE = """\
type C 1
order 2
slots 2
spectral u
check Rhat[1,2](u-u) == 1
"""


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_suite_entry_error_keeps_other_reports(tmp_path, capsys, fmt):
    suite = [
        {"name": "unitarity_hat", "family": "C", "n": 1, "order": 2},
        {"name": "at_pole", "script": POLE},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code = main(["suite", str(path), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 1
    if fmt == "text":
        lines = out.splitlines()
        assert lines[0].startswith("PASS ") and lines[1].startswith("ERROR ")
        assert "EvalError: " in lines[1]
        return
    reports = json.loads(out)
    assert [r["name"] for r in reports] == ["unitarity_hat", "at_pole"]
    assert [r["verdict"] for r in reports] == ["pass", "error"]
    assert reports[1]["residual_count"] == 0
    assert reports[1]["witness"].startswith("EvalError: ")
    assert reports[1]["params"] == {"family": "C", "n": 1, "L": 2,
                                    "slots": 2}


def test_inverse_of_a_nonscalar_constant_part_is_an_error_report(tmp_path,
                                                                  capsys):
    # ^-1 inverts only a scalar times the identity at order zero; P is not
    script = "type C 1\norder 2\nslots 2\ncheck P[1,2]^-1 == P[1,2]\n"
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([{"name": "p_inverse", "script": script}]))
    code = main(["suite", str(path), "--format", "json"])
    captured = capsys.readouterr()
    report, = json.loads(captured.out)
    assert code == 1
    assert (report["verdict"], report["residual_count"], report["witness"]) \
        == ("error", 0, "ValueError: constant part is not scalar; "
                        "cannot invert")
    assert "Traceback" not in captured.out + captured.err


def test_check_error_report(monkeypatch, capsys):
    def broken(family, n, L):
        raise ZeroDivisionError("pole")

    monkeypatch.setitem(CHECKS, "gfunc", broken)
    code = main(["check", "gfunc", "--order", "2", "--format", "json"])
    report, = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (report["verdict"], report["residual_count"], report["witness"]) \
        == ("error", 0, "ZeroDivisionError: pole")


def test_suite_order_is_config_order(tmp_path, capsys):
    suite = [
        {"name": "g_one", "family": "C", "n": 1, "order": 2},
        {"name": "gfunc", "family": "C", "n": 1, "order": 2},
        {"name": "unitarity_hat", "family": "C", "n": 1, "order": 2},
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code = main(["suite", str(path), "--format", "json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["name"] for r in reports] == ["g_one", "gfunc", "unitarity_hat"]


def test_series_json(capsys):
    code = main(["series", "--family", "C", "--n", "1", "--order", "2",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["L"] == 2 and payload["g1"]


def test_usage_error_without_subcommand():
    assert main([]) == 64


VALID = {"name": "unitarity_hat", "order": 2}
SCRIPT = "type C 1\norder 2\nslots 2\nspectral u\ncheck Rhat[1,2](u) == 1\n"


def _bad_script(old, new):
    return {"name": "bad", "script": SCRIPT.replace(old, new)}


BAD_SUITES = {
    "misspelled key": {"name": "gfunc", "order": 2, "levle": 1},
    "unused key": {"name": "gfunc", "order": 2, "k": 2},
    "missing name": {"family": "C", "order": 2},
    "non-object entry": "gfunc",
    "unparsable script": {"name": "bad", "script": "type C 1\norder 2\n"},
    "script of rank 0": _bad_script("type C 1", "type C 0"),
    "script of type D1": _bad_script("type C 1", "type D 1"),
    "script of order 0": _bad_script("order 2", "order 0"),
    "script with cap 0": _bad_script("spectral u", "spectral u\nformal w : 0"),
    "script declaring u twice": _bad_script("spectral u", "spectral u u"),
    "script declaring h": _bad_script("spectral u", "spectral u h"),
    "script repeating order": _bad_script("order 2", "order 2\norder 3"),
    "script declaring slots 0": {"name": "bad", "script":
                                 "type C 1\norder 2\nslots 0\ncheck 1 == 1\n"},
    "script dividing by 0": _bad_script("== 1", "== 1/0"),
}


@pytest.mark.parametrize("args", [
    ["check", "ybe_hat", "--order", "0"],
    ["check", "ybe_hat", "--n", "0"],
    ["check", "ybe_hat", "--family", "Q"],
    ["check", "ybe_hat", "--family", "D", "--n", "1"],
    ["check", "unitarity_hat", "--k", "2"],
    ["check", "tminus_vacuum", "--alpha", "1"],
    ["check", "weak_assoc_chain", "--caps", "v=2"],
    ["series", "--zdeg", "0"],
    ["series", "--zdeg", "-1"],
] + [["suite", case] for case in BAD_SUITES], ids=" ".join)
def test_usage_errors(args, tmp_path, capsys):
    if args[0] == "suite":
        # the valid first entry must not run either
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([VALID, BAD_SUITES[args[1]]]))
        args = ["suite", str(path)]
    assert main(args) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("usage error: ")


def _api_report(entry):
    name, L = entry["name"], entry["order"]
    if name == "correspondence":
        return correspondence_check("C", 1, alpha=0, a=1, b=1, l=L)
    if name == "weak_assoc_chain":
        return weak_assoc_chain("C", 1, L=L, c=Fraction(1), cap_uv=1)
    if name in MODULE_CHECK_NAMES or name == "csuni":
        return builtin_check(name, "C", 1, L=L, c=Fraction(1))
    return builtin_check(name, "C", 1, L=L)


def test_every_registered_check_runs_in_a_suite(tmp_path, capsys):
    assert sorted(CHECK_NAMES + MODULE_CHECK_NAMES) == sorted(CHECKS)
    assert len(CHECKS) == 17
    suite = []
    for name in sorted(CHECKS):
        entry = {"name": name, "family": "C", "n": 1, "order": 2}
        if name == "weak_assoc_chain":
            entry.update(order=1, caps={"u": 1})
        if name == "correspondence":
            entry.update(order=1, caps={"u": 1, "v": 1})
        suite.append(entry)
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    code = main(["suite", str(path), "--format", "json"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["name"] for r in reports] == [e["name"] for e in suite]
    for entry, got in zip(suite, reports):
        want = json.loads(_api_report(entry).to_json())
        del got["elapsed_ms"], want["elapsed_ms"]
        assert got == want
