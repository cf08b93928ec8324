"""Command-line interface for running checks.

Exit codes: 0 all checks passed, 1 at least one failed or raised an error,
2 no failures or errors but at least one inconclusive result, 64 usage
error.  A check that raises while it runs gets an "error" report, and the
other entries of a suite still run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from fractions import Fraction

import click

from .checks import CHECKS, evaluate, order_keyword, script_params
from .lietype import lie_type_data
from .report import CheckReport
from .rmatrix import solve_normalizer
from .script import ScriptError, parse_script

USAGE_EXIT = 64

# Cap variable -> the parameters it feeds, whichever the check takes.
_CAP_PARAMS = {"u": ("a", "cap_uv"), "v": ("b",)}


def _parse_caps(text):
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise click.UsageError(f"bad caps entry {piece!r}; expected name=cap")
        name, value = piece.split("=", 1)
        try:
            out[name.strip()] = int(value)
        except ValueError:
            raise click.UsageError(f"cap for {name!r} must be an integer")
    return out


def _integer(key, value, low):
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise click.UsageError(
            f"{key} must be an integer of at least {low}, got {value!r}")
    return value


def _rational(key, value):
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"{key} must be a rational, got {value!r}")


def _lie_type(family, n):
    try:
        return lie_type_data(family, _integer("n", n, 1))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _guarded(name, params, run):
    """A thunk that runs ``run`` and reports an exception it raises as an
    "error" verdict with witness "<ExceptionType>: <message>"."""
    def thunk():
        start = time.monotonic()
        try:
            return run()
        except Exception as exc:
            return CheckReport(name, params, "error", 0,
                               f"{type(exc).__name__}: {exc}",
                               int((time.monotonic() - start) * 1000))
    return thunk


def _bind(name, family="C", n=1, order=3, caps=None, level=None, k=None,
          alpha=None, r_max=None):
    """Bind options or suite keys to the keyword arguments of check
    ``name``; returns a guarded thunk that runs it.  Raises UsageError for
    a bad value or an option the check does not take."""
    if name not in CHECKS:
        raise click.UsageError(f"unknown check {name!r}; available: "
                               + ", ".join(sorted(CHECKS)))
    check = CHECKS[name]
    takes = inspect.signature(check).parameters
    _lie_type(family, n)
    kwargs = {order_keyword(check): _integer("order", order, 1)}
    # option, its parameter, and its default where the check takes it
    for key, param, value, default in (("level", "c", level, 1),
                                       ("k", "k", k, None),
                                       ("alpha", "alpha", alpha, 0),
                                       ("r_max", "r_max", r_max, None)):
        if value is None and param in takes:
            value = default
        if value is None:
            continue
        if param not in takes:
            raise click.UsageError(f"check {name!r} does not take {key}")
        kwargs[param] = (_rational(key, value) if param in ("c", "alpha")
                         else _integer(key, value, 1 if param == "k" else 0))
    if not isinstance(caps or {}, dict):
        raise click.UsageError(f"caps must be an object, got {caps!r}")
    for var, cap in (caps or {}).items():
        params = [p for p in _CAP_PARAMS.get(var, ()) if p in takes]
        if not params:
            raise click.UsageError(f"check {name!r} takes no cap on {var!r}")
        kwargs[params[0]] = _integer(f"cap {var}", cap, 1)
    return _guarded(name, {"family": family, "n": n, **kwargs},
                    lambda: check(family, n, **kwargs))


def _suite_entry(cfg):
    """The thunk of one suite entry; raises UsageError for a bad entry."""
    if not isinstance(cfg, dict) or not isinstance(cfg.get("name"), str):
        raise click.UsageError(
            f"suite entry must be an object with a \"name\" string: {cfg!r}")
    if "script" not in cfg:
        unknown = sorted(set(cfg) - set(inspect.signature(_bind).parameters))
        if unknown:
            raise click.UsageError(f"unknown suite keys {unknown} in {cfg!r}")
        return _bind(**cfg)
    if set(cfg) != {"name", "script"} or not isinstance(cfg["script"], str):
        raise click.UsageError(f"script entry {cfg['name']!r} must hold only "
                               "\"name\" and a \"script\" string")
    try:
        script = parse_script(cfg["script"])
    except ScriptError as exc:
        raise click.UsageError(f"script entry {cfg['name']!r}: {exc}")
    return _guarded(cfg["name"], script_params(script),
                    lambda: evaluate(script, name=cfg["name"]))


def _emit(reports, fmt):
    if fmt == "json":
        click.echo("[" + ", ".join(r.to_json() for r in reports) + "]")
    else:
        for r in reports:
            click.echo(r.to_text())


def _exit_code(reports) -> int:
    if any(r.verdict in ("fail", "error") for r in reports):
        return 1
    if any(r.verdict == "inconclusive" for r in reports):
        return 2
    return 0


@click.group()
def cli():
    """Exact finite-order checks for trigonometric R-matrix structures."""


@cli.command("check")
@click.argument("name")
@click.option("--family", default="C", help="Lie type family (B, C, or D).")
@click.option("--n", default=1, type=int, help="Rank.")
@click.option("--order", default=3, type=int, help="Truncation order.")
@click.option("--caps", default=None,
              help="Formal-variable caps, e.g. u=2,v=2.")
@click.option("--level", default=None,
              help="Central charge (a rational, e.g. 1 or 1/2); default 1.")
@click.option("--k", type=int, default=None, help="Word length.")
@click.option("--alpha", default=None, help="Shift parameter (rational).")
@click.option("--r-max", "r_max", type=int, default=None,
              help="Largest prefactor exponent that may clear a pole.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text")
def check_cmd(name, family, n, order, caps, level, k, alpha, r_max, fmt):
    """Run one named check and print its report."""
    rep = _bind(name, family, n, order, _parse_caps(caps), level, k, alpha,
                r_max)()
    _emit([rep], fmt)
    raise SystemExit(_exit_code([rep]))


@cli.command("suite")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text")
def suite_cmd(file, fmt):
    """Run every check configured in a JSON suite file, in order.

    The file holds a list of objects with keys "name", "family", "n",
    "order" plus optional "caps", "level", "k", "alpha", "r_max", or "name"
    and "script".  Every entry is validated before any runs; an entry that
    raises while it runs gets an "error" report and the rest still run."""
    with open(file) as fh:
        try:
            configs = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"suite file is not JSON: {exc}")
    if not isinstance(configs, list):
        raise click.UsageError("suite file must hold a JSON list")
    runs = [_suite_entry(cfg) for cfg in configs]
    reports = [run() for run in runs]
    _emit(reports, fmt)
    raise SystemExit(_exit_code(reports))


@cli.command("series")
@click.option("--family", default="C")
@click.option("--n", default=1, type=int)
@click.option("--order", default=4, type=int)
@click.option("--zdeg", default=10, type=int,
              help="Degree of the independent series oracle (at least 1).")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text")
def series_cmd(family, n, order, zdeg, fmt):
    """Solve and print the normalizing series to the given order."""
    norm = solve_normalizer(_lie_type(family, n),
                            L=_integer("order", order, 1),
                            z_degree_oracle=_integer("zdeg", zdeg, 1))
    if fmt == "json":
        click.echo(json.dumps({"family": family, "n": n, "L": order,
                               "g1": norm.g1.to_data()}))
    else:
        click.echo(f"g1[{family}{n}, order {order}] = {norm.g1!r}")
    raise SystemExit(0)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return USAGE_EXIT
    except click.ClickException as exc:
        exc.show()
        return USAGE_EXIT
    except click.exceptions.Abort:
        return USAGE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
