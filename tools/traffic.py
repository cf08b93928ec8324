"""Which code of ``src/rmx`` a fixed set of runs never reaches.

    python3 tools/traffic.py

One process runs the fixed set below under ``sys.settrace``, tracing only
the files of ``src/rmx``:

- every entry of the benchmark's workloads (``perfbench/workloads.py``) at
  seeds 0 and 1;
- every registered check but ``correspondence`` and ``weak_assoc_chain`` at
  C1 L=3, B1 L=2 and D2 L=2, without ``hexagon`` and ``s_ybe`` at D2;
- the golden suite's entries through ``rmx.builtin_check`` and
  ``rmx.evaluate``: every registered check at C1 L=2 (``correspondence`` at
  alpha 0, ``weak_assoc_chain`` at level 1) and the perturbed YBE script;
- five ``correspondence`` and four ``weak_assoc_chain`` configurations,
  ``r_max=0`` among them.

It prints, per module, the functions never entered, then the lines never
run of the functions that were entered, each in line order.  A function's
lines include those of the comprehensions and lambdas in it.  Module and
class bodies run at import and are not counted, but the functions that
they call are: ``rmx`` is first imported under the trace.  The survey
names what the set does not reach; whether other code (the CLI, the
benchmark's tracer, tests) needs it is for the reader to check.

It takes no options.  Exit status: 0; 64 when given an argument.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from fractions import Fraction
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rmx"
USAGE_EXIT = 64

PERTURBED_YBE = ("type C 1\norder 2\nslots 3\nspectral u v\n"
                 "check Rhat[1,2](u) * Rhat[1,3](u+v) * Rhat[2,3](v) == "
                 "Rhat[2,3](v) * Rhat[1,3](u-v) * Rhat[1,2](u)\n")
# (family, n, order, alpha, r_max)
CORRESPONDENCE = (("C", 1, 3, Fraction(1, 2), 16), ("C", 1, 4, 0, 16),
                  ("B", 1, 3, 1, 16), ("D", 2, 2, Fraction(-1, 2), 16),
                  ("C", 1, 2, 0, 0))
# (family, n, L, c, cap_uv, r_max)
WEAK_ASSOC = (("C", 1, 2, 0, 2, 16), ("C", 1, 3, 1, 1, 16),
              ("B", 1, 2, 0, 1, 16), ("C", 1, 2, 0, 1, 0))


def fixed_set():
    """Yield the survey's runs; the first imports ``rmx``.  Needs ``src``
    and ``perfbench`` on ``sys.path``."""
    import workloads
    for seed in (0, 1):
        for workload in workloads.WORKLOADS:
            for entry in workloads.build(workload, seed):
                yield partial(workloads.run_entry, entry)
    import rmx
    from rmx.script import parse_script
    grid = [name for name in sorted(rmx.checks.CHECKS)
            if name not in ("correspondence", "weak_assoc_chain")]
    for family, n, L in (("C", 1, 3), ("B", 1, 2), ("D", 2, 2)):
        for name in grid:
            if family != "D" or name not in ("hexagon", "s_ybe"):
                yield partial(rmx.builtin_check, name, family, n, L=L)
    golden = {"correspondence": {"alpha": 0}, "weak_assoc_chain": {"c": 1}}
    for name in sorted(rmx.checks.CHECKS):
        yield partial(rmx.builtin_check, name, "C", 1, L=2,
                      **golden.get(name, {}))
    yield partial(rmx.evaluate, parse_script(PERTURBED_YBE))
    for family, n, l, alpha, r_max in CORRESPONDENCE:
        yield partial(rmx.correspondence_check, family, n, alpha, l=l,
                      r_max=r_max)
    for family, n, L, c, cap_uv, r_max in WEAK_ASSOC:
        yield partial(rmx.weak_assoc_chain, family, n, L=L, c=c,
                      cap_uv=cap_uv, r_max=r_max)


def _functions(path: Path) -> dict:
    """qualname -> the code objects of that function in the source at
    ``path``: its own, then its comprehensions' and lambdas'."""
    functions = {}

    def walk(code, owner):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name.startswith("<") and (
                    owner or const.co_name != "<lambda>"):
                inner = owner          # a comprehension, or a nested lambda
            elif const.co_flags & inspect.CO_OPTIMIZED:
                inner = const.co_qualname
            else:
                inner = None           # a class body
            if inner:
                functions.setdefault(inner, []).append(const)
            walk(const, inner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return functions


def _lines(code) -> set:
    return {line for _, _, line in code.co_lines() if line is not None}


def survey(runs) -> dict:
    """Run each zero-argument callable of ``runs`` under the trace.
    Returns {module file name: (never entered, never run)}: the qualnames of
    the functions never entered, and {qualname: sorted line numbers} of the
    lines never run of the functions entered, both in line order."""
    prefix = str(PACKAGE) + "/"
    run = {}          # (file, qualname, first line) -> lines run
    tracers = {}      # id(code) -> its line tracer, or None
    codes = []        # keeps every traced code object, and so its id, alive

    def line_tracer(add):
        def trace(frame, event, arg):
            add(frame.f_lineno)
            return trace
        return trace

    def on_call(frame, event, arg):
        code = frame.f_code
        try:
            return tracers[id(code)]
        except KeyError:
            pass
        codes.append(code)
        tracer = None
        if code.co_filename.startswith(prefix):
            key = (code.co_filename, code.co_qualname, code.co_firstlineno)
            seen = run.setdefault(key, {code.co_firstlineno})
            tracer = line_tracer(seen.add)
        tracers[id(code)] = tracer
        return tracer

    sys.settrace(on_call)
    try:
        for call in runs:
            call()
    finally:
        sys.settrace(None)
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        never, unrun = [], {}
        functions = sorted(_functions(path).items(),
                           key=lambda item: item[1][0].co_firstlineno)
        for qualname, own in functions:
            keys = [(str(path), c.co_qualname, c.co_firstlineno) for c in own]
            if keys[0] not in run:
                never.append(qualname)
                continue
            lines = set().union(*map(_lines, own))
            lines -= set().union(*(run.get(key, ()) for key in keys))
            if lines:
                unrun[qualname] = sorted(lines)
        out[path.name] = (never, unrun)
    return out


def _ranges(lines) -> str:
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    if sys.argv[1:] if argv is None else argv:
        print("usage: python3 tools/traffic.py", file=sys.stderr)
        return USAGE_EXIT
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True
    start = time.perf_counter()
    result = survey(fixed_set())
    print(f"traced src/rmx in {time.perf_counter() - start:.1f} s")
    for module, (never, unrun) in result.items():
        print(f"\n{module}")
        print("  never entered: " + (", ".join(never) or "none"))
        for qualname, lines in unrun.items():
            print(f"  {qualname}: {_ranges(lines)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
