"""A/B timing of named frontier checks in two checkouts.

    python3 tools/frontier_ab.py BASE CHANGE \
        "hexagon --family B --n 1 --order 3" \
        "s_ybe --family C --n 2 --order 2"

Each quoted argument is the argument list of one ``rmx check`` run.  For
each check the two checkouts run alternately, ``RUNS`` times each, every
run a fresh interpreter with the checkout's ``src`` on ``PYTHONPATH``.
BASE runs first in the even pairs and CHANGE first in the odd ones, so
that an effect of run order falls on both sides alike.  Each run times
itself with ``time.perf_counter`` around the check, after the imports,
and prints those seconds after its report.  The script prints the raw
median, quartiles (``statistics.quantiles``, n=4), low and high of these
times per checkout, to 0.1 ms, the change of the median, in how many of
the ``RUNS`` alternating pairs (the i-th run of each checkout) CHANGE was
faster than BASE, and whether the gap between the medians exceeds BASE's
interquartile range.  A gain may be claimed only when CHANGE wins at
least nine tenths of the pairs and the gap exceeds that range.  Raw means
that no calibration rescales the times: compare the two columns of one
invocation only, since the machine's speed drifts between invocations.

Exit status: 0 when every report of a check, its ``elapsed_ms`` aside,
equals every other report of that check in both checkouts; 1 when one
differs, with the differing reports printed, and 1 when a run prints no
report, with that run's exit status and standard error; 64 on a usage
error, such as a checkout without ``src/rmx``.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

USAGE_EXIT = 64
RUNS = 10
# the check's seconds go on the last line of standard output, after the
# report
RUN = ("import sys, time\n"
       "from rmx.cli import main\n"
       "start = time.perf_counter()\n"
       "code = main()\n"
       "print(time.perf_counter() - start)\n"
       "sys.exit(code)")


def run_check(root: Path, args: list) -> tuple:
    """(report without its time, seconds) of one ``rmx check`` run."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, "check", *args, "--format", "json"],
        env=env, capture_output=True, text=True)
    text, _, seconds = proc.stdout.rstrip().rpartition("\n")
    try:
        report, = json.loads(text)
        seconds = float(seconds)
    except ValueError:
        raise SystemExit(f"{root}: rmx check {shlex.join(args)} printed no "
                         f"report (exit {proc.returncode}):\n{proc.stderr}")
    del report["elapsed_ms"]
    return json.dumps(report, sort_keys=True), seconds


def spread(times: list) -> str:
    q1, _, q3 = statistics.quantiles(times, n=4)
    return (f"{statistics.median(times):9.4f} s [{q1:.4f}, {q3:.4f}] "
            f"[{min(times):.4f}, {max(times):.4f}]")


def gap(base: list, change: list) -> str:
    """Whether the medians lie further apart than BASE's quartiles."""
    q1, _, q3 = statistics.quantiles(base, n=4)
    diff = abs(statistics.median(change) - statistics.median(base))
    verdict = "exceeds" if diff > q3 - q1 else "is within"
    return f"{diff:.4f} s {verdict} the base IQR {q3 - q1:.4f} s"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="checkout without the change")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("checks", nargs="+",
                        help='one quoted "rmx check" argument list each')
    try:
        opts = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code else 0
    roots = (opts.base, opts.change)
    for root in roots:
        if not (root / "src" / "rmx").is_dir():
            print(f"{root} has no src/rmx", file=sys.stderr)
            return USAGE_EXIT
    differ = False
    print(f"raw seconds, median [quartiles] [low, high] of {RUNS} "
          "alternating runs")
    for check in opts.checks:
        args = shlex.split(check)
        reports, times = {}, ([], [])
        for i in range(RUNS):
            for side in (0, 1) if i % 2 == 0 else (1, 0):
                report, seconds = run_check(roots[side], args)
                reports.setdefault(report, set()).add(side)
                times[side].append(seconds)
        base, change = (statistics.median(t) for t in times)
        won = sum(c < b for b, c in zip(*times))
        print(f"{check}\n  base   {spread(times[0])}\n  change "
              f"{spread(times[1])}  ({(change - base) / base:+.1%})\n"
              f"  won    {won} of {RUNS} pairs by change\n"
              f"  gap    {gap(*times)}")
        if len(reports) > 1:
            differ = True
            print("  REPORTS DIFFER:")
            for report, sides in reports.items():
                names = "/".join(("base", "change")[s] for s in sorted(sides))
                print(f"    {names}: {report}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
