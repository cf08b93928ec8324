"""One pass of one workload in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It imports rmx, builds the workload's entries, optionally installs the layer
tracer, and then runs every entry once, one after another.  It writes one
JSON object per line to standard output:

    {"setup_done": <time.monotonic() when set-up ended>}
    {"calibration_s": ..., "calibration_cpu_s": ...}
                                  (before each entry and after the last)
    {"entry": <metric>, "seconds": ..., "cpu_s": ..., "report": [...] | null,
     "error": <why the entry failed> | null}
    {"pass": {"peak_rss_mb": ..., "layers": {...}, "counts": {...}}}

Each entry line is flushed as soon as the entry ends, so a crash loses only
the reports of entries that had not finished.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

import workloads

CALIBRATION_ROUNDS = 16
CALIBRATION_KEYS = ("calibration_s", "calibration_cpu_s")


def emit(obj):
    print(json.dumps(obj), flush=True)


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Calibration:
    """A fixed amount of sympy rational-function work, timed between
    entries to follow the machine's speed.  It uses variables rmx never
    uses, and runs with the garbage collector off so that the size of the
    program's heap does not add to its time."""

    def __init__(self):
        from sympy import QQ
        from sympy.polys.fields import field
        _, x, y = field("cal_x,cal_y", QQ)
        self.a = (1 + 2 * x - 3 * y ** 2) / (1 - x * y)
        self.b = (x - y + 5) / (2 + x ** 2)
        self.seconds()

    def seconds(self):
        """Wall and CPU seconds of one round of the calibration work."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            a, b = self.a, self.b
            t0, c0 = time.perf_counter(), time.process_time()
            for _ in range(CALIBRATION_ROUNDS):
                (a * b + a) / (b + 1)
            return time.perf_counter() - t0, time.process_time() - c0
        finally:
            if enabled:
                gc.enable()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import rmx  # noqa: F401  (the import is part of set-up)
    import rmx.script  # noqa: F401

    entries = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    emit({"setup_done": time.monotonic()})
    calibration = Calibration()

    busy = 0.0
    for entry in entries:
        emit(dict(zip(CALIBRATION_KEYS, calibration.seconds())))
        start = time.perf_counter()
        cpu_start = cpu_seconds()
        report = None
        try:
            rep = workloads.run_entry(entry)
        except Exception as exc:  # one bad entry must not stop the others
            error = f"raised {type(exc).__name__}: {exc}"
        else:
            data = json.loads(rep.to_json())
            report = [data["verdict"], data["residual_count"],
                      data["witness"]]
            error = workloads.judge(entry, report, args.seed)
        seconds = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
        busy += seconds
        emit({"entry": entry.metric, "seconds": seconds, "cpu_s": cpu,
              "report": report, "error": error})
    emit(dict(zip(CALIBRATION_KEYS, calibration.seconds())))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"peak_rss_mb": peak_kb / 1024}
    if tracer is not None:
        result["layers"] = {name: value for name, (value, _)
                            in tracer.metrics(busy).items()}
        result["counts"] = tracer.counts()
    emit({"pass": result})
    return 0


if __name__ == "__main__":
    sys.exit(main())
