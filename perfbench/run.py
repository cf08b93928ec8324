"""rmx benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload rmatrix_suite --seed 0 --seconds 36 \
        --trace 0

Run it from the root of a checkout; it needs ``src/rmx`` there and builds
nothing.  Every pass is a fresh interpreter (``child.py``) that runs the
workload's check list once, one entry after another, on one thread, with
``RMX_CACHE_DIR`` pointing at a new empty directory, so the normaliser
solves, constant operators and sympy fields start cold as they do for a CLI
user.  Each pass also times its own set-up, so ``setup_s`` is a median over
the run's set-ups.

With ``--trace 0`` the run reports the end-to-end metrics.  Each pass also
times a fixed calibration workload before each check and after the last, and
every time is rescaled to the calibration's reference speed before medians
are taken over the passes, because the machine's speed drifts with other
tenants' load (see RATIONALE.md).  With ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of the traced ones, the
tracing overhead (traced minus untraced wall time) and the share of traced
wall time that the layers' self times account for.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_PASSES = 2            # passes per run, traced ones included
RUN_LIMIT_S = 170         # every run ends within this, passes included
# Time of child.Calibration on the machine where the benchmark was written,
# in its fast state.  Reported times are rescaled to this speed.
CAL_REF_S = 0.023

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("max_verdict_s", "s"), ("peak_rss_mb", "MB"))

# Layers each workload must exercise, and layers it must leave alone.
USED_LAYERS = {
    "rmatrix_suite": ("ratfunc", "hseries", "tensorop", "rmatrix", "script"),
    "module_suite": ("ratfunc", "hseries", "tensorop", "rmatrix", "states"),
    "deep_series": ("ratfunc", "hseries", "tensorop", "rmatrix", "script"),
}
UNUSED_LAYERS = {"rmatrix_suite": ("states",), "module_suite": (),
                 "deep_series": ("states",)}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(name, unit) for name, (_, unit) in Tracer().metrics(1.0).items()]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    out += [(metric, "s") for metric in workloads.all_metrics()]
    return out


class Pass:
    """What one child interpreter reported."""

    def __init__(self, setup_s, calibrations, entries, result, error):
        self.setup_s = setup_s      # None if set-up never finished
        # "seconds" and "cpu_s" -> calibration times around each entry
        self.calibrations = calibrations
        self.entries = entries      # metric -> entry line
        self.result = result        # the final "pass" object, or None
        self.error = error          # why the child ended badly, or None

    def reference(self, entries, key):
        """metric -> ``key`` ("seconds" or "cpu_s") of each reported entry,
        rescaled to reference speed by the calibrations around it, timed
        on the same clock."""
        out = {}
        cal = self.calibrations[key]
        for i, entry in enumerate(entries):
            line = self.entries.get(entry.metric)
            if line is not None and i + 1 < len(cal):
                out[entry.metric] = line[key] * CAL_REF_S * 2 / (
                    cal[i] + cal[i + 1])
        return out

    def speed(self):
        """Reference speed over this pass's speed, from its calibrations."""
        return CAL_REF_S / median(self.calibrations["seconds"])


def spawn(args, timeout):
    """Run child.py in a fresh interpreter and parse its output lines."""
    cache = tempfile.mkdtemp(prefix="rmx-cache-", dir=ROOT / ".bench_build")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), RMX_CACHE_DIR=cache,
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    error = None
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        error = "timed out"
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    if error is None and proc.returncode:
        error = f"exit code {proc.returncode}: {err.strip()[-2000:]}"
    setup_s = result = None
    calibrations = {"seconds": [], "cpu_s": []}
    entries = {}
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "setup_done" in obj:
            setup_s = obj["setup_done"] - start
        elif "calibration_s" in obj:
            calibrations["seconds"].append(obj["calibration_s"])
            calibrations["cpu_s"].append(obj["calibration_cpu_s"])
        elif "entry" in obj:
            entries[obj["entry"]] = obj
        elif "pass" in obj:
            result = obj["pass"]
    return Pass(setup_s, calibrations, entries, result, error)


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rmx" / "__init__.py").is_file():
        print(f"error: no rmx package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    run_start = time.monotonic()
    deadline = run_start + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # Passes are untraced, or alternate untraced and traced.  There are at
    # least MIN_PASSES; a further pass starts only while it is expected to
    # end within --seconds.
    modes = (0, 1) if args.trace else (0,)
    passes = {0: [], 1: []}
    for i in itertools.count():
        mode = modes[i % len(modes)]
        begun = time.monotonic()
        done = spawn(common + ["--trace", str(mode)], deadline - begun)
        passes[mode].append(done)
        if done.setup_s is None:
            print(f"error: set-up failed: {done.error}", file=sys.stderr)
            return 2
        now = time.monotonic()
        last = now - begun
        if done.error or now + last > deadline:
            break
        if i + 1 >= MIN_PASSES and now - run_start + last > args.seconds:
            break

    entries = workloads.build(args.workload, args.seed)
    attempted = failed = 0
    problems = []
    for mode in modes:
        for done in passes[mode]:
            if done.error:
                problems.append(f"pass ended badly: {done.error}")
            for entry in entries:
                attempted += 1
                line = done.entries.get(entry.metric)
                reason = "report lost" if line is None else line["error"]
                if reason:
                    failed += 1
                    problems.append(f"{entry.metric}: {reason}")

    if args.trace:
        problems += trace_checks(args.workload, passes, entries)
        metrics = trace_metrics(passes, entries)
        units = dict(per_layer_metrics())
    else:
        metrics = e2e_metrics(passes[0], entries)
        units = dict(END_TO_END)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    n_untraced, n_traced = len(passes[0]), len(passes[1])
    print(f"{args.workload} seed={args.seed}: {n_untraced} untraced and "
          f"{n_traced} traced passes, {time.monotonic() - run_start:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':44s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} entries)")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def per_entry(passes, entries, key):
    """metric -> median over ``passes`` of the entry's reference ``key``."""
    samples = {entry.metric: [] for entry in entries}
    for p in passes:
        for metric, value in p.reference(entries, key).items():
            samples[metric].append(value)
    return {metric: median(values) for metric, values in samples.items()}


def e2e_metrics(passes, entries):
    seconds = per_entry(passes, entries, "seconds")
    return {
        "setup_s": median([p.setup_s * p.speed() for p in passes
                           if p.calibrations["seconds"]]),
        "wall_s": sum(seconds.values()),
        "cpu_s": sum(per_entry(passes, entries, "cpu_s").values()),
        "max_verdict_s": max(seconds.values()),
        "peak_rss_mb": median([p.result["peak_rss_mb"] for p in passes
                               if p.result is not None]),
    }


def trace_metrics(passes, entries):
    """Per-layer metrics: counts from one traced pass, times as medians over
    the traced passes.  Entry times are rescaled like the end-to-end ones;
    layer times by the median calibration of their pass."""
    untraced = [p for p in passes[0] if p.result is not None]
    traced = [p for p in passes[1] if p.result is not None]
    if not traced or not untraced:
        return {name: 0 for name, _ in per_layer_metrics()}

    def wall(p):
        return sum(p.reference(entries, "seconds").values())

    out = {}
    for name, (_, unit) in Tracer().metrics(1.0).items():
        if unit == "s":
            out[name] = median([p.result["layers"][name] * p.speed()
                                for p in traced])
        else:
            out[name] = traced[0].result["layers"][name]
    out["trace.wall_s"] = median([wall(p) for p in traced])
    out["trace.overhead_s"] = out["trace.wall_s"] - median(
        [wall(p) for p in untraced])
    out.update(per_entry(traced, entries, "seconds"))
    return {name: out.get(name, 0.0) for name, _ in per_layer_metrics()}


def trace_checks(workload, passes, entries):
    """Self-checks of a traced run; returns a list of problems."""
    problems = []
    traced = [p for p in passes[1] if p.result is not None]
    if not traced:
        return ["no traced pass finished"]
    for p in passes[1]:
        for q in passes[0]:
            for entry in entries:
                a, b = p.entries.get(entry.metric), q.entries.get(entry.metric)
                if a and b and a["report"] != b["report"]:
                    problems.append(f"{entry.metric}: traced report "
                                    f"{a['report']!r} differs from untraced "
                                    f"{b['report']!r}")
    counts = [p.result["counts"] for p in traced]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced passes")
    for layer in USED_LAYERS[workload]:
        if not any(n for b, n in counts[0].items()
                   if b.startswith(layer + ".")):
            problems.append(f"layer {layer} recorded no calls")
    for layer in UNUSED_LAYERS[workload]:
        busy = {b: n for b, n in counts[0].items()
                if b.startswith(layer + ".") and n}
        if busy:
            problems.append(f"layer {layer} should be idle: {busy}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
