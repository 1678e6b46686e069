"""Benchmark of coneext's certified decisions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

One client in one process issues each decision after the previous one
returns (closed loop).  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it wraps coneext's public functions and reports
per-layer self time, call counts and sizes, together with the tracing
overhead.  Every verdict is compared with the table in expected.py and
every certificate is re-checked outside the timed section.  The last line
of standard output is one JSON object; the full result, stamped with the
commit and machine, is written once under perfbench/out/ when the run ends.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from types import SimpleNamespace

from clock import Clock, pin
from tracer import DETERMINISTIC, SPAN_NAMES, TRACED, Tracer
from workloads import ROOT, SRC, WORKLOADS, cli_env

OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5
PROBE_REPS = 5
MODULES = ("formats", "cones", "polytopes", "tensors", "lp", "hierarchy", "cli")

END_TO_END = (("setup_s", "s"), ("decisions_per_s", "1/s"), ("decision_s.p50", "s"),
              ("decision_s.tail", "s"), ("peak_rss_mb", "MB"))

# Layer metrics printed in the JSON line.  Every self time here is nonzero on
# every workload; the others (a function a workload never calls) are printed
# in the table and written to the result file only.
PER_LAYER = (
    [(f"{m}.self_s", "s") for m in TRACED if m not in ("quantum", "cli")]
    + [(f"{n}.self_s", "s") for n in ("formats.parse_cone_file", "cones.make_cone",
                                      "cones.make_based", "polytopes.base_polytope",
                                      "tensors.kron", "lp.solve", "lp.conic_membership")]
    + [(f"{n}.calls", "count") for n in SPAN_NAMES]
    + [("lp.rows.sum", "count"), ("lp.cols.sum", "count"), ("lp.cells.max", "count"),
       ("lp.nonzeros.sum", "count"), ("lp.result_bits.max", "bits"),
       ("lp.infeasible.calls", "count"), ("tensors.entries_built", "count"),
       ("cli.interpreter_s", "s"), ("cli.import_s", "s"), ("trace.overhead_s", "s")])


def fresh_import():
    """Import coneext and its modules anew from src/, so that every set-up
    repetition pays the import a user's process pays."""
    for name in [n for n in sys.modules if n == "coneext" or n.startswith("coneext.")]:
        del sys.modules[name]
    cx = SimpleNamespace(package=importlib.import_module("coneext"))
    for m in MODULES:
        setattr(cx, m, importlib.import_module(f"coneext.{m}"))
    return cx


def setup(workload, seed, small):
    cx = fresh_import()
    return cx, workload.build(cx, random.Random(seed), small)


def run_pass(decisions, clock, inproc=False, tracer=None):
    """Each decision after the previous one returns: (decision, wall s,
    scaled s, result, error)."""
    timed = []
    for i, d in enumerate(decisions):
        if tracer is not None:
            tracer.decision = i
        out, err, timing = clock.run(d.inproc if inproc else d.call)
        timed.append((d, timing, out, err))
    clock.finish()
    return [(d, timing[2], clock.scaled(timing), out, err) for d, timing, out, err in timed]


def check_pass(workload, results):
    """Failures of one pass: raised, unexpected verdict, bad certificate,
    broken law."""
    bad = []
    for d, _, _, out, err in results:
        if err is not None:
            bad.append(f"{d.label}: raised {err}")
            continue
        got = d.verdict(out)
        if got != d.expected:
            bad.append(f"{d.label}: verdict {got!r}, expected {d.expected!r} ({d.source})")
            continue
        reason = d.check(out) if d.check else None
        if reason:
            bad.append(f"{d.label}: {reason}")
    return bad + workload.pass_check(results)


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload, decisions, clock, seconds, small):
    """Whole passes until one more would pass ``seconds`` (and at least the
    workload's ``min_passes``); end-to-end metrics."""
    samples, failures = [], []
    wall = 0.0
    start = perf_counter()
    while True:
        results = run_pass(decisions, clock)
        failures += check_pass(workload, results)
        samples.append([(d, scaled) for d, _, scaled, _, _ in results])
        wall += sum(raw for _, raw, _, _, _ in results)
        elapsed = perf_counter() - start
        if small or (len(samples) >= workload.min_passes
                     and elapsed * (len(samples) + 1) / len(samples) > seconds):
            break
    lat = [dt for p in samples for _, dt in p]
    q = workload.tail_q
    if q is None:  # the slowest decision of a pass, median over passes
        tail = median(max(dt for _, dt in p) for p in samples)
    else:
        tail = quantiles(lat, n=100, method="inclusive")[q - 1]
    beyond = sum(1 for v in lat if v > tail)
    metrics = {
        "decisions_per_s": (len(lat) / sum(lat), "1/s",
                            f"{len(lat)} decisions in {sum(lat):.3f} s"),
        "decision_s.p50": (median(lat), "s", f"n={len(lat)}"),
        "decision_s.tail": (tail, "s", f"{'pass maximum' if q is None else f'p{q}'}, "
                                       f"n={len(lat)}, {beyond} beyond"),
        "peak_rss_mb": (peak_rss_mb(workload.name == "cli-suite"), "MB",
                        "CLI child processes" if workload.name == "cli-suite"
                        else "this process"),
    }
    metrics.update(workload.headline(samples))
    counts = {"passes": len(samples), "decisions": len(lat), "wall_s": wall,
              "speed": wall / sum(lat),
              "samples": [[[d.label, dt] for d, dt in p] for p in samples]}
    return metrics, counts, failures, len(lat)


def _probe(clock, code):
    env = cli_env()
    timings = []
    for _ in range(PROBE_REPS):
        _, err, timing = clock.run(lambda: subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, timeout=60))
        if err is not None:
            raise RuntimeError(f"python -c {code!r} failed: {err}")
        timings.append(timing)
    clock.finish()
    return median(clock.scaled(t) for t in timings)


def _total(results, column):
    return sum(r[column] for r in results)


def traced(workload, cx, decisions, seed, small):
    """One untraced pass, then two traced rounds (set-up and pass) with the
    same seed, whose deterministic counters must agree exactly.  Span times
    are scaled by the speed measured around their decision; the clock samples
    the speed between decisions only, so no timer runs inside a span."""
    failures = []
    cli = workload.name == "cli-suite"
    clock = Clock("fraction", ticks=False)       # in-process passes
    sub_clock = Clock("interpreter", ticks=False)  # child processes
    untraced = run_pass(decisions, clock, inproc=cli)
    failures += check_pass(workload, untraced)
    if cli:
        sub = run_pass(decisions, sub_clock)
        failures += check_pass(workload, sub)
    tracer = Tracer()
    tracer.install()
    rounds, passes, spans, fingerprints = [], [], [], []
    try:
        for _ in range(2):
            tracer.reset()
            tracer.decision = "setup"
            round_decisions = workload.build(cx, random.Random(seed), small)
            results = run_pass(round_decisions, clock, inproc=cli, tracer=tracer)
            failures += check_pass(workload, results)
            speed = {i: scaled / raw for i, (_, raw, scaled, _, _) in enumerate(results)}
            speed["setup"] = _total(results, 2) / _total(results, 1)
            summary = tracer.summary(speed)
            rounds.append(summary)
            passes.append(results)
            spans.append(tracer.spans)
            verdicts = Counter((d.label, repr(d.verdict(out)) if err is None else err)
                               for d, _, _, out, err in results)
            fingerprints.append(({k: summary[k] for k in DETERMINISTIC}, verdicts))
    finally:
        tracer.uninstall()
    if fingerprints[0] != fingerprints[1]:
        failures.append("deterministic counters differ between two rounds with the same seed: "
                        f"{fingerprints[0][0]} vs {fingerprints[1][0]}")
    metrics = {}
    for key, val in rounds[0].items():
        if isinstance(val, float):
            val = (val + rounds[1][key]) / 2
        unit = "s" if key.endswith("_s") else "bits" if key.endswith("bits.max") else "count"
        metrics[key] = (val, unit, "")
    interp = _probe(sub_clock, "pass")
    metrics["cli.interpreter_s"] = (interp, "s", "python -c pass, median")
    metrics["cli.import_s"] = (_probe(sub_clock, "import coneext") - interp, "s",
                               "python -c 'import coneext' minus cli.interpreter_s")
    traced_s = sum(_total(r, 2) for r in passes) / 2
    untraced_s = _total(untraced, 2)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s",
                                   f"traced pass {traced_s:.4g} s - untraced {untraced_s:.4g} s")
    layer_sum = metrics.pop("roots_s")[0]
    metrics["trace.coverage"] = (layer_sum / traced_s, "ratio",
                                 "layer self times / traced pass time")
    if cli:
        layer_sum += len(decisions) * (interp + metrics["cli.import_s"][0])
        untraced_s = _total(sub, 2)
    metrics["trace.layer_sum_s"] = (layer_sum, "s", "layer self times in a pass"
                                    + (", plus interpreter and import per call" if cli else ""))
    metrics["trace.untraced_wall_s"] = (untraced_s, "s", "the same pass untraced"
                                        + (", as subprocesses" if cli else ""))
    counts = {"untraced_decisions": len(untraced) + (len(decisions) if cli else 0),
              "traced_rounds": 2, "decisions_per_round": len(decisions),
              "deterministic": fingerprints[0][0]}
    attempted = counts["untraced_decisions"] + 2 * len(decisions)
    return metrics, counts, failures, attempted, spans


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def stamp(args, cx, nproc):
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "python": platform.python_version(),
        "nproc": nproc,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "coneext_file": cx.package.__file__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def run_one(args):
    workload = WORKLOADS[args.workload]
    small = args.scale == "smoke"
    nproc = len(os.sched_getaffinity(0))
    pin()
    setup_clock = Clock("fraction")
    setup_times = []
    for _ in range(1 if small else SETUP_REPS):
        built, err, timing = setup_clock.run(lambda: setup(workload, args.seed, small))
        if err is not None:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            return 2
        setup_times.append(timing)
    setup_clock.finish()
    setup_times = [setup_clock.scaled(t) for t in setup_times]
    cx, decisions = built
    gc.freeze()  # the harness's own objects stay out of the collections timed later
    if not Path(cx.package.__file__).resolve().is_relative_to(SRC):
        print(f"error: coneext imported from {cx.package.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spans = None
    if args.trace:
        metrics, counts, failures, attempted, spans = traced(
            workload, cx, decisions, args.seed, small)
        shown = dict(PER_LAYER)
    else:
        metrics, counts, failures, attempted = measure(
            workload, decisions, Clock(workload.reference), args.seconds, small)
        metrics["setup_s"] = (median(setup_times), "s",
                              f"median of {len(setup_times)} set-ups")
        shown = dict(END_TO_END)
    metrics["failed_ratio"] = (len(failures) / attempted, "ratio",
                               f"{len(failures)}/{attempted} decisions")
    result = {"stamp": stamp(args, cx, nproc), "counts": counts, "failures": failures,
              "metrics": {k: {"value": v, "unit": u, "note": note}
                          for k, (v, u, note) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    base = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{base}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if spans is not None:
        with open(OUT / f"{base}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([[list(s) for s in r] for r in spans], fh)

    st = result["stamp"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {st['python']}  nproc {st['nproc']}  commit {st['commit']}  "
          f"dirty {st['dirty']}")
    print("counts", json.dumps({k: v for k, v in counts.items()
                                if k not in ("deterministic", "samples")}))
    for name in sorted(metrics):
        val, unit, note = metrics[name]
        print(f"  {name:52s} {val:>14.6g} {unit:6s} {note}")
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": metrics[k][0], "unit": u}
                                  for k, u in shown.items()}}))
    return 0 if not failures else 1


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale]
        status = max(status, subprocess.run(argv, timeout=900).returncode)
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: one pass over a reduced input set")
    args = p.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under python -O, which strips coneext's "
              "assert-based certificate checks", file=sys.stderr)
        return 2
    if not (SRC / "coneext" / "__init__.py").is_file():
        print(f"error: no coneext sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
