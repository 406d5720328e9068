"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload cube-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps dpquant's
entry points and reports per-layer metrics instead.  ``all`` runs every
workload, each in a child process of its own.  Each run prints its metrics by
name with their units, then, as the last line of standard output, one JSON
object: {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

An operation fails when it raises or its output fails a check; ``correct`` is
false when a returned output is wrong (a check rejects it, or it differs
between identical passes) or the worker-count determinism guard fails.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads use at most the harness's 2 worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if sys.path[0] == str(Path(__file__).resolve().parent):
    sys.path[0] = str(ROOT)

from perfbench import spec  # noqa: E402
from perfbench.checkout import ProgramMissing, import_program  # noqa: E402

SETUP_REPEATS = 8
TRACE_DIR = ROOT / ".bench_out"


class SetUps:
    """The workload's set-ups, timed, and the determinism guard's findings.

    The host's speed drifts over seconds, so one set-up at the start would
    time a single moment of it.  An untraced run repeats the set-up between
    the units of its timed phase, at most once per `interval` seconds, and
    reports the median.
    """

    def __init__(self, wl, interval: float):
        self.wl, self.interval = wl, interval
        self.times, self.guard = [], set()
        self.last = 0.0

    def run(self):
        t0 = time.perf_counter()
        self.guard.update(self.wl.setup())
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def between_units(self):
        if time.perf_counter() - self.last >= self.interval:
            self.run()


@dataclass
class Phase:
    """Timings and outcomes of the passes of one timed phase."""

    times: list                       # per unit, the time of each pass
    passes: int = 0
    first: list = field(default_factory=list)   # operations of pass 0
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def wall_s(self) -> float:
        """Time of one pass: the sum over units of their median time."""
        return sum(statistics.median(t) for t in self.times)


def timed_phase(wl, seconds: float, tracer=None, reference=None,
                after_unit=None) -> Phase:
    """Run whole passes until `seconds` have elapsed (at least one pass).

    Every pass must reproduce the outputs of `reference` (by default, of
    its own first pass) bit for bit.  `after_unit`, when given, is called
    after each unit, outside its timing.
    """
    from perfbench import workloads
    phase = Phase(times=[[] for _ in wl.units])
    start = time.perf_counter()
    while phase.passes == 0 or time.perf_counter() - start < seconds:
        ops = []
        for k, (labels, fn) in enumerate(wl.units):
            if tracer is not None:
                tracer.op = f"{phase.passes}:{k}"
            t0 = time.perf_counter()
            ops += workloads.run_unit(labels, fn)
            phase.times[k].append(time.perf_counter() - t0)
            if after_unit is not None:
                after_unit()
        if phase.passes == 0:
            phase.first = ops
            reference = reference or ops
        for op, ref in zip(ops, reference):
            if op is not ref and op.fingerprint() != ref.fingerprint():
                op.reasons.append("output differs from the first pass")
        for op in ops:
            phase.attempted += 1
            phase.failed += op.failed
            phase.incorrect += op.incorrect
            for r in op.reasons:
                phase.reasons[f"{op.label}: {r}"] += 1
        phase.passes += 1
    return phase


def _fmt(value, unit) -> str:
    return "n/a" if value is None else f"{value:.6g} {unit}"


def _untraced(wl, args, import_s, setups):
    """End-to-end metrics, printed with the ungated ones; returns (phases, metrics)."""
    from perfbench import workloads
    phase = timed_phase(wl, args.seconds, after_unit=setups.between_units)
    values = {
        "wall_s": phase.wall_s,
        "setup_s": import_s + statistics.median(setups.times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec.END_TO_END}
    reported = workloads.summarize(phase.first)
    reported["fail_frac"] = phase.failed / phase.attempted
    print(f"passes {phase.passes}; digest {workloads.digest(phase.first)}")
    print(f"  set-ups: {len(setups.times)}, median {statistics.median(setups.times):.4f} s; "
          f"dpquant import {import_s:.4f} s")
    for (labels, _), t in zip(wl.units, phase.times):
        print(f"  unit {' + '.join(labels)}: median {statistics.median(t):.4f} s "
              f"over {len(t)} (min {min(t):.4f}, max {max(t):.4f})")
    for name, m in metrics.items():
        print(f"  {name:14s} {_fmt(m['value'], m['unit'])}")
    for name, unit in spec.REPORTED:
        print(f"  {name:14s} {_fmt(reported[name], unit)}   (not gated)")
    return [phase], metrics


def _traced(wl, args):
    """Per-layer metrics: untraced passes, then traced ones; returns (phases, metrics)."""
    from perfbench import tracing
    plain = timed_phase(wl, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = timed_phase(wl, args.seconds / 2, tracer, reference=plain.first)
    layer = tracer.layer_metrics(traced.passes)
    layer["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1
    # A layer the workload never calls has no spans or counts: 0.
    metrics = {m["name"]: {"value": float(layer.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec.PER_LAYER}
    print(f"traced passes {traced.passes} (untraced {plain.passes}); per traced pass:")
    for m in spec.PER_LAYER:
        value = _fmt(metrics[m["name"]]["value"], m["unit"])
        print(f"  {m['name']:32s} {value:>22s}   moves {', '.join(m['moves']) or '-'}")
    TRACE_DIR.mkdir(exist_ok=True)
    out = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(tracer.dump()))
    print(f"  spans and counts written to {out.relative_to(ROOT)}")
    return [plain, traced], metrics


def run_one(args) -> int:
    try:
        _, import_s = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    setups = SetUps(wl, args.seconds / SETUP_REPEATS)
    setups.run()

    info = next(w for w in spec.WORKLOADS if w["name"] == args.workload)
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{len(wl.units)} units per pass")
    print(f"  why: {info['why']}")
    print(f"  moves: {', '.join(info['moves'])}; holds: {', '.join(info['holds'])}")
    if args.trace:
        phases, metrics = _traced(wl, args)
    else:
        phases, metrics = _untraced(wl, args, import_s, setups)

    reasons = Counter()
    for p in phases:
        reasons.update(p.reasons)
    for reason, n in reasons.items():
        print(f"  failed x{n}: {reason}")
    for reason in sorted(setups.guard):
        print(f"  determinism guard: {reason}")
    incorrect = sum(p.incorrect for p in phases)
    print(json.dumps({"correct": not setups.guard and incorrect == 0,
                      "attempted": sum(p.attempted for p in phases),
                      "failed": sum(p.failed for p in phases),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a child process of its own."""
    results, status = {}, 0
    for w in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = proc.returncode
            continue
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return status


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec.WORKLOADS] + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
