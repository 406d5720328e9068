"""Run workloads over several seeds and report each metric's median and spread.

From the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--out FILE]

Spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each run
is one ``run.py`` child process; seeds are 1..runs.  ``--out`` writes the
values, medians and spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if sys.path[0] == str(Path(__file__).resolve().parent):
    sys.path[0] = str(ROOT)

from perfbench import spec  # noqa: E402


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec.WORKLOADS])
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be >= 2")
    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    names = args.workload or [w["name"] for w in spec.WORKLOADS]
    summary, ok = {}, True
    for name in names:
        values = {m: [] for m in bounds}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} " +
                  " ".join(f"{m}={v[-1]:.4g}" for m, v in values.items()),
                  flush=True)
        summary[name] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for m, v in values.items():
            s = spread(v)
            summary[name]["metrics"][m] = {"median": statistics.median(v),
                                           "spread": s, "bound": bounds[m],
                                           "values": v}
            print(f"  {name} {m}: median {statistics.median(v):.4g} "
                  f"spread {s:.3f} (bound {bounds[m]})", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
