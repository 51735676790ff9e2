#!/usr/bin/env python3
"""Steadiness of the benchmark: sets of runs of one commit, against the bounds.

    python3 bench/steady.py [--workloads a,b] [--runs 10] [--sets 2] [--out FILE]

Run from the repository root.  For every workload, set k runs
bench/run.py --trace 0 once per seed k*1000+1 .. k*1000+runs.  For each
end-to-end metric the report gives each set's median, quartiles
(statistics.quantiles, n=4) and spread = (q3 - q1) / median next to the
metric's bound from BENCHMARK.json, and how much worse the last set's
median is than the first's, as a share of the first.  A run that fails or
reports incorrect output is listed and stops the check.  With --runs 1
--sets 1 it prints every end-to-end metric of every workload once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(metrics, machine) of one bench/run.py run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: run failed or output incorrect")
    machine = next(json.loads(ln.split(": ", 1)[1]) for ln in lines if ln.startswith("machine: "))
    return result["metrics"], machine


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def worse_by(first: float, last: float, better: str) -> float:
    return ((last - first) if better == "lower" else (first - last)) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for k in range(1, args.sets + 1):
            runs = []
            for i in range(1, args.runs + 1):
                metrics, report["machine"] = one_run(workload, k * 1000 + i, bench["run_seconds"])
                runs.append(metrics)
            sets.append(runs)
        report[workload] = {}
        print(f"\n{workload}: {args.sets} set(s) of {args.runs} run(s)")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            per_set = [stats([r[name]["value"] for r in runs]) for runs in sets]
            shift = worse_by(per_set[0]["median"], per_set[-1]["median"], m["better"])
            report[workload][name] = {"unit": m["unit"], "bound": bound, "sets": per_set,
                                      "last_vs_first_worse_by": shift}
            cells = "  ".join(f"med {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] "
                              f"spread {s['spread']:.3f}" for s in per_set)
            flag = "" if all(s["spread"] <= bound / 3 for s in per_set) else "  <-- spread > bound/3"
            flag += "" if shift <= bound else "  <-- medians differ by more than the bound"
            print(f"  {name} ({m['unit']}, bound {bound}): {cells}  "
                  f"last vs first worse by {shift:+.3f}{flag}")
    print("\nmachine: " + json.dumps(report["machine"]))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
