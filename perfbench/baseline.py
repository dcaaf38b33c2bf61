"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/baseline.py [--runs 10] [--trace 1] [--write]

Runs ``perfbench/run.py`` once per (workload, seed), with seeds 1..runs and
the run length BENCHMARK.json sets, one run at a time, and prints per
workload and metric the median, the quartiles and the spread
(q3 - q1) / median, flagging an end-to-end spread above a third of its
bound.  ``--write`` stores the summary in perfbench/baseline.json (with
``--trace 1``: baseline_layers.json), the baseline that later changes are
compared against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import stamp as run_stamp

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}

    summary, flagged = {}, []
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, check=True, capture_output=True,
                                 text=True, cwd=ROOT, timeout=600)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                flagged.append(f"{workload} seed {seed}: incorrect")
            runs.append(result)
        rows = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            rows[name] = dict(summarise(values), values=values,
                              unit=runs[0]["metrics"][name]["unit"])
            bound = bounds[name]
            mark = ""
            if bound is not None and rows[name]["spread"] > bound / 3:
                mark = "  <-- above bound/3"
                flagged.append(f"{workload} {name}")
            print(f"{workload:16} {name:34} median {rows[name]['median']:.6g} "
                  f"q1 {rows[name]['q1']:.6g} q3 {rows[name]['q3']:.6g} "
                  f"spread {rows[name]['spread']:.4f}{mark}", flush=True)
        summary[workload] = rows
    if args.write:
        stamp = run_stamp(argparse.Namespace(
            workload=None, seed=None, seconds=spec["run_seconds"],
            trace=args.trace))
        payload = {"stamp": stamp, "runs": args.runs,
                   "seeds": [1, args.runs],
                   "workloads": summary}
        name = "baseline_layers.json" if args.trace else "baseline.json"
        (HERE / name).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n")
    for line in flagged:
        print("flagged:", line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
