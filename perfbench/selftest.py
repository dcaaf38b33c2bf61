"""Self-test of the benchmark at tiny sizes (a few seconds in all).

    python3 perfbench/selftest.py

Checks, for every workload, that the untraced and the traced run report
every metric BENCHMARK.json names, with its unit, and pass their gate;
that the traced counts repeat exactly at a fixed seed; and that the gate
counts a deliberately corrupted expected result (or report) as a failure.
Exits 0 when all hold.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (needs the path above)
import workloads as w  # noqa: E402


def tiny():
    """Each workload at a size that runs in well under a second."""
    out = [w.VerifyAlgebra(n_max=3), w.VerifyGeometry(),
           w.OperatorWords(n_range=(3, 4), length=(4, 6)),
           w.CliQueries(n_range=(2, 4))]
    for wl in out:
        wl.min_calls = wl.trace_calls = 2 if wl.name != "cli-queries" else 12
    return out


class Corrupted:
    """Wraps a workload so the gate sees a wrong expected value or report."""

    def __init__(self, wl):
        self.wl = wl

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def keep(self, result):
        kept = self.wl.keep(result)
        if self.wl.name.startswith("verify-"):
            kept = (kept[0], kept[1] + 1, kept[2])
        return kept

    def expected(self, call):
        exp = self.wl.expected(call)
        if self.wl.name == "operator-words":
            return exp[::-1]
        if self.wl.name == "cli-queries":
            return (exp[0], exp[1][::-1])
        return exp


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for wl in tiny():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=wl.name, seed=3, seconds=0.2,
                                      trace=trace)
            measure = run.traced if trace else run.untraced
            metrics, attempted, failed, _, _ = measure(wl, args)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: u for k, (_, u) in metrics.items()}
            if got != want:
                problems.append(f"{wl.name} trace {trace}: metrics {got} "
                                f"!= {want}")
            if failed or not attempted:
                problems.append(f"{wl.name} trace {trace}: gate failed "
                                f"{failed}/{attempted}")
            if trace:
                again = run.traced(wl, args)[0]
                for k, (value, unit) in metrics.items():
                    if unit in ("count", "cells", "B") \
                            and again[k][0] != value:
                        problems.append(f"{wl.name}: {k} differs between "
                                        f"runs: {value} vs {again[k][0]}")
        bad = Corrupted(wl)
        done, _ = run.run_calls(bad, bad.calls(3), count=2)
        attempted, failed, _ = run.gate(bad, done, 3)
        if not failed:
            problems.append(f"{wl.name}: corrupted expected result passed "
                            "the gate")
        print(f"{wl.name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
