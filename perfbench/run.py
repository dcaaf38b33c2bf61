"""qkig benchmark: one closed-loop workload, untraced or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.  One
client in one thread makes the next call only after the previous returns.

--trace 0 measures the end-to-end metrics for ``--seconds`` seconds, with
every time scaled to a nominal host by the reference in ``hostspeed``.
--trace 1 runs a fixed number of calls twice, untraced then traced, and
reports the per-layer metrics and the tracing overhead; it also writes the
spans and the caller -> callee table to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit, stamp the run, and give a digest of the
outputs of the first calls, to compare two commits byte for byte.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import setup_probe
from layertrace import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 41


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args):
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def setup_seconds(workload):
    """Median over fresh interpreters of importing qkig and warming caches,
    each scaled to the nominal host by the reference timed right after."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(SRC)]
    times = []
    for _ in range(SETUP_STARTS):
        out = subprocess.run(probe, check=True, capture_output=True,
                             text=True, timeout=60, cwd=ROOT)
        setup, ref = map(float, out.stdout.split())
        times.append(setup * hostspeed.NOMINAL_S / ref)
    return statistics.median(times)


def run_calls(wl, calls, on_item=None, until=None, count=None, speed=None):
    """Closed loop over ``calls``: stops after ``count`` calls, or once
    ``until`` has passed and at least ``wl.min_calls`` were made.  With
    ``speed`` (a ``hostspeed.Rolling``) the host speed reference runs
    between calls and each latency is scaled to the nominal host."""
    done, latencies = [], []
    for i, call in enumerate(calls):
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        try:
            result, error = wl.run(call), None
        except Exception as exc:  # an unexpected exception is a failed item
            result, error = None, exc
        t1 = time.perf_counter()
        latencies.append(t1 - t0 if speed is None else speed.scaled(t1 - t0))
        done.append((None if error else wl.keep(result), error))
        if on_item is not None:
            on_item(i, t0, t1)
        if count is not None and len(done) >= count:
            break
        if until is not None and t1 >= until and len(done) >= wl.min_calls:
            break
    return done, latencies


def gate(wl, done, seed):
    """Check every kept result against its expected value, and digest the
    records of the first ``wl.min_calls`` calls.  The calls are generated
    again from the seed rather than kept, so memory does not grow with
    the run."""
    attempted = failed = 0
    digest = hashlib.sha256()
    for i, ((kept, error), call) in enumerate(zip(done, wl.calls(seed))):
        work = wl.work(kept) if error is None else 1
        attempted += work
        if error is None:
            try:
                failed += wl.failed(call, kept, wl.expected(call))
            except Exception:  # the expected value could not be computed
                failed += work
        else:
            failed += work
        if i < wl.min_calls:
            digest.update(repr(error if error is not None else kept).encode())
    return attempted, failed, digest.hexdigest()


def untraced(wl, args):
    metrics = {"setup_s": (setup_seconds(wl.name), "s")}
    setup_probe.warm(wl.name)
    speed = hostspeed.Rolling()
    start = time.perf_counter()
    done, lat = run_calls(wl, wl.calls(args.seed), until=start + args.seconds,
                          speed=speed)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, digest = gate(wl, done, args.seed)
    # throughput over the time spent inside the library calls: making the
    # inputs and reducing the results is the benchmark's own work
    busy = sum(lat)
    metrics.update({
        "items_per_s": (attempted / busy, "1/s"),
        "item_p50_ms": (1000 * percentile(lat, 50), "ms"),
        "item_p95_ms": (1000 * percentile(lat, 95), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    })
    info = {"calls": len(done), "wall_s": wall, "busy_s": busy,
            "busy_raw_s": speed.raw_s, "reference_runs": speed.count,
            "items_per_s_raw": attempted / speed.raw_s,
            "failed_frac": failed / max(attempted, 1)}
    return metrics, attempted, failed, digest, info


def traced(wl, args):
    from qkig import basis_list, ideal_to_schubert
    caches = {"pairs.basis_list": basis_list,
              "chi.ideal_to_schubert": ideal_to_schubert}
    setup_probe.warm(wl.name)
    # cache lookups of the workload itself: from the end of set-up over the
    # untraced pass, which makes the same calls as the traced one that
    # follows (and then finds every entry cached)
    before = {name: fn.cache_info() for name, fn in caches.items()}
    t0 = time.perf_counter()
    run_calls(wl, wl.calls(args.seed), count=wl.trace_calls)
    plain_s = time.perf_counter() - t0
    lookups = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        lookups[name] = (info.hits - before[name].hits,
                         info.misses - before[name].misses)

    tracer = Tracer()
    tracer.calibrate()
    spans = []
    if hasattr(wl, "emit_bytes"):
        wl.emit_bytes = 0
    tracer.install()
    try:
        t0 = time.perf_counter()
        done, _ = run_calls(wl, wl.calls(args.seed), count=wl.trace_calls,
                            on_item=lambda i, a, b: spans.append((i, a, b)))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    attempted, failed, digest = gate(wl, done, args.seed)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        hits, misses = lookups[name]
        return ratio(hits, hits + misses)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (tracer.layer_calls(layer), "count")
        m[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    cli_parse = tracer.incl_s("cli.main") - sum(
        tracer.incl_s(s) for s in tracer.slots if s.startswith("cli.cmd_"))
    checks = sum(wl.work(kept) for kept, _ in done) \
        if wl.name == "verify-algebra" else 0
    m.update({
        "pairs.validate_calls": (sum(tracer.calls(f"pairs.{f}") for f in (
            "require_valid", "explain_invalid", "is_valid_pair")), "count"),
        "pairs.basis_list.hit_ratio": (hit_ratio("pairs.basis_list"),
                                       "ratio"),
        "ring.elements_built": (tracer.calls("ring.RingElement"), "count"),
        "ring.terms_out": (tracer.terms_out, "count"),
        "chi.ideal_to_schubert.hit_ratio": (
            hit_ratio("chi.ideal_to_schubert"), "ratio"),
        "linalg.rank_calls": (tracer.calls("linalg.rank"), "count"),
        "linalg.rref_calls": (tracer.calls("linalg.rref"), "count"),
        "linalg.nullspace_calls": (tracer.calls("linalg.nullspace"), "count"),
        "linalg.intersect_calls": (tracer.calls("linalg.intersect_rowspaces"),
                                   "count"),
        "linalg.cells_in": (tracer.cells_in, "cells"),
        "oracle.planes_built": (tracer.calls("oracle.Plane2"), "count"),
        "oracle.sample_yield": (ratio(
            tracer.calls("oracle.general_position_pair"),
            tracer.calls("oracle.random_isotropic_plane")), "ratio"),
        "verify.checks": (checks, "count"),
        "cli.parse_s": (max(cli_parse, 0.0), "s"),
        "cli.emit_bytes": (getattr(wl, "emit_bytes", 0), "B"),
        "trace.wrapper_ns": (1e9 * tracer.wrapper_s, "ns"),
        "trace.overhead_frac": (ratio(traced_s - plain_s, plain_s), "ratio"),
    })
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    report = {"stamp": stamp(args), "plain_s": plain_s, "traced_s": traced_s,
              "wrapped_calls": tracer.total_calls(),
              "edges": tracer.edges(), "functions": tracer.functions(),
              "spans": [{"item": i, "start_s": a - t0, "end_s": b - t0}
                        for i, a, b in spans]}
    path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    info = {"calls": len(done), "plain_s": plain_s, "traced_s": traced_s,
            "failed_frac": failed / max(attempted, 1),
            "trace_file": str(path.relative_to(ROOT))}
    return m, attempted, failed, digest, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(setup_probe.NEEDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qkig" / "__init__.py").is_file():
        print(f"error: no qkig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    measure = traced if args.trace else untraced
    metrics, attempted, failed, digest, info = measure(wl, args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {info['failed_frac']:.6g} ratio")
    print(json.dumps({"stamp": stamp(args), "run": info}, sort_keys=True))
    print(f"digest {args.workload} {digest}")
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
