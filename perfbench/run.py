#!/usr/bin/env python3
"""qillum benchmark: one workload per run, one JSON result on the last line.

    python3 perfbench/run.py --workload threshold_sweep --seed 1 --seconds 20 --trace 0

Workloads: threshold_sweep, bounds_scan, mc_validation (see README.md). Each
run starts fresh single-threaded processes (BLAS pinned to one thread) that
import qillum from the checkout's `src`:

- SETUP_PROBES processes that only import qillum and build the inputs, each
  between two reference processes that only import numpy and scipy.linalg;
  each probe's time, in units of the mean of the two references' times times
  REFERENCE_NOMINAL_S, is one set-up time, and their median is `setup_s`;
- the measured process, which repeats whole rounds of the workload for
  --seconds, then checks every output of a round against mpmath or against a
  property of the method.

--trace 0 prints the end-to-end metrics; --trace 1 records spans around every
call into qillum, calls each layer directly on the same inputs, prints the
per-layer metrics and writes the spans to perfbench/out/. Exits 1 without a
result if a process fails or qillum cannot be imported from the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("threshold_sweep", "bounds_scan", "mc_validation")
SETUP_PROBES = 5
# Spawn-to-ready time of `worker.py --reference` on the reference host when it
# is not slowed (its lower quartile was 0.30 s, its median 0.35 s).
REFERENCE_NOMINAL_S = 0.30
DEADLINE_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass



def _worker(args: list, deadline: float) -> tuple[float, str]:
    """Run worker.py; return (seconds from spawn to its `ready` line, the rest of stdout)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update((var, "1") for var in BLAS_VARS)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a process")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return ready, rest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    trace_out = HERE / "out" / f"trace_{args.workload}_seed{args.seed}.json"
    try:
        refs = [_worker(base + ["--reference"], deadline)[0]]
        probes = []
        for _ in range(SETUP_PROBES):
            probes.append(_worker(base + ["--setup-only"], deadline)[0])
            refs.append(_worker(base + ["--reference"], deadline)[0])
        ready, rest = _worker(base + ["--seconds", str(args.seconds),
                                      "--trace", str(args.trace),
                                      "--trace-out", str(trace_out)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [REFERENCE_NOMINAL_S * p / (0.5 * (r0 + r1))
              for p, r0, r1 in zip(probes, refs, refs[1:])]
    res = json.loads(rest.strip().splitlines()[-1])

    prov = dict(res["provenance"], seed=args.seed, workload=args.workload,
                seconds=args.seconds, trace=args.trace)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"rounds: {res['rounds']} in {res['busy_s']:.3f} s busy, "
          f"{res['scaled_s']:.3f} s host-speed-normalised (reference kernel median "
          f"{1e3 * res['kernel_median_s']:.2f} ms); wall-clock "
          f"scenarios_per_s {res['wall_scenarios_per_s']:.6g}, samples_per_s "
          f"{res['wall_samples_per_s']:.6g}")
    print("set-up times (s), wall-clock: " + ", ".join(f"{s:.4f}" for s in probes)
          + f"; measured process {ready:.4f}")
    print("reference times (s): " + ", ".join(f"{s:.4f}" for s in refs))
    print("set-up times (s), host-speed-normalised: " + ", ".join(f"{s:.4f}" for s in setups))
    for line in res["violations"]:
        print(f"violation: {line}")
    if res["n_violations"] > len(res["violations"]):
        print(f"violation: ... {res['n_violations'] - len(res['violations'])} more")
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["layers"].items()}
        print(f"trace: {trace_out.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "scenarios_per_s": {"value": res["scenarios_per_s"], "unit": "1/s"},
            "samples_per_s": {"value": res["samples_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
