"""One workload in a fresh process: set-up, timed rounds, then checks.

Started by run.py with BLAS pinned to one thread and the checkout's `src` on
PYTHONPATH. Prints `ready` once qillum is imported and the inputs are built,
then (unless --setup-only) one JSON line with the measurements and the checks.
With --reference it imports numpy and scipy.linalg instead of qillum, prints
`ready` and exits: the yardstick run.py times set-up against.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_threads() -> dict:
    """Threads each loaded OpenBLAS library will use, asked of the library itself."""
    import ctypes
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def provenance() -> dict:
    import os
    import platform

    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "libc": "-".join(platform.libc_ver()),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),  # what `nproc` prints
        "blas_threads": blas_threads(),
    }


def layer_metrics(spans: list) -> dict:
    """Per-layer figures from the spans, keyed by the BENCHMARK.json names."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, key=None):
        group = by_name.get(name, [])
        busy = sum(s["end"] - s["start"] for s in group)
        work = sum(s.get(key, 1) for s in group) if key else len(group)
        return busy, work

    out = {}
    busy, n = total("cli.compute_sweep")
    out["cli.compute_sweep.ms_per_call"] = (1e3 * busy / n, "ms")
    busy, n = total("cli.sweep_csv", "rows")
    out["cli.sweep_csv.us_per_row"] = (1e6 * busy / n, "us")
    for name in ("receiver.snr_pc", "receiver.half_erfc", "receiver.log_erfc",
                 "receiver.homodyne_min_error", "states.conditional_states",
                 "states.apply_noise", "symplectic.williamson", "symplectic.is_physical",
                 "bounds.heterodyne_distributions"):
        busy, n = total(name, "calls")
        out[f"{name}.us_per_call"] = (1e6 * busy / n, "us")
    for name in ("bounds.qcb", "bounds.gaussian_s_overlap", "bounds.ccb"):
        busy, n = total(name, "calls")
        out[f"{name}.ms_per_call"] = (1e3 * busy / n, "ms")
    for name in ("montecarlo.sample_quadratures", "montecarlo.simulate_pc_receiver",
                 "montecarlo.empirical_error_rate"):
        busy, n = total(name, "samples")
        out[f"{name}.samples_per_s"] = (n / busy, "1/s")
    for name in ("montecarlo.simulate_pc_receiver", "montecarlo.empirical_error_rate"):
        peak = max(s["peak_bytes"] for s in by_name[name])
        out[f"{name}.peak_mb"] = (peak / 1e6, "MB")
    return out


def call_counts(spans: list) -> dict:
    counts: dict = {}
    for s in spans:
        counts[s["name"]] = counts.get(s["name"], 0) + s.get("calls", 1)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="import only what qillum imports from outside, then exit")
    args = parser.parse_args(argv)

    if args.reference:
        import numpy  # noqa: F401
        import scipy.linalg  # noqa: F401
        print("ready", flush=True)
        return 0
    import qillum
    if Path(qillum.__file__).resolve().parent.parent != SRC:
        print(f"error: qillum imported from {qillum.__file__}, not from {SRC}",
              file=sys.stderr)
        return 1
    import workloads
    workload = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = workloads.Tracer() if args.trace else None
    span = tracer.span if tracer else workloads.untraced
    timed = workloads.run_timed(workload, args.seconds, span)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    rounds, busy, scaled = timed["rounds"], timed["busy_s"], timed["scaled_s"]
    result = {
        "rounds": rounds,
        "busy_s": busy,
        "scaled_s": scaled,
        "kernel_median_s": timed["kernel_median_s"],
        "scenarios_per_s": rounds * workload.scenarios_per_round / scaled,
        "samples_per_s": rounds * workload.samples_per_round / scaled,
        "wall_scenarios_per_s": rounds * workload.scenarios_per_round / busy,
        "wall_samples_per_s": rounds * workload.samples_per_round / busy,
        "peak_rss_mb": peak_rss_mb,
        "provenance": provenance(),
    }
    if tracer:
        workload.probe_layers(tracer)

    violations, failed_per_round = workload.check(timed["outputs"])
    if not timed["identical"]:
        violations.append("a later round's outputs differ from the first round's")
    result.update(
        correct=not violations,
        violations=violations[:20],
        n_violations=len(violations),
        attempted=rounds * workload.ops_per_round,
        failed=rounds * failed_per_round,
    )
    if tracer:
        layers = layer_metrics(tracer.spans)
        result["layers"] = layers
        trace = {"workload": args.workload, "seed": args.seed, "timed": {
                     k: result[k] for k in ("rounds", "busy_s", "scaled_s", "kernel_median_s",
                                            "scenarios_per_s",
                                            "samples_per_s", "wall_scenarios_per_s",
                                            "wall_samples_per_s", "peak_rss_mb")},
                 "provenance": result["provenance"], "call_counts": call_counts(tracer.spans),
                 "layers": layers, "spans": tracer.spans}
        args.trace_out.parent.mkdir(parents=True, exist_ok=True)
        args.trace_out.write_text(json.dumps(trace) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
