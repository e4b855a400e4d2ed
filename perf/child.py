"""One workload in one fresh interpreter: set up, time, check, report.

Started by ``perf/run.py`` as ``python3 -m perf.child``; prints one JSON
object as the last line of its standard output.  Single process, single
thread, no sockets.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the child's first statement

import argparse
import gc
import json
import math
import os
import resource
import sys

#: Iterations of the fixed spin timed before and after the timed section.
CALIBRATION_SPIN = 200_000
#: The two spins may differ by this share before the run is flagged noisy.
NOISY_SHARE = 0.10
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def calibration_spin_ms() -> float:
    """Time a fixed LCG loop: interpreter speed on this host, right now.

    Built from no solver code, so no change to the program moves it.  It is
    reported and compared before against after; no metric is rescaled by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_SPIN):
        acc = (acc * 1103515245 + 12345 + i) % 2147483647
    return 1000.0 * (time.perf_counter() - t0)


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop where the timed section would start and report set-up time",
    )
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    t = time.perf_counter()
    from perf import trace, workloads  # imports repro

    import_s = time.perf_counter() - t
    t = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, traced)
    generate_s = time.perf_counter() - t
    t = time.perf_counter()
    workload.warm_up()
    warmup_s = time.perf_counter() - t
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "setup_s": time.perf_counter() - _T0,
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    spin_before = calibration_spin_ms()
    recorder = trace.Recorder() if traced else None
    gc.collect()
    # An exception below ends the child with a traceback and no result line;
    # the runner then fails too.
    if recorder is not None:
        recorder.install()
        root = recorder.begin(trace.ROOT)
    t0 = time.perf_counter_ns()
    workload.timed()
    wall_ns = time.perf_counter_ns() - t0
    if recorder is not None:
        recorder.end(root)
        recorder.uninstall()
        wall_ns = recorder.root_ns()
    spin_after = calibration_spin_ms()
    outcome = workload.check()

    wall_s = wall_ns / 1e9
    ordered = sorted(outcome.o_ms)
    samples = len(ordered)
    report.update(
        ops=outcome.ops,
        failed=outcome.failed,
        problems=outcome.problems,
        sim_digest=outcome.sim_digest,
        notes=outcome.notes,
        wall_s=wall_s,
        calib_spin_ms=[spin_before, spin_after],
        noisy=abs(spin_after - spin_before) > NOISY_SHARE * spin_before,
        # name -> [value, sample count]; units live in BENCHMARK.json.
        end_to_end={
            "setup_s": [report["setup_s"], 1],
            "peak_rss_mb": [
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
            ],
            "jobs_per_s": [outcome.ops / wall_s, outcome.ops],
            "o_mean_ms": [outcome.o_total_ms / outcome.ops, samples],
            "o_p50_ms": [percentile(ordered, 0.50), samples],
            "o_p95_ms": [percentile(ordered, 0.95), samples],
        },
    )
    if recorder is not None:
        layers = recorder.ledger()
        layers.update(
            {
                "setup.import_s": import_s,
                "workload.generate_s": generate_s,
                "setup.warmup_s": warmup_s,
                "host.calib_spin_ms": (spin_before + spin_after) / 2.0,
            }
        )
        report["per_layer"] = layers
        report["spans"] = len(recorder.spans)
        # The ledger must add up to the timed wall exactly (integer ns).
        report["ledger_ns"] = sum(recorder.self_times_ns().values())
        report["timed_wall_ns"] = wall_ns
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write_jsonl(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
