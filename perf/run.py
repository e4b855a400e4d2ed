"""Run the benchmark: each workload in a fresh child interpreter, one at a time.

    python3 perf/run.py [--workload W] [--seed S] [--seconds T] [--trace 0|1]
                        [--repeat K] [--out F] [--record]

Prints every metric by name with its unit and sample count, and checks the
outputs.  With ``--workload`` the last line of standard output is the one
JSON object ``BENCHMARK.json``'s contract asks for.  Metric names, units and
bounds are read from ``BENCHMARK.json``; workloads are in ``workloads.py``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
#: Set-ups per run; ``setup_s`` is their median, which also absorbs a cold
#: first import (nothing cached yet, bytecode not yet written).
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


def child(workload, seed, seconds, trace, setup_only=False):
    """Run ``perf.child`` to completion and return the object it printed."""
    cmd = [
        sys.executable, "-m", "perf.child", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    path = os.pathsep.join(
        p for p in (os.path.join(REPO, "src"), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        cmd, cwd=REPO, env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.exit(f"perf: {workload} child exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload, seed, seconds, trace, golden):
    """One run of one workload: end-to-end metrics, or per-layer ones if traced."""
    if not trace:
        setups = [
            child(workload, seed, seconds, 0, setup_only=True)["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
        run = child(workload, seed, seconds, 0)
        setups.append(run["setup_s"])
        run["end_to_end"]["setup_s"] = [statistics.median(setups), len(setups)]
        run["metrics"] = run.pop("end_to_end")
    else:
        # The untraced twin gives the tracing overhead and the outputs that
        # tracing must not change.
        plain = child(workload, seed, seconds, 0)
        run = child(workload, seed, seconds, 1)
        overhead = 100.0 * (run["wall_s"] - plain["wall_s"]) / plain["wall_s"]
        run["per_layer"]["trace.overhead_pct"] = overhead
        run["metrics"] = {name: [v, 1] for name, v in run.pop("per_layer").items()}
        del run["end_to_end"]
        if run["sim_digest"] != plain["sim_digest"]:
            run["problems"].append(
                f"tracing changed the outputs: {plain['sim_digest']} untraced, "
                f"{run['sim_digest']} traced"
            )
        if run["ledger_ns"] != run["timed_wall_ns"]:
            run["problems"].append("the layer ledger does not add up to the wall")
    # Pinned workloads give one digest whatever the seed: their key says "any".
    expected = golden.get(
        f"{workload}/seed{seed}/{seconds}s", golden.get(f"{workload}/any/{seconds}s")
    )
    if expected is not None and run["sim_digest"] != expected:
        run["problems"].append(
            f"sim_digest {run['sim_digest']} is not golden.json's {expected}"
        )
    return run


def summarise(runs, units):
    """Fold the repeats of one workload into medians and quartiles."""
    first = runs[0]
    problems = [p for run in runs for p in run["problems"]]
    if len({run["sim_digest"] for run in runs}) > 1:
        problems.append("sim_digest differs between repeats of one seed")
    metrics = {}
    for name in units:  # exactly the metrics BENCHMARK.json names
        values = [run["metrics"][name][0] for run in runs]
        n = first["metrics"][name][1]
        q1 = q3 = values[0]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        metrics[name] = {
            "unit": units[name], "n": n, "values": values,
            "median": statistics.median(values), "q1": q1, "q3": q3,
        }
    return {
        "correct": not problems,
        "ops": first["ops"],
        # A failed correctness check marks every op failed.
        "failed": first["ops"] if problems else max(r["failed"] for r in runs),
        "problems": problems,
        "sim_digest": first["sim_digest"],
        "noisy": any(run["noisy"] for run in runs),
        "notes": first["notes"],
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "metrics": metrics,
    }


def show(workload, seed, seconds, summary):
    flags = ["correct" if summary["correct"] else "WRONG"]
    if summary["noisy"]:
        flags.append("noisy host (calibration spins differ by > 10 %)")
    print(
        f"{workload}  seed {seed}  {seconds} s scale  timed {summary['wall_s']:.2f} s"
        f"  ops {summary['ops']}  failed {summary['failed']}"
        f"  sim_digest {summary['sim_digest']}  {', '.join(flags)}"
    )
    for problem in summary["problems"]:
        print(f"  ! {problem}")
    print(f"  notes {json.dumps(summary['notes'])}")
    for name, m in summary["metrics"].items():
        spread = ""
        if len(m["values"]) > 1:
            spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  runs {len(m['values'])}"
        print(f"  {name:<42} {m['median']:>14.6g} {m['unit']:<6} n={m['n']}{spread}")


def fingerprint():
    """Where the numbers were taken: the commit and the host."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
    }


def main(argv=None):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=int, default=spec["run_seconds"],
        help="scale: sizes are set so a timed section lasts about this long; "
        "1 is the smoke scale",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: the traced run, which reports the per-layer metrics",
    )
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--out", metavar="F", help="write the results as JSON")
    parser.add_argument(
        "--record", action="store_true",
        help="append the end-to-end medians to perf/history.jsonl",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds < 1:
        parser.error("--repeat and --seconds must be at least 1")
    if args.record and args.trace:
        parser.error("--record takes end-to-end metrics: use --trace 0")
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        sys.exit("perf: src/repro not found; run from a checkout of the repo")

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    results = {}
    for workload in [args.workload] if args.workload else names:
        runs = [
            measure(workload, args.seed, args.seconds, args.trace, golden)
            for _ in range(args.repeat)
        ]
        results[workload] = summarise(runs, units)
        show(workload, args.seed, args.seconds, results[workload])
        sys.stdout.flush()

    document = {}
    if args.out or args.record:
        document = dict(
            fingerprint(), seed=args.seed, seconds=args.seconds,
            trace=args.trace, workloads=results,
        )
    if args.out:
        with open(args.out, "w") as f:
            json.dump(document, f, indent=1)
            f.write("\n")
    if args.record:
        line = dict(document, workloads={
            w: {name: m["median"] for name, m in r["metrics"].items()}
            for w, r in results.items()
        })
        with open(os.path.join(HERE, "history.jsonl"), "a") as f:
            f.write(json.dumps(line) + "\n")
    if args.workload:
        r = results[args.workload]
        print(json.dumps({
            "correct": r["correct"],
            "attempted": r["ops"],
            "failed": r["failed"],
            "metrics": {
                name: {"value": m["median"], "unit": m["unit"]}
                for name, m in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
