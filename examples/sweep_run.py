#!/usr/bin/env python
"""Parallel sweep engine demo: deterministic fan-out over worker processes.

Runs the Figure 7 (deadline-tightness) sweep at smoke scale twice -- once
sequentially (``workers=1``, the reference) and once over a process pool --
and proves the determinism contract from docs/SWEEPS.md: the merged
``sweep.json`` / ``sweep.csv`` artifacts are byte-identical regardless of
worker count, because every cell's stream depends only on the root seed
and its replication, and the merge is a pure sort by cell index.

Run:  python examples/sweep_run.py
      python examples/sweep_run.py --workers 8 --replications 3
      python examples/sweep_run.py --assert-speedup   # CI: require >1.5x

``--assert-speedup`` exits nonzero unless the parallel run beats the
sequential one by more than 1.5x wall-clock -- only meaningful on a
multi-core machine, so it is a flag (the CI sweep-smoke job sets it) rather
than the default.
"""

import argparse
import os
import sys
import tempfile

from repro.experiments import SCALED, figure_series
from repro.experiments.pool import SweepSpec, run_sweep


def run_and_write(spec, workers, out_dir):
    result = run_sweep(spec, workers=workers, out_dir=out_dir)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--figure", default="fig7")
    parser.add_argument("--replications", type=int, default=2)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--assert-speedup",
        action="store_true",
        help="fail unless the parallel run is >1.5x faster (CI gate)",
    )
    args = parser.parse_args(argv)

    series = figure_series(args.figure, SCALED)
    spec = SweepSpec.from_series(
        series, replications=args.replications, root_seed=args.seed
    )
    cells = len(spec.cells())
    print(
        f"sweep {series.figure}: {len(series.configs)} configurations x "
        f"{args.replications} replications = {cells} cells"
    )

    with tempfile.TemporaryDirectory() as tmp:
        seq_dir = os.path.join(tmp, "seq")
        par_dir = os.path.join(tmp, "par")
        seq = run_and_write(spec, 1, seq_dir)
        par = run_and_write(spec, args.workers, par_dir)

        identical = all(
            open(os.path.join(seq_dir, name), "rb").read()
            == open(os.path.join(par_dir, name), "rb").read()
            for name in ("sweep.json", "sweep.csv")
        )

    speedup = seq.wall / par.wall if par.wall > 0 else float("inf")
    print(f"  sequential (workers=1)          : {seq.wall:.2f}s")
    print(f"  parallel   (workers={args.workers})          : {par.wall:.2f}s")
    print(f"  speedup                         : {speedup:.2f}x")
    print(f"  merged artifacts byte-identical : {identical}")
    for label, stats in par.summary().items():
        print(
            f"    {label:12s} N={stats.get('N', 0.0):.2f} "
            f"T={stats.get('T', 0.0):.1f}s P={stats.get('P', 0.0):.2f}%"
        )

    if not identical:
        print("FAIL: parallel artifacts differ from sequential", file=sys.stderr)
        return 1
    if par.failed_cells or seq.failed_cells:
        print("FAIL: sweep had failed cells", file=sys.stderr)
        return 1
    if args.assert_speedup and speedup <= 1.5:
        print(
            f"FAIL: speedup {speedup:.2f}x not > 1.5x "
            f"(cpus={os.cpu_count()})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
