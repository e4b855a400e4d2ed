#!/usr/bin/env python
"""A factor-at-a-time study (Figures 4-9 style) from the experiment harness.

Varies the deadline multiplier d_UL (Figure 7) and the arrival rate lambda
(Figure 8) on the scaled Table 3 workload, printing the O / T / P series the
paper plots.  All other parameters sit at their defaults; every point of a
replication draws the same random stream (common random numbers), so only
the studied factor changes.  Each figure runs as ``mrcp-rm run`` does: its
sweep on one worker, on the wall clock.

Run:  python examples/factor_at_a_time.py
"""

from repro.experiments import SCALED, SweepSpec, figure_series, format_series, run_sweep


def main() -> None:
    for figure in ("fig7", "fig8"):
        series = figure_series(figure, SCALED)
        print(f"running {figure} ({len(series.configs)} points, "
              f"3 replications each)...")
        spec = SweepSpec.from_series(series, replications=3, deterministic=False)
        print(format_series(series, run_sweep(spec)))
        print()


if __name__ == "__main__":
    main()
