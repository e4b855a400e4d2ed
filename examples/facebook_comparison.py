#!/usr/bin/env python
"""MRCP-RM vs MinEDF-WC on the Facebook workload (Figures 2-3, miniature).

Reproduces the paper's head-to-head comparison at laptop scale: the Table 4
job mix with LogNormal task times, 8 resources with one map and one reduce
slot each, deadlines drawn as U[1,2] x TE, and a sweep of Poisson arrival
rates.  Both schedulers face the *identical* job stream per replication.

Expected shape (paper Figure 2/3): MRCP-RM's percentage of late jobs P is
substantially below MinEDF-WC's at every arrival rate, and its average
turnaround T is slightly lower.

Run:  python examples/facebook_comparison.py
"""

from dataclasses import replace

from repro.experiments.configs import SCALED, figure_series
from repro.experiments.pool import SweepSpec, run_sweep


def main() -> None:
    lambdas = [0.0001, 0.0003, 0.0005]
    schedulers = ("mrcp-rm", "minedf-wc")
    # Figure 2's own configurations, cut to three rates and 40 jobs.
    configs = [
        replace(
            labeled,
            config=replace(
                labeled.config,
                facebook=replace(labeled.config.facebook, num_jobs=40),
            ),
        )
        for labeled in figure_series("fig2", SCALED).configs
        if labeled.factor_value in lambdas
    ]
    spec = SweepSpec(
        name="facebook-comparison",
        configs=configs,
        factor="lambda",
        replications=3,
        root_seed=17,
        deterministic=False,
    )
    summary = run_sweep(spec).summary()

    print(f"{'lambda':>8} | {'scheduler':>10} | {'P (%)':>8} | {'T (s)':>10}")
    print("-" * 48)
    for labeled in configs:
        stats = summary[labeled.label]
        print(
            f"{labeled.factor_value:>8g} | {labeled.scheduler:>10} | "
            f"{stats['P']:>8.2f} | {stats['T']:>10.1f}"
        )
        if labeled.scheduler == schedulers[-1]:
            print("-" * 48)


if __name__ == "__main__":
    main()
