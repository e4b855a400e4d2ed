"""The Table 4 synthetic Facebook workload.

The paper (like Verma et al. [8]) does not use the raw October-2009 Facebook
traces directly: it uses the *derived model* -- a ten-type job mix over 1000
jobs plus LogNormal task execution times fitted to the trace CDFs:

* map task time (ms)    ~ LogNormal(mu=9.9511, sigma^2=1.6764)
* reduce task time (ms) ~ LogNormal(mu=12.375, sigma^2=1.6262)

This module reproduces exactly that model.  Earliest start times equal
arrival times (p = 0) and deadlines use the Table 3 rule with d_UL = 2, as
in Section VI.B.1.  The comparison system is 64 resources with one map and
one reduce slot each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.rng import RandomStreams
from repro.workload.entities import Job, Task, TaskKind, minimum_execution_time

#: Table 4: (map tasks, reduce tasks, number of jobs out of 1000).
FACEBOOK_JOB_TYPES: Tuple[Tuple[int, int, int], ...] = (
    (1, 0, 380),
    (2, 0, 160),
    (10, 3, 140),
    (50, 0, 80),
    (100, 0, 60),
    (200, 50, 60),
    (400, 0, 40),
    (800, 180, 40),
    (2400, 360, 20),
    (4800, 0, 20),
)

#: LogNormal(mu, sigma^2) of task execution times, in milliseconds.
MAP_TIME_LOGNORMAL: Tuple[float, float] = (9.9511, 1.6764)
REDUCE_TIME_LOGNORMAL: Tuple[float, float] = (12.375, 1.6262)


@dataclass
class FacebookWorkloadParams:
    """Knobs of the Facebook-derived workload (Figures 2-3 setup)."""

    num_jobs: int = 1000
    #: Poisson arrival rate (jobs/second); the paper sweeps 1e-4..5e-4.
    arrival_rate: float = 0.0001
    #: d_UL of the deadline multiplier U[1, d_UL] (paper: 2).
    deadline_multiplier_max: float = 2.0
    #: Cluster totals for TE: 64 resources x 1 map slot / 1 reduce slot.
    total_map_slots: int = 64
    total_reduce_slots: int = 64
    #: Proportional shrink factor on task counts for laptop-scale runs.
    scale: float = 1.0
    #: Cap on a single task's duration in seconds (0 = uncapped).  The
    #: LogNormal tail occasionally produces multi-hour tasks; the paper's
    #: simulations keep them, so the default is uncapped.
    max_task_seconds: int = 0
    #: Use the exact Table 4 mix (the 1000-job trace composition, shuffled)
    #: instead of weighted sampling.  Requires ``num_jobs`` to be a multiple
    #: of 1000 / gcd = 1000... in practice: any multiple of 50 works because
    #: every Table 4 count is a multiple of 20; see ``validate``.
    exact_mix: bool = False
    first_job_id: int = 0

    def validate(self) -> None:
        """Reject out-of-range parameters before generation."""
        if self.num_jobs <= 0:
            raise ValueError("num_jobs must be positive")
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.deadline_multiplier_max < 1.0:
            raise ValueError("deadline multiplier upper bound must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.exact_mix and self.num_jobs % 50 != 0:
            # every Table 4 count is a multiple of 20 over 1000 jobs, so the
            # mix reproduces exactly at any multiple of 1000/20 = 50 jobs
            raise ValueError(
                f"exact_mix requires num_jobs to be a multiple of 50, "
                f"got {self.num_jobs}"
            )


def _scaled_counts(k_mp: int, k_rd: int, scale: float) -> Tuple[int, int]:
    """Shrink task counts, preserving map-only-ness and at-least-one-map."""
    sm = max(1, int(round(k_mp * scale))) if k_mp > 0 else 0
    sr = max(1, int(round(k_rd * scale))) if k_rd > 0 else 0
    return sm, sr


def _duration_seconds(
    dists, lognormal: Tuple[float, float], cap_seconds: int
) -> int:
    ms = dists.lognormal(*lognormal)
    seconds = max(1, int(math.ceil(ms / 1000.0)))
    if cap_seconds > 0:
        seconds = min(seconds, cap_seconds)
    return seconds


def generate_facebook_workload(
    params: FacebookWorkloadParams,
    streams: Optional[RandomStreams] = None,
    seed: int = 0,
) -> List[Job]:
    """Draw jobs following the Table 4 mix and LogNormal task times.

    Job types are sampled with probabilities proportional to the Table 4
    counts, so any ``num_jobs`` reproduces the trace's type distribution in
    expectation (at ``num_jobs=1000`` the paper's exact mix in expectation).
    """
    params.validate()
    streams = streams or RandomStreams(seed)
    arrivals = streams.distributions("facebook.arrivals")
    types = streams.distributions("facebook.job_types")
    durations = streams.distributions("facebook.durations")
    deadlines = streams.distributions("facebook.deadlines")

    weights = [count for (_, _, count) in FACEBOOK_JOB_TYPES]
    exact_sequence: List[Tuple[int, int]] = []
    if params.exact_mix:
        # the trace's exact composition, shuffled into a random arrival order
        per_block = params.num_jobs // 1000 if params.num_jobs >= 1000 else 0
        remainder_blocks = (params.num_jobs % 1000) // 50
        for k_mp, k_rd, count in FACEBOOK_JOB_TYPES:
            copies = count * per_block + (count // 20) * remainder_blocks
            exact_sequence.extend([(k_mp, k_rd)] * copies)
        order = types.permutation(len(exact_sequence))
        exact_sequence = [exact_sequence[i] for i in order]

    jobs: List[Job] = []
    now = 0.0
    for i in range(params.num_jobs):
        job_id = params.first_job_id + i
        now += arrivals.exponential_rate(params.arrival_rate)
        arrival = int(round(now))

        if params.exact_mix:
            k_mp, k_rd = exact_sequence[i]
        else:
            k_mp, k_rd, _ = types.choice(FACEBOOK_JOB_TYPES, weights)
        k_mp, k_rd = _scaled_counts(k_mp, k_rd, params.scale)

        map_tasks = [
            Task(
                id=f"t{job_id}_m{k}",
                job_id=job_id,
                kind=TaskKind.MAP,
                duration=_duration_seconds(
                    durations, MAP_TIME_LOGNORMAL, params.max_task_seconds
                ),
            )
            for k in range(k_mp)
        ]
        reduce_tasks = [
            Task(
                id=f"t{job_id}_r{k}",
                job_id=job_id,
                kind=TaskKind.REDUCE,
                duration=_duration_seconds(
                    durations, REDUCE_TIME_LOGNORMAL, params.max_task_seconds
                ),
            )
            for k in range(k_rd)
        ]

        job = Job(
            id=job_id,
            arrival_time=arrival,
            earliest_start=arrival,  # p = 0 for this workload
            deadline=0,
            map_tasks=map_tasks,
            reduce_tasks=reduce_tasks,
        )
        te = minimum_execution_time(
            job, params.total_map_slots, params.total_reduce_slots
        )
        multiplier = deadlines.uniform(1.0, params.deadline_multiplier_max)
        job.deadline = arrival + int(math.ceil(te * multiplier))
        jobs.append(job)

    return jobs
