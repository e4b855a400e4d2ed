"""Replication statistics: confidence intervals and stopping rules.

The paper repeats each simulation experiment "a sufficient number of times
such that the confidence interval for T remains less than ±1% of the average
value, at a confidence level of 95%".  :func:`run_replications` implements
exactly this sequential stopping rule (generalised to several metrics with
per-metric precision targets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            c = 1.0 + num / c
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 3e-16:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b})")


def _t_upper_tail(t: float, df: float) -> float:
    """P(T > t) for ``t >= 0``: half the regularised I_x(df/2, 1/2)."""
    a, b = df / 2.0, 0.5
    # x and 1 - x are formed separately so neither loses digits near 1.
    x, y = df / (df + t * t), t * t / (df + t * t)
    if y == 0.0:
        return 0.5
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _beta_cf(a, b, x) / a
    return 0.5 * (1.0 - front * _beta_cf(b, a, y) / b)


def student_t_quantile(p: float, df: float) -> float:
    """The ``p``-quantile (``0.5 <= p < 1``) of Student's t, by bisection."""
    if not (0.5 <= p < 1.0 and df > 0):
        raise ValueError(f"student_t_quantile(p={p}, df={df}) out of range")
    tail = 1.0 - p
    lo, hi = 0.0, 1.0
    while _t_upper_tail(hi, df) > tail:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if _t_upper_tail(mid, df) > tail:
            lo = mid
        else:
            hi = mid


def mean_ci(data: Sequence[float], confidence: float = 0.95) -> tuple:
    """(mean, half_width) of the Student-t confidence interval."""
    n = len(data)
    if n == 0:
        raise ValueError("mean_ci of empty data")
    mean = sum(data) / n
    if n == 1:
        return mean, float("inf")
    var = sum((x - mean) ** 2 for x in data) / (n - 1)
    se = math.sqrt(var / n)
    t = student_t_quantile(0.5 + confidence / 2.0, n - 1)
    return mean, t * se


@dataclass
class ReplicationResult:
    """Replication outcomes plus per-metric summary statistics."""

    samples: Dict[str, List[float]] = field(default_factory=dict)
    replications: int = 0
    converged: bool = False
    confidence: float = 0.95

    def mean(self, metric: str) -> float:
        """Sample mean of ``metric`` across replications."""
        return mean_ci(self.samples[metric], self.confidence)[0]

    def half_width(self, metric: str) -> float:
        """CI half-width of ``metric`` at the configured confidence."""
        return mean_ci(self.samples[metric], self.confidence)[1]

    def summary(self) -> Dict[str, tuple]:
        """(mean, half-width) per collected metric."""
        return {
            m: mean_ci(vals, self.confidence) for m, vals in self.samples.items()
        }


def run_replications(
    run_once: Callable[[int], Mapping[str, float]],
    targets: Optional[Mapping[str, float]] = None,
    min_replications: int = 3,
    max_replications: int = 30,
    confidence: float = 0.95,
) -> ReplicationResult:
    """Repeat ``run_once(replication_index)`` until CI targets are met.

    ``run_once`` returns a mapping metric-name -> value for one replication.
    ``targets`` maps metric names to the maximum allowed *relative* CI
    half-width (e.g. ``{"T": 0.01}`` for the paper's ±1% rule on turnaround
    time).  Metrics whose mean is zero are considered converged (an absolute
    zero with zero spread needs no more samples; with spread, the relative
    rule is meaningless and replication continues until max).
    """
    if min_replications < 1:
        raise ValueError("min_replications must be >= 1")
    if max_replications < min_replications:
        raise ValueError("max_replications < min_replications")
    result = ReplicationResult(confidence=confidence)
    targets = dict(targets or {})

    for rep in range(max_replications):
        outcome = run_once(rep)
        for metric, value in outcome.items():
            result.samples.setdefault(metric, []).append(float(value))
        result.replications = rep + 1
        if result.replications < min_replications:
            continue
        if not targets:
            result.converged = True
            break
        done = True
        for metric, tol in targets.items():
            vals = result.samples.get(metric)
            if not vals:
                continue
            mean, hw = mean_ci(vals, confidence)
            if hw == 0.0:
                continue
            if abs(mean) < 1e-12:
                done = False
                continue
            if hw / abs(mean) > tol:
                done = False
        if done:
            result.converged = True
            break
    return result
