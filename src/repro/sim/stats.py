"""Replication statistics: Student-t confidence intervals.

The paper repeats each simulation experiment "a sufficient number of times
such that the confidence interval for T remains less than ±1% of the average
value, at a confidence level of 95%".  Here the replication count is fixed
up front instead: ``--replications N`` runs exactly N replications of every
point, and the figure table prints each point's mean with the half-width of
its 95 % interval (:func:`mean_ci`), so the precision a run reached is
stated rather than targeted.  (The adaptive rule this replaces, stop once
T's interval is within ±5 %, never stopped before the third replication;
``run`` defaults to three, and the shape tests and examples ask for two or
three.)
"""

from __future__ import annotations

import math
from typing import Sequence


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
