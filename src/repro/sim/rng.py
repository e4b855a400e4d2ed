"""Named, reproducible random streams and the paper's distributions.

Each workload dimension (inter-arrival times, map counts, execution times,
start-time offsets, deadline multipliers...) draws from its *own* stream, so
that varying one experimental factor does not perturb the random numbers of
the others -- the common-random-numbers discipline behind factor-at-a-time
studies like the paper's Section VI.

Streams are derived from a master seed and a *stable* digest of the stream
name (``zlib.crc32``; Python's ``hash`` is salted per process and would break
reproducibility across runs).
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, Sequence

import numpy as np


def _jsonable(value):
    """Recursively convert numpy scalars/arrays in a state dict to JSON types."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class RandomStreams:
    """A factory of independent named :class:`numpy.random.Generator` s."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def generator(self, name: str) -> np.random.Generator:
        """The named stream's generator (created and cached on first use)."""
        gen = self._streams.get(name)
        if gen is None:
            digest = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence(entropy=(self.seed, digest))
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        return gen

    def distributions(self, name: str) -> "Distributions":
        """The distribution toolbox over the named stream."""
        return Distributions(self.generator(name))

    def state_dict(self) -> Dict[str, dict]:
        """Every instantiated stream's bit-generator state, by name.

        The numpy ``bit_generator.state`` dict is JSON-serialisable and
        exact, so two :class:`RandomStreams` with equal state dicts will
        produce identical draw sequences -- the property checkpoint/restore
        validation relies on.  Streams not yet created are simply absent
        (they are a pure function of (seed, name) and need no state).
        """
        return {
            name: _jsonable(gen.bit_generator.state)
            for name, gen in sorted(self._streams.items())
        }

class Distributions:
    """The distribution toolbox of Table 3 / Table 4 over one generator."""

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen

    # -- discrete uniform DU[lo, hi], inclusive (Table 3 "DU")
    def du(self, lo: int, hi: int) -> int:
        """Discrete uniform DU[lo, hi], inclusive (Table 3)."""
        if hi < lo:
            raise ValueError(f"DU[{lo},{hi}] is empty")
        return int(self.gen.integers(lo, hi + 1))

    # -- continuous uniform U[lo, hi] (Table 3 "U")
    def uniform(self, lo: float, hi: float) -> float:
        """Continuous uniform U[lo, hi] (Table 3)."""
        if hi < lo:
            raise ValueError(f"U[{lo},{hi}] is empty")
        return float(self.gen.uniform(lo, hi))

    # -- Bernoulli(p) (earliest-start-time coin flip, Table 3)
    def bernoulli(self, p: float) -> bool:
        """Coin flip with success probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Bernoulli parameter {p} outside [0, 1]")
        return bool(self.gen.random() < p)

    # -- exponential inter-arrival times of a Poisson(rate) process
    def exponential_rate(self, rate: float) -> float:
        """Inter-arrival draw of a Poisson(rate) process."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return float(self.gen.exponential(1.0 / rate))

    # -- LogNormal(mu, sigma^2): paper's Facebook task execution times.
    #    Note the paper parameterises by the *variance* of the underlying
    #    normal (LN(9.9511, 1.6764) etc.).
    def lognormal(self, mu: float, sigma_squared: float) -> float:
        """LogNormal(mu, sigma^2) -- note: parameterised by the *variance* of the underlying normal, as the paper writes LN(mu, sigma^2)."""
        if sigma_squared < 0:
            raise ValueError(f"negative variance {sigma_squared}")
        return float(self.gen.lognormal(mean=mu, sigma=math.sqrt(sigma_squared)))

    # -- weighted choice over a finite set (job-type mix of Table 4)
    def choice(self, items: Sequence, weights: Sequence[float]):
        """Weighted draw from ``items`` (the Table 4 job-type mix)."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        probs = np.asarray(weights, dtype=float) / total
        idx = int(self.gen.choice(len(items), p=probs))
        return items[idx]
