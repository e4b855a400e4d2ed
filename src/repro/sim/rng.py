"""Named, reproducible random streams and the paper's distributions.

Each workload dimension (inter-arrival times, map counts, execution times,
start-time offsets, deadline multipliers...) draws from its *own* stream, so
that varying one experimental factor does not perturb the random numbers of
the others -- the common-random-numbers discipline behind factor-at-a-time
studies like the paper's Section VI.

Streams are derived from a master seed and a *stable* digest of the stream
name (``zlib.crc32``; Python's ``hash`` is salted per process and would break
reproducibility across runs).

The generator is numpy's default one, written in plain Python: a
``SeedSequence`` over ``(seed, crc32(name))`` seeds a PCG64, and every
distribution is numpy's own algorithm.  A stream therefore yields exactly
the numbers, and carries exactly the state dict, of
``numpy.random.default_rng(SeedSequence((seed, crc32(name))))``, without
numpy installed; the oracle tests compare the two draw for draw.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Sequence

from repro.sim.ziggurat import EXP_R, FE, FI, KE, KI, NOR_INV_R, NOR_R, WE, WI

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: 2**-53: scales a 53-bit integer draw into [0, 1).
_TO_DOUBLE = 1.0 / 9007199254740992.0

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_words(entropy: Sequence[int]) -> List[int]:
    """numpy's ``SeedSequence(entropy).generate_state(4, numpy.uint64)``."""
    words: List[int] = []
    for value in entropy:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state: List[int] = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    # 32-bit words read as little-endian 64-bit ones
    return [state[i] | state[i + 1] << 32 for i in range(0, len(state), 2)]


class Pcg64:
    """numpy's ``PCG64`` bit generator: a 128-bit LCG with XSL-RR output.

    A 32-bit draw takes the low half of a 64-bit one and keeps the high
    half for the next 32-bit draw (``has_uint32`` / ``uinteger``), as numpy
    does; a 64-bit draw leaves that buffer alone.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, seed_words: Sequence[int]) -> None:
        initstate = seed_words[0] << 64 | seed_words[1]
        initseq = seed_words[2] << 64 | seed_words[3]
        self.inc = (initseq << 1 | 1) & _MASK128
        self.state = ((self.inc + initstate) * _PCG_MULT + self.inc) & _MASK128
        self.has_uint32 = 0
        self.uinteger = 0

    def next_uint64(self) -> int:
        """Step the LCG and return the XSL-RR output of the new state."""
        state = (self.state * _PCG_MULT + self.inc) & _MASK128
        self.state = state
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        return (word >> rot | word << (64 - rot)) & _MASK64

    def next_uint32(self) -> int:
        """One 32-bit draw, from the buffered half word when there is one."""
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self.next_uint64()
        self.has_uint32 = 1
        self.uinteger = word >> 32
        return word & _MASK32

    def next_double(self) -> float:
        """A uniform double in [0, 1) from the top 53 bits of a 64-bit draw."""
        return (self.next_uint64() >> 11) * _TO_DOUBLE

    def state_dict(self) -> dict:
        """The dict numpy's ``PCG64().state`` gives for the same state."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": self.state, "inc": self.inc},
            "has_uint32": self.has_uint32,
            "uinteger": self.uinteger,
        }


class RandomStreams:
    """A factory of independent named :class:`Pcg64` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, Pcg64] = {}

    def generator(self, name: str) -> Pcg64:
        """The named stream's generator (created and cached on first use)."""
        gen = self._streams.get(name)
        if gen is None:
            digest = zlib.crc32(name.encode("utf-8"))
            gen = Pcg64(_seed_words((self.seed, digest)))
            self._streams[name] = gen
        return gen

    def distributions(self, name: str) -> "Distributions":
        """The distribution toolbox over the named stream."""
        return Distributions(self.generator(name))

    def state_dict(self) -> Dict[str, dict]:
        """Every instantiated stream's bit-generator state, by name.

        The state dict is JSON-serialisable and exact, so two
        :class:`RandomStreams` with equal state dicts will produce identical
        draw sequences -- the property checkpoint/restore validation relies
        on.  Streams not yet created are simply absent (they are a pure
        function of (seed, name) and need no state).
        """
        return {name: gen.state_dict() for name, gen in sorted(self._streams.items())}


def _standard_exponential(gen: Pcg64) -> float:
    """numpy's ziggurat ``random_standard_exponential``."""
    while True:
        ri = gen.next_uint64() >> 3
        idx = ri & 0xFF
        ri >>= 8
        x = ri * WE[idx]
        if ri < KE[idx]:
            return x  # the fast path, 98.9 % of draws
        if idx == 0:
            return EXP_R - math.log1p(-gen.next_double())
        u = gen.next_double()
        if (FE[idx - 1] - FE[idx]) * u + FE[idx] < math.exp(-x):
            return x


def _standard_normal(gen: Pcg64) -> float:
    """numpy's ziggurat ``random_standard_normal``."""
    while True:
        r = gen.next_uint64()
        idx = r & 0xFF
        r >>= 8
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = rabs * WI[idx]
        if r & 1:
            x = -x
        if rabs < KI[idx]:
            return x  # the fast path, 99.3 % of draws
        if idx == 0:
            while True:
                xx = -NOR_INV_R * math.log1p(-gen.next_double())
                yy = -math.log1p(-gen.next_double())
                if yy + yy > xx * xx:
                    return -(NOR_R + xx) if (rabs >> 8) & 1 else NOR_R + xx
        u = gen.next_double()
        if (FI[idx - 1] - FI[idx]) * u + FI[idx] < math.exp(-0.5 * x * x):
            return x


class Distributions:
    """The distribution toolbox of Table 3 / Table 4 over one generator."""

    def __init__(self, gen: Pcg64) -> None:
        self.gen = gen

    # -- discrete uniform DU[lo, hi], inclusive (Table 3 "DU")
    def du(self, lo: int, hi: int) -> int:
        """Discrete uniform DU[lo, hi], inclusive (Table 3).

        numpy's ``Generator.integers(lo, hi + 1)``: Lemire's multiply and
        reject on a 32-bit draw when the range fits one, on a 64-bit draw
        otherwise.
        """
        if hi < lo:
            raise ValueError(f"DU[{lo},{hi}] is empty")
        if lo < _INT64_MIN or hi > _INT64_MAX:
            raise ValueError(f"DU[{lo},{hi}] is out of bounds for int64")
        rng = hi - lo
        if rng == 0:
            return lo
        if rng < _MASK32:
            excl = rng + 1
            m = self.gen.next_uint32() * excl
            if (m & _MASK32) < excl:
                threshold = (_MASK32 - rng) % excl
                while (m & _MASK32) < threshold:
                    m = self.gen.next_uint32() * excl
            return lo + (m >> 32)
        if rng == _MASK32:
            return lo + self.gen.next_uint32()
        if rng == _MASK64:
            return lo + self.gen.next_uint64()
        excl = rng + 1
        m = self.gen.next_uint64() * excl
        if (m & _MASK64) < excl:
            threshold = (_MASK64 - rng) % excl
            while (m & _MASK64) < threshold:
                m = self.gen.next_uint64() * excl
        return lo + (m >> 64)

    # -- continuous uniform U[lo, hi] (Table 3 "U")
    def uniform(self, lo: float, hi: float) -> float:
        """Continuous uniform U[lo, hi] (Table 3)."""
        if hi < lo:
            raise ValueError(f"U[{lo},{hi}] is empty")
        low = float(lo)
        width = float(hi) - low
        if not math.isfinite(width):
            raise OverflowError("high - low range exceeds valid bounds")
        return low + width * self.gen.next_double()

    # -- Bernoulli(p) (earliest-start-time coin flip, Table 3)
    def bernoulli(self, p: float) -> bool:
        """Coin flip with success probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"Bernoulli parameter {p} outside [0, 1]")
        return self.gen.next_double() < p

    # -- exponential inter-arrival times of a Poisson(rate) process
    def exponential_rate(self, rate: float) -> float:
        """Inter-arrival draw of a Poisson(rate) process."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        return (1.0 / rate) * _standard_exponential(self.gen)

    # -- LogNormal(mu, sigma^2): paper's Facebook task execution times.
    #    Note the paper parameterises by the *variance* of the underlying
    #    normal (LN(9.9511, 1.6764) etc.).
    def lognormal(self, mu: float, sigma_squared: float) -> float:
        """LogNormal(mu, sigma^2) -- note: parameterised by the *variance* of the underlying normal, as the paper writes LN(mu, sigma^2)."""
        if sigma_squared < 0:
            raise ValueError(f"negative variance {sigma_squared}")
        sigma = math.sqrt(sigma_squared)
        return math.exp(mu + sigma * _standard_normal(self.gen))

    # -- weighted choice over a finite set (job-type mix of Table 4)
    def choice(self, items: Sequence, weights: Sequence[float]):
        """Weighted draw from ``items`` (the Table 4 job-type mix).

        numpy's ``Generator.choice(len(items), p=probs)``: the cumulative
        sum of the normalised weights, scaled by its last entry, searched
        (right side) for one uniform draw.
        """
        if len(items) != len(weights):
            raise ValueError("items and weights must have equal length")
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        probs = [float(w) / total for w in weights]
        if not all(p >= 0 for p in probs):
            raise ValueError("weights must be non-negative and not NaN")
        cdf = list(accumulate(probs))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        return items[bisect_right(cdf, self.gen.next_double())]

    # -- uniform random order (the exact Table 4 mix, shuffled)
    def permutation(self, n: int) -> List[int]:
        """A uniformly random order of ``range(n)``.

        numpy's ``Generator.permutation(n)``: Fisher-Yates from the top,
        each swap index drawn by masked rejection on a 32-bit draw (numpy
        switches to 64-bit draws past 2^32 items, which no list here holds).
        """
        order = list(range(n))
        draw = self.gen.next_uint32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            order[i], order[j] = order[j], order[i]
        return order
