"""The pure-Python streams against numpy's ``default_rng``, draw for draw.

Every distribution of :mod:`repro.sim.rng` is compared with numpy over at
least 10^5 draws, and the full bit-generator state dict is compared after
each batch, so a draw that consumed the wrong number of words shows even
when its value happens to agree.  numpy is a test oracle only; without it
this module skips and the byte pins of ``test_rng_pins`` keep guarding the
streams.
"""

import glob
import os
import struct
import zlib

import pytest

np = pytest.importorskip("numpy")

from repro.sim import rng as rng_mod  # noqa: E402
from repro.sim.rng import Distributions, Pcg64, RandomStreams  # noqa: E402
from repro.sim.ziggurat import FE, FI, KE, KI, WE, WI  # noqa: E402

BATCH = 20_000
BATCHES = 5  # 10^5 draws per distribution


def _pair(seed, name):
    entropy = (seed, zlib.crc32(name.encode("utf-8")))
    oracle = np.random.default_rng(np.random.SeedSequence(entropy))
    return oracle, RandomStreams(seed).distributions(name)


def _same_state(oracle, dists):
    assert dists.gen.state_dict() == oracle.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 11, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
def test_seeding_matches_seed_sequence(seed):
    for name in ("synthetic.arrivals", "facebook.job_types", "", "x"):
        oracle, dists = _pair(seed, name)
        _same_state(oracle, dists)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1, 20),  # the Table 3 task counts
        (0, 0xFFFFFFFE),  # the widest 32-bit Lemire range
        (-5, 0xFFFFFFFF - 5),  # exactly 2^32 values: one bare 32-bit draw
        (0, 2**32),  # 2^32 + 1 values: 64-bit Lemire
        (-(2**40), 2**50),  # wider than 2^32
        (-(2**63), 2**63 - 1),  # the whole int64 range: one bare 64-bit draw
    ],
)
def test_du_matches_integers(lo, hi):
    oracle, dists = _pair(3, "du")
    for _ in range(BATCHES):
        expected = oracle.integers(lo, hi, size=BATCH, endpoint=True)
        assert [dists.du(lo, hi) for _ in range(BATCH)] == expected.tolist()
        _same_state(oracle, dists)


def test_uniform_and_bernoulli_match():
    oracle, dists = _pair(4, "u")
    for _ in range(BATCHES):
        expected = oracle.uniform(1.5, 7.25, size=BATCH).tolist()
        assert [dists.uniform(1.5, 7.25) for _ in range(BATCH)] == expected
        _same_state(oracle, dists)
        expected = (oracle.random(size=BATCH) < 0.3).tolist()
        assert [dists.bernoulli(0.3) for _ in range(BATCH)] == expected
        _same_state(oracle, dists)


class _Spy(Pcg64):
    """A PCG64 that records which ziggurat path each draw took."""

    def __init__(self, seed_words, layer):
        super().__init__(seed_words)
        self.layer = layer
        self.last_layer = None
        self.paths = {"tail": 0, "wedge": 0}

    def next_uint64(self):
        word = super().next_uint64()
        self.last_layer = self.layer(word)
        return word

    def next_double(self):
        if self.last_layer is not None:
            self.paths["tail" if self.last_layer == 0 else "wedge"] += 1
            self.last_layer = None
        return super().next_double()


def _spied(seed, name, layer):
    words = rng_mod._seed_words((seed, zlib.crc32(name.encode("utf-8"))))
    return Distributions(_Spy(words, layer))


def test_exponential_matches_with_both_slow_paths():
    oracle, _ = _pair(5, "exp")
    dists = _spied(5, "exp", lambda word: (word >> 3) & 0xFF)
    for _ in range(BATCHES):
        expected = oracle.exponential(1.0 / 0.25, size=BATCH).tolist()
        assert [dists.exponential_rate(0.25) for _ in range(BATCH)] == expected
        _same_state(oracle, dists)
    assert dists.gen.paths["tail"] > 0 and dists.gen.paths["wedge"] > 0


def test_lognormal_matches_with_both_slow_paths():
    oracle, _ = _pair(6, "ln")
    dists = _spied(6, "ln", lambda word: word & 0xFF)
    mu, var = 9.9511, 1.6764  # the Facebook map-time LogNormal
    for _ in range(BATCHES):
        expected = oracle.lognormal(mu, var**0.5, size=BATCH).tolist()
        assert [dists.lognormal(mu, var) for _ in range(BATCH)] == expected
        _same_state(oracle, dists)
    assert dists.gen.paths["tail"] > 0 and dists.gen.paths["wedge"] > 0


def test_choice_matches_weighted_choice():
    oracle, dists = _pair(7, "choice")
    weights = [380, 160, 140, 80, 60, 60, 40, 40, 20, 20, 0, 1e-3]
    probs = np.asarray(weights, dtype=float) / float(sum(weights))
    items = list(range(len(weights)))
    for _ in range(BATCHES):
        expected = oracle.choice(len(items), p=probs, size=BATCH).tolist()
        assert [dists.choice(items, weights) for _ in range(BATCH)] == expected
        _same_state(oracle, dists)


@pytest.mark.parametrize("n", [0, 1, 2, 1000, 100_000])
def test_permutation_matches(n):
    oracle, dists = _pair(8, "perm")
    for _ in range(2):
        assert dists.permutation(n) == oracle.permutation(n).tolist()
        _same_state(oracle, dists)


def test_32_bit_draws_interleave_with_64_bit_ones():
    """A 64-bit draw between two 32-bit ones leaves the buffered half word
    in place, so the second 32-bit draw still takes it."""
    oracle, dists = _pair(9, "mixed")
    buffered = set()
    for _ in range(BATCH):
        assert dists.du(1, 20) == int(oracle.integers(1, 21))
        assert dists.uniform(0.0, 2.0) == float(oracle.uniform(0.0, 2.0))
        buffered.add(dists.gen.has_uint32)
        assert dists.du(0, 2**40) == int(oracle.integers(0, 2**40, endpoint=True))
        assert dists.bernoulli(0.5) == bool(oracle.random() < 0.5)
        _same_state(oracle, dists)
    assert buffered == {0, 1}


def test_every_stream_state_dict_is_numpy_state():
    streams = RandomStreams(2)
    oracles = {}
    for name in ("a", "b", "c"):
        dists = streams.distributions(name)
        oracle, _ = _pair(2, name)
        for _ in range(3):
            assert dists.du(0, 9) == int(oracle.integers(0, 10))
        oracles[name] = oracle.bit_generator.state
    assert streams.state_dict() == oracles


def test_negative_seed_raises_like_numpy():
    with pytest.raises(ValueError):
        np.random.SeedSequence((-1, 5))
    with pytest.raises(ValueError):
        RandomStreams(-1).generator("x")


@pytest.mark.parametrize("weights", [[1.0, -0.5, 2.0], [1.0, float("nan")], [0, 0]])
def test_bad_choice_weights_raise_like_numpy(weights):
    dists = RandomStreams(0).distributions("x")
    with pytest.raises(ValueError):
        dists.choice(["a", "b", "c"][: len(weights)], weights)
    total = float(sum(weights))
    if total > 0:  # all-zero weights stop at the sum check before numpy
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(
                len(weights), p=np.asarray(weights, dtype=float) / total
            )


def test_ziggurat_tables_are_numpys():
    """Each committed table appears byte for byte in numpy's compiled
    generator, wherever that build happens to place it."""
    random_dir = os.path.dirname(np.random.__file__)
    paths = glob.glob(os.path.join(random_dir, "_generator*"))
    binaries = [p for p in paths if not p.endswith((".py", ".pyi", ".pyx"))]
    if not binaries:
        pytest.skip("numpy's compiled generator is not on disk")
    with open(binaries[0], "rb") as fh:
        blob = fh.read()
    for floats in (FE, WE, FI, WI):
        assert len(floats) == 256 and floats[0] != 0.0
        assert struct.pack("<256d", *floats) in blob
    for ints in (KE, KI):
        assert len(ints) == 256
        assert struct.pack("<256Q", *ints) in blob
