"""Seeded random streams against numpy's own SeedSequence and PCG64."""

from __future__ import annotations

import random

import numpy as np
import pytest

from _helpers import vertex_rng
from peps_forge.errors import InvalidInputError
from peps_forge.streams import MEASUREMENTS, TENSORS, SeedStreams, StreamBatch

SEEDS = [0, 1, 7, 123, 2**31, 2**32 - 1, 2**32, 2**32 + 7, 2**64 - 1, 2**64]
SEEDS += [2**64 + 5, 2**70 + 3, 2**96, 2**128 - 1, 2**128, 2**160 + 1, 2**200]
# indices of one, two and three 32-bit words
INDICES = [*range(16), 2**32 - 1, 2**32, 2**40 + 5, 2**64 + 1]


class TestMeasurementStreams:
    """The driver's per-vertex streams are numpy's, bit for bit."""

    def test_bit_identical_to_numpy(self):
        seeds = SEEDS + [random.Random(bits).getrandbits(bits) for bits in range(5, 201, 15)]
        for seed in seeds:
            streams = SeedStreams(seed, MEASUREMENTS)
            for step in INDICES:
                stream = streams.uniforms(step)
                ours = [stream.random() for _ in range(8)]
                assert ours == vertex_rng(seed, step).random(8).tolist(), (seed, step)

    # draws of numpy 2.4's default_rng(SeedSequence(seed, spawn_key=(0, step)))
    GOLDEN_DRAWS = [
        (0, 0, [0.5651317655614634, 0.935433136976671, 0.47987454708253907]),
        (2**32 + 7, 3, [0.38653289772351074, 0.1006311339823811, 0.7344868761660808]),
        (2**70 + 3, 1, [0.8070743261356725, 0.9379056639089467, 0.5339058740264766]),
        (2**200 + 1, 15, [0.5100847462067406, 0.025684633853626182, 0.8494074533805883]),
    ]

    @pytest.mark.parametrize("seed,step,draws", GOLDEN_DRAWS)
    def test_golden_draws(self, seed, step, draws):
        stream = SeedStreams(seed, MEASUREMENTS).uniforms(step)
        assert [stream.random() for _ in draws] == draws


class TestSeededBitGenerator:
    """One reused numpy generator, put at the start of each stream in turn."""

    @pytest.mark.parametrize("namespace", [MEASUREMENTS, TENSORS])
    def test_states_match_numpy(self, namespace):
        for seed in SEEDS:
            streams = SeedStreams(seed, namespace)
            for index in INDICES:
                want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(namespace, index)))
                state, inc = streams.pcg_state(index)
                assert want.state["state"] == {"state": state, "inc": inc}, (seed, index)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 7, 2**70 + 3])
    def test_reused_generator_draws_like_a_fresh_one(self, seed):
        streams = SeedStreams(seed, TENSORS)
        bitgen = np.random.PCG64(0)
        rng = np.random.Generator(bitgen)
        for index in [0, 1, 5, 2**40 + 5]:
            streams.seed_bit_generator(bitgen, index)
            want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(TENSORS, index)))
            assert np.array_equal(rng.uniform(0.25, 1.0, 3), want.uniform(0.25, 1.0, 3))
            assert np.array_equal(rng.standard_normal((2, 3)), want.standard_normal((2, 3)))
            # a 32-bit draw leaves half a word buffered, which reseeding must drop
            assert rng.integers(0, 2**31, dtype=np.int32) == want.integers(0, 2**31, dtype=np.int32)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError):
            SeedStreams(-1, TENSORS)
        with pytest.raises(InvalidInputError):
            StreamBatch([3, -1], TENSORS)


class TestStreamBatch:
    """The array derivation of many seeds at once, one batch per index."""

    @pytest.mark.parametrize("namespace", [MEASUREMENTS, TENSORS])
    def test_states_match_numpy(self, namespace):
        # shuffled, so that each word count's seeds sit apart in the batch
        seeds = random.Random(namespace).sample(SEEDS, len(SEEDS))
        batch = StreamBatch(seeds, namespace)
        for index in INDICES:
            draws, resume = batch.first_draws(index)
            for k, seed in enumerate(seeds):
                seq = np.random.SeedSequence(seed, spawn_key=(namespace, index))
                bitgen = np.random.PCG64(seq)
                assert draws[k] == np.random.Generator(bitgen).random(), (seed, index)
                rest = resume(k)
                want = {"state": rest.state, "inc": rest.inc}
                assert bitgen.state["state"] == want, (seed, index)
