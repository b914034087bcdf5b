"""Seeded random streams against numpy's own SeedSequence and PCG64."""

from __future__ import annotations

import random

import numpy as np
import pytest

from _helpers import vertex_rng
from peps_forge.errors import InvalidInputError
from peps_forge.streams import (
    BLOCK,
    MEASUREMENTS,
    TENSORS,
    SeedStreams,
    StreamBatch,
    Uniforms,
    pcg64,
)

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
                stream = Uniforms(*streams.pcg_state(step))
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
        stream = Uniforms(*SeedStreams(seed, MEASUREMENTS).pcg_state(step))
        assert [stream.random() for _ in draws] == draws


class TestSeededBitGenerator:
    """numpy generators put at the start of a stream, or anywhere in it."""

    @pytest.mark.parametrize("namespace", [MEASUREMENTS, TENSORS])
    def test_states_match_numpy(self, namespace):
        for seed in SEEDS:
            streams = SeedStreams(seed, namespace)
            for index in INDICES:
                want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(namespace, index)))
                state, inc = streams.pcg_state(index)
                assert want.state["state"] == {"state": state, "inc": inc}, (seed, index)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 + 7, 2**70 + 3])
    def test_generator_draws_like_a_fresh_one(self, seed):
        streams = SeedStreams(seed, TENSORS)
        for index in [0, 1, 5, 2**40 + 5]:
            rng = streams.generator(index)
            want = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(TENSORS, index)))
            assert rng.bit_generator.state == want.bit_generator.state, index
            assert np.array_equal(rng.uniform(0.25, 1.0, 3), want.uniform(0.25, 1.0, 3))
            assert np.array_equal(rng.standard_normal((2, 3)), want.standard_normal((2, 3)))
            assert rng.integers(0, 2**31, dtype=np.int32) == want.integers(0, 2**31, dtype=np.int32)

    @pytest.mark.parametrize("seed", [0, 2**32 + 7, 2**130 + 1])
    def test_doubles_continue_the_stream_in_blocks(self, seed):
        # from the stream's start and from past a few single draws, across
        # several blocks
        streams = SeedStreams(seed, MEASUREMENTS)
        for index in [0, 3, 2**32]:
            for skip in [0, 1, 5]:
                stream = Uniforms(*streams.pcg_state(index))
                want = vertex_rng(seed, index).random(skip + 3 * BLOCK + 1)
                assert [stream.random() for _ in range(skip)] == want[:skip].tolist()
                doubles = stream.doubles()
                assert [next(doubles) for _ in want[skip:]] == want[skip:].tolist(), (index, skip)

    def test_pcg64_puts_numpy_at_any_state(self):
        rand = random.Random(5)
        for _ in range(200):
            state, inc = rand.getrandbits(128), rand.getrandbits(128) | 1
            want = np.random.PCG64(0)
            want.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            assert pcg64(state, inc).state == want.state

    def test_negative_seed_rejected(self):
        # and every seed that is not an integer, whole floats included
        for seed in (-1, np.int64(-1), 3.0, 3.5, "3", None):
            with pytest.raises(InvalidInputError, match="seed"):
                SeedStreams(seed, TENSORS)
            with pytest.raises(InvalidInputError, match="seed"):
                StreamBatch([3, seed], TENSORS)


class TestStreamBatch:
    """The array derivation of many seeds at once, one batch per index."""

    @pytest.mark.parametrize("namespace", [MEASUREMENTS, TENSORS])
    def test_states_match_numpy(self, namespace):
        # shuffled, so that each word count's seeds and indices sit apart in
        # the batch; a numpy integer seeds the streams of the equal int
        numpy_seeds = [np.int64(3), np.uint64(2**64 - 1), np.uint32(2**32 - 1)]
        seeds = random.Random(namespace).sample(SEEDS + numpy_seeds, len(SEEDS) + 3)
        indices = random.Random(namespace).sample(INDICES, len(INDICES))
        batch = StreamBatch(seeds, namespace)
        draws, stream = batch.first_draws(indices)
        assert draws.shape == (len(indices), len(seeds))
        for i, index in enumerate(indices):
            for k, seed in enumerate(seeds):
                seq = np.random.SeedSequence(int(seed), spawn_key=(namespace, index))
                bitgen = np.random.PCG64(seq)
                start = stream(i, k)
                want = {"state": start.state, "inc": start.inc}
                assert bitgen.state["state"] == want, (seed, index)
                assert draws[i, k] == np.random.Generator(bitgen).random(), (seed, index)
