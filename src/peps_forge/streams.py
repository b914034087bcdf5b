"""numpy's seeded random streams, derived in integer arithmetic.

Every random stream of the package is numpy's ``PCG64`` stream of
``SeedSequence(seed, spawn_key=(namespace, index))``, bit for bit. The
namespace keeps streams derived from one seed apart:

* :data:`MEASUREMENTS` (0): the driver's stream for processing step
  ``index`` (see :func:`peps_forge.dynamics.run_algorithm`);
* :data:`TENSORS` (1): the sampler's stream for vertex ``index`` (see
  :func:`peps_forge.harness.random_tensors`).

SeedSequence mixes its entropy (the seed's 32-bit words zero-padded to the
pool size, then the spawn key's words) into its pool one word at a time.
:class:`SeedStreams` therefore has numpy build the pool of the shared
prefix ``[seed words, padding, namespace]`` once, and each stream only mixes
in the words of its index and hashes the pool into PCG64's ``(state,
inc)``: a dozen integer hash steps instead of a SeedSequence and a
Generator per stream. Both algorithms are frozen by numpy's
stream-compatibility policy (NEP 19); the tests keep numpy as the oracle.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidInputError

MEASUREMENTS = 0
TENSORS = 1

# numpy's SeedSequence hash
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# numpy's PCG64: a 128-bit LCG with the XSL-RR output function
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0``, one zero word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(const: int, mult: int, count: int) -> list[tuple[int, int]]:
    """``(xor, multiply)`` pairs of ``count`` successive SeedSequence hashes.

    Each hash XORs its word with the current constant, steps the constant
    by ``mult`` and multiplies by the new one, whatever the data.
    """
    pairs = []
    for _ in range(count):
        pairs.append((const, const := (const * mult) & _MASK32))
    return pairs


def _hash(word: int, consts: tuple[int, int]) -> int:
    v = ((word ^ consts[0]) * consts[1]) & _MASK32
    return v ^ (v >> 16)


#: ``generate_state(4, uint64)``: 8 words hashed from the cycled pool
_STATE_HASHES = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


@functools.cache
def _index_hashes(prefix_words: int, index: int) -> tuple[tuple[int, ...], ...]:
    """Hashes that mix the words of ``index`` into a pool after ``prefix_words`` words.

    Past the pool size, SeedSequence hashes each entropy word once per pool
    word; before it, the pool words and their all-pairs mixing take 16
    hashes. Either way ``L >= 4`` words take ``4 L`` hashes, so the
    constants that follow the prefix depend on its length only.
    """
    words = _uint32_words(index)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (prefix_words + len(words)))
    return tuple(
        tuple(_hash(w, c) for c in consts[_POOL_SIZE * i : _POOL_SIZE * (i + 1)])
        for i, w in enumerate(words, start=prefix_words)
    )


class Uniforms:
    """numpy's ``PCG64`` from a seeded ``(state, inc)``; draws only ``random()``."""

    __slots__ = ("state", "inc")

    def __init__(self, state: int, inc: int):
        self.state = state
        self.inc = inc

    def random(self) -> float:
        """Next double in [0, 1), the value ``Generator.random()`` would draw."""
        state = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        x = ((x >> rot) | (x << (64 - rot))) & _MASK64
        return (x >> 11) * (1.0 / 9007199254740992.0)


class SeedStreams:
    """The streams ``SeedSequence(seed, spawn_key=(namespace, index))`` of one seed."""

    __slots__ = ("pool", "prefix_words")

    def __init__(self, seed: int, namespace: int):
        if seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {seed}")
        words = _uint32_words(seed)
        words += [0] * (_POOL_SIZE - len(words)) + [namespace]
        self.prefix_words = len(words)
        self.pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool.tolist()

    def pcg_state(self, index: int) -> tuple[int, int]:
        """PCG64's ``(state, inc)`` right after seeding from stream ``index``."""
        pool = self.pool
        for hashes in _index_hashes(self.prefix_words, index):
            mixed = []
            for x, h in zip(pool, hashes):
                v = (_MIX_MULT_L * x - _MIX_MULT_R * h) & _MASK32
                mixed.append(v ^ (v >> 16))
            pool = mixed
        w = []  # _hash inlined: this runs once per stream
        for x, (a, b) in zip(pool * 2, _STATE_HASHES):
            v = ((x ^ a) * b) & _MASK32
            w.append(v ^ (v >> 16))
        # the 64-bit words (initstate, initseq) are little-endian word pairs
        initstate = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        initseq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        inc = ((initseq << 1) | 1) & _MASK128
        return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc

    def uniforms(self, index: int) -> Uniforms:
        """Stream ``index`` as a source of ``random()`` doubles."""
        return Uniforms(*self.pcg_state(index))

    def seed_bit_generator(self, bitgen: np.random.PCG64, index: int) -> None:
        """Put numpy's ``bitgen`` at the start of stream ``index``."""
        state, inc = self.pcg_state(index)
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
