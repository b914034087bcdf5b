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

:class:`StreamBatch` derives the streams of many seeds at once, for a
sweep. Its pools and hash steps are ``uint64`` arrays with one element per
seed. Its 32-bit steps (:func:`_hash`, :func:`_mix`) are the scalar path's
own source. Under NEP 50 an int constant takes the array's dtype; a
product may wrap modulo ``2**64``, but the wrap leaves the low 32 bits
that the mask keeps. So ints and arrays give the same words. Seeds of one
word count share every hash constant, and every seed below ``2**128`` pads
to four words. numpy has no batched SeedSequence, so the batch builds its
pools itself (:func:`_entropy_pool`); the scalar path keeps numpy's pool,
which is faster for one seed. The batch takes each stream's first draw in
32-bit limb arithmetic and leaves the rest of the stream to
:class:`Uniforms`.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

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
#: a draw's top 53 bits as a double in [0, 1)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


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


def _hash(words: list, consts: list[tuple[int, int]]) -> list:
    """SeedSequence's hash of each word under its ``(xor, multiply)`` pair.

    A word is a Python int or a ``uint64`` array of 32-bit values.
    """
    out = []
    for x, (a, b) in zip(words, consts):
        v = ((x ^ a) * b) & _MASK32
        out.append(v ^ (v >> 16))
    return out


def _mix(pool: list, hashes) -> list:
    """SeedSequence's mix of one hashed word into each pool word.

    ``L x - R h`` can fall below zero on ints and wraps on arrays; its low
    32 bits agree.
    """
    out = []
    for x, h in zip(pool, hashes):
        v = (_MIX_MULT_L * x - _MIX_MULT_R * h) & _MASK32
        out.append(v ^ (v >> 16))
    return out


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
        tuple(_hash([w] * _POOL_SIZE, consts[_POOL_SIZE * i :]))
        for i, w in enumerate(words, start=prefix_words)
    )


def _entropy_pool(words: list) -> list:
    """SeedSequence's pool of at least :data:`_POOL_SIZE` entropy words.

    The pool hashes the first words, mixes each of them into every other,
    then mixes each further word into every pool word.
    """
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(words))
    pool = _hash(words[:_POOL_SIZE], consts)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dsts = [d for d in range(_POOL_SIZE) if d != src]
        hashes = _hash([pool[src]] * len(dsts), consts[k:])
        k += len(dsts)
        for d, x in zip(dsts, _mix([pool[d] for d in dsts], hashes)):
            pool[d] = x
    for w in words[_POOL_SIZE:]:
        pool = _mix(pool, _hash([w] * _POOL_SIZE, consts[k:]))
        k += _POOL_SIZE
    return pool


def _limbs(n: int) -> list[int]:
    """The four little-endian 32-bit limbs of ``0 <= n < 2**128``."""
    return [(n >> shift) & _MASK32 for shift in (0, 32, 64, 96)]


def _mul_add(x: list, mult: list[int], acc: list) -> list:
    """``x * mult + acc`` modulo ``2**128``, on little-endian 32-bit limbs.

    Every partial sum stays below ``2**64``: ``(2**32 - 1)**2`` plus two limbs.
    """
    out = list(acc)
    for i, xi in enumerate(x):
        carry = 0
        for j in range(len(x) - i):
            v = xi * mult[j] + out[i + j] + carry
            out[i + j] = v & _MASK32
            carry = v >> 32
    return out


# Seeding sets PCG64's state to ``(inc + initstate) * M + inc``, and the first
# draw steps it once more: ``initstate * M**2 + inc * (M**2 + M + 1)``.
_FIRST_STATE_MULT = _limbs(_PCG_MULT**2 & _MASK128)
_FIRST_INC_MULT = _limbs((_PCG_MULT**2 + _PCG_MULT + 1) & _MASK128)


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
        return (x >> 11) * _DOUBLE_UNIT


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
            pool = _mix(pool, hashes)
        w = _hash(pool * 2, _STATE_HASHES)
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


def _seed_words(seeds: list[int], count: int) -> list[np.ndarray]:
    """The first ``count`` little-endian 32-bit words of each seed, as ``uint64`` arrays."""
    words = []
    for shift in range(0, 32 * count, 64):
        half = np.array([(s >> shift) & _MASK64 for s in seeds], dtype=np.uint64)
        words += [half & _MASK32, half >> 32]
    return words[:count]


class StreamBatch:
    """The streams ``SeedSequence(seed, spawn_key=(namespace, index))`` of many seeds.

    Element ``k`` of every array belongs to ``seeds[k]``. Seeds of one word
    count (at least the pool size, after padding) build their pools in one
    pass of :func:`_entropy_pool` and share the hashes of every index mixed
    into them.
    """

    __slots__ = ("pool", "groups")

    def __init__(self, seeds: Sequence[int], namespace: int):
        if min(seeds, default=0) < 0:
            raise InvalidInputError(f"seed must be >= 0, got {min(seeds)}")
        # seeds below 2**128 pad to the pool size
        counts = np.array([(s.bit_length() + 31) >> 5 if s >> 128 else _POOL_SIZE for s in seeds])
        self.pool = [np.empty(len(seeds), dtype=np.uint64) for _ in range(_POOL_SIZE)]
        #: ``(prefix words, positions)`` of each word count
        self.groups: list[tuple[int, np.ndarray]] = []
        for count in np.unique(counts).tolist():
            at = np.flatnonzero(counts == count)
            group = seeds if len(at) == len(seeds) else [seeds[k] for k in at.tolist()]
            words = _seed_words(group, count)
            for row, x in zip(self.pool, _entropy_pool(words + [namespace])):
                row[at] = x
            self.groups.append((count + 1, at))

    def first_draws(self, index: int) -> tuple[np.ndarray, Callable[[int], Uniforms]]:
        """Each seed's first ``random()`` from stream ``index``, and the rest of the stream.

        ``draws[k]`` is the double that ``Generator.random()`` draws first
        from seed ``k``'s stream; ``resume(k)`` is that stream past the
        draw, as :class:`Uniforms`.
        """
        hashes = np.empty((len(_uint32_words(index)), _POOL_SIZE, len(self.pool[0])), np.uint64)
        for prefix_words, at in self.groups:
            hashes[..., at] = np.array(_index_hashes(prefix_words, index), np.uint64)[..., None]
        pool = self.pool
        for word_hashes in hashes:
            pool = _mix(pool, word_hashes)
        w = _hash(pool * 2, _STATE_HASHES)
        # initstate and initseq as limbs, then inc = (initseq << 1) | 1
        initstate, seq = [w[2], w[3], w[0], w[1]], [w[6], w[7], w[4], w[5]]
        inc = [((seq[0] << 1) | 1) & _MASK32]
        inc += [((hi << 1) | (lo >> 31)) & _MASK32 for lo, hi in zip(seq, seq[1:])]
        state = _mul_add(initstate, _FIRST_STATE_MULT, _mul_add(inc, _FIRST_INC_MULT, [0] * 4))
        # Uniforms.random's output function on the limbs: XOR the 64-bit
        # halves, rotate right by the state's top 6 bits
        s0, s1, s2, s3 = state
        x = ((s3 ^ s1) << 32) | (s2 ^ s0)
        rot = s3 >> 26
        x = (x >> rot) | (x << ((64 - rot) & 63))
        draws = (x >> 11) * _DOUBLE_UNIT

        def resume(k: int) -> Uniforms:
            state_k, inc_k = (
                sum(int(limb[k]) << (32 * i) for i, limb in enumerate(limbs))
                for limbs in (state, inc)
            )
            return Uniforms(state_k, inc_k)

        return draws, resume
