"""numpy's seeded random streams, derived in integer arithmetic.

Every random stream of the package is numpy's ``PCG64`` stream of
``SeedSequence(seed, spawn_key=(namespace, index))``, bit for bit. The
namespace keeps streams derived from one seed apart:

* :data:`MEASUREMENTS` (0): the driver's stream for processing step
  ``index`` (see :func:`peps_forge.dynamics.run_algorithm`);
* :data:`TENSORS` (1): the sampler's stream for vertex ``index`` (see
  :func:`peps_forge.harness.random_tensors`).

A seed is an integer ``>= 0`` (anything :func:`operator.index` takes); a
numpy integer gives the streams of the equal Python int.

SeedSequence mixes its entropy (the seed's 32-bit words zero-padded to the
pool size, then the spawn key's words) into its pool one word at a time.
:class:`SeedStreams` therefore has numpy build the pool of the shared
prefix ``[seed words, padding, namespace]`` once. Each stream then runs one
kernel, :func:`_state_words`: it mixes the words of its index into the 4
pool words and hashes those into the 4 words that PCG64 seeds its
``(state, inc)`` from, unrolled on named words, instead of building a
SeedSequence and a Generator. Both algorithms are frozen by numpy's
stream-compatibility policy (NEP 19); the tests keep numpy as the oracle.

:class:`StreamBatch` derives the streams of many seeds at once, for a
sweep, through the same kernel: its pools and words are ``uint64`` arrays
with one element per seed. Under NEP 50 an int constant takes the array's
dtype; a product or sum may wrap modulo ``2**64``, but the wrap leaves the
low 32 bits that the mask keeps. So ints and arrays give the same words.
Seeds of one word count share every hash constant, and every seed below
``2**128`` pads to four words. numpy has no batched SeedSequence, so the
batch builds its pools itself (:func:`_entropy_pool`); the scalar path
keeps numpy's pool, which is faster for one seed. The batch takes the
first draw of each (index, seed) stream in 32-bit limb arithmetic and
leaves the rest of the stream to :class:`Uniforms`.

:class:`Uniforms` draws a stream's doubles one at a time in integer
arithmetic, and continues it in blocks on a numpy ``Generator`` put at its
state by :func:`pcg64`. Both take the top 53 bits of the same PCG64
outputs, so the doubles agree. :meth:`SeedStreams.generator` hands a
stream's seeding words to PCG64 as they are. Both go through
:func:`_seeded_pcg64`, the one way this package makes a numpy ``PCG64``.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: a draw's top 53 bits as a double in [0, 1)
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


def check_seed(seed) -> int:
    """``seed`` as an int ``>= 0``; a numpy integer gives the equal Python int."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InvalidInputError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return seed


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of ``n >= 0``, one zero word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(const: int, mult: int, count: int) -> list[int]:
    """The constants of ``count`` successive SeedSequence hashes.

    Hash ``i`` XORs its word with element ``i`` and multiplies it by element
    ``i + 1``: each hash steps the constant by ``mult``, whatever the data.
    """
    consts = [const]
    for _ in range(count):
        consts.append(const := (const * mult) & _MASK32)
    return consts


def _hash(words: list, consts: list[int]) -> list:
    """SeedSequence's hash of each word under the constants that start at ``consts[0]``.

    A word is a Python int or a ``uint64`` array of 32-bit values.
    """
    out = []
    for x, a, b in zip(words, consts, consts[1:]):
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


#: ``generate_state(4, uint64)`` hashes the cycled pool into 8 words
_STATE_CONSTS = tuple(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))


@functools.cache
def _index_offsets(prefix_words: int, index: int) -> tuple[tuple[int, ...], ...]:
    """What mixing each word of ``index`` into a pool after ``prefix_words`` words adds.

    :func:`_mix` of a hashed word ``h`` into pool word ``x`` takes the low
    32 bits of ``L x - R h``, so the offset is ``-R h`` modulo ``2**32``,
    one per pool word. Past the pool size, SeedSequence hashes each entropy
    word once per pool word; before it, the pool words and their all-pairs
    mixing take 16 hashes. Either way ``L >= 4`` words take ``4 L``
    hashes, so the constants that follow the prefix depend on its length
    only.
    """
    words = _uint32_words(index)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (prefix_words + len(words)))
    offsets = []
    for i, w in enumerate(words, start=prefix_words):
        hashes = _hash([w] * _POOL_SIZE, consts[_POOL_SIZE * i :])
        offsets.append(tuple(-_MIX_MULT_R * h & _MASK32 for h in hashes))
    return tuple(offsets)


def _state_words(pool, index_offsets) -> tuple:
    """The 4 words of ``generate_state(4, uint64)`` once an index is mixed into ``pool``.

    ``pool`` holds the 4 pool words of the shared prefix and
    ``index_offsets`` the 4 offsets of each index word (see
    :func:`_index_offsets`). This is every stream's seeding, unrolled: the
    mixes of :func:`_mix` and the hashes of :func:`_hash` on named words,
    with no list built per step. Each word is a Python int or a ``uint64``
    array of 32-bit values; an array product or sum may wrap modulo
    ``2**64``, which keeps the low 32 bits. The 8 hashed words are paired
    last into the 64-bit words that PCG64 takes, ``(initstate, initseq)``
    with each value's high word first: each is a little-endian pair, as in
    the ``uint64`` view of SeedSequence's 32-bit words.
    """
    x0, x1, x2, x3 = pool
    for k0, k1, k2, k3 in index_offsets:
        x0 = (_MIX_MULT_L * x0 + k0) & _MASK32
        x1 = (_MIX_MULT_L * x1 + k1) & _MASK32
        x2 = (_MIX_MULT_L * x2 + k2) & _MASK32
        x3 = (_MIX_MULT_L * x3 + k3) & _MASK32
        x0 ^= x0 >> 16
        x1 ^= x1 >> 16
        x2 ^= x2 >> 16
        x3 ^= x3 >> 16
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _STATE_CONSTS
    w0 = ((x0 ^ c0) * c1) & _MASK32
    w1 = ((x1 ^ c1) * c2) & _MASK32
    w2 = ((x2 ^ c2) * c3) & _MASK32
    w3 = ((x3 ^ c3) * c4) & _MASK32
    w4 = ((x0 ^ c4) * c5) & _MASK32
    w5 = ((x1 ^ c5) * c6) & _MASK32
    w6 = ((x2 ^ c6) * c7) & _MASK32
    w7 = ((x3 ^ c7) * c8) & _MASK32
    return (
        (w1 ^ (w1 >> 16)) << 32 | w0 ^ (w0 >> 16),
        (w3 ^ (w3 >> 16)) << 32 | w2 ^ (w2 >> 16),
        (w5 ^ (w5 >> 16)) << 32 | w4 ^ (w4 >> 16),
        (w7 ^ (w7 >> 16)) << 32 | w6 ^ (w6 >> 16),
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


def _seeded_state(s_hi, s_lo, q_hi, q_lo) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` right after seeding from the 4 words of a
    stream, ``(initstate, initseq)`` with each value's high word first."""
    initstate = s_hi << 64 | s_lo
    inc = (q_hi << 65 | q_lo << 1 | 1) & _MASK128  # inc = (initseq << 1) | 1
    return ((inc + initstate) * _PCG_MULT + inc) & _MASK128, inc


class _SeedWords(ISeedSequence):
    """A stand-in seed sequence that hands PCG64 fixed ``(initstate, initseq)`` words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def _seeded_pcg64(words: tuple[int, int, int, int]) -> np.random.PCG64:
    """numpy's ``PCG64`` seeded from ``(initstate, initseq)``, given as the
    four 64-bit words a seed sequence hands it, each value's high word first."""
    return np.random.PCG64(_SeedWords(np.array(words, dtype=np.uint64)))


def pcg64(state: int, inc: int) -> np.random.PCG64:
    """numpy's ``PCG64`` at ``(state, inc)``, ``inc`` odd.

    Seeding sets the state to ``(inc + initstate) * M + inc`` with
    ``inc = (initseq << 1) | 1``, so the stand-in seed sequence hands over
    the ``initstate`` that solves this for ``state``. That costs no
    SeedSequence and no state assignment. The result's ``seed_seq`` is the
    stand-in, which cannot spawn.
    """
    initstate = ((state - inc) * _PCG_MULT_INV - inc) & _MASK128
    initseq = inc >> 1
    return _seeded_pcg64((initstate >> 64, initstate & _MASK64, initseq >> 64, initseq & _MASK64))


#: doubles a missed chain draws at once from numpy's generator
BLOCK = 32


class Uniforms:
    """numpy's ``PCG64`` from a seeded ``(state, inc)``; draws ``random()`` one at a time.

    One draw in integer arithmetic costs a fraction of a numpy call, so
    short runs of draws, and every first shot of the driver, stay here.
    :meth:`doubles` continues the stream in blocks on numpy's own
    generator, for long runs.
    """

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

    def doubles(self) -> Iterator[float]:
        """The doubles that follow, as an endless iterator.

        A new numpy ``Generator`` is put at this stream's state and draws
        them :data:`BLOCK` at a time; ``Generator.random(n)`` gives the
        doubles of ``n`` calls of :meth:`random`, since both take a PCG64
        output's top 53 bits. The generator belongs to the iterator alone,
        and this object does not advance with it.
        """
        rng = np.random.Generator(pcg64(self.state, self.inc))
        while True:
            yield from rng.random(BLOCK).tolist()


class SeedStreams:
    """The streams ``SeedSequence(seed, spawn_key=(namespace, index))`` of one seed.

    Construction builds the one SeedSequence, of the seed's shared prefix;
    each stream is then one :func:`_state_words` call on the Python ints of
    its pool and a few 128-bit steps.
    """

    __slots__ = ("pool", "prefix_words")

    def __init__(self, seed: int, namespace: int):
        words = _uint32_words(check_seed(seed))
        words += [0] * (_POOL_SIZE - len(words)) + [namespace]
        self.prefix_words = len(words)
        self.pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool.tolist()

    def pcg_state(self, index: int) -> tuple[int, int]:
        """PCG64's ``(state, inc)`` right after seeding from stream ``index``."""
        return _seeded_state(*_state_words(self.pool, _index_offsets(self.prefix_words, index)))

    def generator(self, index: int) -> np.random.Generator:
        """A new numpy ``Generator`` at the start of stream ``index``.

        Its PCG64 is seeded from the stream's words as
        :func:`_state_words` gives them, with no 128-bit state to compute
        and invert.
        """
        words = _state_words(self.pool, _index_offsets(self.prefix_words, index))
        return np.random.Generator(_seeded_pcg64(words))


def _seed_words(seeds: list[int], count: int) -> list[np.ndarray]:
    """The first ``count`` little-endian 32-bit words of each seed, as ``uint64`` arrays."""
    words = []
    for shift in range(0, 32 * count, 64):
        half = np.array([(s >> shift) & _MASK64 for s in seeds], dtype=np.uint64)
        words += [half & _MASK32, half >> 32]
    return words[:count]


class StreamBatch:
    """The streams ``SeedSequence(seed, spawn_key=(namespace, index))`` of many seeds.

    Column ``k`` of every array belongs to ``seeds[k]``; the rows of
    :meth:`first_draws` are stream indices. Seeds of one word count (at
    least the pool size, after padding) build their pools in one pass of
    :func:`_entropy_pool` and share the hashes of every index mixed into
    them. A missed chain goes back to its stream's start as
    :class:`Uniforms`, as in the single-seed driver.
    """

    __slots__ = ("pool", "groups")

    def __init__(self, seeds: Sequence[int], namespace: int):
        seeds = [check_seed(s) for s in seeds]
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

    def first_draws(
        self, indices: Sequence[int]
    ) -> tuple[np.ndarray, Callable[[int, int], Uniforms]]:
        """Each seed's first ``random()`` from each stream in ``indices``, in one pass.

        ``draws[i, k]`` is the double that ``Generator.random()`` draws
        first from seed ``k``'s stream ``indices[i]``; ``stream(i, k)`` is
        that stream from its start, as :class:`Uniforms`. Indices of one
        word count share one pass of :func:`_state_words` on ``(index,
        seed)`` arrays.
        """
        size = (len(indices), len(self.pool[0]))
        w = np.empty((4, *size), np.uint64)
        word_counts = np.array([len(_uint32_words(index)) for index in indices])
        for count in np.unique(word_counts).tolist():
            rows = np.flatnonzero(word_counts == count)
            offsets = np.empty((count, _POOL_SIZE, len(rows), size[1]), np.uint64)
            for prefix_words, at in self.groups:
                table = [_index_offsets(prefix_words, indices[i]) for i in rows.tolist()]
                # (row, word, pool word) -> (word, pool word, row), one column per seed
                offsets[..., at] = np.array(table, np.uint64).transpose(1, 2, 0)[..., None]
            for out, x in zip(w, _state_words(self.pool, offsets)):
                out[rows] = x
        # initstate and initseq as little-endian limbs, then inc = (initseq << 1) | 1
        initstate = [w[1] & _MASK32, w[1] >> 32, w[0] & _MASK32, w[0] >> 32]
        seq = [w[3] & _MASK32, w[3] >> 32, w[2] & _MASK32, w[2] >> 32]
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

        def stream(i: int, k: int) -> Uniforms:
            return Uniforms(*_seeded_state(*w[:, i, k].tolist()))

        return draws, stream
