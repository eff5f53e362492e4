"""Named, counter-based random substreams.

Every source of randomness in the package flows from one integer seed
through `substream`, so any component (a generator, one solver step, one
trial of a batch) can be replayed in isolation on any platform.

A Philox stream is fixed by its 128-bit key, which numpy derives as
`SeedSequence(entropy).generate_state(2, np.uint64)`.  Where a run needs
hundreds of streams (step 2's searches, the step-8 loop's step-5 calls), the
caller asks for a block of keys of the size it needs: `seed_keys` applies
numpy's entropy mix to the whole block at once, and `keyed` builds each
generator from its precomputed key.  Step 2 takes its searches' keys from
`child_keys` and the loop its step-5 keys from `substream_keys`;
`lemire_draws` turns a block of fresh streams into their bounded draws,
decoded from their raw output at once.  Every stream draws exactly the bits
that per-call `SeedSequence` construction would give it.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterator, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
BLOCK_CAP = 256  # the longest block of keyed streams a caller takes at once
# Smaller groups go through numpy's own SeedSequence, one row at a time: the
# vectorised mix costs about as much as six rows of it, whatever the block size.
_MIX_MIN_ROWS = 7
_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox's initial counter: an array skips its int conversion

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a 4-word
# pool, hashmix constants INIT_A/MULT_A, mix multipliers, output hash INIT_B/MULT_B
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """The count + 1 hash constants init * mult**j mod 2**32, as a column."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, chain: np.ndarray, j: int, lanes: int) -> np.ndarray:
    """Hash calls j .. j + lanes - 1 at once, lane i on `value` (or its row i):
    xor with chain[j + i], multiply by chain[j + i + 1], xor-shift."""
    value = value ^ chain[j : j + lanes]
    value *= chain[j + 1 : j + lanes + 1]
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L
    out -= y * _MIX_R
    out ^= out >> 16
    return out


def _mix_keys(words: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(2, np.uint64)` for every column of a
    (words x rows) uint32 matrix, as a (rows, 2) uint64 matrix.

    The hash constants depend only on the call's position, so every row's mix
    runs in lockstep: each step below updates one pool word, or the lanes of
    one source word, for all rows at once."""
    count, rows = words.shape
    chain = _hash_chain(_INIT_A, _MULT_A, _POOL * (_POOL + max(count - _POOL, 0)))
    pool = np.zeros((_POOL, rows), dtype=np.uint32)
    pool[: min(count, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, chain, 0, _POOL)
    j = _POOL
    for src in range(_POOL):  # each pool word mixes into the other three
        others = [d for d in range(_POOL) if d != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], chain, j, _POOL - 1))
        j += _POOL - 1
    for src in range(_POOL, count):  # entropy beyond the pool mixes into every pool word
        pool = _mix(pool, _hashmix(words[src], chain, j, _POOL))
        j += _POOL
    state = _hashmix(pool, _hash_chain(_INIT_B, _MULT_B, _POOL), 0, _POOL)
    # 32-bit words 2i and 2i + 1 are the low and high halves of key word i
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def _words(entropy: Sequence[int]) -> list[int]:
    """SeedSequence's entropy words: each integer as its little-endian 32-bit
    words, one word for 0."""
    out = []
    for value in entropy:
        value = int(value)
        if value < 0:
            raise ValueError("entropy must be non-negative")
        out.append(value & _MASK32)
        value >>= 32
        while value:
            out.append(value & _MASK32)
            value >>= 32
    return out


def seed_keys(entropies: Sequence[Sequence[int]]) -> np.ndarray:
    """The Philox key of each entropy row, as a (rows, 2) uint64 matrix: row i
    is `np.random.SeedSequence(entropies[i]).generate_state(2, np.uint64)`.

    Rows mix in groups of one word count, so a row whose integers split into
    fewer words than its neighbours' (one below 2**32) still gets its own key."""
    keys = np.empty((len(entropies), 2), dtype=np.uint64)
    groups: dict[int, list[int]] = {}
    rows = [_words(entropy) for entropy in entropies]
    for i, row in enumerate(rows):
        groups.setdefault(len(row), []).append(i)
    for count, members in groups.items():
        if len(members) < _MIX_MIN_ROWS:
            for i in members:
                keys[i] = np.random.SeedSequence(rows[i]).generate_state(2, np.uint64)
        else:
            block = np.array([rows[i] for i in members], dtype=np.uint32).reshape(len(members), count)
            keys[members] = _mix_keys(block.T)
    return keys


@functools.cache
def _key_type() -> type:
    """The seed sequence type that hands a Philox generator one precomputed
    key.  It is made on first use: `import qtri` leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class Key(ISeedSequence):
        def __init__(self, key: np.ndarray) -> None:
            self.key = key

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a precomputed Philox key serves only generate_state(2, np.uint64)")
            return self.key

        def __reduce__(self) -> tuple:  # a pickled generator keeps its seed sequence
            return _key_seed, (self.key,)

    return Key


def _key_seed(key: np.ndarray) -> object:
    return _key_type()(key)


def keyed(key: np.ndarray) -> np.random.Generator:
    """The Philox generator with the 128-bit `key`, one row of `seed_keys`."""
    return np.random.Generator(np.random.Philox(_key_seed(key), counter=_COUNTER))


def _entropy(seed: int, path: Sequence[object]) -> list[int]:
    return [int(seed) & _MASK64] + [_token(p) for p in path]


def _token(part: object) -> int:
    digest = hashlib.sha256(repr(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, *path: object) -> np.random.Generator:
    """Independent Philox generator keyed by (seed, *path).

    Different paths never share a stream, and the same (seed, path) always
    reproduces the same bit sequence.
    """
    return keyed(np.random.SeedSequence(_entropy(seed, path)).generate_state(2, np.uint64))


def doubling_blocks() -> Iterator[tuple[int, int]]:
    """(start, size) = (0, 1), (1, 2), (3, 4), ...: consecutive blocks of
    indices that double in size up to BLOCK_CAP, then stay there."""
    start, size = 0, 1
    while True:
        yield start, size
        start, size = start + size, min(2 * size, BLOCK_CAP)


def child_keys(rng: np.random.Generator, start: int, count: int) -> np.ndarray:
    """The Philox keys of children start .. start + count - 1, as a (count, 2)
    matrix: child i is keyed by `[rng.integers(0, 2**63 - 1), i]`, drawing
    from `rng` in turn from child `start` on, and `keyed` builds its stream.

    The keys are drawn in one `integers` call, which gives the same numbers
    as one call per child, so consecutive blocks give the per-child keys."""
    draws = rng.integers(0, 2**63 - 1, size=count).tolist()
    return seed_keys([[key, start + j] for j, key in enumerate(draws)])


def substream_keys(seed: int, *path: object, start: int, count: int) -> np.ndarray:
    """The Philox keys of `substream(seed, *path, i)` for i = start .. start +
    count - 1, as a (count, 2) matrix: `keyed(key)` builds each stream."""
    head = _entropy(seed, path)
    return seed_keys([head + [_token(i)] for i in range(start, start + count)])


def lemire_draws(keys: np.ndarray, bound: int, count: int, stride: int = 1) -> np.ndarray:
    """`count` draws below `bound` per key, as a (keys, count) uint64 matrix:
    row i is what `count` calls of `integers(bound)` on the fresh stream
    `keyed(keys[i])` give, each call followed by `stride // 2` whole outputs,
    for an odd `stride`.

    Those calls read the 32-bit halves, low then high, of raw outputs 0,
    stride, 2 * stride, ..., and every row is decoded from them at once by
    Lemire's method, as numpy's bounded draws do: half x gives
    (x * bound) >> 32.  A row where the method may reject a half (its leftover
    falls below `bound`) is drawn again call by call, and so is every row for a
    `bound` of 2**32 or more, which reads whole outputs."""
    draws = np.zeros((len(keys), count), dtype=np.uint64)
    redraw: Sequence[int] = range(len(keys))
    if bound < 1 << 32:
        words = stride * ((count - 1) // 2) + 1 if count else 0
        raw = np.array([keyed(key).bit_generator.random_raw(words) for key in keys]).reshape(len(keys), words)
        # each read output as its low, then high 32-bit half, on any byte order
        scaled = raw[:, ::stride].astype("<u8").view("<u4")[:, :count] * np.uint64(bound)
        draws = scaled >> 32
        redraw = np.flatnonzero((scaled.astype(np.uint32) < bound).any(axis=1)).tolist()
    for i in redraw:
        rng = keyed(keys[i])
        for j in range(count):
            draws[i, j] = rng.integers(bound)
            rng.bit_generator.random_raw(stride // 2)
    return draws


def derive_seed(seed: int, *path: object) -> int:
    """Stable 32-bit child seed for (seed, *path); hash() is salted, this is not."""
    mixed = hashlib.sha256(repr((int(seed),) + path).encode("utf-8")).digest()
    return int.from_bytes(mixed[:4], "big")
