"""Random substreams: block-keyed streams draw exactly what per-call
`SeedSequence` construction gives, and `lemire_draws` exactly what their
`integers` calls give."""

import hashlib
import itertools
import pickle

import numpy as np
import pytest
import qtri.rng

from qtri.rng import (
    BLOCK_CAP,
    child_keys,
    doubling_blocks,
    keyed,
    lemire_draws,
    seed_keys,
    substream,
    substream_keys,
)

STREAMS = 600  # past the blocks of 1, 2, 4, ..., 256 rows and into the second of BLOCK_CAP
# bounds whose halves Lemire's method may reject (from 2**31) and that read whole outputs (from 2**32)
BOUNDS = [2, 7, 63, 511, 4095, 65535, 2**31 + 11, 2**32 - 1, 2**32, 2**40 + 5]


def reference_substream(seed, *path):
    """`substream` as numpy builds it from the entropy words, with no shortcut."""
    tokens = [int.from_bytes(hashlib.sha256(repr(p).encode("utf-8")).digest()[:8], "big")
              for p in path]
    entropy = [int(seed) & (2**64 - 1)] + tokens
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def same_draws(a, b):
    return (np.array_equal(a.bit_generator.random_raw(6), b.bit_generator.random_raw(6))
            and np.array_equal(a.integers(0, 10**9, size=5), b.integers(0, 10**9, size=5))
            and a.random() == b.random())


def numpy_key(entropy):
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


@pytest.mark.parametrize("words", range(0, 9))
def test_block_keys_match_seed_sequence(words, monkeypatch):
    rng = np.random.default_rng(words)
    mixed = []
    mix = qtri.rng._mix_keys
    monkeypatch.setattr(qtri.rng, "_mix_keys", lambda block: mixed.append(block.shape[1]) or mix(block))
    # 40 rows of one word count go through the vectorised mix, one row through numpy,
    # and the rows either side of the switch through numpy and then the mix
    switch = qtri.rng._MIX_MIN_ROWS
    for rows in (40, 1, switch - 1, switch):
        mixed.clear()
        entropies = rng.integers(0, 2**32, size=(rows, words)).tolist()
        keys = seed_keys(entropies)
        assert keys.shape == (rows, 2) and keys.dtype == np.uint64
        assert mixed == ([rows] if rows >= switch else [])
        for entropy, key in zip(entropies, keys):
            assert np.array_equal(key, numpy_key(entropy))


def test_block_keys_group_rows_by_word_count():
    """Integers below 2**32 take one word, larger ones two, 0 one: one block
    whose rows split into 1 to 6 words, each count in a group of its own."""
    rng = np.random.default_rng(7)
    entropies = []
    for _ in range(60):
        size = int(rng.integers(0, 4))
        entropies.append([int(rng.integers(0, 2**63)) if rng.random() < 0.5
                          else int(rng.integers(0, 2**32)) for _ in range(size)])
    entropies += [[0], [0, 0], [2**32], [2**64 - 1, 0]]
    for entropy, key in zip(entropies, seed_keys(entropies)):
        assert np.array_equal(key, numpy_key(entropy))
    with pytest.raises(ValueError):
        seed_keys([[-1]])


def test_substream_matches_seed_sequence_construction():
    for seed, path in [(0, ("step1",)), (5, ("step5", 17)), (2**40 + 3, ("graph", "erdos_renyi", 64, 0.5)),
                       (-1, ()), (12, ("baseline", 512))]:
        assert same_draws(substream(seed, *path), reference_substream(seed, *path))


def test_block_keyed_loop_streams_match_per_call_streams():
    # 1 and 3 rows go through numpy's SeedSequence, 7 and 300 through the vectorised mix
    for seed in (0, 3, 2**33 + 1):
        for start, count in [*itertools.product([0, 1, 255, 256, STREAMS], [0, 1, 3, 7]), (1, 300)]:
            keys = substream_keys(seed, "step5", start=start, count=count)
            assert keys.shape == (count, 2) and keys.dtype == np.uint64
            for i, key in enumerate(keys, start):
                assert same_draws(keyed(key), reference_substream(seed, "step5", i))
                assert same_draws(keyed(key), substream(seed, "step5", i))


def bounded_reference(entropy, bound, count, stride):
    """`count` calls of `integers(bound)`, each followed by `stride // 2` whole
    outputs, on a stream numpy builds from `entropy` itself."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
    if stride == 1:
        return rng.integers(0, bound, size=count).tolist()
    out = []
    for _ in range(count):
        out.append(int(rng.integers(bound)))
        rng.bit_generator.random_raw(stride // 2)
    return out


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("count", [0, 1, 2, 7, 132, 133])
def test_lemire_draws_equal_the_bounded_integers(monkeypatch, bound, count):
    # stride 3 is `safe_grover`'s pattern: each attempt's k, then its `random()`
    entropies = [[bound, count, i] for i in range(64)]
    for stride in (1, 3):
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(qtri.rng, "keyed", lambda key: built.append(key) or keyed(key))
            draws = lemire_draws(seed_keys(entropies), bound, count, stride)
        assert draws.shape == (64, count) and draws.dtype == np.uint64
        for entropy, row in zip(entropies, draws.tolist()):
            assert row == bounded_reference(entropy, bound, count, stride)
        # every stream is read once, and a redrawn row once more: below 2**32 the rows
        # where a half may be rejected, from 2**32 on every row, read only call by call
        redrawn = len(built) - 64 if bound < 2**32 else len(built)
        if count and bound >= 2**31:
            assert redrawn > 0
        if bound < 2**12:  # a half is rejected with odds below bound / 2**32
            assert redrawn == 0


def test_block_keyed_children_match_per_call_children():
    parent, ref_parent = substream(4, "step2"), substream(4, "step2")
    blocks, start = [], 0
    for count in (1, 2, 4, 0, 7, BLOCK_CAP, STREAMS - 270):
        blocks.append(child_keys(parent, start, count))
        assert blocks[-1].shape == (count, 2)
        start += count
    for i, key in enumerate(np.concatenate(blocks)):
        ref_key = int(ref_parent.integers(0, 2**63 - 1))
        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence([ref_key, i])))
        assert same_draws(keyed(key), ref)
    assert parent.integers(2**40) == ref_parent.integers(2**40)  # one draw per child


def test_doubling_blocks_tile_the_indices():
    blocks = list(itertools.islice(doubling_blocks(), 12))
    assert blocks[:4] == [(0, 1), (1, 2), (3, 4), (7, 8)]
    assert [size for _, size in blocks[8:]] == [BLOCK_CAP] * 4
    assert all(start + size == nxt for (start, size), (nxt, _) in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, BLOCK_CAP])
def test_a_block_of_key_draws_equals_the_scalar_draws(size):
    block, scalar = substream(2, "keys", size), substream(2, "keys", size)
    drawn = block.integers(0, 2**63 - 1, size=size).tolist()
    assert drawn == [int(scalar.integers(0, 2**63 - 1)) for _ in range(size)]
    assert block.integers(0, 2**63 - 1) == scalar.integers(0, 2**63 - 1)  # same state after


def test_a_keyed_stream_serves_only_its_key():
    seed_seq = keyed(seed_keys([[1, 2]])[0]).bit_generator.seed_seq
    assert np.array_equal(seed_seq.generate_state(2, np.uint64), numpy_key([1, 2]))
    for args in [(4,), (2, np.uint32), (3, np.uint64)]:
        with pytest.raises(ValueError):
            seed_seq.generate_state(*args)


def test_a_keyed_stream_pickles_and_resumes():
    stream = keyed(substream_keys(1, "step5", start=0, count=1)[0])
    stream.random()
    copy = pickle.loads(pickle.dumps(stream))
    assert same_draws(copy, stream)
