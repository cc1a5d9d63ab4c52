import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfglab.rng import (parallel_map, restart, stream_keys, substream,
                        tag_keys)


def test_substream_reproducible():
    a = substream(7, "fbsde:0").standard_normal(16)
    b = substream(7, "fbsde:0").standard_normal(16)
    assert np.array_equal(a, b)


def test_substream_name_and_seed_separation():
    base = substream(7, "fbsde:0").standard_normal(16)
    other_name = substream(7, "fbsde:1").standard_normal(16)
    other_seed = substream(8, "fbsde:0").standard_normal(16)
    assert not np.array_equal(base, other_name)
    assert not np.array_equal(base, other_seed)


def test_substream_large_seed():
    big = 2**64 - 1
    a = substream(big, "model-init:0").standard_normal(4)
    b = substream(big, "model-init:0").standard_normal(4)
    assert np.array_equal(a, b)


def test_parallel_map_preserves_order_and_values():
    items = list(range(23))
    inline = parallel_map(lambda v: v * v, items, workers=1)
    pooled = parallel_map(lambda v: v * v, items, workers=8)
    assert inline == [v * v for v in items]
    assert pooled == inline


def test_parallel_map_numeric_identity_across_workers():
    def draw(k):
        return substream(3, "nagent:rep:%d:pop:0:agent:0" % k).standard_normal(8)

    one = parallel_map(draw, range(6), workers=1)
    eight = parallel_map(draw, range(6), workers=8)
    for a, b in zip(one, eight):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Key derivation against numpy's SeedSequence


def _blake_tag(name):
    return int.from_bytes(hashlib.blake2b(name.encode("utf-8"),
                                          digest_size=8).digest(), "little")


def _seed_sequence(seed, tag):
    return np.random.SeedSequence([int(seed) & (2**64 - 1), tag])


_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
                   st.integers(-(2**70), 2**70))
_TAGS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, names=st.lists(st.text(max_size=40), max_size=6))
@example(seed=0, names=["fbsde:0"])
@example(seed=2**64 - 1, names=["nagent:rep:0:pop:0:agent:0", ""])
@example(seed=-3, names=["mix:0:1"])
def test_stream_keys_equal_seed_sequence_keys(seed, names):
    keys = stream_keys(seed, names)
    assert keys.dtype == np.uint64 and keys.shape == (len(names), 2)
    for name, key in zip(names, keys):
        ref = _seed_sequence(seed, _blake_tag(name)).generate_state(
            2, np.uint64)
        assert key.tobytes() == ref.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=_SEEDS, tags=st.lists(_TAGS, min_size=1, max_size=6))
@example(seed=0, tags=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@example(seed=2**32 - 1, tags=[0, 2**32])
@example(seed=2**32, tags=[5, 2**40])
@example(seed=2**64 - 1, tags=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
@example(seed=-1, tags=[7, 2**63])
def test_tag_keys_cover_one_and_two_word_entropy(seed, tags):
    # a seed or tag below 2**32 is one entropy word, otherwise two
    keys = tag_keys(seed, tags)
    for tag, key in zip(tags, keys):
        ref = _seed_sequence(seed, tag).generate_state(2, np.uint64)
        assert key.tobytes() == ref.tobytes()


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, name=st.text(max_size=40))
def test_substream_draws_as_seed_sequence_philox(seed, name):
    ref = np.random.Generator(
        np.random.Philox(seed=_seed_sequence(seed, _blake_tag(name))))
    rng = substream(seed, name)
    assert np.array_equal(rng.standard_normal(7), ref.standard_normal(7))
    assert np.array_equal(rng.integers(0, 2**31, 5, dtype=np.uint32),
                          ref.integers(0, 2**31, 5, dtype=np.uint32))
    assert np.array_equal(rng.beta(0.5, 2.0, 3), ref.beta(0.5, 2.0, 3))


def test_restart_discards_buffered_state():
    rng = np.random.Generator(np.random.Philox())
    # leave a half-used uint32 word and a part-used output buffer behind
    rng.integers(0, 10, 3, dtype=np.uint32)
    rng.standard_normal(5)
    restart(rng, stream_keys(11, ["restart"])[0])
    fresh = substream(11, "restart")
    assert np.array_equal(rng.random(3, dtype=np.float32),
                          fresh.random(3, dtype=np.float32))
    assert np.array_equal(rng.standard_normal(9), fresh.standard_normal(9))
