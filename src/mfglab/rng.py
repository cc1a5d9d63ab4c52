"""Deterministic random stream management.

Every stochastic routine draws from a named substream of one master seed:
counter-based Philox at counter 0 under the key numpy's SeedSequence([seed,
blake2b tag of the name]) gives it, so results cannot depend on thread
scheduling or worker count. tag_keys runs SeedSequence's uint32 hash mix
over many tags at once; seed and tag take one or two entropy words each,
never more than its pool of 4, which it fills past the entropy by hashing
zeros. Array draws are made in one fixed-layout call per substream.
"""

import hashlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_ZERO4 = np.zeros(4, dtype=np.uint64)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# SeedSequence's running hash constants: INIT_A * MULT_A**j for 4 pool
# fills and 12 cross mixes, INIT_B * MULT_B**j for the 4 output words
_A, _B = (np.array([c * m**j & _MASK32 for j in range(n)], np.uint32)[:, None]
          for c, m, n in ((0x43B0D7E5, 0x931E8875, 17),
                          (0x8B51F9DD, 0x58F38DED, 5)))


def _hashmix(value, consts, j, n):
    """SeedSequence's hashmix of value under hash constants j .. j + n."""
    value = (value ^ consts[j:j + n]) * consts[j + 1:j + n + 1]
    return value ^ (value >> np.uint32(16))


def stream_keys(master_seed, names):
    """(n, 2) uint64 Philox keys of the substreams `names` of `master_seed`."""
    return tag_keys(master_seed, [int.from_bytes(hashlib.blake2b(
        name.encode("utf-8"), digest_size=8).digest(), "little")
        for name in names])


def tag_keys(master_seed, tags):
    """(n, 2) uint64 keys: row r is SeedSequence([master_seed mod 2**64,
    tags[r]]).generate_state(2, np.uint64)."""
    seed, tags = int(master_seed) & _MASK64, np.asarray(tags, np.uint64)
    s = 1 + (seed > _MASK32)
    words = np.zeros((4, len(tags)), dtype=np.uint32)
    words[:s] = np.array([seed & _MASK32, seed >> 32][:s], np.uint32)[:, None]
    words[s], words[s + 1] = tags & np.uint64(_MASK32), tags >> np.uint64(32)
    pool = _hashmix(words, _A, 0, 4)
    for src in range(4):
        # each other word mixes with its own hash of the (unchanged) source
        dst = [d for d in range(4) if d != src]
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(pool[src], _A,
                                                       4 + 3 * src, 3)
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hashmix(pool, _B, 0, 4).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def restart(rng, key):
    """Put the Philox Generator rng at the start of the stream `key`."""
    rng.bit_generator.state = dict(
        bit_generator="Philox", state={"counter": _ZERO4, "key": key},
        buffer=_ZERO4, buffer_pos=4, has_uint32=0, uinteger=0)


def substream(master_seed, name):
    """Return a fresh Generator for the substream `name` of `master_seed`."""
    return np.random.Generator(
        np.random.Philox(key=stream_keys(master_seed, [name])[0]))


def parallel_map(fn, items, workers=1):
    """Apply fn to each item, returning results in input order.

    workers <= 1 runs inline. With more workers a thread pool is used
    (numpy releases the GIL in the heavy kernels); results are slotted by
    index so the output does not depend on completion order.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
