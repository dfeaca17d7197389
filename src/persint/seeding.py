"""Deterministic random number infrastructure.

Draw protocol: every stochastic operation reads a PCG64 generator seeded by
its caller only by ``rng.random(k)`` calls in a pinned order, and maps the
uniforms through pinned transforms: :func:`box_muller`, :func:`scaled_index`,
inversion for exponentials and Knuth's product for Poisson counts. Each stream
has a generator of its own, so an unread tail of a block changes nothing.
Streams are bit-stable across platforms and numpy versions.

Independent streams are derived from a master seed with
``child_seed(master, *path)``: the child is the first 64-bit word of
``numpy.random.SeedSequence([master, *path])``. The integer path components
used by each pipeline are documented where they are assigned.

The seeding hashes are computed here, not by numpy's classes, so that a
batch costs a few array operations instead of objects per stream. The
SeedSequence hash is fixed by NEP 19; :func:`child_seeds` computes a
column of child seeds with it at once, and :func:`reseeded` sets one PCG64
generator to the state ``np.random.default_rng(seed)`` would start in
(PCG64's two-step setseq seeding from four SeedSequence words). Tests pin
both to numpy's own objects.
"""

import math

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * math.pi

_MAX_SEED = 2**64

# numpy's SeedSequence hash (NEP 19): pool of 4 uint32 words, hash constants.
_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = 2**128 - 1


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed):
    """Validate a 64-bit unsigned integer seed; returned as an int."""
    if not (_is_int(seed) and 0 <= seed < _MAX_SEED):
        raise InvalidParameterError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _words(value):
    """The little-endian uint32 words SeedSequence makes of a non-negative int."""
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _seed_words(entropy, n_words):
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)`` for uint32
    entropy words. A word is a Python int or a uint32 array, one entry per
    stream; with arrays the state words are arrays of those streams."""
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x & _M32) - (_MIX_R * y & _M32) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_b, state = _INIT_B, []
    for i in range(n_words):
        value = pool[i % _POOL] ^ hash_b
        hash_b = hash_b * _MULT_B & _M32
        value = value * hash_b & _M32
        state.append(value ^ value >> 16)
    return state


def _entropy(seed, path):
    words = _words(check_seed(seed))
    for p in path:
        if not (_is_int(p) and p >= 0):
            raise InvalidParameterError(f"seed path components must be integers >= 0, got {p!r}")
        words += _words(int(p))
    return words


def make_rng(seed):
    """PCG64 generator for a validated seed."""
    return np.random.default_rng(check_seed(seed))


def child_seed(seed, *path):
    """Derive an independent 64-bit child seed from ``seed`` and an integer path."""
    lo, hi = _seed_words(_entropy(seed, path), 2)
    return lo | hi << 32


def child_seeds(seed, path, count):
    """``[child_seed(seed, *path, i) for i in range(count)]`` as a uint64 array."""
    if not (_is_int(count) and 0 <= count <= 2**32):
        raise InvalidParameterError(
            f"child seed count must be an integer in [0, 2**32], got {count!r}"
        )
    lo, hi = _seed_words(_entropy(seed, path) + [np.arange(count, dtype=np.uint32)], 2)
    return hi.astype(np.uint64) << 32 | lo


def check_seeds(seeds):
    """Validate a 1-D sequence of seeds (see :func:`check_seed`); a uint64 array."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64 and seeds.ndim == 1:
        return seeds
    return np.array([check_seed(s) for s in seeds], dtype=np.uint64)


def reseeded(seeds):
    """For each seed in turn, one generator in ``np.random.default_rng(seed)``'s
    start state. The same generator is re-seeded for the next seed, so use
    it before asking for the next."""
    seeds = check_seeds(seeds)
    # default_rng(s) seeds PCG64 with SeedSequence(s).generate_state(4, np.uint64):
    # 128-bit initial state (words 0, 1) and stream (words 2, 3). A seed below
    # 2**32 is one entropy word, and zero padding within the pool hashes alike.
    words = _seed_words([(seeds & _M32).astype(np.uint32), (seeds >> 32).astype(np.uint32)], 8)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*(w.tolist() for w in words)):
        # PCG64's setseq seeding: two LCG steps from state 0, adding the initial state between.
        inc = (w5 << 96 | w4 << 64 | w7 << 32 | w6) << 1 & _M128 | 1
        state = ((w1 << 96 | w0 << 64 | w3 << 32 | w2) + inc) * _PCG_MULT + inc & _M128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def box_muller(u1, u2):
    """Box-Muller pair of independent standard normals from two uniforms in [0, 1)."""
    r = math.sqrt(-2.0 * math.log(1.0 - u1))  # 1 - u1 is in (0, 1]; keeps log() finite
    return r * math.cos(TWO_PI * u2), r * math.sin(TWO_PI * u2)


def scaled_index(u, counts):
    """Elementwise index in [0, counts) of uniforms in [0, 1): ``floor(u * counts)``, capped."""
    return np.minimum((u * counts).astype(np.int64), counts - 1)
