"""Deterministic random number infrastructure.

Every stochastic operation in the package draws from a PCG64 bit generator
seeded explicitly by the caller, and consumes *only* uniform doubles from
``Generator.random()``. Derived variates are built from those uniforms with
pinned transforms (Box-Muller for Gaussians, ``floor(u * k)`` for discrete
choices, inversion for exponentials/Poisson), so streams are bit-stable
across platforms and numpy versions.

Independent streams are derived from a master seed with
``child_seed(master, *path)``: the child is the first 64-bit word of
``numpy.random.SeedSequence([master, *path])``. The integer path components
used by each pipeline are documented where they are assigned.
"""

import math

import numpy as np

from .errors import InvalidParameterError

TWO_PI = 2.0 * math.pi

_MAX_SEED = 2**64


def check_seed(seed):
    """Validate and normalize a 64-bit unsigned seed."""
    seed = int(seed)
    if not 0 <= seed < _MAX_SEED:
        raise InvalidParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def make_rng(seed):
    """PCG64 generator for a validated seed."""
    return np.random.default_rng(check_seed(seed))


def child_seed(seed, *path):
    """Derive an independent 64-bit child seed from ``seed`` and an integer path."""
    entropy = [check_seed(seed)] + [int(p) for p in path]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def box_muller(u1, u2):
    """Box-Muller pair of independent standard normals from two uniforms in [0, 1)."""
    r = math.sqrt(-2.0 * math.log(1.0 - u1))  # 1 - u1 is in (0, 1]; keeps log() finite
    return r * math.cos(TWO_PI * u2), r * math.sin(TWO_PI * u2)


def scaled_index(u, count):
    """Index in [0, count) of one uniform in [0, 1): ``floor(u * count)``, capped."""
    k = int(u * count)
    return count - 1 if k >= count else k


def pick_index(rng, count):
    """Uniform index in [0, count) from a single uniform draw."""
    return scaled_index(rng.random(), count)


def pick_indices(rng, counts):
    """:func:`pick_index` for each count in turn, from one ``rng.random`` call."""
    counts = np.asarray(counts, dtype=np.int64)
    k = (rng.random(counts.size) * counts).astype(np.int64)
    return np.minimum(k, counts - 1)


def poisson(rng, lam):
    """Poisson count by Knuth's product-of-uniforms inversion."""
    limit = math.exp(-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p < limit:
            return k
        k += 1
