"""Seeding hashes against numpy's own SeedSequence and PCG64, and seed checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persint.errors import InvalidParameterError
from persint.seeding import (
    check_seed,
    check_seeds,
    child_seed,
    child_seeds,
    make_rng,
    reseeded,
)

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1))
# Components of one word, of two or more, and zero; up to 6 of them, so that
# with the seed and the index the entropy is longer than the pool of 4 words.
COMPONENTS = st.one_of(st.sampled_from((0, 2**32 - 1, 2**32, 2**40)), st.integers(0, 2**70))
PATHS = st.lists(COMPONENTS, max_size=6).map(tuple)


def _oracle(*entropy):
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


@given(SEEDS, PATHS, st.integers(0, 40))
@settings(max_examples=150)
def test_child_seeds_match_seed_sequence(seed, path, count):
    got = child_seeds(seed, path, count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [_oracle(seed, *path, i) for i in range(count)]
    assert [child_seed(seed, *path, i) for i in range(count)] == got.tolist()
    assert child_seed(seed, *path) == _oracle(seed, *path)


@pytest.mark.parametrize("path", [(), (0,), (1, 2, 3), (2**40, 5)])
def test_child_seeds_at_edge_seeds(path):
    for seed in EDGE_SEEDS + (3, 12345678901234):
        assert child_seeds(seed, path, 5).tolist() == [_oracle(seed, *path, i) for i in range(5)]


def test_child_seeds_of_a_study_sized_batch():
    # The index column holds 2,000 children, as a study's batch does.
    seeds = child_seeds(7, (1, 0), 2000)
    assert seeds[[0, 999, 1999]].tolist() == [_oracle(7, 1, 0, i) for i in (0, 999, 1999)]


@given(st.lists(SEEDS, max_size=6))
@settings(max_examples=100)
def test_reseeded_generator_matches_default_rng(seeds):
    drawn = [rng.random(64).tolist() for rng in reseeded(np.array(seeds, dtype=np.uint64))]
    assert drawn == [np.random.default_rng(s).random(64).tolist() for s in seeds]


def test_reseeded_state_matches_default_rng():
    seeds = child_seeds(5, (1,), 500).tolist() + list(EDGE_SEEDS)
    for seed, rng in zip(seeds, reseeded(seeds)):
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state


def test_seeds_accept_numpy_integers():
    assert check_seed(np.uint64(2**64 - 1)) == 2**64 - 1
    assert child_seed(np.int64(3), np.uint8(1)) == child_seed(3, 1)
    assert check_seeds(np.arange(3, dtype=np.int32)).tolist() == [0, 1, 2]
    assert check_seeds([]).dtype == np.uint64


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_seed(3.7),
        lambda: check_seed(-1),
        lambda: check_seed(2**64),
        lambda: check_seed(True),
        lambda: check_seed(np.float64(3.0)),
        lambda: make_rng(-0.5),
        lambda: make_rng("7"),
        lambda: child_seed(3.7, 1),
        lambda: child_seed(True, 1),
        lambda: child_seed(3, 1.5),
        lambda: child_seed(3, -1),
        lambda: child_seed(3, False),
        lambda: child_seeds(3, (1.0,), 4),
        lambda: child_seeds(3, (), -1),
        lambda: child_seeds(3, (), 2.0),
        lambda: check_seeds([1, -2]),
        lambda: check_seeds(np.array([0.5])),
        lambda: list(reseeded([2**64])),
    ],
)
def test_non_integer_seeds_are_rejected(call):
    with pytest.raises(InvalidParameterError, match="got"):
        call()


def test_rejections_name_the_value():
    with pytest.raises(InvalidParameterError, match=r"got 3\.7"):
        child_seed(3.7, 1)
    with pytest.raises(InvalidParameterError, match=r"got -1"):
        child_seed(3, -1)
    with pytest.raises(InvalidParameterError, match=r"got '7'"):
        make_rng("7")
