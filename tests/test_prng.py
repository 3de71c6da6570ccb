"""viapkit.prng against NumPy's SeedSequence, PCG64 and Generator, draw for draw."""

import numpy as np
import pytest

from viapkit import prng


def numpy_generator(entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# ints (0, one word, two words, more) and lists, including lists longer than
# the 4-word pool and the shapes the pipeline builds: a seed, [seed, epoch],
# [seed, class, object], [seed, class, object, view], [seed, stream, object]
# and [seed, stream, family, eps*1000, object]
ENTROPY = [
    0, 1, 7, 12345, 2**32 - 1, 2**32, 2**32 + 5, 2**64 + 3, 3**90,
    [], [0], [0, 0], [5, 2**40], [1, 2, 3, 4, 5, 6, 7],
    [0, 29], [7, 3, 1], [7, 3, 1, 9], [0, 101, 15], [9, 202, 4, 50000, 15],
    [2**33, [1, 2], 0, 2**70],
]


@pytest.mark.parametrize("entropy", ENTROPY, ids=repr)
def test_generate_state_matches_seed_sequence(entropy):
    want = np.random.SeedSequence(entropy).generate_state(9)
    assert prng.generate_state(entropy, 9) == [int(w) for w in want]


def test_generate_state_takes_numpy_ints():
    assert prng.generate_state([np.uint32(3), np.int64(2**40)], 2) == [
        int(w) for w in np.random.SeedSequence([3, 2**40]).generate_state(2)]


@pytest.mark.parametrize("entropy", [-1, [3, -2]])
def test_negative_entropy_is_rejected(entropy):
    with pytest.raises(ValueError, match="non-negative"):
        prng.generate_state(entropy, 1)
    with pytest.raises(ValueError, match="non-negative"):
        prng.PCG64(entropy)


@pytest.mark.parametrize("entropy", ENTROPY, ids=repr)
def test_uniform_matches_generator(entropy):
    want, got = numpy_generator(entropy), prng.PCG64(entropy)
    for low, high, size in [(0.95, 1.05, None), (-0.002, 0.002, 3), (-0.15, 0.15, 3),
                            (-0.01, 0.01, (32, 32, 3)), (0.0, 50.0, None), (2, 5, (2, 1))]:
        a, b = want.uniform(low, high, size=size), got.uniform(low, high, size=size)
        if size is None:
            assert type(b) is float and b == a
        else:
            assert b.dtype == np.float64 and b.shape == a.shape
            assert np.array_equal(b, a)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 1000, 2**31 + 11, 2**32])
def test_integers_matches_generator(k):
    for seed in range(20):
        want, got = numpy_generator([seed, k]), prng.PCG64([seed, k])
        assert [got.integers(0, k) for _ in range(9)] == want.integers(0, k, size=9).tolist()
        assert got.integers(3, k + 3) == int(want.integers(3, k + 3))


def test_integers_rejects_an_empty_or_too_wide_range():
    rng = prng.PCG64(0)
    with pytest.raises(ValueError, match="low < high"):
        rng.integers(0, 0)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        rng.integers(0, 2**32 + 1)


@pytest.mark.parametrize("n", [1, 2, 112, 224, 1000])
def test_permutation_matches_generator(n):
    for seed in range(5):
        want, got = numpy_generator([seed, n]), prng.PCG64([seed, n])
        a, b = want.permutation(n), got.permutation(n)
        assert b.dtype == a.dtype and np.array_equal(b, a)
        # the next draw starts where the shuffle stopped
        assert got.integers(0, 7) == int(want.integers(0, 7))


def test_interleaved_draws_share_the_32_bit_spare():
    # an odd number of 32-bit draws leaves the high half of a 64-bit draw
    # for the next 32-bit one; uniform draws 64 bits and leaves it alone
    for seed in range(50):
        want, got = numpy_generator(seed), prng.PCG64(seed)
        for step in range(40):
            kind = (seed + step * 7) % 5
            if kind == 0:
                assert got.integers(0, 3) == int(want.integers(0, 3))
            elif kind == 1:
                assert got.uniform(-1.0, 1.0) == want.uniform(-1.0, 1.0)
            elif kind == 2:
                assert np.array_equal(got.permutation(3), want.permutation(3))
            elif kind == 3:
                assert np.array_equal(got.uniform(0.0, 1.0, size=5), want.uniform(0.0, 1.0, size=5))
            else:
                assert got.integers(0, 2**32) == int(want.integers(0, 2**32))
