import numpy as np
import pytest
from scipy.special import ndtri

from qpolar import rng
from reference import counter_uniform


def _unclamped(word):
    return ((word >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def test_unit_endpoints_stay_inside_open_interval():
    words = np.array([0, 2**64 - 1], dtype=np.uint64)
    u = rng._unit(words)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert u[1] == np.nextafter(1.0, 0.0)
    assert np.all(np.isfinite(ndtri(u)))


def test_unit_changes_only_the_top_word():
    top = (2**53 - 1) << 11
    near_top = np.array([top - (k << 11) for k in range(1, 6)], dtype=np.uint64)
    random_words = np.random.default_rng(3).integers(0, 2**64, size=10_000, dtype=np.uint64)
    for words in (near_top, random_words):
        assert np.array_equal(rng._unit(words), _unclamped(words))
    assert _unclamped(near_top)[0] == 1.0 - 2.0**-52


def test_uniforms_are_counter_indexed():
    a = rng.uniforms(5, np.arange(10, 20), np.arange(4))
    b = rng.uniforms(5, np.arange(15, 20), np.arange(4))
    assert np.array_equal(a[:, 5:], b)
    assert np.all((a > 0) & (a < 1))


def test_draws_match_splitmix64_reference_slot_major():
    # row j, column i holds slot j of trial i, whatever the seed or index size
    trials = (0, 1, 4095, 2**40 + 3, 2**64 - 1)
    slots = (0, 1, 63, 767)
    for seed in (0, 1, 2022, 2**64 - 1):
        u = rng.uniforms(seed, np.array(trials, dtype=np.uint64), slots)
        z = rng.normals(seed, np.array(trials, dtype=np.uint64), slots)
        assert u.shape == z.shape == (len(slots), len(trials))
        for j, s in enumerate(slots):
            for i, t in enumerate(trials):
                assert u[j, i] == counter_uniform(seed, t, s)
                assert z[j, i] == ndtri(counter_uniform(seed, t, s))


@pytest.mark.parametrize("seed", [2**64 + 5, -1, 2.5, True, np.float64(3.0)])
def test_uniforms_reject_a_seed_they_would_alias(seed):
    # 2^64 + 5 once ran seed 5's draws, -1 those of 2^64 - 1, and 2.5 seed 2's
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        rng.uniforms(seed, np.arange(3), np.arange(2))


def test_uniforms_accept_every_64_bit_seed():
    top = rng.uniforms(2**64 - 1, np.arange(3), np.arange(2))
    assert np.array_equal(rng.uniforms(np.uint64(2**64 - 1), np.arange(3), np.arange(2)), top)
    assert not np.array_equal(rng.uniforms(0, np.arange(3), np.arange(2)), top)
