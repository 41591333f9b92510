"""Each correctness check of the benchmark passes on a right input and fails on a wrong one."""

from fractions import Fraction

import numpy as np
from scipy.stats import chi2

import checks


def test_chi2_pvalue_matches_the_chi_square_tail():
    counts = [10, 14, 9, 12, 15, 8, 11, 13]
    c = np.asarray(counts, float)
    p = c.sum() / (len(c) * 1000)
    stat = ((c - c.mean()) ** 2).sum() / (1000 * p * (1 - p))
    assert abs(checks.chi2_pvalue(counts, 1000) - chi2.sf(stat, len(c) - 1)) < 1e-12


def test_homogeneity_fails_on_a_perturbed_ser_vector():
    flat = [120] * 64
    assert checks.homogeneous(flat, 10_000)[0]
    perturbed = list(flat)
    perturbed[5] = 240
    assert not checks.homogeneous(perturbed, 10_000)[0]


def test_frozen_check_fails_on_an_error_at_a_frozen_position():
    errors = [0, 0, 3, 5]
    assert checks.frozen_clean(errors, (0, 1))[0]
    assert not checks.frozen_clean(errors, (0, 2))[0]


def test_fig1_levels_fail_outside_the_figure():
    trials = 1000
    assert checks.mean_rate_in_window([12] * 256, trials)[0]
    assert not checks.mean_rate_in_window([30] * 256, trials)[0]
    assert not checks.mean_rate_in_window([1] * 256, trials)[0]
    spread = [0, 0, 40, 5, 2, 0]
    assert checks.rates_spread(spread, (2, 3, 4))[0]
    assert not checks.rates_spread([0, 0, 10, 9, 8, 0], (2, 3, 4))[0]
    assert not checks.rates_spread([0] * 6, (2, 3, 4))[0]


def test_additivity_fails_on_swapped_tallies():
    parts = [(np.array([1, 0, 2]), np.array([3, 1, 0])),
             (np.array([0, 4, 1]), np.array([2, 2, 5]))]
    whole = (np.array([1, 4, 3]), np.array([5, 3, 5]))
    assert checks.tallies_additive(whole, parts)[0]
    swapped = [(parts[0][1], parts[0][0]), parts[1]]
    assert not checks.tallies_additive(whole, swapped)[0]


def test_within_sigma_fails_on_a_perturbed_ser_vector():
    trials = 100_000
    exact = [Fraction(1, 10)] * 4
    errors = [10_050, 9_930, 10_020, 9_990]
    assert checks.within_sigma(errors, trials, exact)[0]
    assert not checks.within_sigma(errors, trials, [Fraction(11, 100)] + exact[1:])[0]
    assert not checks.within_sigma([0, 1], trials, [Fraction(0), Fraction(1, 10)])[0]


def test_equal_ser_verdict_rejects_impossible_values():
    assert checks.equal_ser_verdict(True, {"ser": Fraction(1, 7)}, 2)[0]
    assert checks.equal_ser_verdict(True, {"ser": Fraction(0)}, 0)[0]
    assert not checks.equal_ser_verdict(False, {"j": 1}, 2)[0]
    assert not checks.equal_ser_verdict(True, {"ser": Fraction(0)}, 2)[0]
    assert not checks.equal_ser_verdict(True, {"ser": Fraction(1, 9)}, 0)[0]


def test_distribution_check_fails_on_differing_or_unnormalized_masses():
    a = {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    assert checks.distributions_match(a, dict(a))[0]
    assert not checks.distributions_match(a, {(0, 0): Fraction(1)})[0]
    half = {(0, 0): Fraction(1, 2)}
    assert not checks.distributions_match(half, half)[0]


def test_counterexample_fails_when_swapped():
    assert checks.counterexample((Fraction(9, 50), Fraction(0)))[0]
    assert not checks.counterexample((Fraction(0), Fraction(9, 50)))[0]
