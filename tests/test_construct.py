import warnings
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import FiniteChannel, qec, qsc
from qpolar.code import check_condition_A
from qpolar.construct import (
    GenieMC,
    Manual,
    _erasure_numerators,
    _select_decreasing,
    construct_info_set,
    genie_mc_rank,
)
from qpolar.gf import default_field
from qpolar.sim import ebno_to_channel
from reference import (
    erasure_params,
    reference_exact_genie_error_probs,
    reference_select_decreasing,
)

F2 = default_field(2)
F4 = default_field(4)


def test_erasure_params_base_and_one_level():
    # numerators over 2^(2^m) for epsilon = 1/2
    assert _erasure_numerators(0, 1, 2) == [1]
    assert _erasure_numerators(1, 1, 2) == [3, 1]


def test_erasure_params_two_levels():
    assert _erasure_numerators(2, 1, 2) == [15, 9, 7, 1]
    for m in range(6):
        for eps in (Fraction(1, 3), Fraction(2, 7)):
            d = eps.denominator ** (1 << m)
            got = tuple(Fraction(v, d) for v in _erasure_numerators(m, eps.numerator,
                                                                   eps.denominator))
            assert got == erasure_params(m, eps)


def test_erasure_params_monotone_along_domination():
    z = _erasure_numerators(10, 1, 3)
    n = 1 << 10
    for i in range(n):
        # enumerate strict submasks of i: every dominated index has larger z
        sub = (i - 1) & i
        while True:
            assert z[i] <= z[sub]
            if sub == 0:
                break
            sub = (sub - 1) & i
    assert z[n - 1] < z[0]


def test_erasure_params_match_oracle_erasure_mass():
    # cross-check the recursion against the exact genie error probabilities
    # of a small erasure channel: a genie decision errs on (q-1)/q of the
    # erasure mass of its synthetic channel, and nowhere else
    f = F2
    eps = Fraction(1, 2)
    ch = qec(f, eps)
    z = _erasure_numerators(2, 1, 2)
    genie = reference_exact_genie_error_probs(f, 2, ch)
    assert genie == tuple(Fraction(v, 2 * 16) for v in z)


def test_construct_trivial_cases():
    ch = qec(F2, Fraction(1, 2))
    assert construct_info_set(F2, 1, 1, ch) == (1,)
    assert construct_info_set(F2, 2, 4, ch) == (0, 1, 2, 3)
    assert construct_info_set(F2, 2, 0, ch) == ()


def test_construct_m2_k1_erasure():
    ch = qec(F2, Fraction(1, 2))
    assert construct_info_set(F2, 2, 1, ch) == (3,)


def test_construct_qsc_uses_epsilon_proxy():
    ch = qsc(F4, Fraction(1, 10))
    info = construct_info_set(F4, 3, 4, ch)
    assert len(info) == 4
    assert check_condition_A(info, 3)[0]


def test_construct_output_always_decreasing():
    ch = qsc(F2, Fraction(2, 5))
    repaired = 0
    for k in range(0, 17):
        estimates = genie_mc_rank(F2, 4, ch, 400, seed=k)
        naive = sorted(range(16), key=lambda i: (estimates[i], -i))[:k]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            info = construct_info_set(F2, 4, k, ch, GenieMC(trials=400, seed=k))
        assert len(info) == k
        assert check_condition_A(info, 4)[0]
        swapped = sorted(set(info) - set(naive))
        want = [f"upward-closure repair swapped in indices {swapped}"] if swapped else []
        assert [str(w.message) for w in caught] == want
        repaired += bool(swapped)
    assert repaired > 0


def test_erasure_construction_matches_reference_selection():
    eps = Fraction(1, 2)
    ch = qec(F2, eps)
    for m in range(4, 11):
        n = 1 << m
        estimates = erasure_params(m, eps)
        for k in (1, n // 4, n // 2, 3 * n // 4 + 1, n - 1):
            want, _ = reference_select_decreasing(estimates, k, m)
            assert construct_info_set(F2, m, k, ch) == want, (m, k)


def test_select_decreasing_matches_reference_on_random_estimates():
    # random estimates ignore domination, so the repair runs; the reference
    # also keeps a fill-up loop for sets left short, which never runs
    rng = np.random.default_rng(4)
    for m in (2, 3, 4, 5, 6):
        n = 1 << m
        for _ in range(100):
            estimates = [float(v) for v in rng.integers(0, 8, size=n)]
            k = int(rng.integers(0, n + 1))
            assert _select_decreasing(estimates, k, m) == reference_select_decreasing(
                estimates, k, m), (m, k, estimates)


def test_manual_method_validates():
    ch = qsc(F2, Fraction(1, 10))
    assert construct_info_set(F2, 2, 2, ch, Manual((2, 3))) == (2, 3)
    with pytest.raises(ValueError):
        construct_info_set(F2, 2, 2, ch, Manual((0, 3)))
    with pytest.raises(ValueError):
        construct_info_set(F2, 2, 1, ch, Manual((2, 3)))


def test_method_preconditions():
    ch = qsc(F2, Fraction(1, 10))
    with pytest.raises(ValueError):
        GenieMC(trials=0, seed=1)
    ident = FiniteChannel(F2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="erasure ranking needs a qsc or qec channel"):
        construct_info_set(F2, 2, 1, ident)
    with pytest.raises(ValueError, match=r"GenieMC\(trials, seed\) for AWGN"):
        construct_info_set(F2, 2, 1, ebno_to_channel(2.0, 0.5, F2))


@pytest.mark.parametrize("seed", [2.5, -1, 2**64])
def test_genie_construction_rejects_a_seed_it_would_alias(seed):
    # 2.5 once ran the genie trials on seed 2
    with pytest.raises(ValueError, match="seed must be an integer in"):
        construct_info_set(F2, 2, 2, qsc(F2, Fraction(1, 10)), GenieMC(trials=10, seed=seed))


def test_construction_rejects_a_channel_over_another_field():
    # once returned (3, 5, 6, 7), ranked on the F_4 channel's epsilon
    with pytest.raises(ValueError, match="differs from the code field"):
        construct_info_set(F2, 3, 4, qsc(F4, Fraction(1, 10)))


def test_genie_rank_noiseless_is_zero():
    ident = FiniteChannel(F2, [[1, 0], [0, 1]])
    assert genie_mc_rank(F2, 2, ident, 500, seed=0) == (0.0,) * 4


def test_genie_rank_deterministic():
    ch = qsc(F2, Fraction(1, 10))
    a = genie_mc_rank(F2, 2, ch, 2000, seed=9)
    b = genie_mc_rank(F2, 2, ch, 2000, seed=9)
    assert a == b
    c = genie_mc_rank(F2, 2, ch, 2000, seed=10)
    assert a != c


def test_genie_rank_converges_to_exact_probs():
    ch = qsc(F2, Fraction(1, 10))
    trials = 1_000_000
    est = genie_mc_rank(F2, 2, ch, trials, seed=5)
    exact = reference_exact_genie_error_probs(F2, 2, ch)
    for e, t in zip(est, exact):
        p = float(t)
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(e - p) <= 3 * se
    # the all-ones index is the most reliable at moderate noise
    assert est[3] == min(est)


def test_genie_rank_matches_exact_probs_on_zero_entry_channels():
    # exact ties and all-zero messages arise on these channels; the float
    # genie decoder must still err as often as the exact genie decisions
    table = FiniteChannel(F2, [["1/2", "3/10", "1/5", "0"], ["0", "1/5", "3/10", "1/2"]])
    trials = 200_000
    for field, m, ch in ((F4, 1, qec(F4, Fraction(1, 3))), (F2, 2, table)):
        est = genie_mc_rank(field, m, ch, trials, seed=5)
        for e, t in zip(est, reference_exact_genie_error_probs(field, m, ch)):
            p = float(t)
            assert abs(e - p) <= 4 * max((p * (1 - p) / trials) ** 0.5, 1e-9), (ch, est)


def test_erasure_ranking_matches_fraction_ranking():
    # the integer numerators rank exactly as the Fractions they stand for,
    # so every information set equals the one of the Fraction ranking
    cases = [(m, eps) for m in range(1, 9)
             for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 10))]
    cases += [(10, Fraction(1, 3)), (12, Fraction(1, 2))]
    for m, eps in cases:
        n = 1 << m
        z = erasure_params(m, eps)
        # one Fraction sort serves every k: dense ranks keep order and ties
        rank = {v: r for r, v in enumerate(sorted(set(z)))}
        estimates = [rank[v] for v in z]
        for k in sorted({1, n // 4, n // 2, 3 * n // 4 + 1, n - 1}):
            want, _ = _select_decreasing(estimates, k, m)
            assert construct_info_set(F2, m, k, qec(F2, eps)) == want, (m, eps, k)
