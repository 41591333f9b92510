import warnings
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import qec, qsc, table_channel
from qpolar.code import check_condition_A, dominates
from qpolar.construct import (
    ErasureExact,
    GenieMC,
    Manual,
    _select_decreasing,
    construct_info_set,
    erasure_params,
    genie_mc_rank,
)
from qpolar.gf import default_field
from qpolar.oracle import exact_genie_error_probs
from reference import reference_select_decreasing

F2 = default_field(2)
F4 = default_field(4)


def test_erasure_params_base_and_one_level():
    assert erasure_params(0, Fraction(1, 2)) == (Fraction(1, 2),)
    assert erasure_params(1, Fraction(1, 2)) == (Fraction(3, 4), Fraction(1, 4))


def test_erasure_params_two_levels():
    got = erasure_params(2, Fraction(1, 2))
    assert got == (Fraction(15, 16), Fraction(9, 16), Fraction(7, 16), Fraction(1, 16))


def test_erasure_params_monotone_along_domination():
    z = erasure_params(10, Fraction(1, 3))
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
    z = erasure_params(2, eps)
    genie = exact_genie_error_probs(f, 2, ch)
    assert genie == tuple(v / 2 for v in z)


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
    ident = table_channel(F2, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        construct_info_set(F2, 2, 1, ident, ErasureExact())


def test_genie_rank_noiseless_is_zero():
    ident = table_channel(F2, [[1, 0], [0, 1]])
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
    exact = exact_genie_error_probs(F2, 2, ch)
    for e, t in zip(est, exact):
        p = float(t)
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(e - p) <= 3 * se
    # the all-ones index is the most reliable at moderate noise
    assert est[3] == min(est)
