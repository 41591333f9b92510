import itertools
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import AwgnBpskChannel, qec, qsc, table_channel
from qpolar.code import PolarCode, polar_transform
from qpolar.gf import default_field
from qpolar.oracle import exact_average_ser
from qpolar.sc import (
    TieRule,
    sc_decode,
    sc_decode_batch,
    sc_decode_distribution,
    synthetic_channel,
)
from reference import combine_minus, combine_plus


F2 = default_field(2)
F3 = default_field(3)
F4 = default_field(4)


def all_outputs(ch, n):
    return itertools.product(range(ch.num_outputs), repeat=n)


def test_synthetic_channel_n1_is_raw_channel():
    ch = qsc(F3, Fraction(1, 5))
    code = PolarCode(F3, 0, [0])
    for y in range(3):
        assert synthetic_channel(code, ch, (y,), (), 0) == ch.likelihoods(y)


def test_synthetic_channel_requires_finite_channel():
    code = PolarCode(F2, 1, [0, 1])
    with pytest.raises(ValueError, match="finite channel"):
        synthetic_channel(code, AwgnBpskChannel(F2, 0.5), (0.3, -1.2), (), 0)


def test_synthetic_channel_hand_sum_n2():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [0, 1])
    t = synthetic_channel(code, ch, (0, 0), (), 0)
    assert t == (Fraction(41, 100), Fraction(9, 100))


def test_synthetic_channel_n2_position1_matches_plus_rule():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [0, 1])
    for y0, y1 in all_outputs(ch, 2):
        for u0 in F2.elements:
            t = synthetic_channel(code, ch, (y0, y1), (u0,), 1)
            expected = combine_plus(ch.likelihoods(y0), ch.likelihoods(y1), u0, F2.alpha)
            assert t == expected


def test_combine_minus_hand_value():
    t = (Fraction(9, 10), Fraction(1, 10))
    out = combine_minus(t, t, F2.alpha)
    assert out == (Fraction(41, 100), Fraction(9, 100))


def test_combine_minus_point_mass_collapses():
    t0 = (Fraction(3, 10), Fraction(5, 10), Fraction(1, 10), Fraction(1, 10))
    t1 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    out = combine_minus(t0, t1, F4.alpha)
    assert out == tuple(v / 4 for v in t0)


def test_combine_plus_hand_value():
    t = (Fraction(9, 10), Fraction(1, 10))
    out = combine_plus(t, t, F2.zero, F2.alpha)
    assert out == (Fraction(81, 200), Fraction(1, 200))


def test_combine_plus_bilinear_scaling():
    t0 = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
    t1 = (Fraction(2, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
    c = Fraction(3, 7)
    base = combine_plus(t0, t1, F4.alpha, F4.alpha)
    scaled = combine_plus(tuple(c * v for v in t0), t1, F4.alpha, F4.alpha)
    assert scaled == tuple(c * v for v in base)


@pytest.mark.parametrize("make", [lambda f: qsc(f, Fraction(3, 10)),
                                  lambda f: qec(f, Fraction(1, 3))])
def test_minus_message_swap_symmetry(make):
    # T^-(y0, y1) = T^-(-alpha*y1, -alpha^(-1)*y0)
    ch = make(F4)
    alpha = F4.alpha
    a0 = -alpha
    a1 = -alpha.inverse()
    for y0 in range(ch.num_outputs):
        for y1 in range(ch.num_outputs):
            left = combine_minus(ch.likelihoods(y0), ch.likelihoods(y1), alpha)
            right = combine_minus(ch.likelihoods(ch.scale(y1, a0)),
                                  ch.likelihoods(ch.scale(y0, a1)), alpha)
            assert left == right


def test_noiseless_decode_recovers_codeword():
    ident = table_channel(F2, [[1, 0], [0, 1]])
    code = PolarCode(F2, 2, [1, 2, 3])
    for info in itertools.product(F2.elements, repeat=3):
        x = code.encode(code.full_message(info))
        y = tuple(e.index for e in x)
        u_hat, x_hat = sc_decode(code, ident, y)
        assert x_hat == x
        assert u_hat == code.full_message(info)


def test_tie_example_n2():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [1])
    y = (0, 1)
    dist = sc_decode_distribution(code, ch, y)
    zero, one = F2.zero, F2.one
    assert dist == {(zero, zero): Fraction(1, 2), (one, one): Fraction(1, 2)}

    # lexicographic point decoding settles on the smaller symbol
    _, x_lex = sc_decode(code, ch, y, tie="lex")
    assert x_lex == (zero, zero)

    rng = np.random.default_rng(123)
    seen = {sc_decode(code, ch, y, tie=TieRule("random", rng))[1] for _ in range(200)}
    assert seen == {(zero, zero), (one, one)}


def test_distribution_masses_sum_to_one():
    ch = qec(F4, Fraction(1, 3))
    code = PolarCode(F4, 1, [1])
    words = set(code.codewords())
    for y in all_outputs(ch, 2):
        dist = sc_decode_distribution(code, ch, y)
        assert sum(dist.values()) == 1
        assert set(dist) <= words


def test_distribution_support_is_inside_code():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [2, 3])
    words = set(code.codewords())
    for y in all_outputs(ch, 4):
        dist = sc_decode_distribution(code, ch, y)
        assert set(dist) <= words


@pytest.mark.parametrize("q,m,info", [(2, 1, [1]), (2, 2, [1, 2, 3]),
                                      (3, 1, [1]), (3, 2, [3]),
                                      (4, 1, [0, 1]), (4, 2, [2, 3])])
def test_definitional_equals_recursive_distribution(q, m, info):
    f = default_field(q)
    ch = qsc(f, Fraction(1, 5))
    code = PolarCode(f, m, info)
    for y in all_outputs(ch, code.n):
        rec = sc_decode_distribution(code, ch, y, method="recursive")
        defi = sc_decode_distribution(code, ch, y, method="definitional")
        assert rec == defi


def test_recursive_message_equals_synthetic_exactly():
    alpha = F4.alpha
    ch = qsc(F4, Fraction(3, 10))
    code = PolarCode(F4, 2, [0, 1, 2, 3])
    rng = np.random.default_rng(17)
    for _ in range(10):
        y = tuple(int(v) for v in rng.integers(0, 4, size=4))
        T = [ch.likelihoods(yi) for yi in y]
        tm = [combine_minus(T[0], T[2], alpha), combine_minus(T[1], T[3], alpha)]
        assert combine_minus(tm[0], tm[1], alpha) == synthetic_channel(code, ch, y, (), 0)
        for u0 in F4.elements:
            for u1 in F4.elements:
                z = polar_transform(F4, [u0, u1])
                tp = [combine_plus(T[0], T[2], z[0], alpha),
                      combine_plus(T[1], T[3], z[1], alpha)]
                got = combine_minus(tp[0], tp[1], alpha)
                assert got == synthetic_channel(code, ch, y, (u0, u1), 2)


def test_point_decode_tracks_distribution_frequencies():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [1, 2, 3])
    y = (0, 1, 1, 0)
    dist = sc_decode_distribution(code, ch, y)
    rng = np.random.default_rng(7)
    counts = {}
    trials = 4000
    for _ in range(trials):
        _, x = sc_decode(code, ch, y, tie=TieRule("random", rng))
        counts[x] = counts.get(x, 0) + 1
    assert set(counts) <= set(dist)
    for x, p in dist.items():
        p = float(p)
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(counts.get(x, 0) / trials - p) <= max(4 * se, 0.02)


def test_float_point_decode_ties_all_zero_messages():
    # on a QEC a wrong tie guess zeroes a plus message; the float decoder
    # must tie all symbols there (as the exact path does), not divide by zero
    ch = qec(F2, Fraction(1, 2))
    code = PolarCode(F2, 3, [3, 5, 6, 7])
    exact = exact_average_ser(code, ch).per_index
    rng = np.random.default_rng(4)
    trials = 2000
    errors = np.zeros(8)
    for _ in range(trials):
        y = ch.sample_batch(np.zeros(8, dtype=int), rng.random(8))
        _, x = sc_decode(code, ch, y, tie=TieRule("random", rng), exact=False)
        errors += [e.index != 0 for e in x]
    for err, truth in zip(errors / trials, exact):
        p = float(truth)
        assert abs(err - p) <= 4 * (p * (1 - p) / trials) ** 0.5


def test_batch_decoder_matches_exact_on_unique_decodes():
    ch = qsc(F4, Fraction(3, 10))
    code = PolarCode(F4, 2, [1, 2, 3])
    rng = np.random.default_rng(3)
    ys = [tuple(int(v) for v in rng.integers(0, 4, size=4)) for _ in range(64)]
    unique = []
    expected = []
    for y in ys:
        dist = sc_decode_distribution(code, ch, y)
        if len(dist) == 1:
            unique.append(y)
            expected.append(next(iter(dist)))
    assert unique, "need at least one tie-free output in the sample"
    T = np.stack([ch.likelihood_batch(np.array(y)) for y in unique])
    tie_u = rng.random((len(unique), 4))
    _, x = sc_decode_batch(code, T, tie_u)
    for row, want in zip(x, expected):
        assert tuple(F4.from_index(int(i)) for i in row) == want


def test_batch_decoder_tie_frequencies():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [1])
    y = np.array([[0, 1]])
    dist = sc_decode_distribution(code, ch, (0, 1))
    trials = 6000
    T = np.repeat(ch.likelihood_batch(y), trials, axis=0)
    tie_u = np.random.default_rng(11).random((trials, 2))
    _, x = sc_decode_batch(code, T, tie_u)
    frac_zero = float(np.mean(x[:, 0] == 0))
    want = float(dist[(F2.zero, F2.zero)])
    assert abs(frac_zero - want) < 0.03


def test_batch_decoder_genie_mode_propagates_truth():
    ch = qsc(F2, Fraction(1, 2))  # worthless channel: decisions are noise
    code = PolarCode(F2, 2, [0, 1, 2, 3])
    rng = np.random.default_rng(5)
    T = ch.likelihood_batch(rng.integers(0, 2, size=(50, 4)))
    tie_u = rng.random((50, 4))
    decisions, x = sc_decode_batch(code, T, tie_u, force=np.zeros(4, dtype=int))
    assert np.all(x == 0)  # transform of the all-zero truth
    assert decisions.shape == (50, 4)


def test_random_tie_rule_requires_rng():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [1])
    with pytest.raises(ValueError):
        sc_decode(code, ch, (0, 1), tie=TieRule("random"))
