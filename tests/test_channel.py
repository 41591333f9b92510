from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from qpolar.channel import (
    ERASURE,
    AwgnBpskChannel,
    channel_from_json,
    channel_to_json,
    polarize,
    qec,
    qsc,
    table_channel,
    verify_symmetry,
)
from qpolar.gf import default_field
from reference import likelihoods, product_transition, sample, transition


def test_qsc_transition_values():
    f2 = default_field(2)
    bsc = qsc(f2, Fraction(1, 10))
    assert transition(bsc, 0, f2.zero) == Fraction(9, 10)

    f4 = default_field(4)
    ch = qsc(f4, Fraction(3, 10))
    a1, a2 = f4.from_index(1), f4.from_index(2)
    assert transition(ch, a2.index, a1) == Fraction(1, 10)
    assert transition(ch, a1.index, a1) == Fraction(7, 10)


def test_qec_transition_values():
    f4 = default_field(4)
    ch = qec(f4, Fraction(1, 3))
    erasure = ch.num_outputs - 1
    assert ch.outputs[erasure] == ERASURE
    for x in f4.elements:
        assert transition(ch, erasure, x) == Fraction(1, 3)
    assert transition(ch, 0, f4.zero) == Fraction(2, 3)
    assert transition(ch, 1, f4.zero) == Fraction(0)


def test_likelihood_examples():
    f2 = default_field(2)
    assert likelihoods(qsc(f2, Fraction(1, 10)), 0) == (Fraction(9, 10), Fraction(1, 10))

    f4 = default_field(4)
    ch = qec(f4, Fraction(1, 3))
    assert likelihoods(ch, ch.num_outputs - 1) == (Fraction(1, 3),) * 4

    f3 = default_field(3)
    ch3 = qsc(f3, Fraction(3, 10))
    assert likelihoods(ch3, 1) == (Fraction(3, 20), Fraction(7, 10), Fraction(3, 20))


@pytest.mark.parametrize("q", [2, 3, 4, 8])
@pytest.mark.parametrize("make", [lambda f: qsc(f, Fraction(3, 10)),
                                  lambda f: qec(f, Fraction(1, 4))])
def test_shift_scale_identities_exhaustive(q, make):
    f = default_field(q)
    ch = make(f)
    for y in range(ch.num_outputs):
        for x in f.elements:
            for b in f.elements:
                assert transition(ch, y, x) == transition(ch, ch.shift(y, b), x + b)
            for a in f.elements:
                if a:
                    assert transition(ch, y, x) == transition(ch, ch.scale(y, a), a * x)


def test_qsc_shift_is_field_addition():
    # the searched families of the shipped constructions are the field maps
    # sigma_b(y) = y + b and pi_a(y) = a*y, with the erasure fixed; the
    # useless QSC, eps = (q-1)/q, has equal columns and is left out
    for q in (2, 3, 4, 8, 16):
        f = default_field(q)
        for make in (qsc, qec):
            for eps in (Fraction(0), Fraction(1, 10), Fraction(3, 10), Fraction(1, 3),
                        Fraction(1, 2)):
                if make is qsc and eps == Fraction(q - 1, q):
                    continue
                ch = make(f, eps)
                fixed = list(range(q, ch.num_outputs))
                for b in f.elements:
                    assert [ch.shift(y, b) for y in range(ch.num_outputs)] == [
                        f.add_index(y, b.index) for y in range(q)] + fixed
                for a in f.elements[1:]:
                    assert [ch.scale(y, a) for y in range(ch.num_outputs)] == [
                        f.mul_index(a.index, y) for y in range(q)] + fixed


def test_qec_erasure_is_fixed():
    f3 = default_field(3)
    ch = qec(f3, Fraction(1, 2))
    erasure = ch.num_outputs - 1
    for b in f3.elements:
        assert ch.shift(erasure, b) == erasure
    for a in f3.elements:
        if a:
            assert ch.scale(erasure, a) == erasure


def test_permutation_families_compose():
    f4 = default_field(4)
    for ch in (qsc(f4, Fraction(1, 5)), qec(f4, Fraction(1, 5))):
        for b1 in f4.elements:
            for b2 in f4.elements:
                for y in range(ch.num_outputs):
                    assert ch.shift(ch.shift(y, b1), b2) == ch.shift(y, b1 + b2)
        nz = [a for a in f4.elements if a]
        for a1 in nz:
            for a2 in nz:
                for y in range(ch.num_outputs):
                    assert ch.scale(ch.scale(y, a1), a2) == ch.scale(y, a1 * a2)


def test_scale_by_zero_rejected():
    f4 = default_field(4)
    ch = qsc(f4, Fraction(1, 5))
    with pytest.raises(ValueError):
        ch.scale(0, f4.zero)


def test_rows_must_sum_to_one():
    f2 = default_field(2)
    with pytest.raises(ValueError):
        table_channel(f2, [["1/2", "1/3"], ["1/3", "2/3"]])


def test_verify_symmetry_pass_and_fail():
    f3 = default_field(3)
    ch = qsc(f3, Fraction(3, 10))
    report = verify_symmetry(ch)
    assert report.ok
    assert sorted(report.sigma[1]) == [0, 1, 2]

    rows = [list(r) for r in ch.matrix]
    rows[1][0], rows[1][1] = rows[1][1], rows[1][0]  # row sums preserved
    # a channel object cannot hold a non-symmetric law, so the search runs
    # on a stand-in with the same attributes
    broken = SimpleNamespace(is_finite=True, field=f3, q=3, num_outputs=3, matrix=rows)
    report = verify_symmetry(broken)
    assert not report.ok
    assert report.witness is not None

    with pytest.raises(ValueError):
        table_channel(f3, rows)  # constructor verifies by default


def test_search_recovers_symmetry_of_plain_table():
    f2 = default_field(2)
    ch = table_channel(f2, [["7/10", "1/10", "1/10", "1/10"],
                            ["1/10", "7/10", "1/10", "1/10"]])
    report = verify_symmetry(ch)
    assert report.ok
    # sigma_1 must swap the first two outputs and fix-or-swap the tied pair
    assert report.sigma[1][0] == 1 and report.sigma[1][1] == 0


def test_product_transition_identity():
    f3 = default_field(3)
    ch = qsc(f3, Fraction(1, 5))
    rng = np.random.default_rng(7)
    for _ in range(20):
        xs = [f3.from_index(int(i)) for i in rng.integers(0, 3, size=5)]
        ys = [int(i) for i in rng.integers(0, 3, size=5)]
        manual = Fraction(1)
        for y, x in zip(ys, xs):
            manual *= transition(ch, y, x)
        assert product_transition(ch, ys, xs) == manual


def test_sampling_noiseless_and_deterministic():
    f2 = default_field(2)
    ident = table_channel(f2, [[1, 0], [0, 1]])
    u = np.random.default_rng(0).random(2)
    assert ident.sample_batch(np.array([0, 1]), u).tolist() == [0, 1]

    ch = qsc(f2, Fraction(0))
    assert ch.sample_batch(np.array([1]), np.random.default_rng(3).random(1)).tolist() == [1]


@pytest.mark.parametrize("q,make", [(3, qsc), (4, qec)])
def test_sample_batch_matches_inverse_cdf_reference(q, make):
    f = default_field(q)
    ch = make(f, Fraction(1, 5))
    rng = np.random.default_rng(8)
    x = rng.integers(0, q, size=2000)
    u = rng.random(2000)
    want = [sample(ch, f.from_index(int(xi)), ui) for xi, ui in zip(x, u)]
    assert ch.sample_batch(x, u).tolist() == want


def test_sample_batch_stays_inside_output_alphabet():
    # a uniform at or above the float cumulative row's last value still
    # names a valid output
    f2 = default_field(2)
    ch = table_channel(f2, [["1/10"] * 10, ["1/10"] * 10])
    last = ch.cumulative_float[0, -1]
    assert last < 1.0
    y = ch.sample_batch(np.array([0, 1, 0]), np.array([last, 1.0, 0.05]))
    assert y.tolist() == [9, 9, 0]


def test_sampling_flip_fraction_binomial():
    f2 = default_field(2)
    ch = qsc(f2, Fraction(1, 10))
    n = 10**6
    u = np.random.default_rng(42).random(n)
    ys = ch.sample_batch(np.zeros(n, dtype=int), u)
    frac = float(np.mean(ys == 1))
    sigma = (0.1 * 0.9 / n) ** 0.5
    assert abs(frac - 0.1) < 3 * sigma


@pytest.mark.parametrize("q", [2, 3, 4])
def test_polarized_channels_are_symmetric(q):
    f = default_field(q)
    ch = qsc(f, Fraction(1, 5))
    minus, plus = polarize(ch)
    assert verify_symmetry(minus).ok
    assert verify_symmetry(plus).ok
    # rows of both polarized laws are exact probability vectors
    for row in minus.matrix + plus.matrix:
        assert sum(row) == 1


def test_plus_shift_matches_canonical_form():
    f4 = default_field(4)
    ch = qsc(f4, Fraction(3, 10))
    _, plus = polarize(ch)
    alpha = f4.alpha
    ny = ch.num_outputs
    q = f4.q
    for b in f4.elements:
        # canonical sigma_b(y0, y1, u0) = (y0 + alpha*b, y1 + b, u0)
        perm = [((f4.from_index(y0) + alpha * b).index * ny + (f4.from_index(y1) + b).index)
                * q + u0 for y0 in range(ny) for y1 in range(ny) for u0 in range(q)]
        assert sorted(perm) == list(range(plus.num_outputs))
        assert all(plus.matrix[x][y] == plus.matrix[f4.add_index(x, b.index)][perm[y]]
                   for x in range(q) for y in range(plus.num_outputs))


def test_awgn_shift_identity():
    f2 = default_field(2)
    ch = AwgnBpskChannel(f2, 0.631)
    for y in (-2.3, -0.4, 0.0, 0.7, 1.9):
        # W(y|0) = W(-y|1) from the Gaussian density
        assert transition(ch, y, f2.zero) == pytest.approx(
            transition(ch, ch.shift(y, f2.one), f2.one))
        assert ch.scale(y, f2.one) == y


def test_awgn_requires_binary_field():
    with pytest.raises(ValueError):
        AwgnBpskChannel(default_field(4), 0.5)
    with pytest.raises(ValueError):
        verify_symmetry(AwgnBpskChannel(default_field(2), 0.5))


def test_channel_json_round_trip():
    f4 = default_field(4)
    for ch in (qsc(f4, Fraction(1, 10)), qec(f4, Fraction(1, 3))):
        back = channel_from_json(channel_to_json(ch))
        assert back.kind == ch.kind
        assert back.matrix == ch.matrix

    awgn = AwgnBpskChannel(default_field(2), 0.631)
    back = channel_from_json(channel_to_json(awgn))
    assert back.sigma2 == pytest.approx(awgn.sigma2)

    f2 = default_field(2)
    tab = table_channel(f2, [["7/10", "1/10", "1/10", "1/10"],
                             ["1/10", "7/10", "1/10", "1/10"]])
    back = channel_from_json(channel_to_json(tab))
    assert back.matrix == tab.matrix
