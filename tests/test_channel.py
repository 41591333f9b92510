from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import (
    AwgnBpskChannel,
    FiniteChannel,
    channel_from_json,
    channel_to_json,
    qec,
    qsc,
)
from qpolar.gf import default_field
from qpolar.rng import _BELOW_ONE
from qpolar.sim import ebno_to_channel
from reference import (
    likelihoods, polarize, product_transition, reference_sample_batch, sample, transition,
)


def test_qsc_transition_values():
    f2 = default_field(2)
    bsc = qsc(f2, Fraction(1, 10))
    assert transition(bsc, 0, f2.zero) == Fraction(9, 10)

    f4 = default_field(4)
    ch = qsc(f4, Fraction(3, 10))
    a1, a2 = f4.element(1), f4.element(2)
    assert transition(ch, a2.index, a1) == Fraction(1, 10)
    assert transition(ch, a1.index, a1) == Fraction(7, 10)


def test_qec_transition_values():
    f4 = default_field(4)
    ch = qec(f4, Fraction(1, 3))
    # the erasure is output q, after the q field elements
    erasure = f4.q
    assert ch.num_outputs == erasure + 1
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
                        f._add[y][b.index] for y in range(q)] + fixed
                for a in f.elements[1:]:
                    assert [ch.scale(y, a) for y in range(ch.num_outputs)] == [
                        f._mul[a.index][y] for y in range(q)] + fixed


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
        FiniteChannel(f2, [["1/2", "1/3"], ["1/3", "2/3"]])


def test_finite_channel_takes_its_outputs_from_the_matrix_width():
    f2 = default_field(2)
    ch = FiniteChannel(f2, [["2/3", "0", "1/3"], ["0", "2/3", "1/3"]])
    assert ch.num_outputs == 3 and ch.kind == "table"
    assert ch.matrix_float.shape == ch.cumulative_float.shape == (2, 3)
    with pytest.raises(ValueError, match="row 1 has 2 entries, expected 3"):
        FiniteChannel(f2, [["2/3", "0", "1/3"], ["1/3", "2/3"]])


@pytest.mark.parametrize("make", [qsc, qec])
def test_float_law_is_read_only(make):
    # a write once stuck and changed every later sample and likelihood
    ch = make(default_field(4), Fraction(1, 10))
    for table in (ch.matrix_float, ch.cumulative_float, ch._thresholds):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5
    assert ch.matrix_float[0, 0] == 0.9


def test_verify_symmetry_pass_and_fail():
    # the constructor runs the family search: it keeps the families of a
    # symmetric law and rejects a law without them
    f3 = default_field(3)
    ch = qsc(f3, Fraction(3, 10))
    assert [ch.shift(y, f3.element(1)) for y in range(3)] == [1, 2, 0]

    rows = [list(r) for r in ch.matrix]
    rows[1][0], rows[1][1] = rows[1][1], rows[1][0]  # row sums preserved
    with pytest.raises(ValueError, match="not F_q-symmetric: no output matches y=0 "
                                         "under the shift by index 1"):
        FiniteChannel(f3, rows)


def test_search_recovers_symmetry_of_plain_table():
    f2 = default_field(2)
    ch = FiniteChannel(f2, [["7/10", "1/10", "1/10", "1/10"],
                            ["1/10", "7/10", "1/10", "1/10"]])
    # sigma_1 must swap the first two outputs and fix-or-swap the tied pair
    one = f2.element(1)
    assert ch.shift(0, one) == 1 and ch.shift(1, one) == 0


def test_product_transition_identity():
    f3 = default_field(3)
    ch = qsc(f3, Fraction(1, 5))
    rng = np.random.default_rng(7)
    for _ in range(20):
        xs = [f3.element(int(i)) for i in rng.integers(0, 3, size=5)]
        ys = [int(i) for i in rng.integers(0, 3, size=5)]
        manual = Fraction(1)
        for y, x in zip(ys, xs):
            manual *= transition(ch, y, x)
        assert product_transition(ch, ys, xs) == manual


def test_sampling_noiseless_and_deterministic():
    f2 = default_field(2)
    ident = FiniteChannel(f2, [[1, 0], [0, 1]])
    u = np.random.default_rng(0).random(2)
    assert ident.sample_batch(np.array([0, 1]), u).tolist() == [0, 1]

    ch = qsc(f2, Fraction(0))
    assert ch.sample_batch(np.array([1]), np.random.default_rng(3).random(1)).tolist() == [1]


# a row whose float sum ends at 1 - 2^-53 before a trailing zero, and a
# row that starts with a zero entry
ZERO_ENTRY_TABLE = [["1/6", "4/6", "1/6", "0"], ["0", "1/6", "4/6", "1/6"]]


def ten_outputs(f, _p):
    """Ten outputs of mass 1/10 each: the float row sums to below 1."""
    return FiniteChannel(f, [["1/10"] * 10] * 2)


def zero_entry_table(f, _p):
    return FiniteChannel(f, ZERO_ENTRY_TABLE)


@pytest.mark.parametrize("q,make", [(3, qsc), (4, qec), (2, ten_outputs),
                                    (2, zero_entry_table)])
def test_sample_batch_matches_inverse_cdf_reference(q, make):
    f = default_field(q)
    ch = make(f, Fraction(1, 5))
    rng = np.random.default_rng(8)
    # random draws, then every input at each float cumulative value, at
    # the counter streams' top word and at 1.0
    edges = np.concatenate([ch.cumulative_float.ravel(), [_BELOW_ONE, 1.0]])
    x = np.concatenate([rng.integers(0, q, size=2000), np.repeat(np.arange(q), len(edges))])
    u = np.concatenate([rng.random(2000), np.tile(edges, q)])
    want = [sample(ch, f.element(int(xi)), ui) for xi, ui in zip(x, u)]
    assert ch.sample_batch(x, u).tolist() == want


def test_sample_batch_stays_inside_output_alphabet():
    # a uniform at or above the float cumulative row's last value still
    # names a valid output
    f2 = default_field(2)
    ch = FiniteChannel(f2, [["1/10"] * 10, ["1/10"] * 10])
    last = ch.cumulative_float[0, -1]
    assert last < 1.0
    y = ch.sample_batch(np.array([0, 1, 0]), np.array([last, 1.0, 0.05]))
    assert y.tolist() == [9, 9, 0]


def test_sampler_never_returns_an_output_of_probability_0():
    ch = FiniteChannel(default_field(2), ZERO_ENTRY_TABLE)
    assert ch.cumulative_float[0, 2] == _BELOW_ONE
    # the counter streams emit _BELOW_ONE for their top word
    assert ch.sample_batch(np.array([[0]]), np.array([[_BELOW_ONE]])).tolist() == [[2]]
    y = ch.sample_batch(np.array([0, 0, 1, 1]), np.array([1.0, 0.0, 0.0, 1.0]))
    assert y.tolist() == [2, 0, 1, 3]


def _boundary_uniforms(ch):
    """0, 1, the largest draw below 1 and every cumulative value of the
    channel with its two float neighbours, where ``>=`` decides."""
    cum = np.unique(ch.cumulative_float)
    u = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                        [0.0, 1.0, _BELOW_ONE]])
    return np.unique(np.clip(u, 0.0, 1.0))


@pytest.mark.parametrize("make,q", [(qsc, 2), (qsc, 3), (qsc, 16), (qec, 2), (qec, 4),
                                    (None, 2)])
def test_sample_batch_equals_the_gather_reference(make, q):
    f = default_field(q)
    ch = FiniteChannel(f, ZERO_ENTRY_TABLE) if make is None else make(f, Fraction(1, 5))
    gen = np.random.default_rng(q)
    edges = _boundary_uniforms(ch)
    cases = [
        # random inputs and uniforms, inputs also transposed in memory as
        # encoded random messages are
        (gen.integers(0, q, (64, 50)), gen.random((64, 50))),
        (gen.integers(0, q, (50, 64)).T, gen.random((64, 50))),
        # every input against every boundary uniform
        (np.repeat(np.arange(q), len(edges))[:, None],
         np.tile(edges, q)[:, None]),
        # one input row broadcast over the batch, as all-zero messages are
        (np.broadcast_to(gen.integers(0, q, 8)[:, None], (8, len(edges))),
         np.broadcast_to(edges, (8, len(edges)))),
    ]
    nulls = 0
    for x, u in cases:
        got = ch.sample_batch(x, u)
        want = reference_sample_batch(ch, x, u)
        assert got.shape == want.shape
        assert (ch.matrix_float[x, got] > 0).all()
        # the reference may draw an output of mass 0; the sampler then
        # keeps the row's last output of positive mass
        null = ch.matrix_float[x, want] == 0
        last = np.array([max(np.flatnonzero(row)) for row in ch.matrix_float])
        assert np.array_equal(got[~null], want[~null])
        assert np.array_equal(got[null], last[np.broadcast_to(x, null.shape)[null]])
        nulls += null.sum()
    # only the table with a trailing zero entry has such draws
    assert (nulls > 0) == (make is None)


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
    # each polarized law was built only because the search found its
    # families; the shifts it kept satisfy W[y|x] = W[sigma_b(y)|x + b]
    for half in polarize(ch):
        for b in f.elements:
            perm = [half.shift(y, b) for y in range(half.num_outputs)]
            assert sorted(perm) == list(range(half.num_outputs))
            assert all(row[y] == half.matrix[f._add[x][b.index]][perm[y]]
                       for x, row in enumerate(half.matrix) for y in range(len(row)))
        # rows of both polarized laws are exact probability vectors
        assert all(sum(row) == 1 for row in half.matrix)


def test_plus_shift_matches_canonical_form():
    f4 = default_field(4)
    ch = qsc(f4, Fraction(3, 10))
    _, plus = polarize(ch)
    alpha = f4.alpha
    ny = ch.num_outputs
    q = f4.q
    for b in f4.elements:
        # canonical sigma_b(y0, y1, u0) = (y0 + alpha*b, y1 + b, u0)
        perm = [((f4.element(y0) + alpha * b).index * ny + (f4.element(y1) + b).index)
                * q + u0 for y0 in range(ny) for y1 in range(ny) for u0 in range(q)]
        assert sorted(perm) == list(range(plus.num_outputs))
        assert all(plus.matrix[x][y] == plus.matrix[f4._add[x][b.index]][perm[y]]
                   for x in range(q) for y in range(plus.num_outputs))


def test_awgn_shift_identity():
    f2 = default_field(2)
    ch = AwgnBpskChannel(f2, 0.631)
    for y in (-2.3, -0.4, 0.0, 0.7, 1.9):
        # W(y|0) = W(-y|1) from the Gaussian density: sigma_1 is negation
        assert transition(ch, y, f2.zero) == pytest.approx(transition(ch, -y, f2.one))


def test_finite_likelihood_batch_is_symbol_major_and_c_contiguous():
    ch = qec(default_field(4), Fraction(1, 3))
    y = np.random.default_rng(6).integers(0, ch.num_outputs, size=(8, 5))
    T = ch.likelihood_batch(y)
    assert T.shape == (4, 8, 5) and T.flags.c_contiguous
    for j, i in np.ndindex(y.shape):
        assert T[:, j, i].tolist() == [float(v) for v in likelihoods(ch, int(y[j, i]))]


def test_awgn_likelihood_batch_is_symbol_major():
    f2 = default_field(2)
    ch = AwgnBpskChannel(f2, 0.631)
    y = np.random.default_rng(7).standard_normal((6, 3))
    T = ch.likelihood_batch(y)
    assert T.shape == (2, 6, 3) and T.flags.c_contiguous
    assert np.all(T.max(axis=0) == 1.0)
    for j, i in np.ndindex(y.shape):
        y0 = float(y[j, i])
        ratio = transition(ch, y0, f2.one) / transition(ch, y0, f2.zero)
        assert T[1, j, i] / T[0, j, i] == pytest.approx(ratio, rel=1e-12)


def test_awgn_likelihoods_of_large_outputs_are_finite_and_untied():
    # beyond about 1.3e154 the squares overflowed to inf - inf = NaN, and at
    # 1e20 the likelihoods tied, since y - 1 and y + 1 round to one float
    ch = AwgnBpskChannel(default_field(2), 0.5)
    y = np.array([1e300, 1e200, 1e20, 2.0**40, -2.0**40, -1e20, -1e200, -1e300])
    assert ch.likelihood_batch(y).tolist() == [[1.0] * 4 + [0.0] * 4, [0.0] * 4 + [1.0] * 4]
    # outputs up to 2^40 keep the unclipped values
    y = np.array([2.0**40, -2.0**40, 3e11, -7e9, 41.5, 1e-3])
    d = np.subtract.outer([1.0, -1.0], y)
    want = -(d * d)
    want = np.exp((want - want.max(axis=0)) / (2 * 0.5))
    assert np.array_equal(ch.likelihood_batch(y), want)


def test_awgn_requires_binary_field():
    with pytest.raises(ValueError):
        AwgnBpskChannel(default_field(4), 0.5)


@pytest.mark.parametrize("sigma2", [float("nan"), float("inf"), 0, -0.5, "0.5", True, None])
def test_awgn_rejects_a_noise_variance_that_is_not_finite_and_positive(sigma2):
    # with a NaN or infinite variance every block once decoded without error
    with pytest.raises(ValueError, match="noise variance"):
        AwgnBpskChannel(default_field(2), sigma2)


@pytest.mark.parametrize("make", [
    lambda: qsc(default_field(4), Fraction(1, 10)),
    lambda: qec(default_field(4), Fraction(1, 3)),
    lambda: FiniteChannel(default_field(2), [["7/10", "1/10", "1/10", "1/10"],
                                             ["1/10", "7/10", "1/10", "1/10"]]),
    lambda: AwgnBpskChannel(default_field(2), 0.631),
    lambda: ebno_to_channel(2.0, 0.5),
], ids=["qsc", "qec", "table", "awgn_sigma2", "awgn_ebno"])
def test_channel_config_round_trip_is_exact(make):
    # the Eb/N0 pair was once dropped for the sigma2 written beside it, so a
    # report's embedded config did not reproduce its own config block
    obj = channel_to_json(make())
    assert channel_to_json(channel_from_json(obj)) == obj


def test_awgn_config_rejects_a_variance_its_ebno_pair_does_not_give():
    obj = channel_to_json(ebno_to_channel(2.0, 0.5))
    obj["sigma2"] = 0.5
    with pytest.raises(ValueError, match="sigma2 0.5 differs"):
        channel_from_json(obj)


def test_config_epsilon_parses_as_the_constructors_do():
    # a JSON 0.1 was once read by a bare Fraction, as 3602879701896397/2^55,
    # and written back that way
    f = default_field(4)
    for kind, make in (("qsc", qsc), ("qec", qec)):
        for eps in (0.1, "0.1", "1/10", Fraction(1, 10)):
            ch = channel_from_json({"kind": kind, "epsilon": eps}, f)
            assert ch.params == make(f, eps).params == {"epsilon": Fraction(1, 10)}
            assert channel_to_json(ch)["epsilon"] == "1/10"


@pytest.mark.parametrize("value", [True, False, float("inf"), float("-inf"), float("nan")])
def test_a_probability_is_never_a_bool_or_an_infinity(value):
    # qsc(f, True) once built the useless channel with epsilon 1, and a JSON
    # Infinity ended in an OverflowError traceback
    f = default_field(2)
    for make in (qsc, qec):
        with pytest.raises(ValueError, match="exact probability"):
            make(f, value)
        with pytest.raises(ValueError, match="exact probability"):
            channel_from_json({"kind": make.__name__, "epsilon": value}, f)
    with pytest.raises(ValueError, match="exact probability"):
        FiniteChannel(f, [[value, 1 - value], [1 - value, value]])
