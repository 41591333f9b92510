import itertools
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import qec, qsc
from qpolar.code import PolarCode, decreasing_sets, polar_transform
from qpolar.gf import FieldElement, default_field
from qpolar.oracle import exact_average_ser, exact_ser
from qpolar.sc import sc_decode, sc_decode_distribution
from qpolar.sim import ebno_to_channel
from qpolar.symmetry import (
    check_coset_invariance,
    check_equal_ser,
    check_message_invariance,
    check_ser_bit_flip_symmetry,
    check_xi_invariance,
    delta,
    xi_coefficients,
)
from reference import (
    UncheckedChannel,
    additive_noise_channel,
    coset_transform,
    product_transition,
    xi_apply_field,
    xi_apply_output,
)

F2 = default_field(2)
F4 = default_field(4)


def test_delta_examples():
    assert [delta(2, 1, i) for i in range(4)] == [2, 3, 0, 1]
    assert [delta(2, 0, i) for i in range(4)] == [1, 0, 3, 2]
    for m in (1, 2, 3):
        for r in range(m):
            for i in range(1 << m):
                assert delta(m, r, delta(m, r, i)) == i


def test_delta_range_checks():
    with pytest.raises(ValueError):
        delta(2, 2, 0)
    with pytest.raises(ValueError):
        delta(2, 0, 4)


def test_orbit_to_zero():
    def orbit_to_zero(j, m):
        # the bit positions whose flips map j to 0: its set bits
        return [r for r in range(m) if (j >> r) & 1]

    assert orbit_to_zero(0, 3) == []
    assert orbit_to_zero(5, 3) == [0, 2]
    for m in (2, 3, 4):
        for j in range(1 << m):
            i = j
            for r in orbit_to_zero(j, m):
                i = delta(m, r, i)
            assert i == 0


def test_xi_top_bit_closed_form():
    # xi_{m-1}: (-alpha * high half, -alpha^(-1) * low half)
    a = F4.alpha
    x = tuple(F4.elements)
    got = xi_apply_field(2, 1, x)
    want = tuple((-a) * v for v in x[2:]) + tuple((-a.inverse()) * v for v in x[:2])
    assert got == want


def test_xi_binary_is_pure_swap():
    x = (F2.one, F2.zero, F2.one, F2.one)
    got = xi_apply_field(2, 0, x)
    assert got == (x[1], x[0], x[3], x[2])


def test_xi_is_involution():
    rng = np.random.default_rng(4)
    for m in (1, 2, 3):
        for r in range(m):
            x = tuple(F4.element(int(i)) for i in rng.integers(0, 4, size=1 << m))
            assert xi_apply_field(m, r, xi_apply_field(m, r, x)) == x


def test_xi_coefficient_pattern():
    coeffs = xi_coefficients(F4, 2, 0)
    a = F4.alpha
    assert coeffs == tuple(e.index for e in (-a, -a.inverse(), -a, -a.inverse()))


def test_xi_output_erasures_track_positions():
    ch = qec(F4, Fraction(1, 3))
    erasure = ch.num_outputs - 1
    y = (0, erasure, 2, erasure)
    got = xi_apply_output(2, 1, ch, y)
    assert got[0] != erasure and got[1] == erasure
    assert got[2] != erasure and got[3] == erasure


def test_xi_output_on_noiseless_tracks_field_map():
    from qpolar.channel import FiniteChannel

    ident = FiniteChannel(F4, np.eye(4, dtype=int).tolist())
    x = tuple(F4.elements)
    y = tuple(e.index for e in x)
    got = xi_apply_output(2, 0, ident, y)
    want = tuple(e.index for e in xi_apply_field(2, 0, x))
    assert got == want


def test_output_block_weight_invariant_under_xi():
    # W^n(y | 0^n) = W^n(xi_r(y) | 0^n)
    ch = qsc(F4, Fraction(3, 10))
    zero4 = (F4.zero,) * 4
    rng = np.random.default_rng(9)
    for _ in range(25):
        y = tuple(int(v) for v in rng.integers(0, 4, size=4))
        for r in range(2):
            y2 = xi_apply_output(2, r, ch, y)
            assert product_transition(ch, y, zero4) == product_transition(ch, y2, zero4)


def test_coset_transform_identity_and_weight():
    ch = qsc(F4, Fraction(3, 10))
    code = PolarCode(F4, 2, [1, 2, 3])
    rng = np.random.default_rng(2)
    y = tuple(int(v) for v in rng.integers(0, 4, size=4))
    x = tuple(F4.element(int(v)) for v in rng.integers(0, 4, size=4))
    y_id, x_id = coset_transform(code, ch, F4.one, [F4.zero] * 4, y, x)
    assert y_id == y and x_id == x

    # W^n(y|x) = W^n(a*y + x_b | a*x + x_b), arbitrary message b
    for _ in range(10):
        a = F4.element(int(rng.integers(1, 4)))
        b = [F4.element(int(v)) for v in rng.integers(0, 4, size=4)]
        y2, x2 = coset_transform(code, ch, a, b, y, x)
        assert product_transition(ch, y, x) == product_transition(ch, y2, x2)


def test_coset_transform_binary_reduces_to_shift():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [1])
    b = [F2.zero, F2.one]
    xb = polar_transform(F2, b)
    y = (0, 1)
    y2, _ = coset_transform(code, ch, F2.one, b, y, (F2.zero, F2.zero))
    assert y2 == tuple(ch.shift(yi, w) for yi, w in zip(y, xb))


def test_message_invariance_exhaustive_n2():
    ch = qsc(F4, Fraction(3, 10))
    code = PolarCode(F4, 1, [1])
    msgs = list(itertools.product(F4.elements, repeat=2))
    ok, witness = check_message_invariance(code, ch, msgs)
    assert ok, witness


def test_coset_invariance_n4_binary():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [1, 2, 3])
    ok, witness = check_coset_invariance(code, ch)
    assert ok, witness


@pytest.mark.parametrize("y", [(-1, 0, 0, 0), (0, 0, 2, 0), (0, 0, 0)])
def test_transport_checks_refuse_a_given_block_outside_the_alphabet(y):
    # a given block reaches the exact kernel unchecked otherwise, where a
    # negative index would wrap around to the last output
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [1, 2, 3])
    with pytest.raises(ValueError, match=r"outside \[0, 2\)|expected 4"):
        check_coset_invariance(code, ch, ys=[(0, 1, 1, 0), y])
    with pytest.raises(ValueError, match=r"outside \[0, 2\)|expected 4"):
        check_xi_invariance(code, ch, 0, ys=[y])


def test_xi_invariance_n4_binary_all_bits():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [2, 3])
    for r in range(2):
        ok, witness = check_xi_invariance(code, ch, r)
        assert ok, witness


def test_xi_invariance_requires_decreasing_set():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [0])
    with pytest.raises(ValueError):
        check_xi_invariance(code, ch, 0)


def test_ser_bit_flip_symmetry_n4():
    ch = qsc(F2, Fraction(1, 10))
    for info in [(3,), (1, 2, 3), (0, 1, 2, 3)]:
        code = PolarCode(F2, 2, info)
        ok, witness = check_ser_bit_flip_symmetry(code, ch)
        assert ok, witness


def test_equal_ser_theorem_small():
    ch = qsc(F2, Fraction(1, 10))
    for info in decreasing_sets(2):
        code = PolarCode(F2, 2, info)
        ok, detail = check_equal_ser(code, ch)
        assert ok, detail


def test_equal_ser_counterexample():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 1, [0])
    with pytest.raises(ValueError):
        check_equal_ser(code, ch)
    per = exact_average_ser(code, ch).per_index
    assert per == (Fraction(9, 50), Fraction(0))
    assert per[0] != per[1]


# additive noise over F_4 with a law no scaling keeps: every symbol sees the
# noise, but the SC decoder does not see it alike
F4_NOISE = additive_noise_channel(default_field(4), [Fraction(7, 10), Fraction(3, 20),
                                                     Fraction(1, 10), Fraction(1, 20)])
F4_NOISE_SER = (Fraction(28201, 80000), Fraction(3, 10), Fraction(3017, 8000),
                Fraction(29007, 80000))


def test_equal_ser_reports_an_asymmetric_channel():
    code = PolarCode(default_field(4), 2, (1, 2, 3))
    assert exact_average_ser(code, F4_NOISE).per_index == F4_NOISE_SER
    ok, witness = check_equal_ser(code, F4_NOISE)
    assert not ok
    assert (witness["j"], witness["ser_0"], witness["ser_j"]) == (1, *F4_NOISE_SER[:2])
    assert witness["per_index"] == F4_NOISE_SER


def test_ser_bit_flip_symmetry_reports_an_asymmetric_channel():
    ok, witness = check_ser_bit_flip_symmetry(PolarCode(default_field(4), 2, (1, 2, 3)), F4_NOISE)
    assert not ok
    assert witness == {"r": 0, "j": 0, "ser_j": F4_NOISE_SER[0], "ser_flip": F4_NOISE_SER[1]}


def test_message_invariance_reports_an_asymmetric_channel():
    # the Z-channel never turns a 0 into a 1, so the all-zero message decodes
    # without error and the all-one message does not
    z = UncheckedChannel(F2, [[1, 0], ["1/4", "3/4"]])
    ok, witness = check_message_invariance(PolarCode(F2, 1, (1,)), z, [[0, 0], [1, 1]])
    assert not ok
    assert witness == {"message": [1, 1], "ser": (Fraction(1, 8), Fraction(1, 8)),
                       "baseline_message": [0, 0], "baseline_ser": (0, 0)}


def test_equal_ser_invariant_under_field_representation():
    # same abstract setup under the two generators of F_4 and two moduli of F_9
    from qpolar.gf import Field

    for field in (Field(2, 2, (1, 1), alpha=(0, 1)), Field(2, 2, (1, 1), alpha=(1, 1))):
        ch = qsc(field, Fraction(1, 10))
        code = PolarCode(field, 1, [1])
        ok, detail = check_equal_ser(code, ch)
        assert ok
        assert detail["ser"] == Fraction(1, 10)

    sers = []
    for field in (Field(3, 2, (1, 0)), Field(3, 2, (2, 2))):
        ch = qsc(field, Fraction(1, 10))
        code = PolarCode(field, 1, [1])
        ok, detail = check_equal_ser(code, ch)
        assert ok
        sers.append(detail["ser"])
    assert sers[0] == sers[1]


EXACT_PATHS = {
    "check_equal_ser": check_equal_ser,
    "check_coset_invariance": check_coset_invariance,
    "check_xi_invariance": lambda code, ch: check_xi_invariance(code, ch, 0),
    "exact_ser": lambda code, ch: exact_ser(code, ch, [code.field.zero] * code.n),
    "sc_decode": lambda code, ch: sc_decode(code, ch, (0,) * code.n),
    "recursive": lambda code, ch: sc_decode_distribution(code, ch, (0,) * code.n),
    "definitional": lambda code, ch: sc_decode_distribution(code, ch, (0,) * code.n,
                                                            method="definitional"),
}


@pytest.mark.parametrize("path", sorted(EXACT_PATHS))
@pytest.mark.parametrize("code_q,channel_q", [(2, 4), (4, 2)])
def test_exact_paths_reject_a_channel_over_another_field(path, code_q, channel_q):
    # an F_2 code on an F_4 channel once returned results, the reverse an IndexError
    code = PolarCode(default_field(code_q), 2, (1, 2, 3))
    ch = qsc(default_field(channel_q), Fraction(1, 10))
    with pytest.raises(ValueError, match="differs from the code field"):
        EXACT_PATHS[path](code, ch)


ELEMENT_ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__",
                      "inverse")
_QEC4 = qec(F4, Fraction(1, 3))
_CODE4 = PolarCode(F4, 2, (1, 2, 3))
_ERASED = (_QEC4.num_outputs - 1,) * 4  # every position ties
_YS = [(0, 4, 1, 4), (2, 3, 4, 0), _ERASED]
_AWGN = ebno_to_channel(2.0, 0.5)
_CODE2 = PolarCode(F2, 3, (3, 5, 6, 7))

# calls that take or return FieldElements but must compute on indices.
# oracle.exact_ser is the one exception left: it encodes its reference
# codeword with the element recursion polar_transform
INDEX_ONLY_CALLS = {
    "encode": lambda: _CODE4.encode([0, 1, 2, 3]),
    "sc_decode_qec_f4_ties": lambda: sc_decode(_CODE4, _QEC4, _ERASED, np.full(4, 0.9)),
    "sc_decode_awgn": lambda: sc_decode(_CODE2, _AWGN, [0.3, -1.1, 0.2, 0.7, 1.0, -0.4, 0.1, 0.9]),
    "distribution_recursive": lambda: sc_decode_distribution(_CODE4, _QEC4, _YS[0]),
    "distribution_definitional": lambda: sc_decode_distribution(_CODE4, _QEC4, _YS[0],
                                                                method="definitional"),
    "coset": lambda: check_coset_invariance(_CODE4, _QEC4, ys=_YS),
    "xi": lambda: [check_xi_invariance(_CODE4, _QEC4, r, ys=_YS) for r in range(2)],
}


def _refuse(*args):
    raise AssertionError("FieldElement arithmetic")


@pytest.mark.parametrize("name", sorted(INDEX_ONLY_CALLS))
def test_package_paths_do_no_element_arithmetic(name, monkeypatch):
    # the encoder and the coset and xi checkers once ran u * G_n and
    # -alpha^(+-1) on FieldElements, next to the index tables the kernels read
    for op in ELEMENT_ARITHMETIC:
        monkeypatch.setattr(FieldElement, op, _refuse)
    INDEX_ONLY_CALLS[name]()
