import itertools
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import qec, qsc
from qpolar.code import PolarCode, decreasing_sets, polar_transform
from qpolar.gf import default_field
from qpolar.oracle import exact_average_ser
from qpolar.symmetry import (
    check_coset_invariance,
    check_equal_ser,
    check_message_invariance,
    check_ser_bit_flip_symmetry,
    check_xi_invariance,
    coset_transform,
    delta,
    orbit_to_zero,
    xi_apply_field,
    xi_apply_output,
    xi_coefficients,
)
from reference import product_transition

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
            x = tuple(F4.from_index(int(i)) for i in rng.integers(0, 4, size=1 << m))
            assert xi_apply_field(m, r, xi_apply_field(m, r, x)) == x


def test_xi_coefficient_pattern():
    coeffs = xi_coefficients(F4, 2, 0)
    a = F4.alpha
    assert coeffs == (-a, -a.inverse(), -a, -a.inverse())


def test_xi_output_erasures_track_positions():
    ch = qec(F4, Fraction(1, 3))
    erasure = ch.num_outputs - 1
    y = (0, erasure, 2, erasure)
    got = xi_apply_output(2, 1, ch, y)
    assert got[0] != erasure and got[1] == erasure
    assert got[2] != erasure and got[3] == erasure


def test_xi_output_on_noiseless_tracks_field_map():
    from qpolar.channel import table_channel

    ident = table_channel(F4, np.eye(4, dtype=int).tolist(), outputs=F4.elements)
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
    x = tuple(F4.from_index(int(v)) for v in rng.integers(0, 4, size=4))
    y_id, x_id = coset_transform(code, ch, F4.one, [F4.zero] * 4, y, x)
    assert y_id == y and x_id == x

    # W^n(y|x) = W^n(a*y + x_b | a*x + x_b), arbitrary message b
    for _ in range(10):
        a = F4.from_index(int(rng.integers(1, 4)))
        b = [F4.from_index(int(v)) for v in rng.integers(0, 4, size=4)]
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
