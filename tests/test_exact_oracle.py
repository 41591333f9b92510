"""The integer exact oracle against a reference Fraction implementation.

``reference_sc_decode_distribution`` is the straightforward rational form
of the exact SC recursion: Fraction likelihood vectors carrying the 1/q
constants through ``combine_minus``/``combine_plus``, no gcd reduction and
no memo.  ``reference_exact_ser`` walks every output of Y^n with Fraction
weights.  The production oracle runs on integer index tuples, walks only
outputs with mass and memoizes sub-decodes; its results must be equal as
rationals, not merely close.  The symmetry checkers, which now compare
index distributions through precomputed index maps, must return the same
verdicts and witnesses as element-level reference checks.
"""

import itertools
from fractions import Fraction

import pytest

import qpolar.oracle
from qpolar.channel import qec, qsc, table_channel
from qpolar.code import PolarCode, decreasing_sets, polar_transform
from qpolar.gf import FieldElement, default_field
from qpolar.oracle import exact_genie_error_probs, exact_ser
from qpolar.sc import sc_decode_distribution, synthetic_channel
from reference import combine_minus, combine_plus, likelihoods
from qpolar.symmetry import (
    check_coset_invariance,
    check_xi_invariance,
    xi_apply_field,
    xi_apply_output,
)

F2 = default_field(2)
F3 = default_field(3)
F4 = default_field(4)


def _ties(t):
    mx = max(t)
    return [u for u, v in enumerate(t) if v == mx]


def reference_sc_decode_distribution(code, ch, y):
    field = code.field
    alpha = field.alpha
    elems = field.elements

    def rec(t_list, pos):
        if len(t_list) == 1:
            if code.is_info(pos):
                cands = _ties(t_list[0])
                return {(elems[u],): Fraction(1, len(cands)) for u in cands}
            return {(code.frozen_value(pos),): Fraction(1)}
        half = len(t_list) // 2
        tm = [combine_minus(t_list[j], t_list[j + half], alpha) for j in range(half)]
        out = {}
        for z_lo, p_lo in rec(tm, pos).items():
            tp = [combine_plus(t_list[j], t_list[j + half], z_lo[j], alpha)
                  for j in range(half)]
            for z_hi, p_hi in rec(tp, pos + half).items():
                x = tuple(z_lo[j] + alpha * z_hi[j] for j in range(half)) + z_hi
                out[x] = out.get(x, Fraction(0)) + p_lo * p_hi
        return out

    return rec([likelihoods(ch, v) for v in y], 0)


def reference_exact_ser(code, ch, u_full):
    field = code.field
    u_full = [field.element(v) for v in u_full]
    probe = code.with_frozen_values([u_full[i] for i in code.frozen_set])
    x_bar = polar_transform(field, u_full)
    totals = [Fraction(0)] * code.n
    for y in itertools.product(range(ch.num_outputs), repeat=code.n):
        w = Fraction(1)
        for yj, xj in zip(y, x_bar):
            w *= ch.matrix[xj.index][yj]
            if not w:
                break
        if not w:
            continue
        for x, p in reference_sc_decode_distribution(probe, ch, y).items():
            for j in range(code.n):
                if x[j] != x_bar[j]:
                    totals[j] += w * p
    return tuple(totals)


def reference_exact_genie_error_probs(field, m, ch):
    n = 1 << m
    probe = PolarCode(field, m, range(n))
    out = [Fraction(0)] * n
    for y in itertools.product(range(ch.num_outputs), repeat=n):
        w = Fraction(1)
        for v in y:
            w *= ch.matrix[0][v]
        for i in range(n):
            cands = _ties(synthetic_channel(probe, ch, y, (field.zero,) * i, i))
            out[i] += w * (len(cands) - 1) / len(cands) if 0 in cands else w
    return tuple(out)


def _assert_exact_equal(code, ch, u_full):
    got = exact_ser(code, ch, u_full).per_index
    assert all(type(v) is Fraction for v in got)
    assert got == reference_exact_ser(code, ch, u_full)


ZERO_ENTRY_TABLE = [["1/2", "3/10", "1/5", "0"], ["0", "1/5", "3/10", "1/2"]]


@pytest.mark.parametrize("info", decreasing_sets(3))
def test_exact_ser_equals_reference_bsc_n8(info):
    _assert_exact_equal(PolarCode(F2, 3, info), qsc(F2, Fraction(1, 10)), [0] * 8)


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("kind", ["qsc", "qec"])
def test_exact_ser_equals_reference_q3_q4_n4(q, kind):
    field = default_field(q)
    ch = qsc(field, Fraction(1, 10)) if kind == "qsc" else qec(field, Fraction(1, 3))
    for info in decreasing_sets(2):
        _assert_exact_equal(PolarCode(field, 2, info), ch, [0] * 4)


@pytest.mark.parametrize("name", ["qec4_half", "table2"])
def test_exact_ser_equals_reference_zero_entry_channels_n8(name):
    ch = qec(F4, Fraction(1, 2)) if name == "qec4_half" else table_channel(F2, ZERO_ENTRY_TABLE)
    _assert_exact_equal(PolarCode(ch.field, 3, (3, 5, 6, 7)), ch, [0] * 8)


def test_exact_ser_equals_reference_nonzero_messages_and_frozen_values():
    # frozen positions take the message's values, so these probe nonzero
    # frozen values as well as nonzero information symbols
    _assert_exact_equal(PolarCode(F3, 2, (1, 2, 3)), qsc(F3, Fraction(1, 5)), [1, 2, 0, 1])
    _assert_exact_equal(PolarCode(F4, 2, (2, 3)), qec(F4, Fraction(1, 3)), [3, 1, 2, 1])
    _assert_exact_equal(PolarCode(F2, 3, (3, 5, 6, 7)), qsc(F2, Fraction(1, 10)),
                        [1, 0, 1, 1, 1, 0, 1, 1])
    _assert_exact_equal(PolarCode(F2, 3, (3, 5, 6, 7)), qec(F2, Fraction(1, 2)),
                        [0, 1, 1, 0, 1, 1, 0, 1])


@pytest.mark.parametrize("kind", ["qsc", "qec"])
def test_decode_distribution_equals_reference_every_output_q4_n4(kind):
    ch = qsc(F4, Fraction(3, 10)) if kind == "qsc" else qec(F4, Fraction(1, 3))
    codes = [PolarCode(F4, 2, (2, 3)), PolarCode(F4, 2, (1, 2, 3)),
             PolarCode(F4, 2, (2, 3), [F4.from_index(2), F4.from_index(3)])]
    for code in codes:
        for y in itertools.product(range(ch.num_outputs), repeat=4):
            got = sc_decode_distribution(code, ch, y)
            assert got == reference_sc_decode_distribution(code, ch, y)
            assert all(type(p) is Fraction for p in got.values())
            assert all(e.field is F4 for x in got for e in x)


def test_genie_error_probs_equal_reference():
    for field, m, ch in ((F2, 2, qsc(F2, Fraction(1, 10))), (F4, 1, qec(F4, Fraction(1, 3))),
                         (F2, 2, table_channel(F2, ZERO_ENTRY_TABLE))):
        assert exact_genie_error_probs(field, m, ch) == \
            reference_exact_genie_error_probs(field, m, ch)


def test_exact_ser_decodes_only_outputs_with_mass(monkeypatch):
    # qec(F_4, 1/2) has 5^8 = 390,625 outputs; under the all-zero codeword
    # each symbol is 0 or erased, so 2^8 = 256 of them carry mass
    calls = []
    decode = qpolar.oracle.sc_decode_distribution

    def counted(code, ch, y, job=None):
        calls.append(y)
        return decode(code, ch, y, job=job)

    monkeypatch.setattr(qpolar.oracle, "sc_decode_distribution", counted)
    exact_ser(PolarCode(F4, 3, (3, 5, 6, 7)), qec(F4, Fraction(1, 2)), [0] * 8)
    assert len(calls) == len(set(calls)) == 256


def reference_check_coset_invariance(code, ch):
    field = code.field
    ys = list(itertools.product(range(ch.num_outputs), repeat=code.n))
    dists = {y: reference_sc_decode_distribution(code, ch, y) for y in ys}
    for info in itertools.product(field.elements, repeat=code.k):
        b = code.full_message(info)
        xb = polar_transform(field, b)
        for a in [e for e in field.elements if e]:
            for y in ys:
                y2 = tuple(ch.shift(ch.scale(v, a), w) for v, w in zip(y, xb))
                image = {tuple(a * v + w for v, w in zip(x, xb)): p
                         for x, p in dists[y].items()}
                if dists[y2] != image:
                    return False, {"a": a, "b": b, "y": y}
    return True, None


def reference_check_xi_invariance(code, ch, r):
    ys = list(itertools.product(range(ch.num_outputs), repeat=code.n))
    dists = {y: reference_sc_decode_distribution(code, ch, y) for y in ys}
    for y in ys:
        y2 = xi_apply_output(code.m, r, ch, y)
        if dists[y2] != {xi_apply_field(code.m, r, x): p for x, p in dists[y].items()}:
            return False, {"r": r, "y": y}
    return True, None


def _wrong_scaling_qsc(field, eps):
    # a QSC whose output scaling permutations are all the identity: the
    # coset and xi identities then fail for every scaling other than 1
    ch = qsc(field, eps)
    ch._pi = {a: list(range(field.q)) for a in range(1, field.q)}
    return ch


@pytest.mark.parametrize("broken", [False, True])
def test_symmetry_checks_equal_reference_q4_n4(broken):
    eps = Fraction(3, 10)
    ch = _wrong_scaling_qsc(F4, eps) if broken else qsc(F4, eps)
    code = PolarCode(F4, 2, (2, 3))
    got = check_coset_invariance(code, ch)
    assert got == reference_check_coset_invariance(code, ch)
    assert got[0] is not broken
    if broken:
        assert isinstance(got[1]["a"], FieldElement) and got[1]["a"] != F4.one
        assert all(isinstance(v, FieldElement) for v in got[1]["b"])
    for r in range(2):
        got = check_xi_invariance(code, ch, r)
        assert got == reference_check_xi_invariance(code, ch, r)
        assert got[0] is not broken
