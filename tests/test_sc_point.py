"""The point decoder against the scalar reference decoder.

``sc_decode`` runs no recursion of its own: its exact path is the integer
kernel with one tie uniform per position, and its float path is the batch
kernel on one block.  Lexicographic decodes must equal those of
``reference.reference_sc_decode``, the scalar Fraction and float decoder,
in both the message and the codeword.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import qec, qsc, table_channel
from qpolar.code import PolarCode, polar_transform
from qpolar.construct import construct_info_set
from qpolar.gf import default_field
from qpolar.sc import MAX_DEFINITIONAL_N, _inverse_transform, sc_decode
from qpolar.sim import ebno_to_channel
from reference import reference_sc_decode

F2 = default_field(2)
ZERO_ENTRY_TABLE = [["1/2", "3/10", "1/5", "0"], ["0", "1/5", "3/10", "1/2"]]

CHANNELS = {
    "qsc": lambda f: qsc(f, Fraction(1, 10)),
    "qec": lambda f: qec(f, Fraction(1, 3)),
    "table": lambda f: table_channel(f, ZERO_ENTRY_TABLE),
}


def _codes(field, m):
    """An erasure-constructed code with all-zero and with nonzero frozen values."""
    n = 1 << m
    code = PolarCode(field, m, construct_info_set(field, m, n // 2, qec(field, Fraction(1, 2))))
    frozen = [field.from_index(1 + j % (field.q - 1)) for j in range(n - code.k)]
    return [code, code.with_frozen_values(frozen)]


def _assert_lex_equal(code, ch, ys, exact=None):
    for y in ys:
        assert sc_decode(code, ch, y, exact=exact) == reference_sc_decode(code, ch, y, exact=exact)


# every output: q=2 up to n=8 and q=3, 4 up to n=4, with all-zero (0) and
# nonzero (1) frozen values, except that n=8 runs the nonzero values only;
# the zero-entry table (4 outputs) is exhaustive up to n=4, as 4^8
# reference decodes take about a minute, and sampled at n=8 below
EXHAUSTIVE = [(2, m, name, v) for m in (1, 2) for name in ("qsc", "qec", "table")
              for v in (0, 1)]
EXHAUSTIVE += [(2, 3, name, 1) for name in ("qsc", "qec")]
EXHAUSTIVE += [(q, m, name, v) for q in (3, 4) for m in (1, 2) for name in ("qsc", "qec")
               for v in (0, 1)]


@pytest.mark.parametrize("q,m,name,variant", EXHAUSTIVE)
def test_exact_lex_decodes_equal_reference_on_every_output(q, m, name, variant):
    field = default_field(q)
    ch = CHANNELS[name](field)
    code = _codes(field, m)[variant]
    _assert_lex_equal(code, ch, itertools.product(range(ch.num_outputs), repeat=code.n))


def test_exact_lex_decodes_equal_reference_zero_entry_table_n8():
    ch = CHANNELS["table"](F2)
    rng = np.random.default_rng(21)
    ys = [tuple(int(v) for v in rng.integers(0, ch.num_outputs, size=8)) for _ in range(1500)]
    for code in _codes(F2, 3):
        _assert_lex_equal(code, ch, ys)


@pytest.mark.parametrize("q,eps,make", [(2, Fraction(1, 2), qec), (2, Fraction(1, 10), qsc),
                                        (4, Fraction(1, 3), qec)])
@pytest.mark.parametrize("m", [5, 6])
def test_exact_lex_decodes_equal_reference_on_random_outputs(q, eps, make, m):
    field = default_field(q)
    ch = make(field, eps)
    code = _codes(field, m)[0]
    rng = np.random.default_rng(m)
    ys = [tuple(int(v) for v in rng.integers(0, ch.num_outputs, size=code.n))
          for _ in range(12)]
    _assert_lex_equal(code, ch, ys)


FLOAT_CASES = {
    "awgn_q2_n256": (2, 8, lambda f: ebno_to_channel(2.0, 0.5, f)),
    "qsc_q3_n64": (3, 6, lambda f: qsc(f, Fraction(1, 5))),
    "qsc_q16_n64": (16, 6, lambda f: qsc(f, Fraction(1, 10))),
}


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_lex_decodes_equal_reference(case):
    q, m, make = FLOAT_CASES[case]
    field = default_field(q)
    ch = make(field)
    code = _codes(field, m)[1]
    x = np.array([e.index for e in code.encode(code.full_message([field.zero] * code.k))])
    rng = np.random.default_rng(q)
    for _ in range(6):
        noise = rng.standard_normal(code.n) if q == 2 else rng.random(code.n)
        _assert_lex_equal(code, ch, [ch.sample_batch(x, noise)], exact=False)


@pytest.mark.parametrize("q", [2, 3, 4, 16])
def test_inverse_transform_undoes_polar_transform(q):
    field = default_field(q)
    rng = np.random.default_rng(q)
    for n in (1, 2, 8, 32):
        u = tuple(int(v) for v in rng.integers(0, q, size=n))
        x = tuple(e.index for e in polar_transform(field, [field.from_index(i) for i in u]))
        assert _inverse_transform(field, x) == u


def test_exact_point_decode_beyond_distribution_cap():
    ch = qec(F2, Fraction(1, 2))
    code = PolarCode(F2, 8, construct_info_set(F2, 8, 128, ch))
    assert code.n > MAX_DEFINITIONAL_N
    rng = np.random.default_rng(9)
    y = ch.sample_batch(np.zeros(code.n, dtype=int), rng.random(code.n))
    u_hat, x_hat = sc_decode(code, ch, y)
    assert code.encode(u_hat) == x_hat
