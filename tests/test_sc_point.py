"""The point decoder against the scalar reference decoder.

``sc_decode`` runs no recursion of its own: on a finite channel it runs
the integer kernel with one tie uniform per position, and on the AWGN
channel the batch kernel on one block.  Lexicographic decodes must equal
those of ``reference.reference_sc_decode``, the scalar Fraction and float
decoder, in both the message and the codeword; so must the batch kernel
on one block of a finite channel.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import FiniteChannel, qec, qsc
from qpolar.code import PolarCode
from qpolar.construct import construct_info_set
from qpolar.gf import default_field
from qpolar.sc import MAX_DEFINITIONAL_N, sc_decode, sc_decode_batch
from qpolar.sim import ebno_to_channel
from reference import full_message, reference_sc_decode, tie_draws

F2 = default_field(2)
ZERO_ENTRY_TABLE = [["1/2", "3/10", "1/5", "0"], ["0", "1/5", "3/10", "1/2"]]

CHANNELS = {
    "qsc": lambda f: qsc(f, Fraction(1, 10)),
    "qec": lambda f: qec(f, Fraction(1, 3)),
    "table": lambda f: FiniteChannel(f, ZERO_ENTRY_TABLE),
}


def _codes(field, m):
    """An erasure-constructed code with all-zero and with nonzero frozen values."""
    n = 1 << m
    code = PolarCode(field, m, construct_info_set(field, m, n // 2, qec(field, Fraction(1, 2))))
    frozen = [field.element(1 + j % (field.q - 1)) for j in range(n - code.k)]
    return [code, code.with_frozen_values(frozen)]


def _assert_lex_equal(code, ch, ys):
    for y in ys:
        assert sc_decode(code, ch, y) == reference_sc_decode(code, ch, y)


def _float_decode(code, ch, y):
    """Lexicographic decode of one block on the float batch kernel."""
    elems = code.field.elements
    T = ch.likelihood_batch(np.asarray(y)[:, None])
    u, x = sc_decode_batch(code, T, tie_draws(np.zeros((code.n, 1))))
    return tuple(elems[i] for i in u[:, 0]), tuple(elems[i] for i in x[:, 0])


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
    "awgn_q2_n256": (2, 8, lambda f: ebno_to_channel(2.0, 0.5)),
    "qsc_q3_n64": (3, 6, lambda f: qsc(f, Fraction(1, 5))),
    "qsc_q16_n64": (16, 6, lambda f: qsc(f, Fraction(1, 10))),
}


@pytest.mark.parametrize("case", sorted(FLOAT_CASES))
def test_float_lex_decodes_equal_reference(case):
    q, m, make = FLOAT_CASES[case]
    field = default_field(q)
    ch = make(field)
    code = _codes(field, m)[1]
    x = np.array([e.index for e in code.encode(full_message(code, [field.zero] * code.k))])
    rng = np.random.default_rng(q)
    for _ in range(6):
        noise = rng.standard_normal(code.n) if q == 2 else rng.random(code.n)
        y = ch.sample_batch(x, noise)
        # the AWGN channel takes the float kernel through sc_decode
        got = sc_decode(code, ch, y) if not ch.is_finite else _float_decode(code, ch, y)
        assert got == reference_sc_decode(code, ch, y, exact=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_awgn_point_decode_rejects_non_finite_output(bad):
    # NaN once decoded silently to all zeros; inf decoded after a RuntimeWarning
    code = PolarCode(F2, 2, [1, 2, 3])
    y = [0.3, -1.1, bad, 0.7]
    with pytest.raises(ValueError, match="finite reals"):
        sc_decode(code, ebno_to_channel(2.0, 0.5), y)


def test_exact_point_decode_beyond_distribution_cap():
    ch = qec(F2, Fraction(1, 2))
    code = PolarCode(F2, 8, construct_info_set(F2, 8, 128, ch))
    assert code.n > MAX_DEFINITIONAL_N
    rng = np.random.default_rng(9)
    y = ch.sample_batch(np.zeros(code.n, dtype=int), rng.random(code.n))
    u_hat, x_hat = sc_decode(code, ch, y)
    assert code.encode(u_hat) == x_hat
