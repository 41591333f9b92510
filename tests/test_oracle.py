import itertools
import math
from fractions import Fraction

import pytest

from qpolar.channel import FiniteChannel, qec, qsc
from qpolar.code import PolarCode
from qpolar.gf import default_field
from qpolar.mc import decode_tallies
from qpolar.oracle import exact_average_ser, exact_ser, mc_ser
from qpolar.sc import synthetic_channel
from qpolar.symmetry import check_coset_invariance, check_xi_invariance
from reference import (
    ZERO_ENTRY_CHANNELS,
    combine_minus,
    combine_plus,
    likelihoods,
    reference_exact_genie_error_probs,
)

F2 = default_field(2)
F3 = default_field(3)
F4 = default_field(4)
BSC01 = qsc(F2, Fraction(1, 10))


def test_noiseless_ser_is_zero():
    ident = FiniteChannel(F2, [[1, 0], [0, 1]])
    code = PolarCode(F2, 2, [1, 2, 3])
    assert exact_average_ser(code, ident).per_index == (Fraction(0),) * 4


def test_counterexample_n2_frozen_high_index():
    # u1 frozen: x1 always correct, x0 sees the degraded check channel
    code = PolarCode(F2, 1, [0])
    report = exact_average_ser(code, BSC01)
    assert report.per_index == (Fraction(9, 50), Fraction(0))


def test_theorem_instance_n2():
    code = PolarCode(F2, 1, [1])
    report = exact_average_ser(code, BSC01)
    assert report.per_index[0] == report.per_index[1]
    assert report.per_index == (Fraction(1, 10), Fraction(1, 10))


def test_theorem_instance_n4_binary():
    code = PolarCode(F2, 2, [1, 2, 3])
    report = exact_average_ser(code, BSC01)
    assert report.per_index == (Fraction(17, 125),) * 4


def test_theorem_instance_n4_f4_erasure():
    # A = {3}: an error needs the doubly-degraded branch erased (p = (1/3)^4)
    # and the 4-way tie resolved wrongly (3/4), i.e. exactly 1/108 per index.
    code = PolarCode(F4, 2, [3])
    report = exact_average_ser(code, qec(F4, Fraction(1, 3)))
    assert report.per_index == (Fraction(1, 108),) * 4


@pytest.mark.parametrize("q", [2, 3])
def test_average_equals_message_enumeration(q):
    f = default_field(q)
    ch = qsc(f, Fraction(1, 10))
    code = PolarCode(f, 1, [1])
    avg = exact_average_ser(code, ch).per_index
    total = [Fraction(0)] * 2
    count = 0
    for u in itertools.product(f.elements, repeat=2):
        per = exact_ser(code, ch, u).per_index
        total = [a + b for a, b in zip(total, per)]
        count += 1
    assert tuple(v / count for v in total) == avg


def test_message_invariance_n4_random_messages():
    import numpy as np

    code = PolarCode(F2, 2, [2, 3])
    rng = np.random.default_rng(0)
    baseline = exact_ser(code, BSC01, [F2.zero] * 4).per_index
    for _ in range(6):
        u = [F2.element(int(b)) for b in rng.integers(0, 2, size=4)]
        assert exact_ser(code, BSC01, u).per_index == baseline


def test_synthetic_table_n1_is_channel():
    ch = qsc(F3, Fraction(1, 5))
    code = PolarCode(F3, 0, [0])
    for y in range(ch.num_outputs):
        assert synthetic_channel(code, ch, (y,), ()) == likelihoods(ch, y)


def test_synthetic_table_n2_matches_combines():
    ch = qsc(F4, Fraction(3, 10))
    code = PolarCode(F4, 1, [0, 1])
    for y0 in range(4):
        for y1 in range(4):
            la, lb = likelihoods(ch, y0), likelihoods(ch, y1)
            assert synthetic_channel(code, ch, (y0, y1), ()) == combine_minus(la, lb, F4.alpha)
            for u0 in F4.elements:
                assert synthetic_channel(code, ch, (y0, y1), (u0,)) == \
                    combine_plus(la, lb, u0, F4.alpha)


def test_synthetic_table_marginal_consistency():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [0, 1, 2, 3])
    ys = list(itertools.product(range(ch.num_outputs), repeat=4))
    for i in range(4):
        table = [synthetic_channel(code, ch, y, prefix)
                 for y in ys for prefix in itertools.product(F2.elements, repeat=i)]
        for u in range(2):
            assert sum(t[u] for t in table) == 1


def test_ser_monotone_in_qsc_noise():
    code = PolarCode(F2, 2, [1, 2, 3])
    values = [exact_average_ser(code, qsc(F2, eps)).per_index[0]
              for eps in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))]
    assert values[0] < values[1] < values[2]


def test_enumeration_cap_enforced():
    ch = qsc(F4, Fraction(1, 10))
    code = PolarCode(F4, 4, range(16))
    with pytest.raises(ValueError):
        exact_average_ser(code, ch)
    # the exhaustive checkers share the oracle's cap
    for check in (check_coset_invariance, lambda c, w: check_xi_invariance(c, w, 0)):
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            check(code, ch)


def test_genie_error_probs_n2():
    # position 0 sees the check channel BSC(0.18); position 1, genie aided,
    # errs only when both outputs flip (0.01) or on half of the tie mass (0.18/2)
    probs = reference_exact_genie_error_probs(F2, 1, BSC01)
    assert probs == (Fraction(9, 50), Fraction(1, 10))


def test_mc_ser_noiseless_and_deterministic():
    ident = FiniteChannel(F2, [[1, 0], [0, 1]])
    code = PolarCode(F2, 2, [1, 2, 3])
    report = mc_ser(code, ident, 2000, seed=1)
    assert report.per_index == (0.0,) * 4
    again = mc_ser(code, ident, 2000, seed=1)
    assert report.per_index == again.per_index and report.errors == again.errors


def _assert_within_4_sigma(report, exact):
    for est, truth in zip(report.per_index, exact):
        se = math.sqrt(est * (1 - est) / report.trials)
        assert abs(est - float(truth)) <= 4 * max(se, 1e-9)


def test_mc_ser_matches_oracle_within_4_sigma():
    code = PolarCode(F2, 2, [1, 2, 3])
    report = mc_ser(code, BSC01, 200_000, seed=7)
    _assert_within_4_sigma(report, exact_average_ser(code, BSC01).per_index)


@pytest.mark.parametrize("name", sorted(ZERO_ENTRY_CHANNELS))
def test_mc_ser_matches_oracle_on_zero_entry_channels(name):
    # a wrong tie guess can zero a plus message; the float decoder must then
    # tie all q symbols as the exact decoder does
    ch = ZERO_ENTRY_CHANNELS[name]()
    code = PolarCode(ch.field, 3, [3, 5, 6, 7])
    report = mc_ser(code, ch, 200_000, seed=7)
    _assert_within_4_sigma(report, exact_average_ser(code, ch).per_index)


def test_mc_ser_shard_invariance():
    # mc_ser decodes trials [0, trials) in one range; the tallies of split
    # ranges decoded in small batches add up to its errors
    code = PolarCode(F2, 2, [1, 2, 3])
    base = mc_ser(code, BSC01, 30_000, seed=3)
    for shards in (1, 2, 3, 7):
        bounds = [30_000 * s // shards for s in range(shards + 1)]
        cw = sum(decode_tallies(code, BSC01, 3, a, b, batch=999)[1]
                 for a, b in zip(bounds, bounds[1:]))
        assert tuple(int(e) for e in cw) == base.errors


def test_ser_report_json():
    code = PolarCode(F2, 1, [0])
    obj = exact_average_ser(code, BSC01).to_json()
    assert obj == {"mode": "exact", "per_index": ["9/50", "0/1"]}
    # only exact reports are written; a Monte Carlo estimate goes out as a
    # simulate report
    mc = mc_ser(code, BSC01, 1000, seed=2)
    assert mc.trials == 1000 and sum(mc.errors) > 0
    with pytest.raises(ValueError, match="only exact"):
        mc.to_json()
