"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run ``pytest tests/test_acceptance.py -s`` to see the lines as they pass;
under default capture they appear only on failure.  Every tolerance is
pinned here: exact-equality claims assert rational equality with zero
tolerance, Monte Carlo claims use the stated sigma multiples or windows.
"""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import polarize, qec, qsc, verify_symmetry
from qpolar.code import PolarCode, decreasing_sets
from qpolar.construct import GenieMC, construct_info_set
from qpolar.gf import default_field
from qpolar.oracle import exact_average_ser
from qpolar.sc import sc_decode_distribution
from qpolar.sim import ExperimentConfig, chi2_homogeneity, ebno_to_channel, run_experiment
from qpolar.symmetry import (
    check_coset_invariance,
    check_equal_ser,
    check_message_invariance,
    check_ser_bit_flip_symmetry,
    check_xi_invariance,
)

F2 = default_field(2)
F3 = default_field(3)
F4 = default_field(4)
FIELDS = {2: F2, 3: F3, 4: F4}


def _emit(num, name, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def test_criterion_1_equal_ser_exact():
    failures = []
    cases = 0
    for q, field in FIELDS.items():
        for ch in (qsc(field, Fraction(1, 10)), qec(field, Fraction(1, 3))):
            for m in (1, 2):
                for info in decreasing_sets(m):
                    code = PolarCode(field, m, info)
                    ok, detail = check_equal_ser(code, ch)
                    cases += 1
                    if not ok:
                        failures.append((q, ch.kind, m, info, detail))
    bsc = qsc(F2, Fraction(1, 10))
    for info in [(7,), (3, 5, 6, 7), tuple(range(1, 8))]:
        code = PolarCode(F2, 3, info)
        ok, detail = check_equal_ser(code, bsc)
        cases += 1
        if not ok:
            failures.append((2, "bsc-n8", 3, info, detail))
    ok = not failures
    assert _emit(1, "equal SER, exact, all decreasing sets", ok,
                 f"{cases} code/channel cases, rational equality"), failures


def test_criterion_2_condition_necessity():
    code = PolarCode(F2, 1, [0])
    per = exact_average_ser(code, qsc(F2, Fraction(1, 10))).per_index
    ok = per == (Fraction(9, 50), Fraction(0)) and per[0] != per[1]
    assert _emit(2, "non-decreasing counterexample", ok,
                 f"SER vector {per[0]}, {per[1]}"), per


def test_criterion_3_message_invariance():
    failures = []
    for q, field in FIELDS.items():
        ch = qsc(field, Fraction(1, 10))
        code = PolarCode(field, 1, [1])
        msgs = [list(u) for u in itertools.product(field.elements, repeat=2)]
        ok, witness = check_message_invariance(code, ch, msgs)
        if not ok:
            failures.append((q, 2, witness))
    rng = np.random.default_rng(2024)
    for q in (2, 4):
        field = FIELDS[q]
        ch = qsc(field, Fraction(1, 10))
        code = PolarCode(field, 2, [2, 3])
        msgs = [[field.from_index(int(v)) for v in rng.integers(0, q, size=4)]
                for _ in range(20)]
        ok, witness = check_message_invariance(code, ch, msgs)
        if not ok:
            failures.append((q, 4, witness))
    ok = not failures
    assert _emit(3, "SER invariant under the message", ok,
                 "exhaustive n=2 (q=2,3,4) + 20 random messages n=4"), failures


def test_criterion_4_decoder_form_equivalence():
    ch_by_q = {q: qsc(FIELDS[q], Fraction(3, 10)) for q in (2, 4)}
    codes = []
    for q in (2, 4):
        for info in decreasing_sets(1) + [(0,)]:
            codes.append(PolarCode(FIELDS[q], 1, info))
    codes.append(PolarCode(F2, 2, [1, 2, 3]))
    codes.append(PolarCode(F2, 2, [0, 3]))   # equivalence holds for any set
    codes.append(PolarCode(F4, 2, [2, 3]))
    failures = []
    compared = 0
    for code in codes:
        ch = ch_by_q[code.field.q]
        for y in itertools.product(range(ch.num_outputs), repeat=code.n):
            rec = sc_decode_distribution(code, ch, y, method="recursive")
            defi = sc_decode_distribution(code, ch, y, method="definitional")
            compared += 1
            if rec != defi:
                failures.append((code.field.q, code.info_set, y))
    ok = not failures
    assert _emit(4, "definitional vs recursive decoder", ok,
                 f"{compared} (code, output) pairs, identical distributions"), failures


def test_criterion_5_pushforward_identities():
    failures = []
    for q in (2, 4):
        field = FIELDS[q]
        ch = qsc(field, Fraction(3, 10))
        for info in decreasing_sets(2):
            code = PolarCode(field, 2, info)
            ok, w = check_coset_invariance(code, ch)
            if not ok:
                failures.append(("coset", q, info, w))
            for r in range(2):
                ok, w = check_xi_invariance(code, ch, r)
                if not ok:
                    failures.append(("xi", q, info, r, w))
            ok, w = check_ser_bit_flip_symmetry(code, ch)
            if not ok:
                failures.append(("flip", q, info, w))

    # sampled confirmation at n = 8
    bsc = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 3, [3, 5, 6, 7])
    rng = np.random.default_rng(99)
    ys = [tuple(int(v) for v in rng.integers(0, 2, size=8)) for _ in range(1000)]
    for r in range(3):
        ok, w = check_xi_invariance(code, bsc, r, ys=ys)
        if not ok:
            failures.append(("xi-n8", r, w))
    cosets = [tuple(F2.from_index(int(v)) for v in rng.integers(0, 2, size=4))
              for _ in range(3)]
    ok, w = check_coset_invariance(code, bsc, ys=ys, cosets=cosets)
    if not ok:
        failures.append(("coset-n8", w))
    ok, w = check_ser_bit_flip_symmetry(code, bsc)
    if not ok:
        failures.append(("flip-n8", w))
    ok = not failures
    assert _emit(5, "coset and bit-flip pushforwards", ok,
                 "exhaustive n=4 (q=2,4), 1000 sampled outputs n=8"), failures


def _family_holds(ch, perm, act):
    """perm is a permutation of the outputs with W(y|x) = W(perm[y]|act(x))."""
    ny = ch.num_outputs
    return (sorted(perm) == list(range(ny))
            and all(ch.matrix[x][y] == ch.matrix[act(x)][perm[y]]
                    for x in range(ch.q) for y in range(ny)))


def test_criterion_6_polarized_channels_symmetric():
    # the lemma on each polarized law itself: the canonical maps are
    # permutations and satisfy the defining identities.  The channels carry
    # the families their search finds, which may pair outputs with equal
    # columns differently, so those are only required to exist.
    failures = []
    for q, field in FIELDS.items():
        alpha = field.alpha
        add, mul = field.add_index, field.mul_index
        for base in (qsc(field, Fraction(1, 10)), qec(field, Fraction(1, 3))):
            minus, plus = polarize(base)
            for ch in (minus, plus):
                report = verify_symmetry(ch)
                if not report.ok:
                    failures.append((q, base.kind, ch.kind, report.detail))
            ny = base.num_outputs
            # canonical forms: sigma_b(y0,y1) = (y0+b, y1) on the check side,
            # sigma_b(y0,y1,u0) = (y0+alpha*b, y1+b, u0) on the variable side
            for b in field.elements:
                want_m = [base.shift(y0, b) * ny + y1
                          for y0 in range(ny) for y1 in range(ny)]
                if not _family_holds(minus, want_m, lambda x: add(x, b.index)):
                    failures.append((q, base.kind, "minus-sigma", b.index))
                want_p = [(base.shift(y0, alpha * b) * ny + base.shift(y1, b)) * q + u0
                          for y0 in range(ny) for y1 in range(ny) for u0 in range(q)]
                if not _family_holds(plus, want_p, lambda x: add(x, b.index)):
                    failures.append((q, base.kind, "plus-sigma", b.index))
            for a in field.elements:
                if not a:
                    continue
                want_m = [base.scale(y0, a) * ny + base.scale(y1, a)
                          for y0 in range(ny) for y1 in range(ny)]
                if not _family_holds(minus, want_m, lambda x: mul(a.index, x)):
                    failures.append((q, base.kind, "minus-pi", a.index))
                want_p = [(base.scale(y0, a) * ny + base.scale(y1, a)) * q
                          + field.mul_index(a.index, u0)
                          for y0 in range(ny) for y1 in range(ny) for u0 in range(q)]
                if not _family_holds(plus, want_p, lambda x: mul(a.index, x)):
                    failures.append((q, base.kind, "plus-pi", a.index))
    ok = not failures
    assert _emit(6, "one-step channels stay symmetric", ok,
                 "minus/plus of QSC and QEC, q=2,3,4, canonical permutations"), failures


def test_criterion_7_fig1_reproduction():
    trials = 100_000
    ch = ebno_to_channel(2.0, 128 / 256)
    info = construct_info_set(F2, 8, 128, ch, GenieMC(trials=100_000, seed=2024))
    code = PolarCode(F2, 8, info)
    assert code.is_decreasing
    report = run_experiment(ExperimentConfig(code, ch, trials=trials, seed=7,
                                             shards=4), threads=2)

    _, pvalue = chi2_homogeneity(report.codeword_errors, trials)
    homogeneous = pvalue >= 0.01

    mean_cw = sum(report.codeword_ber) / code.n
    in_window = 0.9e-2 <= mean_cw <= 1.8e-2

    msg = [report.message_ber[i] for i in code.info_set]
    ratio = max(msg) / min(msg)
    contrasted = ratio > 3.0

    ok = homogeneous and in_window and contrasted
    assert _emit(
        7, "(256,128) at 2 dB", ok,
        f"codeword-BER homogeneity p={pvalue:.3f} (need >=0.01), "
        f"mean={mean_cw:.3e} (need [0.9e-2, 1.8e-2]), "
        f"message max/min={ratio:.1f} (need >3)"), (pvalue, mean_cw, ratio)


def test_criterion_8_monte_carlo_oracle_consistency():
    trials = 1_000_000
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [1, 2, 3])
    exact = exact_average_ser(code, ch).per_index

    report = run_experiment(ExperimentConfig(code, ch, trials=trials, seed=5))
    rates = report.codeword_ber
    deviations = []
    for est, se, truth in zip(rates, report.stderr(rates), exact):
        dev = abs(est - float(truth)) / se
        deviations.append(dev)
    within = all(d <= 4 for d in deviations)

    def blob(rep):
        # the config records the shard count, so it is left out
        obj = rep.to_json()
        del obj["config"]
        return json.dumps(obj, sort_keys=True).encode()

    blobs = {blob(report)} | {
        blob(run_experiment(ExperimentConfig(code, ch, trials=trials, seed=5, shards=s)))
        for s in (2, 8)}
    reproducible = len(blobs) == 1

    ok = within and reproducible
    assert _emit(8, "Monte Carlo vs oracle", ok,
                 f"max |dev| {max(deviations):.2f} sigma (need <=4), "
                 f"byte-identical across shard counts: {reproducible}"), deviations
