"""Correctness checks on the program's outputs.

Each check compares an output of qpolar with a property of the method or
with a value computed here, apart from the program, and returns
``(ok, detail)``.  None of them compares with a stored copy of an earlier
output.  They take plain numbers so that the benchmark's tests can feed
them deliberately wrong inputs.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Fig. 1 of the paper: mean codeword BER near 1.2e-2 at 2 dB, and message
# BERs spread over orders of magnitude while codeword BERs stay flat.
FIG1_MEAN_WINDOW = (0.9e-2, 1.8e-2)
FIG1_MIN_SPREAD = 3.0
HOMOGENEITY_ALPHA = 0.01
SIGMA_LIMIT = 4.0
# Hand derivation for n=2, information set {0}, BSC(1/10): u0 is decided
# as y0 + y1, wrong when exactly one of the two symbols flips, so
# SER_0 = 2 * (1/10) * (9/10) = 9/50; x1 = u1 is frozen, so SER_1 = 0.
COUNTEREXAMPLE_SER = (Fraction(9, 50), Fraction(0))


def chi2_pvalue(counts, trials):
    """Pearson homogeneity p-value of per-position error proportions.

    Computed here with ``scipy.special.chdtrc`` rather than through
    ``qpolar.sim.chi2_homogeneity``, so the check does not trust the code
    it checks.
    """
    from scipy.special import chdtrc

    c = np.asarray(counts, dtype=float)
    p = c.sum() / (len(c) * trials)
    if p <= 0 or p >= 1:
        return 1.0
    stat = float(((c - c.mean()) ** 2).sum() / (trials * p * (1 - p)))
    return float(chdtrc(len(c) - 1, stat))


def homogeneous(counts, trials, alpha=HOMOGENEITY_ALPHA):
    """The theorem: every codeword position shows the same error rate."""
    p = chi2_pvalue(counts, trials)
    return p >= alpha, f"chi-square p={p:.4g} (need >= {alpha})"


def frozen_clean(message_errors, frozen_set):
    """A frozen position is decoded to its known value, so it never errs."""
    bad = [i for i in frozen_set if message_errors[i]]
    return not bad, f"frozen positions with errors: {bad[:8]}" if bad else "none"


def mean_rate_in_window(counts, trials, window=FIG1_MEAN_WINDOW):
    """Mean per-position error rate inside the level the paper's figure shows."""
    mean = sum(int(c) for c in counts) / (len(counts) * trials)
    lo, hi = window
    return lo <= mean <= hi, f"mean rate {mean:.4e} (need [{lo:.2e}, {hi:.2e}])"


def rates_spread(counts, positions, min_ratio=FIG1_MIN_SPREAD):
    """Message error rates differ strongly across information positions."""
    vals = [int(counts[i]) for i in positions]
    hi, lo = max(vals), min(vals)
    if hi == 0:
        return False, "no message errors at all"
    ratio = math.inf if lo == 0 else hi / lo
    return ratio > min_ratio, f"max/min {ratio:.3g} (need > {min_ratio})"


def tallies_additive(whole, parts):
    """Tallies over one range equal the sum of tallies over its split ranges."""
    total = [np.sum([np.asarray(p[k]) for p in parts], axis=0) for k in range(len(whole))]
    ok = all(np.array_equal(np.asarray(w), t) for w, t in zip(whole, total))
    return ok, "identical" if ok else "split tallies differ from the whole range"


def within_sigma(errors, trials, exact, limit=SIGMA_LIMIT):
    """Monte Carlo counts agree with exact rates within ``limit`` binomial sigmas.

    The sigma comes from the exact rate, so an estimate of 0 cannot hide a
    positive truth.
    """
    worst = 0.0
    for e, x in zip(errors, exact):
        x = float(x)
        est = int(e) / trials
        if x <= 0.0 or x >= 1.0:
            dev = 0.0 if est == x else math.inf
        else:
            dev = abs(est - x) / math.sqrt(x * (1 - x) / trials)
        worst = max(worst, dev)
    return worst <= limit, f"max deviation {worst:.2f} sigma (need <= {limit})"


def equal_ser_verdict(ok, detail, k):
    """``check_equal_ser`` holds, and its common SER is 0 exactly when k = 0.

    With no information position nothing can be decoded wrongly; with one,
    every channel used here (crossover or erasure probability > 0) makes
    errors with positive probability.
    """
    if not ok:
        return False, f"unequal SER: {detail}"
    ser = detail["ser"]
    if (ser == 0) != (k == 0) or not 0 <= ser < 1:
        return False, f"common SER {ser} impossible for k={k}"
    return True, f"SER {ser}"


def distributions_match(rec, defi):
    """Recursive and definitional decoders agree; masses sum to exactly 1."""
    if sum(rec.values()) != 1:
        return False, f"masses sum to {sum(rec.values())}"
    return rec == defi, "identical" if rec == defi else "decode distributions differ"


def counterexample(per_index):
    """The non-decreasing n=2 code matches the hand-derived SER vector."""
    got = tuple(per_index)
    return got == COUNTEREXAMPLE_SER, f"SER vector {[str(v) for v in got]}"
