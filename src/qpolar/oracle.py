"""Exhaustive exact-rational error rates for small polar code instances.

:func:`exact_ser` (one message) and :func:`exact_average_ser` sum over
every output vector y in Y^n that has mass under the transmitted
codeword, so results are exact and can certify exact-equality claims.
Outputs with W^n(y | x) = 0 contribute nothing and are never visited: the
walk takes, at each position j, only the outputs with W(y_j | x_j) != 0,
in lexicographic order.  Weights are integers over D^n, where D is the
common denominator of the channel matrix, and each total is divided by
D^n once at the end.  The cap on |Y|^n still applies to the whole output
space.  The Monte Carlo estimator lives here too so its reports can be
checked against the exact values in one place.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .code import polar_transform
from .gf import _integer
from .mc import decode_tallies
from .sc import _ExactJob, sc_decode_distribution

MAX_ENUMERATION = 10**6


@dataclass
class SerReport:
    """Per-codeword-index symbol error rates.

    Exact reports (``trials`` None) hold Fractions in ``per_index`` and are
    the only ones written as JSON.  Monte Carlo reports (from
    :func:`mc_ser`) hold float estimates, the trial count and the raw error
    counts.
    """

    per_index: tuple
    trials: int | None = None
    errors: tuple | None = None

    def to_json(self):
        if self.trials is not None:
            raise ValueError("only exact SER reports have a JSON form")
        return {"mode": "exact",
                "per_index": [f"{v.numerator}/{v.denominator}" for v in self.per_index]}


def _check_enumeration_cap(ch, n):
    if not ch.is_finite:
        raise ValueError("exact enumeration requires a finite channel")
    if ch.num_outputs ** n > MAX_ENUMERATION:
        raise ValueError(
            f"|Y|^n = {ch.num_outputs}^{n} exceeds the enumeration cap {MAX_ENUMERATION}")


def _outputs_with_mass(rows, x_idx):
    """Yield (y, w) for every output block with W^n(y | x) != 0.

    ``rows[x][y]`` is D * W(y | x); ``w`` is D^n * W^n(y | x), an int.
    """
    cols = [[(y, w) for y, w in enumerate(rows[x]) if w] for x in x_idx]
    for combo in itertools.product(*cols):
        ys, ws = zip(*combo)
        yield ys, math.prod(ws)


def exact_ser(code, ch, u_full):
    """Exact per-index SER for a specific transmitted message.

    ``u_full`` is the complete length-n message; its values at frozen
    positions become the code's frozen values for this computation, so the
    operation can probe arbitrary (frozen, information) combinations.
    Sub-decodes are memoized for the length of the call.
    """
    _check_enumeration_cap(ch, code.n)
    field = code.field
    n = code.n
    u_full = [field.element(v) for v in u_full]
    if len(u_full) != n:
        raise ValueError(f"message length {len(u_full)} != n = {n}")
    probe = code.with_frozen_values([u_full[i] for i in code.frozen_set])
    x_bar = tuple(e.index for e in polar_transform(field, u_full))
    job = _ExactJob(probe, ch)
    # a branch of weight d has mass 1/d, d a product of at most k tie sizes,
    # each <= q, so d divides tie_scale and every mass stays an int over
    # tie_scale; the mass of each decoded codeword is summed first, then
    # added to every position where it differs from x_bar
    tie_scale = math.lcm(*range(1, field.q + 1)) ** probe.k
    mass = {}
    for y, w in _outputs_with_mass(job.rows, x_bar):
        for x, d in sc_decode_distribution(probe, ch, y, job=job).items():
            mass[x] = mass.get(x, 0) + w * (tie_scale // d)
    totals = [sum(v for x, v in mass.items() if x[j] != x_bar[j]) for j in range(n)]
    scale = job.denominator ** n * tie_scale
    return SerReport(tuple(Fraction(t, scale) for t in totals))


def exact_average_ser(code, ch):
    """Per-index SER averaged over messages.

    Equals the all-zero-message run because the SER of every codeword
    symbol is message independent; the frozen values recorded in the code
    are irrelevant here and are overridden by zeros.
    """
    return exact_ser(code, ch, [code.field.zero] * code.n)


def mc_ser(code, ch, trials, seed):
    """Monte Carlo per-index SER of the all-zero transmission.

    Deterministic given the seed: the codeword tallies of trials
    [0, trials) from :func:`decode_tallies`.
    """
    if (trials := _integer(trials, "trials")) < 1:
        raise ValueError("trials must be >= 1")
    _, cw, _ = decode_tallies(code, ch, seed, 0, trials)
    errors = tuple(int(e) for e in cw)
    return SerReport(tuple(e / trials for e in errors), trials=trials, errors=errors)
