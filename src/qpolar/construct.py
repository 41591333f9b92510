"""Information-set construction.

The decoder and the equal-SER machinery assume the information set is
given; this module produces one.  Reliability estimates come either from
the exact erasure recursion (z -> 2z - z^2 on the check branch, z -> z^2 on
the variable branch, most significant bit first) or from genie-aided Monte
Carlo decoding.  Selection is greedy by estimated reliability but only ever
adds an index together with all indices dominating it, so the result is
closed upward under domination by construction; when that forces a
departure from the naive top-k choice, the swapped-in indices are reported
in a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .code import PolarCode, check_condition_A
from .gf import _count, _integer
from .mc import decode_tallies
from .rng import checked_seed
from .sc import _check_field


@dataclass
class GenieMC:
    trials: int
    seed: int

    def __post_init__(self):
        self.trials, self.seed = _count(self.trials, "trials"), checked_seed(self.seed)


@dataclass
class Manual:
    info_set: tuple

    def __post_init__(self):
        self.info_set = tuple(sorted(_integer(i, "information index") for i in self.info_set))


def _erasure_numerators(m, num, den):
    """Erasure probabilities of all 2^m indices as numerators over den^(2^m).

    For epsilon = num/den, level by level, most significant bit first:
    z = N/D has the children (2*N*D - N^2)/D^2 (bit 0) and N^2/D^2 (bit 1).
    Integers over one common denominator rank like the exact values, with
    no Fraction arithmetic.
    """
    nums = [num]
    for _ in range(m):
        nums = [v for z in nums for v in (2 * z * den - z * z, z * z)]
        den *= den
    return nums


def _select_decreasing(estimates, k, m):
    """k indices with smallest estimates whose set is upward closed.

    Ties prefer the larger index.  Returns the set and the indices that
    displaced naive top-k picks.  ``selected`` stays upward closed, so
    one-bit supersets tell what an index still needs.  The pass always ends
    with k indices: an index left out whose dominating indices all got in
    was turned down only because it and they overfilled the set.
    """
    n = 1 << m
    order = sorted(range(n), key=lambda i: (estimates[i], -i))
    naive = set(order[:k])
    selected = set()
    for i in order:
        if len(selected) >= k:
            break
        if i in selected:
            continue
        # i and the dominating indices it still needs, while they fit
        need, stack = {i}, [i]
        while stack and len(selected) + len(need) <= k:
            d = stack.pop()
            for e in (d | 1 << r for r in range(m)):
                if e not in selected and e not in need:
                    need.add(e)
                    stack.append(e)
        if len(selected) + len(need) <= k:
            selected.update(need)
    swapped = sorted(selected - naive)
    return tuple(sorted(selected)), swapped


def genie_mc_rank(field, m, ch, trials, seed):
    """Per-index genie-aided decision error frequencies.

    Decodes the all-zero transmission with every earlier position fed its
    true value, counting raw argmax errors per position.  Deterministic
    given the seed.
    """
    trials = _count(trials, "trials")
    probe = PolarCode(field, m, range(1 << m))
    msg_err, _, _ = decode_tallies(probe, ch, seed, 0, trials, genie=True)
    return tuple(int(e) / trials for e in msg_err)


def construct_info_set(field, m, k, ch, method=None):
    """Choose k information indices for length 2^m over the given channel.

    The returned set always satisfies the upward-closure condition.
    ``method`` None is the exact erasure ranking, for erasure and symmetric
    channels only (using epsilon as an erasure proxy for the latter);
    :class:`GenieMC` ranks by genie-aided Monte Carlo on any channel.
    """
    m, k = _integer(m, "m"), _integer(k, "k")
    n = 1 << m
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]")
    _check_field(field, ch)

    if isinstance(method, Manual):
        a = method.info_set
        if len(a) != k:
            raise ValueError(f"manual set has {len(a)} indices, expected {k}")
        ok, witness = check_condition_A(a, m)
        if not ok:
            raise ValueError(
                f"manual set violates upward closure: {witness[0]} is in but "
                f"dominating {witness[1]} is not")
        return a

    if method is None:
        if ch.kind not in ("qsc", "qec"):
            raise ValueError(f"the erasure ranking needs a qsc or qec channel, not {ch.kind!r}; "
                             "give GenieMC(trials, seed) for AWGN, or Manual(info_set)")
        eps = ch.params["epsilon"]
        estimates = _erasure_numerators(m, eps.numerator, eps.denominator)
    elif isinstance(method, GenieMC):
        estimates = genie_mc_rank(field, m, ch, method.trials, method.seed)
    else:
        raise ValueError(f"unknown construction method {method!r}")

    info, swapped = _select_decreasing(estimates, k, m)
    if swapped:
        warnings.warn(
            f"upward-closure repair swapped in indices {swapped}", stacklevel=2)
    ok, witness = check_condition_A(info, m)
    assert ok, f"internal error: construction produced a non-closed set, witness {witness}"
    return info
