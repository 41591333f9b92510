"""Counter-based random streams for split-invariant Monte Carlo runs.

Every draw is a pure function of ``(seed, trial, slot)``: a splitmix64-style
finalizer hashes the trial index into a per-trial key and the slot index
into the final 64-bit word.  Trials can therefore be processed in any batch
size and split into any number of ranges without changing a single draw.

Slot layout is owned by the caller; by convention the decoding loops use
slots [0, n) for channel noise, [n, 2n) for tie draws (slot n + i resolves
the tie at position i and is drawn for the tied trials only), and [2n, 3n)
for random message symbols.  Draws come slot-major, one row per slot, the
layout the batch decoder works in.  ``decode --tie random`` reads trial 0's tie
slots.  ``verify --samples N`` turns the noise and message slots of trials [0, N)
into symbols uniform over Y and over F_q (``_pick``): its outputs are not drawn
through the channel, and its messages are random at frozen positions too.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .gf import _integer

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _mix64(z):
    # wraparound modulo 2^64 is the whole point here
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.uint64)
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def checked_seed(seed):
    """``seed`` as an int in [0, 2^64): the package's one seed rule."""
    # reducing any other seed to a 64-bit word would run another seed's draws
    refusal = f"seed must be an integer in [0, 2^64), got {seed!r}"
    if not 0 <= (seed := _integer(seed, "seed", refusal)) < 1 << 64:
        raise ValueError(refusal)
    return seed


def _pick(u, s):
    """The index in [0, s) that uniforms u in [0, 1) pick among s choices,
    min(floor(u * s), s - 1): the package's one pick rule."""
    return np.minimum((u * s).astype(np.intp), s - 1)


def uniforms(seed, trials, slots):
    """(len(slots), len(trials)) float64 array of draws in the open (0, 1)."""
    # 0-d arrays keep the wraparound arithmetic silent (numpy warns on
    # overflowing scalar ops but not on array ops)
    seed = np.asarray(checked_seed(seed), dtype=np.uint64)
    t = np.asarray(trials, dtype=np.uint64).reshape(1, -1)
    s = np.asarray(slots, dtype=np.uint64).reshape(-1, 1)
    with np.errstate(over="ignore"):
        key = _mix64(seed + _GOLDEN)
        per_trial = _mix64(key + _GOLDEN * (t + np.uint64(1)))
        word = _mix64(per_trial + _GOLDEN * (s + np.uint64(1)))
    return _unit(word)


def _unit(word):
    """Floats in the open (0, 1) from the top 53 bits of uint64 words.

    ``(w + 0.5) * 2^-53`` rounds to exactly 1.0 at the top word
    w = 2^53 - 1, so that one value is clamped to the largest float below
    1; every other word keeps its value.
    """
    u = ((word >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u)


def normals(seed, trials, slots):
    """Standard normal draws via the inverse CDF, same indexing as uniforms."""
    return ndtri(uniforms(seed, trials, slots))
