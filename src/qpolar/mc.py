"""Shared trial loop for every Monte Carlo path (estimator, genie, harness).

One trial = sample a message (all-zero unless ``random_message``), push its
codeword through the channel, SC-decode, and tally per-index symbol errors.
All randomness is drawn from the counter streams in :mod:`qpolar.rng`, so
tallies depend only on ``(seed, trial index)`` and shard or batch layout
cannot change them.  Every per-slot array of a batch, from the draws to the
decisions, is slot-major (n, B), the layout the decoder works in.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .code import polar_transform_indices
from .sc import _check_field, sc_decode_batch

# Blocks per decoder call; tallies do not depend on it.  With the
# block-innermost decoder, 4,096 blocks decode at least as fast per block
# as 16,384 (16,384 blocks, Xeon host, numpy 2.4: 0.56-0.67 s against
# 0.61-0.75 s at q=2, n=256 AWGN; 2.6-2.8 s against 3.2-3.8 s at q=16,
# n=64 QSC), and the peak memory of a 16,384-block run falls from 494 to
# 221 MiB at q=2 and from 679 to 250 MiB at q=16.
DEFAULT_BATCH = 1 << 12


def decode_tallies(code, ch, seed, start, stop, batch=DEFAULT_BATCH,
                   genie=False, random_message=False):
    """Per-index error counts over trials [start, stop).

    Returns ``(message_errors, codeword_errors, trials)`` as int64 arrays of
    length n.  In genie mode the decoder propagates the true symbols, the
    message tally counts raw per-position decision errors, and the codeword
    tally is identically zero.
    """
    if not 0 <= start <= stop:
        raise ValueError(f"trials [{start!r}, {stop!r}) are not a range of indices >= 0")
    # a negative batch would count every trial error-free; a bool is an int
    if isinstance(batch, bool) or not isinstance(batch, (int, np.integer)) or batch < 1:
        raise ValueError(f"batch must be a positive integer, got {batch!r}")
    field = code.field
    _check_field(field, ch)
    n = code.n
    q = field.q
    msg_err = np.zeros(n, dtype=np.int64)
    cw_err = np.zeros(n, dtype=np.int64)
    channel_slots = np.arange(n)
    message_slots = np.arange(2 * n, 3 * n)
    if not random_message:
        u_row = code.frozen_index_array
        x_row = polar_transform_indices(field, u_row)
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        t_idx = np.arange(lo, hi, dtype=np.uint64)
        b = hi - lo
        if random_message:
            mu = rng.uniforms(seed, t_idx, message_slots)
            u = np.minimum((mu * q).astype(np.intp), q - 1)
            u[list(code.frozen_set)] = code.frozen_index_array[list(code.frozen_set), None]
            x = polar_transform_indices(field, u.T).T
        else:
            u = np.broadcast_to(u_row[:, None], (n, b))
            x = np.broadcast_to(x_row[:, None], (n, b))
        if ch.is_finite:
            noise = rng.uniforms(seed, t_idx, channel_slots)
        else:
            noise = rng.normals(seed, t_idx, channel_slots)
        y = ch.sample_batch(x, noise)
        likes = ch.likelihood_batch(y)
        decisions, x_hat = sc_decode_batch(
            code, likes, lambda i, cols: rng.uniforms(seed, t_idx[cols], [n + i])[0],
            force=u if genie else None)
        msg_err += (decisions != u).sum(axis=1)
        if not genie:
            cw_err += (x_hat != x).sum(axis=1)
    return msg_err, cw_err, stop - start
