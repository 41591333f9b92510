"""Shared trial loop for every Monte Carlo path (estimator, genie, harness).

One trial = sample a message (all-zero unless ``random_message``), push its
codeword through the channel, SC-decode, and tally per-index symbol errors.
All randomness is drawn from the counter streams in :mod:`qpolar.rng`, so
tallies depend only on ``(seed, trial index)`` and neither the split of
the trials into ranges nor the batch size can change them.  Every per-slot
array of a batch, from the draws to the decisions, is slot-major (n, B),
the layout the decoder works in.
"""

from __future__ import annotations

import numpy as np

from . import rng
from .code import polar_transform_indices
from .gf import _count, _integer
from .sc import PairTables, _check_field, sc_decode_batch

# Blocks per decoder call; tallies do not depend on it.  With the
# block-innermost decoder, 4,096 blocks decode at least as fast per block
# as 16,384 (16,384 blocks, Xeon host, numpy 2.4: 0.56-0.67 s against
# 0.61-0.75 s at q=2, n=256 AWGN; 1.6-1.7 s against 2.1-2.4 s at q=16,
# n=64 QSC) in a quarter of the memory (tracemalloc peak of a two-batch
# call: 41 against 164 MiB at q=2, 42 against 165 MiB at q=16).
DEFAULT_BATCH = 1 << 12


def decode_tallies(code, ch, seed, start, stop, batch=DEFAULT_BATCH,
                   genie=False, random_message=False):
    """Per-index error counts over trials [start, stop).

    Returns ``(message_errors, codeword_errors, trials)`` as int64 arrays of
    length n.  In genie mode the decoder propagates the true symbols, the
    message tally counts raw per-position decision errors, and the codeword
    tally is identically zero.

    A finite channel's decoder starts from output-pair tables (built once per
    call, :class:`~qpolar.sc.PairTables`) where their |Y|^2 q keys are no more
    than one batch's (n/2) B level-1 messages, and from likelihoods otherwise.
    Batch arrays die after their last read: the draws, outputs and likelihoods
    or level-1 keys are temporaries that the next stage consumes, and a
    batch's messages, decisions and codewords are dropped before the next draw.
    """
    start, stop = _integer(start, "start"), _integer(stop, "stop")
    if not 0 <= start <= stop:
        raise ValueError(f"trials [{start!r}, {stop!r}) are not a range of indices >= 0")
    # a negative batch would count every trial error-free
    _count(batch, "batch")
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
    draw = rng.uniforms if ch.is_finite else rng.normals
    front = ch.likelihood_batch
    if ch.is_finite and n >= 2 and ch.num_outputs ** 2 * q <= n // 2 * min(batch, stop - start):
        front = PairTables(ch).outputs
    for lo in range(start, stop, batch):
        hi = min(lo + batch, stop)
        t_idx = np.arange(lo, hi, dtype=np.uint64)
        b = hi - lo
        if random_message:
            u = np.minimum((rng.uniforms(seed, t_idx, message_slots) * q).astype(np.intp), q - 1)
            u[list(code.frozen_set)] = code.frozen_index_array[list(code.frozen_set), None]
            x = polar_transform_indices(field, u.T).T
        else:
            u = np.broadcast_to(u_row[:, None], (n, b))
            x = np.broadcast_to(x_row[:, None], (n, b))
        decisions, x_hat = sc_decode_batch(
            code, front(ch.sample_batch(x, draw(seed, t_idx, channel_slots))),
            lambda i, cols: rng.uniforms(seed, t_idx[cols], [n + i])[0],
            force=u if genie else None)
        msg_err += (decisions != u).sum(axis=1)
        if not genie:
            cw_err += (x_hat != x).sum(axis=1)
        del decisions, x_hat, u, x  # freed before the next batch is drawn
    return msg_err, cw_err, stop - start
