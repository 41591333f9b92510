"""Shared trial loop for every Monte Carlo path (estimator, genie, harness).

One trial = sample a message (all-zero unless ``random_message``), push its
codeword through the channel, SC-decode, and tally per-index symbol errors.
All randomness is drawn from the counter streams in :mod:`qpolar.rng`, so
tallies depend only on ``(seed, trial index)`` and neither the split of
the trials into ranges nor the batch size can change them; so
:func:`decode_tallies` picks the thread count for every caller by one rule.
Every per-slot array of a batch, from the draws to the decisions, is
slot-major (n, B), the layout the decoder works in.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rng
from .code import polar_transform_indices
from .gf import _count, _flag, _integer
from .sc import PairTables, _awgn_leaves, _check_field, sc_decode_batch

# Blocks in flight per call, across its threads; tallies do not depend on
# it.  4,096 blocks decode as fast per block as 16,384 (16,384 blocks on two
# threads, 2-core Xeon host, numpy 2.4, medians of 10: 0.22 against 0.22 s at
# q=2, n=256 AWGN; 0.73 against 0.74 s at q=16, n=64 QSC) in a quarter of the
# memory (tracemalloc peak of a two-batch call on one thread: 24 against 96
# MiB at q=2, 40 against 158 MiB at q=16).  Jobs of fewer trials, and any at
# n < 64, run on one thread: the threads cost them more than they save (same
# host, BSC(1/10), medians of 8: 0.20 s split against 0.16 s unsplit for 2^18
# trials at n=8, 1.08 against 1.37 s for 2^16 trials at n=256).
DEFAULT_BATCH = 1 << 12


def decode_tallies(code, ch, seed, start, stop, batch=DEFAULT_BATCH,
                   genie=False, random_message=False):
    """Per-index error counts over trials [start, stop).

    Returns ``(message_errors, codeword_errors, trials)`` as int64 arrays of
    length n.  In genie mode the decoder propagates the true symbols, the
    message tally counts raw per-position decision errors, and the codeword
    tally is identically zero.

    A job with n >= 64 and at least ``DEFAULT_BATCH`` trials splits into one
    contiguous range per CPU, each decoded on its own thread (numpy releases
    the interpreter lock inside its array operations); any other job runs on
    the calling thread.  Each thread decodes ``batch // threads`` blocks (at
    least one) per decoder call, so ``batch`` counts the blocks in flight.

    A finite channel's decoder starts from output-pair tables (built once per
    call and shared by the threads, :class:`~qpolar.sc.PairTables`) where
    their |Y|^2 q keys are no more than one batch's (n/2) B level-1
    messages, and from likelihoods otherwise.  The AWGN decoder starts from
    leaf messages (``sc._awgn_leaves``).  Batch arrays die after their last
    read: the draws, outputs and likelihoods, level-1 keys or leaves are
    temporaries that the next stage consumes, and a batch's messages,
    decisions and codewords are dropped before the next draw.
    """
    start, stop = _integer(start, "start"), _integer(stop, "stop")
    if not 0 <= start <= stop:
        raise ValueError(f"trials [{start!r}, {stop!r}) are not a range of indices >= 0")
    # a negative batch would count every trial error-free
    _count(batch, "batch")
    genie, random_message = _flag(genie, "genie"), _flag(random_message, "random_message")
    field = code.field
    _check_field(field, ch)
    n, q = code.n, field.q
    threads = (os.cpu_count() or 1) if n >= 64 and stop - start >= DEFAULT_BATCH else 1
    batch = max(1, batch // threads)
    channel_slots = np.arange(n)
    message_slots = np.arange(2 * n, 3 * n)
    if not random_message:
        u_row = code.frozen_index_array
        x_row = polar_transform_indices(field, u_row)
    draw = rng.uniforms if ch.is_finite else rng.normals
    front = ch.likelihood_batch if ch.is_finite else functools.partial(_awgn_leaves, ch)
    if ch.is_finite and n >= 2 and ch.num_outputs ** 2 * q <= n // 2 * min(batch, stop - start):
        front = PairTables(ch).outputs

    def tally(begin, end):
        msg_err = np.zeros(n, dtype=np.int64)
        cw_err = np.zeros(n, dtype=np.int64)
        for lo in range(begin, end, batch):
            hi = min(lo + batch, end)
            t_idx = np.arange(lo, hi, dtype=np.uint64)
            b = hi - lo
            if random_message:
                u = rng._pick(rng.uniforms(seed, t_idx, message_slots), q)
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
        return msg_err, cw_err

    if threads == 1:
        return (*tally(start, stop), stop - start)
    bounds = [start + (stop - start) * s // threads for s in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(tally, bounds, bounds[1:]))
    msg_err, cw_err = (sum(counts) for counts in zip(*parts))
    return msg_err, cw_err, stop - start
