"""Successive cancellation decoding: one float kernel and one exact kernel.

The definitional form scores each candidate symbol with its synthetic
channel, a direct sum of block transition probabilities over all
completions of the message; it is the referee for small n.  The recursive
form passes length-q likelihood vectors through the minus/plus combining
rules
    minus(t0, t1)[u]    = (1/q) * sum_u1 t0[u + alpha*u1] * t1[u1]
    plus(t0, t1, z)[u]  = (1/q) * t0[z + alpha*u] * t1[u]
splitting on the most significant index bit, decoding the low half against
the minus messages, re-encoding it, and decoding the high half against the
plus messages.  Two kernels run that recursion, and every decoder here is
one of them:

* :func:`sc_decode_batch` (float) decodes a batch of blocks.  It drops the
  1/q constants and scales every message to maximum 1, which also prevents
  underflow at long block lengths.  Entries within relative tolerance
  ``tie_rtol`` of the maximum count as tied.
* :func:`_distribution_indices` (exact) decodes one block on integer
  messages: the channel matrix is scaled by the common denominator D of
  its entries, the 1/q constants are dropped, and every message is divided
  by the gcd of its entries.  That is exact, because both combining rules
  are bilinear and an argmax set, ties included, does not change when a
  vector is scaled by a positive constant.  It works on symbol index
  tuples and memoizes sub-decodes within one :class:`_ExactJob`, which the
  exact oracle shares across the outputs of one computation.  Exact ties
  never depend on a tolerance.

:func:`sc_decode_distribution` branches at every exact tie and returns the
exact rational distribution over decoded codewords.  The point decoder
:func:`sc_decode` runs the exact kernel on finite channels (by default)
and the float kernel on one block otherwise.  Both resolve ties the same
way: a :class:`TieRule` gives one uniform v_i per position, and a tie
among s symbols at position i keeps the k-th tied symbol in index order,
k = min(floor(v_i * s), s - 1).

On channels with zero transition entries a message can be identically
zero (a plus message after a wrong tie guess on an erasure channel).  The
exact kernel then finds all q symbols tied; the float kernel matches that
by turning an all-zero message into all ones instead of dividing 0/0.

The batch decoder keeps its messages in a symbol-major (q, n, B) layout, so
every combining step works on contiguous (n/2, B) slabs.  Its minus sums add
the q products in the order ``np.add.reduce`` uses on a contiguous axis of
length q (numpy's pairwise summation: left to right below 8 terms, eight
interleaved accumulators from 8 to 128 terms, halves above that), so its
decisions are bit-identical to a decoder that reduces over a trailing
symbol axis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_TIE_RTOL = 1e-12
MAX_DEFINITIONAL_N = 16


@dataclass
class TieRule:
    """How argmax ties are resolved in point decoding: one uniform per position.

    A tie among s symbols at position i keeps the k-th tied symbol in index
    order, k = min(floor(v_i * s), s - 1), where v_i is the i-th entry of
    :meth:`uniforms`.  ``mode="lex"`` uses zeros, so it keeps the smallest
    tied index; ``mode="random"`` draws the n uniforms from ``rng``.
    """

    mode: str = "lex"
    rng: object = None

    def uniforms(self, n):
        """(n,) float array of tie uniforms in [0, 1), one per position."""
        if self.mode == "lex":
            return np.zeros(n)
        if self.mode != "random":
            raise ValueError(f"unknown tie mode {self.mode!r}")
        if self.rng is None:
            raise ValueError("random tie resolution needs an rng stream")
        return self.rng.random(n)


def _argmax_set(t):
    """Indices of the maximal entries of an exact vector."""
    mx = max(t)
    return [u for u, v in enumerate(t) if v == mx]


def synthetic_channel(code, ch, y, u_prefix, i):
    """Likelihood vector of the i-th synthetic channel, by direct summation.

    Computes (1/q^{n-1}) * sum over all completions u_{i+1..n-1} of
    W^n(y | u * G_n) for each value of u_i, with the prefix fixed, in exact
    rationals.  The channel must be finite.
    """
    field = code.field
    q = field.q
    n = code.n
    if not ch.is_finite:
        raise ValueError("synthetic channel values require a finite channel")
    if len(u_prefix) != i:
        raise ValueError(f"prefix has length {len(u_prefix)}, expected {i}")
    if n > MAX_DEFINITIONAL_N:
        raise ValueError(f"definitional form capped at n <= {MAX_DEFINITIONAL_N}")
    if len(y) != n:
        raise ValueError(f"output block has length {len(y)}, expected {n}")
    g = code.kron_matrix()
    add, mul = field._add, field._mul
    mat = ch.matrix

    def accumulate(base, row):
        # x(v) = base + v * row, coordinatewise over element indices
        for v in range(q):
            x = base if v == 0 else [add[xj][mul[v][int(rj)]] for xj, rj in zip(base, row)]
            w = Fraction(1)
            for yj, xj in zip(y, x):
                w *= mat[xj][yj]
            likel[v] += w

    likel = [Fraction(0)] * q
    prefix_part = [0] * n
    for j, e in enumerate(u_prefix):
        if e.index:
            row = g[j]
            prefix_part = [add[xj][mul[e.index][int(rj)]] for xj, rj in zip(prefix_part, row)]
    row_i = g[i]
    for comp in itertools.product(range(q), repeat=n - i - 1):
        base = prefix_part
        for off, cj in enumerate(comp):
            if cj:
                row = g[i + 1 + off]
                base = [add[xj][mul[cj][int(rj)]] for xj, rj in zip(base, row)]
        accumulate(base, row_i)
    norm = Fraction(1, q ** (n - 1))
    return tuple(v * norm for v in likel)


def sc_decode(code, ch, y, tie=None, exact=None, tie_rtol=DEFAULT_TIE_RTOL):
    """Decode one received block; returns (message, codeword) element tuples.

    Frozen positions are forced to their frozen values; information
    positions take the likelihood argmax with ties resolved by ``tie``
    (lexicographic by default).  ``exact`` defaults to the exact integer
    kernel on finite channels; otherwise the float batch kernel decodes
    the block alone.
    """
    if tie is None:
        tie = TieRule("lex")
    elif isinstance(tie, str):
        tie = TieRule(tie)
    if exact is None:
        exact = ch.is_finite
    elems = code.field.elements
    uniforms = tie.uniforms(code.n)
    if exact:
        if not ch.is_finite:
            raise ValueError("exact decoding requires a finite channel")
        job = _ExactJob(code, ch, tie_uniforms=uniforms)
        (x,) = _distribution_indices(job.messages(y), 0, job)
        u = _inverse_transform(code.field, x)
    else:
        T = ch.likelihood_batch(np.asarray(y))[None]
        decisions, codewords = sc_decode_batch(code, T, uniforms[None], tie_rtol)
        u, x = decisions[0], codewords[0]
    return tuple(elems[i] for i in u), tuple(elems[i] for i in x)


def _inverse_transform(field, x):
    """Message indices u with u * G_n = x: the kernel's inverse is
    [[1, 0], [-alpha, 1]], so u_lo = x'_lo - alpha * x'_hi for the inverted
    halves x'."""
    if len(x) == 1:
        return tuple(x)
    half = len(x) // 2
    lo = _inverse_transform(field, x[:half])
    hi = _inverse_transform(field, x[half:])
    add, row = field._add, field._mul[(-field.alpha).index]
    return tuple(add[a][row[b]] for a, b in zip(lo, hi)) + hi


def sc_decode_distribution(code, ch, y, method="recursive", job=None):
    """Exact distribution over decoded codewords, branching at every tie.

    ``method="recursive"`` follows the minus/plus message recursion;
    ``method="definitional"`` scores every position with
    :func:`synthetic_channel` directly.  Both return a dict mapping
    codeword tuples to exact rational masses summing to 1.

    Callers that decode many outputs of one code and channel pass ``job``,
    an :class:`_ExactJob` of that code and channel: the recursive call then
    shares the job's integer tables and sub-decode memo and returns the
    index distribution of :func:`_distribution_indices` as it is (index
    tuple keys, int or Fraction masses), without building field elements.
    """
    if not ch.is_finite:
        raise ValueError("exact decode distributions require a finite channel")
    if code.n > MAX_DEFINITIONAL_N:
        raise ValueError(f"decode distributions capped at n <= {MAX_DEFINITIONAL_N}")
    field = code.field
    elems = field.elements

    if method == "definitional":
        from .code import polar_transform

        branches = {(): Fraction(1)}
        for i in range(code.n):
            nxt = {}
            if code.is_info(i):
                for prefix, p in branches.items():
                    t = synthetic_channel(code, ch, y, prefix, i)
                    cands = _argmax_set(t)
                    share = p / len(cands)
                    for u in cands:
                        key = prefix + (elems[u],)
                        nxt[key] = nxt.get(key, Fraction(0)) + share
            else:
                v = code.frozen_value(i)
                for prefix, p in branches.items():
                    nxt[prefix + (v,)] = p
            branches = nxt
        out = {}
        for u, p in branches.items():
            x = polar_transform(field, u)
            out[x] = out.get(x, Fraction(0)) + p
        return out

    if method != "recursive":
        raise ValueError(f"unknown method {method!r}")
    if job is not None:
        return _distribution_indices(job.messages(y), 0, job)
    job = _ExactJob(code, ch)
    dist = _distribution_indices(job.messages(y), 0, job)
    return {tuple(elems[i] for i in x): Fraction(p) for x, p in dist.items()}


class _ExactJob:
    """Integer channel, code tables and sub-decode memo of one exact computation.

    ``rows[x][y]`` is D * W(y | x) for the common denominator D of the
    channel matrix, ``leaves[y]`` the column of output y divided by its
    gcd.  The memo maps (message tuple, lo) to the index distribution of
    a sub-decode shorter than the block; it lives as long as the job.

    A point decode passes ``tie_uniforms``, one per position: a tie then
    keeps one candidate (the :class:`TieRule` pick) instead of branching.
    The pick depends only on (message, lo), so the memo stays valid.
    """

    def __init__(self, code, ch, tie_uniforms=None):
        field = code.field
        q = field.q
        add, mul, a = field._add, field._mul, field.alpha.index
        # aff[z][u] = index of z + alpha*u; the minus rule reads row u over
        # u1, the plus rule row z, and re-encoding entry [z_lo][z_hi]
        self.aff = tuple(tuple(add[z][mul[a][u]] for u in range(q)) for z in range(q))
        self.n = code.n
        # plain tuples: reading numpy scalars in the recursion is slower
        self.info = tuple(code.is_info(i) for i in range(code.n))
        self.frozen = tuple(int(v) for v in code.frozen_index_array)
        self.denominator = math.lcm(*(v.denominator for row in ch.matrix for v in row))
        self.rows = tuple(tuple(v.numerator * (self.denominator // v.denominator) for v in row)
                          for row in ch.matrix)
        self.leaves = tuple(_reduced(col) for col in zip(*self.rows))
        self.tie_uniforms = tie_uniforms
        self.memo = {}

    def messages(self, y):
        """Leaf messages of an output block, checked for length and range."""
        if len(y) != self.n:
            raise ValueError(f"output block has length {len(y)}, expected {self.n}")
        ny = len(self.leaves)
        for v in y:
            if not 0 <= v < ny:
                raise ValueError(f"output index {v} outside alphabet of size {ny}")
        return tuple(self.leaves[v] for v in y)


def _reduced(t):
    """An integer message divided by the gcd of its entries (zero stays zero)."""
    g = math.gcd(*t)
    return t if g <= 1 else tuple(v // g for v in t)


def _distribution_indices(msgs, lo, job):
    """Exact SC decode distribution of positions [lo, lo + len(msgs)).

    ``msgs`` holds one integer message per position.  Returns a dict from
    codeword index tuples to masses: int 1 for a branch no tie split,
    otherwise the Fraction 1 / (product of the tie sizes).  With the job's
    ``tie_uniforms`` set, no tie splits a branch and the dict has one key.  The result may
    be shared through the memo, so callers must not mutate it.
    """
    span = len(msgs)
    if span == 1:
        if not job.info[lo]:
            return {(job.frozen[lo],): 1}
        t = msgs[0]
        mx = max(t)
        cands = [u for u, v in enumerate(t) if v == mx]
        s = len(cands)
        if s == 1:
            return {(cands[0],): 1}
        if job.tie_uniforms is not None:
            return {(cands[min(int(job.tie_uniforms[lo] * s), s - 1)],): 1}
        share = Fraction(1, s)
        return {(u,): share for u in cands}
    # whole blocks are not memoized: distinct outputs rarely share them
    key = (msgs, lo)
    memoize = span < job.n
    if memoize and key in job.memo:
        return job.memo[key]
    half = span // 2
    aff = job.aff
    lows, highs = msgs[:half], msgs[half:]
    tm = tuple(_reduced(tuple(sum(t0[i] * v for i, v in zip(row, t1)) for row in aff))
               for t0, t1 in zip(lows, highs))
    out = {}
    for z_lo, p_lo in _distribution_indices(tm, lo, job).items():
        tp = tuple(_reduced(tuple(t0[i] * v for i, v in zip(aff[z], t1)))
                   for t0, t1, z in zip(lows, highs, z_lo))
        for z_hi, p_hi in _distribution_indices(tp, lo + half, job).items():
            # (z_lo, z_hi) -> x is one to one, so no two branches share a key
            out[tuple(aff[a][b] for a, b in zip(z_lo, z_hi)) + z_hi] = p_lo * p_hi
    if memoize:
        job.memo[key] = out
    return out


def sc_decode_batch(code, T, tie_uniforms, tie_rtol=DEFAULT_TIE_RTOL, force=None):
    """Vectorized floating-point SC decoding of a batch of received blocks.

    Parameters
    ----------
    T : (B, n, q) float array
        Leaf likelihood vectors (any positive scaling per position).
    tie_uniforms : (B, n) float array
        One uniform draw per (block, position); the draw at position i
        resolves the tie there, if any.
    force : optional (n,) or (B, n) int array
        Genie mode: propagate these true symbol indices instead of the
        decisions.  Decisions are still recorded and returned.

    Returns
    -------
    (decisions, codeword) : int index arrays of shape (B, n)
        ``codeword`` is the transform of whatever was propagated.

    Internally the messages are transposed once to a (q, n, B) array:
    block-innermost, so the minus rule is q * q multiply-adds over
    contiguous (n/2, B) slabs summed in ``np.add.reduce`` order (see the
    module docstring), each maximum over the symbol axis is q - 1
    ``np.maximum`` calls, and the plus rule is one gather along axis 0
    (a select at q = 2).
    Every message is scaled to maximum 1; an all-zero message (a leaf or
    plus message on a channel with zero transition entries) becomes all
    ones, so every symbol ties.  The recursion runs under
    ``np.errstate(invalid="raise", divide="raise")``: no NaN or inf can
    reach a decision.
    """
    field = code.field
    n = code.n
    B, nt, q = T.shape
    if nt != n or q != field.q:
        raise ValueError(f"likelihood array shape {T.shape} does not match (B, {n}, {field.q})")
    if force is not None:
        force = np.broadcast_to(np.asarray(force, dtype=np.intp), (B, n)).T
    job = _BatchJob(code, np.asarray(tie_uniforms).T, tie_rtol, force)
    with np.errstate(invalid="raise", divide="raise"):
        tb = np.empty((q, n, B))
        np.copyto(tb, T.transpose(2, 1, 0))
        _normalize(tb)
        x = _decode_span(tb, 0, job)
    return job.decisions.T, x.T


class _BatchJob:
    """Per-call constants and the decision array of one batch decode."""

    def __init__(self, code, tie_uniforms, tie_rtol, force):
        field = code.field
        self.add = field.add_table
        self.mul_alpha = field.alpha_mul_table
        # aff[z, u] = index of z + alpha*u; serves both combining rules
        self.aff = self.add[:, self.mul_alpha]
        # over F_2, z + alpha*u = z xor u, so both combining rules and the
        # re-encoding need no table lookups: a select and a xor are faster
        self.binary = field.q == 2
        self.info_mask = code.info_mask
        self.frozen_idx = code.frozen_index_array
        self.tie_uniforms = tie_uniforms
        self.tie_rtol = tie_rtol
        self.force = force
        self.decisions = np.empty((code.n, tie_uniforms.shape[1]), dtype=np.intp)


def _decode_span(tb, lo, job):
    """Decode positions [lo, lo + span) from (q, span, B) messages; returns
    the (span, B) transform of the propagated symbols."""
    span = tb.shape[1]
    if span == 1:
        m = tb[:, 0]
        if job.info_mask[lo]:
            tied = m >= _symbol_max(m) * (1.0 - job.tie_rtol)
            s = tied.sum(axis=0)
            k = np.minimum((job.tie_uniforms[lo] * s).astype(np.intp), s - 1)
            u = np.argmax(np.cumsum(tied, axis=0) == k + 1, axis=0)
        else:
            u = np.full(m.shape[1], job.frozen_idx[lo], dtype=np.intp)
        job.decisions[lo] = u
        if job.force is not None:
            u = job.force[lo]
        return u[None, :]
    half = span // 2
    t0 = tb[:, :half]
    t1 = tb[:, half:]
    tm = _minus(t0, t1, job.aff)
    _normalize(tm)
    xl = _decode_span(tm, lo, job)
    del tm  # freed before the plus messages are built
    if job.binary:
        tp = np.where(xl.astype(bool), t0[::-1], t0)
    else:
        # built row by row: a fancy index with a leading slice would lay
        # the symbol axis innermost in memory, and so would the gather
        idx = np.empty(t0.shape, dtype=np.intp)
        for u, col in enumerate(job.aff.T):
            np.take(col, xl, out=idx[u])
        tp = np.take_along_axis(t0, idx, axis=0)
    tp *= t1
    _normalize(tp)
    xh = _decode_span(tp, lo + half, job)
    x_lo = xl ^ xh if job.binary else job.add[xl, job.mul_alpha[xh]]
    return np.concatenate([x_lo, xh], axis=0)


def _symbol_max(t):
    """Maximum over axis 0 by q - 1 elementwise maxima."""
    mx = np.maximum(t[0], t[1])
    for row in t[2:]:
        np.maximum(mx, row, out=mx)
    return mx


def _normalize(t):
    """Scale each message (axis 0) in place to maximum 1; an all-zero
    message becomes all ones."""
    mx = _symbol_max(t)
    if not mx.all():
        zero = mx == 0
        t[:, zero] = 1.0
        mx[zero] = 1.0
    t /= mx


def _minus(t0, t1, aff):
    """minus[u] = sum_u1 t0[aff[u, u1]] * t1[u1] over (q, h, B) messages."""
    q = len(t0)
    out = np.empty_like(t0)
    tmp = np.empty_like(t0[0])
    acc = np.empty((8,) + tmp.shape) if q >= 8 else None
    for u in range(q):
        _sum_products(t0, t1, aff[u], 0, q, out[u], tmp, acc)
    return out


def _sum_products(t0, t1, row, start, count, out, tmp, acc):
    """Write the sum of t0[row[i]] * t1[i], i in [start, start + count), to
    ``out`` in numpy's pairwise order for a contiguous run of that length;
    ``tmp`` and the eight accumulators ``acc`` are scratch."""
    if count < 8:
        np.multiply(t0[row[start]], t1[start], out=out)
        for i in range(start + 1, start + count):
            np.multiply(t0[row[i]], t1[i], out=tmp)
            out += tmp
    elif count <= 128:
        stop = start + count - count % 8
        for i in range(start, start + 8):
            np.multiply(t0[row[i]], t1[i], out=acc[i - start])
        for i in range(start + 8, stop):
            np.multiply(t0[row[i]], t1[i], out=tmp)
            acc[(i - start) % 8] += tmp
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6)):
            acc[a] += acc[b]
        np.add(acc[0], acc[4], out=out)
        for i in range(stop, start + count):
            np.multiply(t0[row[i]], t1[i], out=tmp)
            out += tmp
    else:
        half = count // 2
        half -= half % 8
        _sum_products(t0, t1, row, start, half, out, tmp, acc)
        rest = np.empty_like(out)
        _sum_products(t0, t1, row, start + half, count - half, rest, tmp, acc)
        out += rest
