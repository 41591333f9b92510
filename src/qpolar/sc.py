"""Successive cancellation decoding, in two interchangeable forms.

The definitional form scores each candidate symbol with its synthetic
channel, a direct sum of block transition probabilities over all
completions of the message.  The recursive form passes length-q likelihood
vectors through the minus/plus combining rules
    minus(t0, t1)[u]    = (1/q) * sum_u1 t0[u + alpha*u1] * t1[u1]
    plus(t0, t1, z)[u]  = (1/q) * t0[z + alpha*u] * t1[u]
splitting on the most significant index bit, decoding the low half against
the minus messages, re-encoding it, and decoding the high half against the
plus messages.

Exact ties are decoder-level events: when several symbols share the
maximum likelihood the decoder draws uniformly among them, and
:func:`sc_decode_distribution` enumerates those branches into an exact
rational distribution over decoded codewords.  On the exact path the 1/q
normalization constants are carried so messages reproduce the synthetic
channel values literally; the floating path drops them and renormalizes
every message to max 1 instead (argmax decisions are scale invariant, and
the renormalization prevents underflow at long block lengths).  Floating
entries within relative tolerance ``tie_rtol`` of the maximum count as
tied; exact ties never depend on a tolerance.

On channels with zero transition entries a message can be identically
zero (a plus message after a wrong tie guess on an erasure channel).  The
exact path then finds all q symbols tied; the floating paths match that by
renormalizing an all-zero message to all ones instead of dividing 0/0.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

DEFAULT_TIE_RTOL = 1e-12
MAX_DEFINITIONAL_N = 16


@dataclass
class TieRule:
    """How argmax ties are resolved in point decoding.

    ``mode="lex"`` picks the smallest element index; ``mode="random"``
    draws uniformly among the tied symbols (one uniform per tie, in index
    order) from the supplied rng.
    """

    mode: str = "lex"
    rng: object = None

    def pick(self, candidates):
        if len(candidates) == 1 or self.mode == "lex":
            return candidates[0]
        if self.mode != "random":
            raise ValueError(f"unknown tie mode {self.mode!r}")
        if self.rng is None:
            raise ValueError("random tie resolution needs an rng stream")
        k = min(int(self.rng.random() * len(candidates)), len(candidates) - 1)
        return candidates[k]


def _is_exact(t):
    return not isinstance(t[0], float)


def _argmax_set(t, tie_rtol=DEFAULT_TIE_RTOL):
    """Indices of maximal entries; tolerance applies on the floating path only."""
    mx = max(t)
    if _is_exact(t):
        return [u for u, v in enumerate(t) if v == mx]
    thresh = mx - abs(mx) * tie_rtol
    return [u for u, v in enumerate(t) if v >= thresh]


def combine_minus(t0, t1, alpha):
    """Check-side combination of two likelihood vectors."""
    field = alpha.field
    q = field.q
    add, mul, a = field._add, field._mul, alpha.index
    out = []
    for u in range(q):
        acc = sum(t0[add[u][mul[a][u1]]] * t1[u1] for u1 in range(q))
        out.append(acc)
    if _is_exact(t0):
        inv_q = Fraction(1, q)
        out = [v * inv_q for v in out]
    return tuple(out)


def combine_plus(t0, t1, u0, alpha):
    """Variable-side combination given the decoded partner symbol u0."""
    field = alpha.field
    q = field.q
    add, mul, a = field._add, field._mul, alpha.index
    z = u0.index
    out = [t0[add[z][mul[a][u]]] * t1[u] for u in range(q)]
    if _is_exact(t0):
        inv_q = Fraction(1, q)
        out = [v * inv_q for v in out]
    return tuple(out)


def synthetic_channel(code, ch, y, u_prefix, i):
    """Likelihood vector of the i-th synthetic channel, by direct summation.

    Computes (1/q^{n-1}) * sum over all completions u_{i+1..n-1} of
    W^n(y | u * G_n) for each value of u_i, with the prefix fixed.  Exact
    rationals on finite channels; density products on continuous ones.
    """
    field = code.field
    q = field.q
    n = code.n
    if len(u_prefix) != i:
        raise ValueError(f"prefix has length {len(u_prefix)}, expected {i}")
    if n > MAX_DEFINITIONAL_N:
        raise ValueError(f"definitional form capped at n <= {MAX_DEFINITIONAL_N}")
    if len(y) != n:
        raise ValueError(f"output block has length {len(y)}, expected {n}")
    g = code.kron_matrix()
    add, mul = field._add, field._mul
    exact = ch.is_finite
    mat = ch.matrix if exact else None

    def accumulate(base, row):
        # x(v) = base + v * row, coordinatewise over element indices
        for v in range(q):
            x = base if v == 0 else [add[xj][mul[v][int(rj)]] for xj, rj in zip(base, row)]
            if exact:
                w = Fraction(1)
                for yj, xj in zip(y, x):
                    w *= mat[xj][yj]
            else:
                w = 1.0
                for yj, xj in zip(y, x):
                    w *= ch.transition(yj, field.from_index(xj))
            likel[v] += w

    likel = [Fraction(0)] * q if exact else [0.0] * q
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
    if exact:
        norm = Fraction(1, q ** (n - 1))
        return tuple(v * norm for v in likel)
    return tuple(v / q ** (n - 1) for v in likel)


def _leaf_likelihoods(ch, y, exact):
    if exact:
        if not ch.is_finite:
            raise ValueError("exact decoding requires a finite channel")
        return [ch.likelihoods(yi) for yi in y]
    return [tuple(float(v) for v in ch.likelihoods_float(yi)) for yi in y]


def _renorm(t):
    mx = max(t)
    if mx == 0:
        return (1.0,) * len(t)
    return tuple(v / mx for v in t)


def sc_decode(code, ch, y, tie=None, exact=None, tie_rtol=DEFAULT_TIE_RTOL):
    """Decode one received block; returns (message, codeword) element tuples.

    Frozen positions are forced to their frozen values; information
    positions take the likelihood argmax with ties resolved by ``tie``
    (lexicographic by default).  ``exact`` defaults to rational arithmetic
    on finite channels and floating arithmetic otherwise.
    """
    if tie is None:
        tie = TieRule("lex")
    elif isinstance(tie, str):
        tie = TieRule(tie)
    if exact is None:
        exact = ch.is_finite
    field = code.field
    alpha = field.alpha
    elems = field.elements
    T = _leaf_likelihoods(ch, y, exact)
    if not exact:
        T = [_renorm(t) for t in T]

    def rec(t_list, pos):
        l = len(t_list)
        if l == 1:
            i = pos
            if code.is_info(i):
                u = elems[tie.pick(_argmax_set(t_list[0], tie_rtol))]
            else:
                u = code.frozen_value(i)
            return [u], [u]
        half = l // 2
        tm = [combine_minus(t_list[j], t_list[j + half], alpha) for j in range(half)]
        if not exact:
            tm = [_renorm(t) for t in tm]
        u_lo, x_lo = rec(tm, pos)
        tp = [combine_plus(t_list[j], t_list[j + half], x_lo[j], alpha) for j in range(half)]
        if not exact:
            tp = [_renorm(t) for t in tp]
        u_hi, x_hi = rec(tp, pos + half)
        x = [x_lo[j] + alpha * x_hi[j] for j in range(half)] + x_hi
        return u_lo + u_hi, x

    u_hat, x_hat = rec(T, 0)
    return tuple(u_hat), tuple(x_hat)


def sc_decode_distribution(code, ch, y, method="recursive"):
    """Exact distribution over decoded codewords, branching at every tie.

    ``method="recursive"`` follows the minus/plus message recursion;
    ``method="definitional"`` scores every position with
    :func:`synthetic_channel` directly.  Both return a dict mapping
    codeword tuples to exact rational masses summing to 1.
    """
    if not ch.is_finite:
        raise ValueError("exact decode distributions require a finite channel")
    if code.n > MAX_DEFINITIONAL_N:
        raise ValueError(f"decode distributions capped at n <= {MAX_DEFINITIONAL_N}")
    field = code.field
    alpha = field.alpha
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

    T = _leaf_likelihoods(ch, y, exact=True)

    def rec(t_list, pos):
        l = len(t_list)
        if l == 1:
            i = pos
            if code.is_info(i):
                cands = _argmax_set(t_list[0])
                share = Fraction(1, len(cands))
                return {(elems[u],): share for u in cands}
            return {(code.frozen_value(i),): Fraction(1)}
        half = l // 2
        tm = [combine_minus(t_list[j], t_list[j + half], alpha) for j in range(half)]
        d_lo = rec(tm, pos)
        out = {}
        for z_lo, p_lo in d_lo.items():
            tp = [combine_plus(t_list[j], t_list[j + half], z_lo[j], alpha)
                  for j in range(half)]
            for z_hi, p_hi in rec(tp, pos + half).items():
                x = tuple(z_lo[j] + alpha * z_hi[j] for j in range(half)) + z_hi
                out[x] = out.get(x, Fraction(0)) + p_lo * p_hi
        return out

    return rec(T, 0)


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
