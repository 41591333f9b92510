"""Successive cancellation decoding: one float kernel and one exact kernel.

The definitional form scores each candidate symbol with its synthetic
channel, a direct sum of block transition probabilities over all
completions of the message; it is the referee for small n.  It works on
symbol index tuples and encodes them with
:func:`~qpolar.code.polar_transform_indices`.  The recursive form passes
length-q likelihood vectors through the minus/plus combining rules
    minus(t0, t1)[u]    = (1/q) * sum_u1 t0[u + alpha*u1] * t1[u1]
    plus(t0, t1, z)[u]  = (1/q) * t0[z + alpha*u] * t1[u]
splitting on the most significant index bit, decoding the low half against
the minus messages, re-encoding it, and decoding the high half against the
plus messages.  Frozen positions are known in advance, so an all-frozen
(rate-0) child, or root, decodes to its frozen values and propagates
their transform (``PolarCode.rate0_transforms``); no message of it is
built, and every leaf reached is an information leaf.  Two kernels run
that recursion, and every decoder here is one of them:

* :func:`sc_decode_batch` (float) decodes a batch of blocks.  It drops the
  1/q constants and scales every message to maximum 1, which also prevents
  underflow at long block lengths.  Entries within the fixed relative
  tolerance ``DEFAULT_TIE_RTOL`` of the maximum count as tied.  At q = 2 it
  carries each message as its argmax bit and ratio r = min/max; at q > 2 it
  takes each plus message row from the node's flat buffer.  On a finite
  channel it can start one level down, from :class:`PairTables`: the root's
  child messages of every output pair, the floats the root would compute.
* :func:`_distribution_indices` (exact) decodes one block on integer
  messages: the channel matrix is scaled by the common denominator D of
  its entries, the 1/q constants are dropped, and every message is divided
  by the gcd of its entries.  That is exact, because both combining rules
  are bilinear and an argmax set, ties included, does not change when a
  vector is scaled by a positive constant.  It works on symbol index
  tuples; within one :class:`_ExactJob`, which the exact oracle shares
  across the outputs of one computation, it keeps every combined message
  in a table and memoizes sub-decodes.  A branch carries an int weight d,
  the product of the tie sizes on its path, for mass 1/d.  Exact ties
  never depend on a tolerance.

:func:`sc_decode_distribution` branches at every exact tie and returns the
exact rational distribution over decoded codewords.  The point decoder
:func:`sc_decode` runs the exact kernel on finite channels and the float
kernel, on the block alone, on the AWGN channel.  Both resolve ties the same
way, from one tie uniform v_i in [0, 1) per position: a tie among s symbols
at position i keeps the k-th tied symbol in index order,
k = min(floor(v_i * s), s - 1).  All-zero uniforms keep the smallest tied
index (the lexicographic rule); the batch kernel draws v_i for tied blocks only.

On channels with zero transition entries a message can be identically
zero (a plus message after a wrong tie guess on an erasure channel).  The
exact kernel keeps it zero: every message built from it by either rule is
zero too, and every information leaf below it ties all q symbols.  The
float kernel follows that rule.  At q > 2 a zero message stays zero (it is
scaled by 1, not divided 0/0) and a zero leaf ties every symbol; at q = 2,
where a (bit, ratio) pair cannot be zero, a ``dead`` mask marks the
messages that are zero or built from one, and a dead leaf ties.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .code import polar_transform_indices
from .gf import _integer, _real

DEFAULT_TIE_RTOL = 1e-12
MAX_DEFINITIONAL_N = 16
# messages per polar_transform_indices call in synthetic_channel, which
# bounds its memory: q^(n-i) messages can exceed any array
_SYNTHETIC_CHUNK = 1 << 16
# sc_decode_batch's T for a finite channel's outputs (PairTables.outputs)
_PairOutputs = namedtuple("_PairOutputs", "shape minus plus")


def _argmax_set(t):
    """Indices of the maximal entries of an exact vector."""
    mx = max(t)
    return [u for u, v in enumerate(t) if v == mx]


def synthetic_channel(code, ch, y, u_prefix, i):
    """Likelihood vector of the i-th synthetic channel, by direct summation.

    Computes (1/q^{n-1}) * sum over all completions u_{i+1..n-1} of
    W^n(y | u * G_n) for each value of u_i, with the prefix (field elements
    or their indices) fixed, in exact rationals.  The channel must be finite.
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
    _check_field(field, ch)
    _check_block(y, n, ch.num_outputs)
    # cols[j][x] = D * W(y_j | x), integer sums scaled down once at the end, from
    # the law itself: the recursion's tables are what this form referees
    D = math.lcm(*(v.denominator for row in ch.matrix for v in row))
    cols = [[row[yj].numerator * D // row[yj].denominator for row in ch.matrix] for yj in y]
    likel = [0] * q
    # every message (u_i, completion) with the prefix fixed, in bounded chunks
    tails = itertools.product(range(q), repeat=n - i)
    while chunk := list(itertools.islice(tails, _SYNTHETIC_CHUNK)):
        u = np.empty((len(chunk), n), dtype=np.intp)
        u[:, :i] = [field.element(e).index for e in u_prefix]
        u[:, i:] = chunk
        for ui, x in zip(u[:, i].tolist(), polar_transform_indices(field, u).tolist()):
            likel[ui] += math.prod(col[xj] for col, xj in zip(cols, x))
    scale = q ** (n - 1) * D ** n
    return tuple(Fraction(v, scale) for v in likel)


def _check_field(field, ch):
    if ch.field != field:
        raise ValueError(f"channel field {ch.field!r} differs from the code field {field!r}")


def _check_block(y, n, num_outputs):
    """Raise unless y is a length-n block of integer output indices of the alphabet."""
    if len(y) != n:
        raise ValueError(f"output block has length {len(y)}, expected {n}")
    for v in y:
        if not 0 <= _integer(v, "output index") < num_outputs:
            raise ValueError(f"output index {v} outside alphabet of size {num_outputs}")


def sc_decode(code, ch, y, tie_uniforms=None):
    """Decode one received block; returns (message, codeword) element tuples.

    Frozen positions are forced to their frozen values; information
    positions take the likelihood argmax, a tie resolved by the position's
    entry of ``tie_uniforms``, an (n,) array in [0, 1) (all zeros, the
    lexicographic rule, when None).  The channel picks the kernel: a finite
    channel decodes on the exact integer kernel, the AWGN channel on the
    float batch kernel with the block alone; a NaN or infinite output raises
    there.
    """
    n = code.n
    uniforms = np.zeros(n) if tie_uniforms is None else np.asarray(tie_uniforms, dtype=float)
    if uniforms.shape != (n,) or not ((uniforms >= 0) & (uniforms < 1)).all():
        raise ValueError(f"tie_uniforms must be an ({n},) array in [0, 1)")
    elems = code.field.elements
    if ch.is_finite:
        job = _ExactJob(code, ch, tie_uniforms=uniforms)
        _check_block(y, n, ch.num_outputs)
        (x,) = job.decode(y)
        u = job.decisions
    else:
        y = np.array([_real(v, "AWGN output") for v in y])
        if y.shape != (n,) or not np.isfinite(y).all():
            raise ValueError(f"AWGN outputs must be {n} finite reals, got {y.tolist()}")
        T = ch.likelihood_batch(y[:, None])
        decisions, codewords = sc_decode_batch(code, T, lambda i, cols: uniforms[[i]][cols])
        u, x = decisions[:, 0], codewords[:, 0]
    return tuple(elems[i] for i in u), tuple(elems[i] for i in x)


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
    tuple keys, int weights d for masses 1/d), without building field
    elements or Fractions.  It does not check ``y`` then: the caller passes
    a length-n block of output indices.
    """
    if not ch.is_finite:
        raise ValueError("exact decode distributions require a finite channel")
    if code.n > MAX_DEFINITIONAL_N:
        raise ValueError(f"decode distributions capped at n <= {MAX_DEFINITIONAL_N}")
    field = code.field
    elems = field.elements

    if method == "definitional":
        # checked here too: without information positions y is never scored
        _check_field(code.field, ch)
        _check_block(y, code.n, ch.num_outputs)
        # branches map message prefixes (index tuples) to their masses
        frozen = code.frozen_index_array.tolist()
        branches = {(): Fraction(1)}
        for i in range(code.n):
            nxt = {}
            for prefix, p in branches.items():
                cands = (_argmax_set(synthetic_channel(code, ch, y, prefix, i))
                         if code.info_mask[i] else [frozen[i]])
                for u in cands:
                    nxt[prefix + (u,)] = p / len(cands)
            branches = nxt
        # u -> u * G_n is one to one, so no two branches share a codeword
        xs = polar_transform_indices(field, list(branches)).tolist()
        return {tuple(elems[j] for j in x): p for x, p in zip(xs, branches.values())}

    if method != "recursive":
        raise ValueError(f"unknown method {method!r}")
    if job is not None:
        return job.decode(y)
    job = _ExactJob(code, ch)
    _check_block(y, code.n, ch.num_outputs)
    dist = job.decode(y)
    return {tuple(elems[i] for i in x): Fraction(1, d) for x, d in dist.items()}


class _ExactJob:
    """Integer channel, code tables, combining tables and sub-decode memo of
    one exact computation.

    ``rows[x][y]`` is D * W(y | x) for the common denominator D of the
    channel matrix, ``leaves[y]`` the column of output y divided by its
    gcd.  ``minus`` maps (t0, t1) to the reduced minus message and
    ``plus`` maps (t0, t1, z) to the reduced plus message, each computed on
    its first lookup: leaves take only |Y| values, so messages repeat
    across the outputs of one computation.  The memo maps (message tuple,
    lo) to the index distribution of a sub-decode shorter than the block.
    The tables and the memo live as long as the job.

    A point decode passes ``tie_uniforms``, one per position: a tie then
    keeps one candidate (the :func:`sc_decode` pick) instead of branching,
    and ``decisions[i]`` records the symbol kept at position i.
    """

    def __init__(self, code, ch, tie_uniforms=None):
        _check_field(code.field, ch)
        # aff[z][u] = index of z + alpha*u; the minus rule reads row u over
        # u1, the plus rule row z, and re-encoding entry [z_lo][z_hi]
        aff = self.aff = code.field.aff.tolist()
        self.n = code.n
        # (lo, span) -> the one-key distribution of a rate-0 subtree
        self.rate0 = {key: {tuple(x.tolist()): 1} for key, x in code.rate0_transforms.items()}
        self.denominator = math.lcm(*(v.denominator for row in ch.matrix for v in row))
        self.rows = tuple(tuple(v.numerator * (self.denominator // v.denominator) for v in row)
                          for row in ch.matrix)
        self.leaves = tuple(_reduced(col) for col in zip(*self.rows))
        self.minus = _Table(lambda t0, t1: _reduced(tuple(
            sum(t0[i] * v for i, v in zip(row, t1)) for row in aff)))
        self.plus = _Table(lambda t0, t1, z: _reduced(tuple(
            t0[i] * v for i, v in zip(aff[z], t1))))
        self.tie_uniforms = tie_uniforms
        # frozen decisions are known before any message arrives
        self.decisions = None if tie_uniforms is None else code.frozen_index_array.tolist()
        self.memo = {}

    def decode(self, y):
        """Index distribution of an output block that the caller has checked."""
        return self.rate0.get((0, self.n)) or _distribution_indices(
            tuple([self.leaves[v] for v in y]), 0, self)


class _Table(dict):
    """A dict that computes ``rule(*key)`` for a missing key and keeps it."""

    def __init__(self, rule):
        self.rule = rule

    def __missing__(self, key):
        value = self[key] = self.rule(*key)
        return value


def _reduced(t):
    """An integer message divided by the gcd of its entries (zero stays zero)."""
    g = math.gcd(*t)
    return t if g <= 1 else tuple(v // g for v in t)


def _distribution_indices(msgs, lo, job):
    """Exact SC decode distribution of positions [lo, lo + len(msgs)).

    ``msgs`` holds one integer message per position, and the span holds an
    information position.  Returns a dict from codeword index tuples to
    int weights: a branch of weight d has mass 1/d, where d is the product
    of the tie sizes on its path (1 where no tie split it).  The minus and
    plus messages come from the job's combining tables.  A point job
    (``tie_uniforms`` set) splits no branch, so the dict has one key of
    weight 1, and writes the symbol kept at each leaf into
    ``job.decisions``.  The result may be shared through the memo, so
    callers must not mutate it.
    """
    span = len(msgs)
    if span == 1:
        decisions = job.decisions
        t = msgs[0]
        mx = max(t)
        cands = [u for u, v in enumerate(t) if v == mx]
        s = len(cands)
        if s > 1 and decisions is None:
            return {(u,): s for u in cands}
        u = cands[min(int(job.tie_uniforms[lo] * s), s - 1)] if s > 1 else cands[0]
        if decisions is not None:
            decisions[lo] = u
        return {(u,): 1}
    # whole blocks are not memoized: distinct outputs rarely share them.  A
    # point job visits each (lo, span) once, so no memo entry could answer it
    key = (msgs, lo)
    memoize = span < job.n and job.decisions is None
    if memoize and key in job.memo:
        return job.memo[key]
    half = span // 2
    aff = job.aff
    minus, plus = job.minus, job.plus
    pairs = tuple(zip(msgs[:half], msgs[half:]))
    # a rate-0 half is taken from the job, and its messages are never built
    dist_lo = job.rate0.get((lo, half)) or _distribution_indices(
        tuple([minus[p] for p in pairs]), lo, job)
    frozen_hi = job.rate0.get((lo + half, half))
    out = {}
    for z_lo, w_lo in dist_lo.items():
        dist_hi = frozen_hi or _distribution_indices(
            tuple([plus[t0, t1, z] for (t0, t1), z in zip(pairs, z_lo)]), lo + half, job)
        for z_hi, w_hi in dist_hi.items():
            # (z_lo, z_hi) -> x is one to one, so no two branches share a key
            out[tuple([aff[a][b] for a, b in zip(z_lo, z_hi)]) + z_hi] = w_lo * w_hi
    if memoize:
        job.memo[key] = out
    return out


def sc_decode_batch(code, T, tie_uniforms, force=None):
    """Vectorized floating-point SC decoding of a batch of received blocks.

    Parameters
    ----------
    T : (q, n, B) float array, or ``PairTables.outputs(y)``
        Leaf likelihood vectors along axis 0 (any positive scaling per
        position), in the layout ``likelihood_batch`` returns for (n, B)
        outputs.  It is not modified, and the decoder drops its reference
        to it once the root messages are built: a T that only the call
        holds is freed before the recursion starts.  At n >= 2 the (n, B)
        outputs y of a finite channel may come as ``tables.outputs(y)``
        instead: the root's children then gather the same floats from the
        :class:`PairTables`, and no leaf message, root minus or plus is built.
    tie_uniforms : callable
        ``tie_uniforms(i, columns)`` returns the uniforms in [0, 1) that
        resolve the ties at position i, one per tied block in ``columns``.
    force : optional (n, B) int array
        Genie mode: propagate these true symbol indices instead of the
        decisions.  Decisions are still recorded and returned.  At frozen
        positions it must equal the frozen values; ValueError otherwise.

    Returns
    -------
    (decisions, codeword) : int index arrays of shape (n, B)
        ``codeword`` is the transform of whatever was propagated.

    Messages are scaled, tied, kept zero and skipped in rate-0 subtrees as
    the module docstring says.  They stay in T's symbol-major, block-innermost
    layout, in one C-ordered normalized copy of T: the minus rule is q * q
    multiply-adds over contiguous (n/2, B) slabs, each sum taken left to right
    in u1 (so every minus message equals a plain left-to-right loop over u1),
    each maximum over the symbol axis is q - 1 ``np.maximum`` calls, and the
    plus rule is q 1-D takes from the node's flat buffer, one per row
    (:func:`_plus`).  At q = 2 they are (bit, ratio) pairs instead, read from
    T without a copy (:func:`_decode_bits`).  The recursion runs under
    ``np.errstate(invalid="raise", divide="raise")``.  NaN arithmetic raises
    no invalid flag, so a NaN in T would reach a decision unnoticed: a T with
    a NaN or infinite entry raises ValueError.
    """
    field = code.field
    n = code.n
    q, nt, B = T.shape
    if nt != n or q != field.q:
        raise ValueError(f"likelihood array shape {T.shape} does not match ({field.q}, {n}, B)")
    if force is not None:
        if np.shape(force) != (n, B):
            raise ValueError(f"force has shape {np.shape(force)}, expected {(n, B)}")
        frozen = ~code.info_mask
        if (np.asarray(force)[frozen] != code.frozen_index_array[frozen, None]).any():
            raise ValueError("force departs from the frozen values at a frozen position")
    pairs = isinstance(T, _PairOutputs)
    # a NaN survives min and max, and an infinity is one of them; the two
    # reductions allocate nothing, where np.isfinite(T) would copy T as bools
    if not (pairs or np.isfinite([T.min(initial=0.0), T.max(initial=0.0)]).all()):
        raise ValueError("likelihoods must be finite; T holds a NaN or an infinity")
    job = _BatchJob(code, B, tie_uniforms, force)
    x = job.frozen_part(0, n)
    if x is not None:  # k = 0: nothing to decode
        return job.decisions, np.array(x, dtype=np.intp)
    decode = _decode_bits if q == 2 else _decode_span
    with np.errstate(invalid="raise", divide="raise"):
        if pairs:
            x = _split(0, n // 2, job, T.minus, T.plus, decode)
        else:
            leaves = _leaves(T)
            del T
            x = decode(leaves, 0, job)
    return job.decisions, x.astype(np.intp, copy=False)


class PairTables:
    """The root's child messages of a finite channel over every output pair.

    Key y_lo*|Y| + y_hi of ``minus`` holds the root's minus message at j < n/2
    when (y_j, y_{j+n/2}) = (y_lo, y_hi), key (y_lo*|Y| + y_hi)*q + x_j of
    ``plus`` its plus message.  The kernel's own rules build both, (q, 1, keys)
    arrays or (bit, ratio, dead) triples, on all keys as one batch of length-2
    blocks: each entry is the float a decode of ``likelihood_batch(y)`` has.
    """

    def __init__(self, ch):
        q, ny = self.q, self.num_outputs = ch.q, ch.num_outputs
        k = np.arange(ny * ny * q)
        with np.errstate(invalid="raise", divide="raise"):
            leaves = _leaves(ch.likelihood_batch(np.stack([k // q // ny, k // q % ny])))
            minus, plus = _bit_rules(*leaves) if q == 2 else _span_rules(leaves, ch.field.aff)
            self.minus = _take(minus(), k[None, ::q])  # each repeats q times
            self.plus = plus(k[None] % q)

    def outputs(self, y):
        """(n, B) outputs y as :func:`sc_decode_batch` takes them: the root's
        rules (see :func:`_split`), gathering by the level-1 keys alone."""
        key = y[:len(y) // 2] * self.num_outputs + y[len(y) // 2:]
        return _PairOutputs((self.q, *y.shape), lambda: _take(self.minus, key),
                            lambda xl: _take(self.plus, key * self.q + xl))


def _take(m, key):
    """Table messages m, (..., 1, keys) arrays or triples of them, at ``key``."""
    if isinstance(m, tuple):
        return tuple(a if a is None else _take(a, key) for a in m)
    return np.take(m[..., 0, :], key, axis=-1)


def _leaves(T):
    """The leaf messages of (q, n, B) likelihoods; at q = 2 read without a copy."""
    if len(T) == 2:
        return _pair(False, T[0], T[1], None)
    T = np.asarray(T, dtype=float)
    return _normalize(T, out=np.empty(T.shape))


class _BatchJob:
    """Per-call constants and the decision array of one batch decode."""

    def __init__(self, code, B, tie_uniforms, force):
        # aff[z, u] = index of z + alpha*u; serves both combining rules and
        # the re-encoding.  At q = 2 that is z ^ u, on bool transforms
        self.aff = code.field.aff
        self.binary = code.field.q == 2
        self.rate0 = code.rate0_transforms
        self.tie_uniforms = tie_uniforms
        self.force = force
        # frozen decisions are known before any message arrives
        self.decisions = np.repeat(code.frozen_index_array[:, None], B, axis=1)

    def frozen_part(self, lo, span):
        """The propagated (span, B) codeword part of positions [lo, lo + span)
        if all are frozen (bool at q = 2, else a read-only broadcast), otherwise None."""
        x = self.rate0.get((lo, span))
        x = x if x is None else np.broadcast_to(x[:, None], (span, self.decisions.shape[1]))
        # an owned bool array at q = 2: the xors run slower on a broadcast
        return x == 1 if self.binary and x is not None else x


def _split(lo, half, job, minus, plus, decode):
    """The (2*half, B) transform of positions [lo, lo + 2*half), decoded with
    ``decode`` from the children's messages ``minus()`` and ``plus(xl)``, xl
    the low half's transform; a rate-0 half builds no message."""
    xl = job.frozen_part(lo, half)
    if xl is None:
        xl = decode(minus(), lo, job)  # the minus messages die here
    xh = job.frozen_part(lo + half, half)
    if xh is None:
        xh = decode(plus(xl), lo + half, job)
    return np.concatenate([xl ^ xh if job.binary else job.aff[xl, xh], xh], axis=0)


def _decode_span(tb, lo, job):
    """Decode positions [lo, lo + span) from (q, span, B) messages; returns
    the (span, B) transform of the propagated symbols."""
    span = tb.shape[1]
    if span == 1:  # an information leaf
        m = tb[:, 0]
        u = np.argmax(m, axis=0)
        # every message was normalized, so its maximum is exactly 1.0 unless
        # it is all zero, and then every symbol ties
        tied = m >= 1.0 - DEFAULT_TIE_RTOL
        tied |= ~tied.any(axis=0)
        s = tied.sum(axis=0)
        cols = np.flatnonzero(s > 1)
        if len(cols):
            s = s[cols]
            k = np.minimum((job.tie_uniforms(lo, cols) * s).astype(np.intp), s - 1)
            u[cols] = np.argmax(np.cumsum(tied[:, cols], axis=0) == k + 1, axis=0)
        job.decisions[lo] = u
        if job.force is not None:
            u = job.force[lo]
        return u[None, :]
    return _split(lo, span // 2, job, *_span_rules(tb, job.aff), _decode_span)


def _span_rules(tb, aff):
    """The rules of a node with normalized (q, 2h, B) messages tb: the
    normalized minus and plus messages of its children."""
    half = tb.shape[1] // 2
    return (lambda: _normalize(_minus(tb[:, :half], tb[:, half:], aff)),
            lambda xl: _normalize(_plus(tb, xl, aff)))


def _decode_bits(msg, lo, job):
    """:func:`_decode_span` at q = 2 on (span, B) messages (bit, r, dead): 1 at
    ``bit`` and r at the other, or zero where ``dead`` (None while no message
    is); a tied or dead leaf decides v >= 0.5."""
    bit, r, dead = msg
    if len(r) == 1:  # an information leaf
        u = bit[0].copy()
        tied = r[0] >= 1.0 - DEFAULT_TIE_RTOL
        cols = np.flatnonzero(tied if dead is None else tied | dead[0])
        if len(cols):
            u[cols] = job.tie_uniforms(lo, cols) >= 0.5
        job.decisions[lo] = u
        if job.force is not None:
            u = job.force[lo] == 1
        return u[None, :]
    return _split(lo, len(r) // 2, job, *_bit_rules(bit, r, dead), _decode_bits)


def _bit_rules(bit, r, dead):
    """:func:`_span_rules` at q = 2, on (2h, B) messages (bit, r, dead): the
    floats of the (q, n, B) rules, whose other products are with an exact 1.0."""
    half = len(r) // 2
    b0, b1 = bit[:half], bit[half:]
    r0, r1 = r[:half], r[half:]
    prod = r0 * r1
    # a message built from a dead one is dead
    dead = None if dead is None else dead[:half] | dead[half:]

    def plus(xl):
        # at b1 and the other: 1 and r0*r1 where x is 0, r0 and r1 where it is 1
        x = b0 ^ b1 ^ xl
        return _pair(b1, np.where(x, r0, 1.0), np.where(x, r1, prod), dead)
    return lambda: _pair(b0 ^ b1, 1.0 + prod, r0 + r1, dead), plus


def _pair(bit, a, c, dead):
    """(argmax bit, min/max, dead) of messages a at ``bit`` and c at the other,
    given the ``dead`` mask of their inputs; an all-zero message joins it."""
    big = np.maximum(a, c, dtype=float)
    small = np.minimum(a, c, dtype=float)
    if not big.all():
        zero = big == 0
        big[zero] = 1.0
        dead = zero if dead is None else dead | zero
    small /= big
    return bit ^ (c > a), small, dead


def _normalize(t, out=None):
    """Scale each message (axis 0) to maximum 1, in place or into ``out``, and
    return the result; an all-zero message stays zero."""
    mx = np.maximum(t[0], t[1])
    for row in t[2:]:
        np.maximum(mx, row, out=mx)
    if not mx.all():
        mx[mx == 0] = 1.0
    return np.divide(t, mx, out=t if out is None else out)


def _plus(tb, xl, aff):
    """plus[u] = t0[aff[xl, u]] * t1[u] for C-ordered (q, 2h, B) messages tb
    = [t0, t1].  Row u is one take from the flat tb at aff[xl, u]*2hB + jB + b,
    so no (q, h, B) index array is built; every index is in range, and mode
    "clip" spares the copy of ``out`` that the default mode makes."""
    q, span, B = tb.shape
    h = span // 2
    flat = tb.reshape(-1)
    pos = np.arange(h * B).reshape(h, B)
    offsets = aff.T * (span * B)
    out = np.empty((q, h, B))
    idx = np.empty((h, B), dtype=np.intp)
    for u in range(q):
        np.take(offsets[u], xl, out=idx, mode="clip")
        idx += pos
        np.take(flat, idx, out=out[u], mode="clip")
    out *= tb[:, h:]
    return out


def _minus(t0, t1, aff):
    """minus[u] = sum_u1 t0[aff[u, u1]] * t1[u1] over (q, h, B) messages,
    summed left to right in u1."""
    out = np.empty_like(t0)
    tmp = np.empty_like(t0[0])
    for acc, row in zip(out, aff):
        np.multiply(t0[row[0]], t1[0], out=acc)
        for u1 in range(1, len(row)):
            np.multiply(t0[row[u1]], t1[u1], out=tmp)
            acc += tmp
    return out
