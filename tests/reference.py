"""Reference implementations that the tests compare the package against.

``reference_sc_decode`` is the scalar SC point decoder in its literal
form: Fraction likelihood vectors carrying the 1/q constants through
``combine_minus``/``combine_plus`` on the exact path, and tuples of Python
floats renormalized to maximum 1 on the float path (an all-zero tuple
stays zero, as in the exact kernel), with ties resolved
lexicographically.  The package decodes one block on its two kernels
instead (the integer exact recursion and the float batch kernel) and must
reproduce these decisions.  ``kron_matrix`` builds G_n as an explicit
matrix, the referee of the package's one transform, ``full_message``
assembles a message from its information symbols, and ``codewords``
enumerates a code with that transform.  ``matrix_multiply``,
``transition``, ``likelihoods``, ``product_transition`` and ``sample`` are
the element-level definitions of encoding, the channel and block
transition laws and channel sampling.  ``reference_sample_batch`` is the
gather form of the batch sampler: an (..., |Y|) comparison against the
cumulative rows, summed over its last axis and capped at the last output.
The package must match it except where it draws an output of mass 0.
Both read ``cumulative_rows``, the running float sums of the exact rows,
which they compute themselves: a fault in the package's float mirrors of
the law must not reach both sides of a comparison.
``rank_alpha_generates`` decides whether alpha
generates F_q over F_p by the linear-algebra definition, and
``reference_is_irreducible`` decides irreducibility by trial division.
``_poly_mul``, ``_poly_mod`` and ``_poly_trim`` do arithmetic on
coefficient lists over F_p, with no code from the package: they referee
the field tables and carry both deciders.
``reference_bit_rules`` is the q = 2 min/max referee of the batch kernel's
(bit, ratio, dead) rules: it expands each message into its two entries in
Python floats, combines them by the definitions of the minus and plus
messages and reduces the result to argmax, min/max and zero.
``tie_draws`` wraps an (n, B) array of tie uniforms as the tie source
``sc_decode_batch`` calls.  ``counter_uniform`` is the counter RNG's draw
for one (seed, trial, slot) in Python integers: splitmix64 finalizers
chained over the seed, the trial and the slot, then the top 53 bits as a
float in the open (0, 1).
``dominates`` is the bitwise order.  ``reference_check_condition_A``,
``reference_closure`` and ``reference_select_decreasing`` scan every
dominating index of every member: the quadratic form of the upward-closure
decision, of the closure and of the greedy decreasing selection.
``ZERO_ENTRY_CHANNELS`` are the shipped finite channel kinds with zero
transition entries, on which a message can be all zero.
``UncheckedChannel`` is a finite channel with the four fields the exact
oracle reads (``field``, ``is_finite``, ``num_outputs``, ``matrix``) and no
symmetry search: it carries the laws ``FiniteChannel`` refuses, on which
the lemma checkers must report a failure.  ``additive_noise_channel``
builds one for z = x + e.

The rest are element-level referees of the package's index-level code:

* ``polarize`` builds the minus and plus channels of one polarization
  step as exact ``FiniteChannel`` tables, whose constructor runs the
  channel family search on them (criterion 6).
* ``coset_transform`` maps (y, x) to (a*y + x_b, a*x + x_b) and referees
  ``check_coset_invariance``.
* ``xi_coefficients`` computes the multipliers of the signed bit flip
  xi_r by element arithmetic; ``xi_apply_field`` and ``xi_apply_output``
  apply xi_r to codewords and to outputs and referee
  ``check_xi_invariance``.
* ``reference_exact_genie_error_probs`` sums the exact genie-aided error
  probability of every position over Y^n and referees ``genie_mc_rank``.
* ``erasure_params`` computes each erasure probability as a Fraction, index
  by index; ranking by it referees the integer erasure ranking of
  ``construct_info_set``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from qpolar.channel import FiniteChannel, qec
from qpolar.code import PolarCode, polar_transform, polar_transform_indices
from qpolar.gf import default_field
from qpolar.sc import synthetic_channel
from qpolar.symmetry import delta

TIE_RTOL = 1e-12

ZERO_ENTRY_CHANNELS = {
    "qec2": lambda: qec(default_field(2), Fraction(1, 2)),
    "qec4": lambda: qec(default_field(4), Fraction(1, 2)),
    "table2": lambda: FiniteChannel(default_field(2), [["1/2", "3/10", "1/5", "0"],
                                                       ["0", "1/5", "3/10", "1/2"]]),
}


class UncheckedChannel:
    """An exact finite channel law, taken as given: ``matrix[x][y]`` = W(y | x)."""

    is_finite = True

    def __init__(self, field, matrix):
        self.field = field
        self.matrix = tuple(tuple(Fraction(v) for v in row) for row in matrix)
        self.num_outputs = len(self.matrix[0])


def additive_noise_channel(field, noise):
    """z = x + e over the field, e = element j with probability noise[j]:
    shift symmetric, but not scaling symmetric unless the noise law is."""
    elems = field.elements
    return UncheckedChannel(field, [[noise[(z - x).index] for z in elems] for x in elems])


def _poly_trim(c):
    """Drop the zero top coefficients of a low-first list, in place."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a, mod, p):
    """Remainder of a low-first coefficient list by ``mod`` over F_p."""
    a = list(a)
    _poly_trim(a)
    dm = len(mod) - 1
    lead_inv = pow(mod[-1], -1, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * lead_inv) % p
        for j, mj in enumerate(mod):
            a[shift + j] = (a[shift + j] - factor * mj) % p
        _poly_trim(a)
    return a


def _poly_mul(a, b, p):
    """Product of two low-first coefficient lists over F_p, trimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _is_exact(t):
    return not isinstance(t[0], float)


def combine_minus(t0, t1, alpha):
    """Check-side combination of two likelihood vectors."""
    field = alpha.field
    q = field.q
    add, mul, a = field._add.tolist(), field._mul.tolist(), alpha.index
    out = [sum(t0[add[u][mul[a][u1]]] * t1[u1] for u1 in range(q)) for u in range(q)]
    if _is_exact(t0):
        out = [v * Fraction(1, q) for v in out]
    return tuple(out)


def combine_plus(t0, t1, u0, alpha):
    """Variable-side combination given the decoded partner symbol u0."""
    field = alpha.field
    q = field.q
    add, mul, a = field._add.tolist(), field._mul.tolist(), alpha.index
    z = u0.index
    out = [t0[add[z][mul[a][u]]] * t1[u] for u in range(q)]
    if _is_exact(t0):
        out = [v * Fraction(1, q) for v in out]
    return tuple(out)


def _argmax_set(t):
    mx = max(t)
    if _is_exact(t):
        return [u for u, v in enumerate(t) if v == mx]
    thresh = mx - abs(mx) * TIE_RTOL
    return [u for u, v in enumerate(t) if v >= thresh]


def _renorm(t):
    mx = max(t)
    if mx == 0:  # stays zero, as in the exact kernel
        return t
    return tuple(v / mx for v in t)


def _float_leaf(ch, y):
    if ch.is_finite:
        return tuple(float(row[y]) for row in ch.matrix)
    return tuple(transition(ch, y, e) for e in ch.field.elements)


def reference_sc_decode(code, ch, y, exact=None):
    """Lexicographic SC point decode; returns (message, codeword) element tuples."""
    if exact is None:
        exact = ch.is_finite
    field = code.field
    alpha = field.alpha
    elems = field.elements
    if exact:
        T = [likelihoods(ch, v) for v in y]
    else:
        T = [_renorm(_float_leaf(ch, v)) for v in y]

    def rec(t_list, pos):
        if len(t_list) == 1:
            if code.info_mask[pos]:
                u = elems[_argmax_set(t_list[0])[0]]
            else:
                u = elems[code.frozen_index_array[pos]]
            return [u], [u]
        half = len(t_list) // 2
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


def kron_matrix(field, m):
    """The n x n transform matrix G_n as an array of element indices.

    Row i is the codeword of the i-th unit message, so u * G_n is a plain
    table-multiply against this matrix.
    """
    g = np.array([[1]], dtype=np.intp)
    alpha_mul = field._mul[field.alpha.index]
    for _ in range(m):
        n = g.shape[0]
        nxt = np.zeros((2 * n, 2 * n), dtype=np.intp)
        nxt[:n, :n] = g
        nxt[n:, :n] = alpha_mul[g]
        nxt[n:, n:] = g
        g = nxt
    return g


def full_message(code, info_symbols):
    """The length-n message of a code: k information symbols in index order,
    the frozen values elsewhere."""
    info_symbols = [code.field.element(v) for v in info_symbols]
    if len(info_symbols) != code.k:
        raise ValueError(f"need {code.k} information symbols, got {len(info_symbols)}")
    u = [None] * code.n
    for i, v in zip(code.info_set, info_symbols):
        u[i] = v
    for i, v in zip(code.frozen_set, code.frozen_values):
        u[i] = v
    return tuple(u)


def codewords(code):
    """All q^k codewords of a code, in information-symbol index order."""
    rows = list(itertools.product(range(code.field.q), repeat=code.k))
    u = np.tile(code.frozen_index_array, (len(rows), 1))
    u[:, list(code.info_set)] = np.array(rows, dtype=np.intp)  # (1, 0) when k = 0
    elems = code.field.elements
    return [tuple(elems[i] for i in row)
            for row in polar_transform_indices(code.field, u).tolist()]


def matrix_multiply(field, u_indices, g):
    """Row vector times matrix over F_q, both given as element indices."""
    add, mul = field._add.tolist(), field._mul.tolist()
    out = [0] * g.shape[1]
    for i, ui in enumerate(u_indices):
        if ui:
            row = g[i]
            for j in range(g.shape[1]):
                out[j] = add[out[j]][mul[ui][int(row[j])]]
    return tuple(out)


def transition(ch, y, x):
    """W(y | x) for a FieldElement x: exact for a finite channel (y an
    output index), the Gaussian density value at y for the AWGN channel."""
    if not ch.is_finite:
        s = 1 - 2 * x.index  # BPSK: 0 -> +1, 1 -> -1
        return math.exp(-((y - s) ** 2) / (2 * ch.sigma2)) / math.sqrt(2 * math.pi * ch.sigma2)
    if not 0 <= y < ch.num_outputs:
        raise ValueError(f"output index {y} outside alphabet of size {ch.num_outputs}")
    return ch.matrix[x.index][y]


def likelihoods(ch, y):
    """Exact likelihood vector (W(y|u))_u of a finite channel over the q inputs."""
    return tuple(transition(ch, y, e) for e in ch.field.elements)


def product_transition(ch, y_vec, x_vec):
    """W^n(y | x) = prod_i W(y_i | x_i) for a memoryless block of n uses."""
    if len(y_vec) != len(x_vec):
        raise ValueError("output and input blocks differ in length")
    acc = Fraction(1) if ch.is_finite else 1.0
    for y, x in zip(y_vec, x_vec):
        acc *= transition(ch, y, x)
    return acc


def cumulative_rows(ch):
    """(q, |Y|) running float sums of a finite channel's exact rows, left to
    right, computed here from ``ch.matrix`` alone."""
    return np.array([list(itertools.accumulate(float(w) for w in row)) for row in ch.matrix])


def sample(ch, x, u):
    """The output index of a finite channel that the uniform u draws under
    input x: output y has probability W(y|x).  A u at or above the row's
    float sum draws the row's last output of positive mass."""
    last = max(y for y, w in enumerate(ch.matrix[x.index]) if w > 0)
    return min(int(np.searchsorted(cumulative_rows(ch)[x.index], u, side="right")), last)


def reference_sample_batch(ch, x_indices, uniforms):
    """Output indices of a finite channel for arrays of inputs and uniforms,
    by one (..., |Y|) comparison with the gathered cumulative rows."""
    cum = cumulative_rows(ch)[np.asarray(x_indices)]
    return np.minimum((uniforms[..., None] >= cum).sum(axis=-1), ch.num_outputs - 1)


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col] % p, -1, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col] % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def rank_alpha_generates(p, s, modulus, alpha_coeffs):
    """True iff alpha generates F_{p^s} over F_p: the powers 1, alpha, ...,
    alpha^(s-1) are F_p-linearly independent (zero never generates)."""
    coeffs = [c % p for c in alpha_coeffs]
    if not any(coeffs):
        return False
    full_mod = list(modulus) + [1]
    powers = []
    cur = [1]
    for _ in range(s):
        padded = list(cur) + [0] * (s - len(cur))
        powers.append(padded[:s])
        cur = _poly_mod(_poly_mul(cur, coeffs, p), full_mod, p)
    return _rank_mod_p(powers, p) == s


def reference_is_irreducible(modulus, p):
    """Trial division: the monic polynomial with non-leading coefficients
    ``modulus`` (low first) is irreducible over F_p iff it has degree >= 1
    and no monic polynomial of degree 1..deg/2 divides it."""
    s = len(modulus)
    if s == 0:
        return False
    full = list(modulus) + [1]
    for d in range(1, s // 2 + 1):
        for g in itertools.product(range(p), repeat=d):
            if not _poly_mod(full, list(g) + [1], p):
                return False
    return True


def dominates(i, j):
    """Bitwise domination: every set bit of j is set in i."""
    return (i & j) == j


def reference_check_condition_A(info_set, m):
    """``(True, None)`` when no member has a dominating index missing, else
    ``(False, (j, i))`` with j the smallest member that has a one-bit
    superset i = j | 2^r missing, and i the smallest such superset."""
    n = 1 << m
    members = set(info_set)
    if all(i in members for j in members for i in range(j, n) if dominates(i, j)):
        return True, None
    return False, next((j, i) for j in sorted(members) for i in range(j + 1, n)
                       if dominates(i, j) and bin(i ^ j).count("1") == 1 and i not in members)


def reference_closure(info_set, m):
    """Sorted tuple of every index that dominates a member."""
    n = 1 << m
    return tuple(sorted({i for j in info_set for i in range(j, n) if dominates(i, j)}))


def reference_select_decreasing(estimates, k, m):
    """Greedy upward-closed selection of k indices by smallest estimate (ties
    prefer the larger index); returns the set and the swapped-in indices."""
    n = 1 << m
    order = sorted(range(n), key=lambda i: (estimates[i], -i))
    naive = set(order[:k])
    selected = set()
    for i in order:
        if len(selected) >= k:
            break
        if i in selected:
            continue
        need = [d for d in range(i, n) if dominates(d, i) and d not in selected]
        if len(selected) + len(need) <= k:
            selected.update(need)
    while len(selected) < k:
        addable = [i for i in range(n) if i not in selected
                   and all(d in selected for d in range(i + 1, n) if dominates(d, i))]
        selected.add(min(addable, key=lambda i: (estimates[i], -i)))
    return tuple(sorted(selected)), sorted(selected - naive)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _bit_entries(bit, r, dead):
    """The two entries of a q = 2 message: 1 at ``bit`` and r at the other, or zeros."""
    t = [0.0, 0.0]
    if not dead:
        t[bit], t[1 - bit] = 1.0, r
    return t


def _bit_message(t):
    """(argmax, min/max, dead) of a two-entry message; the argmax is None where
    the entries tie (either bit is right), and a zero message has only ``dead``."""
    small, big = min(t), max(t)
    if big == 0:
        return None, None, True
    return (None if t[0] == t[1] else t.index(big)), small / big, False


def reference_bit_rules(bit, r, dead, xl):
    """The minus and plus messages of (2h, B) q = 2 messages (bit, r, dead),
    ``dead`` None or a mask of zero messages, against the (h, B) transform xl
    of the low half: two flat lists, in C order over (h, B), of
    :func:`_bit_message` triples of
        minus[u] = t0[u] * t1[0] + t0[u ^ 1] * t1[1]
        plus[u]  = t0[xl ^ u] * t1[u]
    with t0 the message at j and t1 the one at j + h."""
    h, B = len(r) // 2, r.shape[1]
    minus, plus = [], []
    for j, k in itertools.product(range(h), range(B)):
        t0, t1 = (_bit_entries(int(bit[i, k]), float(r[i, k]),
                               dead is not None and bool(dead[i, k])) for i in (j, j + h))
        z = int(xl[j, k])
        minus.append(_bit_message([t0[u] * t1[0] + t0[u ^ 1] * t1[1] for u in (0, 1)]))
        plus.append(_bit_message([t0[z ^ u] * t1[u] for u in (0, 1)]))
    return minus, plus


def tie_draws(uniforms):
    """The tie source of ``sc_decode_batch`` over an (n, B) array of draws."""
    return lambda i, columns: uniforms[i, columns]


def _splitmix64_finalize(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def counter_uniform(seed, trial, slot):
    """The counter RNG's uniform draw for (seed, trial, slot), all arithmetic mod 2^64."""
    key = _splitmix64_finalize((seed + _GOLDEN) & _MASK64)
    per_trial = _splitmix64_finalize((key + _GOLDEN * (trial + 1)) & _MASK64)
    word = _splitmix64_finalize((per_trial + _GOLDEN * (slot + 1)) & _MASK64)
    # (w + 0.5) * 2^-53 rounds to 1.0 at the top word; that one is clamped
    return min((float(word >> 11) + 0.5) * 2.0**-53, math.nextafter(1.0, 0.0))


def polarize(ch):
    """One polarization step: the pair of channels seen after combining two uses.

    Returns ``(minus, plus)``.  ``minus`` maps u to output pairs (y0, y1)
    with law (1/q) * sum_u1 W(y0|u + alpha*u1) W(y1|u1); ``plus`` maps u to
    triples (y0, y1, u0) with law (1/q) * W(y0|u0 + alpha*u) W(y1|u).  Both
    are symmetric through the canonical permutation families
        minus: sigma_b (y0,y1) -> (y0+b, y1),              pi_a -> (a*y0, a*y1)
        plus:  sigma_b (y0,y1,u0) -> (y0+alpha*b, y1+b, u0), pi_a -> (a*y0, a*y1, a*u0)
    but, like every finite channel, they carry the families the search finds
    in their matrices: outputs with equal likelihood columns may be paired
    differently.
    """
    if not ch.is_finite:
        raise ValueError("polarization tables require a finite channel")
    field = ch.field
    alpha = field.alpha
    q = field.q
    ny = ch.num_outputs
    inv_q = Fraction(1, q)
    add, alpha_mul = field._add.tolist(), field._mul[alpha.index].tolist()

    # minus: outputs are pairs, index = y0 * ny + y1
    minus_matrix = []
    for u in range(q):
        row = []
        for y0 in range(ny):
            for y1 in range(ny):
                acc = Fraction(0)
                for u1 in range(q):
                    xin = add[u][alpha_mul[u1]]
                    acc += ch.matrix[xin][y0] * ch.matrix[u1][y1]
                row.append(inv_q * acc)
        minus_matrix.append(row)
    minus = FiniteChannel(field, minus_matrix)

    # plus: outputs are triples (y0, y1, u0), index = (y0 * ny + y1) * q + u0
    plus_matrix = []
    for u in range(q):
        row = []
        for y0 in range(ny):
            for y1 in range(ny):
                for u0 in range(q):
                    xin = add[u0][alpha_mul[u]]
                    row.append(inv_q * ch.matrix[xin][y0] * ch.matrix[u][y1])
        plus_matrix.append(row)

    plus = FiniteChannel(field, plus_matrix)
    return minus, plus


def xi_coefficients(field, m, r):
    """Per-coordinate multipliers of xi_r by element arithmetic: -alpha, or
    -alpha^(-1) where bit r of the coordinate is set."""
    alpha = field.alpha
    return tuple(-alpha.inverse() if (i >> r) & 1 else -alpha for i in range(1 << m))


def xi_apply_field(m, r, x):
    """Signed bit-flip map on a length-2^m vector of field elements."""
    n = 1 << m
    if len(x) != n:
        raise ValueError(f"vector length {len(x)} != {n}")
    coeffs = xi_coefficients(x[0].field, m, r)
    return tuple(coeffs[i] * x[delta(m, r, i)] for i in range(n))


def xi_apply_output(m, r, ch, y):
    """The same signed map acting on channel outputs through the pi family."""
    n = 1 << m
    if len(y) != n:
        raise ValueError(f"vector length {len(y)} != {n}")
    coeffs = xi_coefficients(ch.field, m, r)
    return tuple(ch.scale(y[delta(m, r, i)], coeffs[i]) for i in range(n))


def coset_transform(code, ch, a, b, y, x):
    """Map (y, x) to (a*y + x_b, a*x + x_b) with x_b the codeword of b.

    The output action runs through the channel's permutation families:
    scaling by pi_a first, then shifting by sigma.
    """
    if a.index == 0:
        raise ValueError("coset transforms need a nonzero scaling element")
    field = code.field
    b = [field.element(v) for v in b]
    xb = polar_transform(field, b)
    y2 = tuple(ch.shift(ch.scale(yi, a), xi) for yi, xi in zip(y, xb))
    x2 = tuple(a * v + w for v, w in zip(x, xb))
    return y2, x2


def reference_exact_genie_error_probs(field, m, ch):
    """Exact genie-aided decision error probability of every position: the
    all-zero transmission, every y of Y^n, and a uniform pick among the
    maximizers of each synthetic channel given the true all-zero prefix."""
    n = 1 << m
    probe = PolarCode(field, m, range(n))
    out = [Fraction(0)] * n
    for y in itertools.product(range(ch.num_outputs), repeat=n):
        w = Fraction(1)
        for v in y:
            w *= ch.matrix[0][v]
        for i in range(n):
            cands = _argmax_set(synthetic_channel(probe, ch, y, (field.zero,) * i))
            out[i] += w * (len(cands) - 1) / len(cands) if 0 in cands else w
    return tuple(out)


def erasure_params(m, epsilon):
    """Synthetic-channel erasure probabilities of all 2^m indices.

    Exact rationals when epsilon is rational.
    """
    eps = Fraction(epsilon) if not isinstance(epsilon, float) else epsilon
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    out = []
    for i in range(1 << m):
        z = eps
        for r in range(m - 1, -1, -1):
            z = z * z if (i >> r) & 1 else 2 * z - z * z
        out.append(z)
    return tuple(out)
