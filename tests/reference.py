"""Reference implementations that the tests compare the package against.

``reference_sc_decode`` is the scalar SC point decoder in its literal
form: Fraction likelihood vectors carrying the 1/q constants through
``combine_minus``/``combine_plus`` on the exact path, and tuples of Python
floats renormalized to maximum 1 on the float path, with ties resolved
lexicographically.  The package decodes one block on its two kernels
instead (the integer exact recursion and the float batch kernel) and must
reproduce these decisions.  ``matrix_multiply``, ``transition``,
``likelihoods``, ``product_transition`` and ``sample`` are the
element-level definitions of encoding, the channel and block transition
laws and channel sampling.  ``rank_alpha_generates`` decides whether alpha
generates F_q over F_p by the linear-algebra definition.
``reference_check_condition_A`` and ``reference_select_decreasing`` scan
every dominating index of every member: the quadratic form of the
upward-closure check and of the greedy decreasing selection.
"""

import math
from fractions import Fraction

import numpy as np

from qpolar.gf import _poly_mod, _poly_mul

TIE_RTOL = 1e-12


def _is_exact(t):
    return not isinstance(t[0], float)


def combine_minus(t0, t1, alpha):
    """Check-side combination of two likelihood vectors."""
    field = alpha.field
    q = field.q
    add, mul, a = field._add, field._mul, alpha.index
    out = [sum(t0[add[u][mul[a][u1]]] * t1[u1] for u1 in range(q)) for u in range(q)]
    if _is_exact(t0):
        out = [v * Fraction(1, q) for v in out]
    return tuple(out)


def combine_plus(t0, t1, u0, alpha):
    """Variable-side combination given the decoded partner symbol u0."""
    field = alpha.field
    q = field.q
    add, mul, a = field._add, field._mul, alpha.index
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
    if mx == 0:
        return (1.0,) * len(t)
    return tuple(v / mx for v in t)


def _float_leaf(ch, y):
    if ch.is_finite:
        return tuple(float(v) for v in ch.matrix_float[:, y])
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
            if code.is_info(pos):
                u = elems[_argmax_set(t_list[0])[0]]
            else:
                u = code.frozen_value(pos)
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


def matrix_multiply(field, u_indices, g):
    """Row vector times matrix over F_q, both given as element indices."""
    out = [0] * g.shape[1]
    for i, ui in enumerate(u_indices):
        if ui:
            row = g[i]
            for j in range(g.shape[1]):
                out[j] = field.add_index(out[j], field.mul_index(ui, int(row[j])))
    return tuple(out)


def transition(ch, y, x):
    """W(y | x) for a FieldElement x: exact for a finite channel (y an
    output index), the Gaussian density value at y for the AWGN channel."""
    if not ch.is_finite:
        s = ch.modulate(x.index)
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


def sample(ch, x, u):
    """The output index of a finite channel that the uniform u draws under
    input x: output y has probability W(y|x)."""
    return int(np.searchsorted(ch.cumulative_float[x.index], u, side="right"))


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


def _dominates(i, j):
    return (i & j) == j


def reference_check_condition_A(info_set, m):
    """``(True, None)`` or ``(False, (j, i))`` with j the smallest member that
    has a dominating index missing, and i the smallest such index."""
    n = 1 << m
    members = set(info_set)
    for j in sorted(members):
        for i in range(j + 1, n):
            if _dominates(i, j) and i not in members:
                return False, (j, i)
    return True, None


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
        need = [d for d in range(i, n) if _dominates(d, i) and d not in selected]
        if len(selected) + len(need) <= k:
            selected.update(need)
    while len(selected) < k:
        addable = [i for i in range(n) if i not in selected
                   and all(d in selected for d in range(i + 1, n) if _dominates(d, i))]
        selected.add(min(addable, key=lambda i: (estimates[i], -i)))
    return tuple(sorted(selected)), sorted(selected - naive)
