"""Reference implementations that the tests compare the package against.

``reference_sc_decode`` is the scalar SC point decoder in its literal
form: Fraction likelihood vectors carrying the 1/q constants through
``combine_minus``/``combine_plus`` on the exact path, and tuples of Python
floats renormalized to maximum 1 on the float path, with ties resolved
lexicographically.  The package decodes one block on its two kernels
instead (the integer exact recursion and the float batch kernel) and must
reproduce these decisions.  ``matrix_multiply``, ``product_transition`` and
``sample`` are the element-level definitions of encoding, the block
transition law and channel sampling.
"""

from fractions import Fraction

import numpy as np

DEFAULT_TIE_RTOL = 1e-12


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


def _argmax_set(t, tie_rtol):
    mx = max(t)
    if _is_exact(t):
        return [u for u, v in enumerate(t) if v == mx]
    thresh = mx - abs(mx) * tie_rtol
    return [u for u, v in enumerate(t) if v >= thresh]


def _renorm(t):
    mx = max(t)
    if mx == 0:
        return (1.0,) * len(t)
    return tuple(v / mx for v in t)


def _float_leaf(ch, y):
    if ch.is_finite:
        return tuple(float(v) for v in ch.matrix_float[:, y])
    return tuple(ch.transition(y, e) for e in ch.field.elements)


def reference_sc_decode(code, ch, y, exact=None, tie_rtol=DEFAULT_TIE_RTOL):
    """Lexicographic SC point decode; returns (message, codeword) element tuples."""
    if exact is None:
        exact = ch.is_finite
    field = code.field
    alpha = field.alpha
    elems = field.elements
    if exact:
        T = [ch.likelihoods(v) for v in y]
    else:
        T = [_renorm(_float_leaf(ch, v)) for v in y]

    def rec(t_list, pos):
        if len(t_list) == 1:
            if code.is_info(pos):
                u = elems[_argmax_set(t_list[0], tie_rtol)[0]]
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


def product_transition(ch, y_vec, x_vec):
    """W^n(y | x) = prod_i W(y_i | x_i) for a memoryless block of n uses."""
    if len(y_vec) != len(x_vec):
        raise ValueError("output and input blocks differ in length")
    acc = Fraction(1) if ch.is_finite else 1.0
    for y, x in zip(y_vec, x_vec):
        acc *= ch.transition(y, x)
    return acc


def sample(ch, x, u):
    """The output index of a finite channel that the uniform u draws under
    input x: output y has probability W(y|x)."""
    return int(np.searchsorted(ch.cumulative_float[x.index], u, side="right"))
