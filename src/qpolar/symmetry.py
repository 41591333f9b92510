"""Code automorphisms and the equal-SER verification machinery.

``delta(m, r, .)`` flips bit r of an index; the signed map ``xi`` composes
that position permutation with per-coordinate multiplication by -alpha
(where bit r of the destination index is 0) or -alpha^(-1) (where it is 1).
Applied to codewords of a polar code whose information set is decreasing
and whose frozen symbols are zero, xi is a code automorphism, and applied
jointly to channel outputs and codewords it leaves the SC decode
distribution invariant.  Chaining bit flips maps any index to 0, which is
exactly why every codeword symbol inherits the same SER.

The checkers here restate each claim as an executable identity over the
exact oracle: they return ``(ok, witness)`` and never sample unless given
explicit output vectors to test.  The coset and xi checkers act on index
tuples through per-coordinate maps and share one transport loop: decode
every output once, then compare the decode distribution of each image
with the image of the distribution.
"""

from __future__ import annotations

import itertools

import numpy as np

from .code import polar_transform_indices
from .gf import _index, _integer
from .oracle import _check_enumeration_cap, exact_average_ser, exact_ser
from .sc import _ExactJob, _check_exact, sc_decode_distribution


def delta(m, r, i):
    """Flip bit r of an m-bit index."""
    r = _index(r, m, "bit position")
    return _index(i, 1 << m, "index") ^ (1 << r)


def xi_coefficients(field, m, r):
    """Per-coordinate multipliers of the signed map as element indices:
    -alpha, or -alpha^(-1) where bit r of the coordinate is set."""
    m = _integer(m, "m")
    r = _index(r, m, "bit position")
    a = field.alpha.index
    neg_alpha = int(field._neg[a])
    neg_alpha_inv = int(field._neg[field._inv[a]])
    return tuple(neg_alpha_inv if (i >> r) & 1 else neg_alpha for i in range(1 << m))


def _act(v, maps, src):
    """Coordinate i of the image of index vector v is maps[i][v[src[i]]]."""
    return tuple([m[v[j]] for m, j in zip(maps, src)])


def _pushforward(dist, maps, src):
    """Image of an index decode distribution under the same action."""
    return {_act(x, maps, src): p for x, p in dist.items()}


def _transport(code, ch, ys):
    """Decode every output block once; return the transport check.

    The check takes an action (``ymaps`` on outputs, ``xmaps`` on codeword
    indices, both reading coordinate ``src[i]`` into i) and returns the
    first y whose image decodes to anything but the image of y's decode
    distribution, or None.  ``ys`` None means every output of Y^n.
    """
    if ys is None:
        _check_enumeration_cap(code, ch)
        ys = list(itertools.product(range(ch.num_outputs), repeat=code.n))
    else:
        ys = [_check_exact(code, ch, y) for y in ys]
    job = _ExactJob(code, ch)
    dists = {y: sc_decode_distribution(code, ch, y, job=job) for y in ys}

    def first_violation(ymaps, xmaps, src):
        for y in ys:
            y2 = _act(y, ymaps, src)
            d2 = dists[y2] if y2 in dists else sc_decode_distribution(code, ch, y2, job=job)
            if d2 != _pushforward(dists[y], xmaps, src):
                return y
        return None

    return first_violation


def _require_zero_frozen(code):
    if code.frozen_index_array.any():
        raise ValueError("this identity is stated for all-zero frozen symbols")


def check_message_invariance(code, ch, messages):
    """SER vectors are identical for every transmitted message (Lemma on cosets).

    ``messages`` is an iterable of full length-n messages; the first one is
    the baseline.  Holds for arbitrary information sets.
    """
    baseline = None
    base_msg = None
    for u in messages:
        per = exact_ser(code, ch, u).per_index
        if baseline is None:
            baseline, base_msg = per, u
        elif per != baseline:
            return False, {"message": u, "ser": per,
                           "baseline_message": base_msg, "baseline_ser": baseline}
    return True, None


def check_coset_invariance(code, ch, ys=None):
    """Decode distributions transport along a*y + x_b for codewords x_b.

    Exhausts all nonzero a and all codewords of the zero-frozen code, and
    all output vectors unless narrowed by ``ys``.
    """
    _require_zero_frozen(code)
    field = code.field
    elems = field.elements
    first_violation = _transport(code, ch, ys)
    src = range(code.n)
    # every message of the zero-frozen code, the first information symbol
    # varying slowest, and its codeword
    b = np.zeros((field.q ** code.k, code.n), dtype=np.intp)
    b[:, list(code.info_set)] = list(itertools.product(range(field.q), repeat=code.k))
    for b_row, xb in zip(b.tolist(), polar_transform_indices(field, b).tolist()):
        for a in range(1, field.q):
            # coordinate j acts as y -> sigma_{xb_j}(pi_a(y)) and x -> a*x + xb_j
            scaled = [ch.scale(v, elems[a]) for v in range(ch.num_outputs)]
            ymaps = [[ch.shift(v, elems[w]) for v in scaled] for w in xb]
            xmaps = [field._add[field._mul[a], w].tolist() for w in xb]
            y = first_violation(ymaps, xmaps, src)
            if y is not None:
                return False, {"a": elems[a], "b": tuple(elems[i] for i in b_row), "y": y}
    return True, None


def check_xi_invariance(code, ch, r, ys=None):
    """Decode distributions are invariant under the signed flip of bit r.

    Needs a decreasing information set and zero frozen symbols; bit
    ``r = m-1`` is the base case proved directly, lower bits follow by
    recursion.
    """
    _require_zero_frozen(code)
    if not code.is_decreasing:
        raise ValueError("the xi identities need a decreasing information set")
    m = code.m
    field = code.field
    r = _integer(r, "bit position")
    # coordinate i of the image reads coordinate delta(i) scaled by coeffs[i]
    src = [delta(m, r, i) for i in range(code.n)]
    first_violation = _transport(code, ch, ys)
    coeffs = xi_coefficients(field, m, r)
    ymaps = [[ch.scale(v, field.elements[c]) for v in range(ch.num_outputs)] for c in coeffs]
    xmaps = [field._mul[c].tolist() for c in coeffs]
    y = first_violation(ymaps, xmaps, src)
    if y is not None:
        return False, {"r": r, "y": y}
    return True, None


def check_ser_bit_flip_symmetry(code, ch):
    """Per-index SERs agree across every bit flip of the index."""
    if not code.is_decreasing:
        raise ValueError("SER flip symmetry needs a decreasing information set")
    per = exact_average_ser(code, ch).per_index
    for r in range(code.m):
        for j in range(code.n):
            jj = delta(code.m, r, j)
            if per[j] != per[jj]:
                return False, {"r": r, "j": j, "ser_j": per[j], "ser_flip": per[jj]}
    return True, None


def check_equal_ser(code, ch):
    """The headline claim: every codeword index has the same exact SER."""
    if not code.is_decreasing:
        raise ValueError(
            "equal SER is claimed for decreasing information sets only; "
            f"violating pair {code.condition_witness}")
    per = exact_average_ser(code, ch).per_index
    first = per[0]
    for j, v in enumerate(per):
        if v != first:
            return False, {"j": j, "ser_0": first, "ser_j": v, "per_index": per}
    return True, {"ser": first}
