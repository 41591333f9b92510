"""Polar code parameters and the Kronecker-power transform.

The length-n transform is the m-fold Kronecker power of the 2x2 kernel
[[1, 0], [alpha, 1]] with no bit-reversal permutation.  Index i carries
the binary expansion b_{m-1}(i) ... b_0(i); the encoding recursion splits
on the most significant bit, so the low half is indices < n/2.  An index
i dominates j (i >= j in the bitwise order) when every bit of j is set in
i; information sets closed upward under this order are called decreasing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAX_KRON_LOG2 = 12


def dominates(i, j):
    """Bitwise domination: every set bit of j is set in i."""
    return (i & j) == j


def check_condition_A(info_set, m):
    """Is the index set closed upward under domination?

    Returns ``(True, None)`` or ``(False, (j, i))``: j is the smallest member
    with a dominating index missing, and i the smallest such index.
    """
    n = 1 << m
    members = set(info_set)
    for j in members:
        if not 0 <= j < n:
            raise ValueError(f"index {j} outside [0, {n})")
    # closed when every one-bit superset of each member is a member
    if all(j | 1 << r in members for j in members for r in range(m)):
        return True, None
    # j is the smallest member outside `closed`, the members whose every
    # dominating index is a member, built downward through one-bit supersets
    closed = set()
    for i in range(n - 1, -1, -1):
        if i in members and all(i | 1 << r in closed for r in range(m) if not i >> r & 1):
            closed.add(i)
    j = min(members - closed)
    return False, (j, next(i for i in range(j + 1, n) if dominates(i, j) and i not in members))


def closure(info_set, m):
    """Smallest superset closed upward under domination."""
    n = 1 << m
    out = set()
    for j in info_set:
        if not 0 <= j < n:
            raise ValueError(f"index {j} outside [0, {n})")
        for i in range(j, n):
            if dominates(i, j):
                out.add(i)
    return tuple(sorted(out))


def decreasing_sets(m):
    """All information sets at length 2^m satisfying the closure condition."""
    n = 1 << m
    out = []
    for mask in range(1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        if check_condition_A(members, m)[0]:
            out.append(members)
    return out


def polar_transform(field, u):
    """u * G_n for a sequence of field elements, computed recursively.

    One step: x = ((u_lo + alpha * u_hi) * G_{n/2}, u_hi * G_{n/2}).
    """
    u = list(u)
    n = len(u)
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of 2")
    if n == 1:
        return tuple(u)
    half = n // 2
    alpha = field.alpha
    lo = [u[i] + alpha * u[i + half] for i in range(half)]
    return polar_transform(field, lo) + polar_transform(field, u[half:])


def polar_transform_indices(field, u):
    """Vectorized transform on integer index arrays, over the last axis."""
    u = np.asarray(u)
    n = u.shape[-1]
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of 2")
    if n == 1:
        return u
    half = n // 2
    lo = field.add_table[u[..., :half], field.alpha_mul_table[u[..., half:]]]
    return np.concatenate(
        [polar_transform_indices(field, lo), polar_transform_indices(field, u[..., half:])],
        axis=-1,
    )


def kron_matrix(field, m):
    """The n x n transform matrix as an array of element indices.

    Row i is the codeword of the i-th unit message, so u * G_n is a plain
    table-multiply against this matrix.
    """
    if m > MAX_KRON_LOG2:
        raise ValueError(f"m={m} exceeds the explicit-matrix cap of {MAX_KRON_LOG2}")
    g = np.array([[1]], dtype=np.intp)
    a = field.alpha.index
    mul = field.mul_table
    for _ in range(m):
        n = g.shape[0]
        nxt = np.zeros((2 * n, 2 * n), dtype=np.intp)
        nxt[:n, :n] = g
        nxt[n:, :n] = mul[a][g]
        nxt[n:, n:] = g
        g = nxt
    return g


class PolarCode:
    """Polar(n, k, A, frozen values) over a fixed field.

    Parameters
    ----------
    field : Field
    m : int
        log2 of the code length.
    info_set : iterable of int
        Indices of information symbols; k = len(info_set).
    frozen_values : optional
        Field elements for the frozen positions in increasing index order.
        Defaults to all-zero.

    The constructor records whether the information set is decreasing
    (closed upward under domination); theorem-level verification paths
    require that flag but arbitrary sets are representable, e.g. to build
    counterexamples.
    """

    def __init__(self, field, m, info_set, frozen_values=None):
        if m < 0:
            raise ValueError("m must be nonnegative")
        self.field = field
        self.m = m
        self.n = 1 << m
        given = tuple(info_set)
        info = tuple(sorted(set(given)))
        if info and not (0 <= info[0] and info[-1] < self.n):
            raise ValueError(f"information indices outside [0, {self.n})")
        if len(info) != len(given):
            raise ValueError("information set contains duplicates")
        self.info_set = info
        self.k = len(info)
        self.frozen_set = tuple(sorted(set(range(self.n)) - set(info)))
        if frozen_values is None:
            frozen_values = [field.zero] * len(self.frozen_set)
        frozen_values = [field.element(v) for v in frozen_values]
        if len(frozen_values) != len(self.frozen_set):
            raise ValueError(
                f"need {len(self.frozen_set)} frozen values, got {len(frozen_values)}")
        self.frozen_values = tuple(frozen_values)
        self._frozen_map = dict(zip(self.frozen_set, self.frozen_values))
        self.is_decreasing, self.condition_witness = check_condition_A(info, m)
        self._info_mask = np.zeros(self.n, dtype=bool)
        self._info_mask[list(info)] = True
        self._frozen_idx = np.zeros(self.n, dtype=np.intp)
        for i, v in self._frozen_map.items():
            self._frozen_idx[i] = v.index
        self._kron = None

    def is_info(self, i):
        return bool(self._info_mask[i])

    def frozen_value(self, i):
        return self._frozen_map[i]

    @property
    def info_mask(self):
        return self._info_mask

    @property
    def frozen_index_array(self):
        """Per-position frozen value indices (zero at information positions)."""
        return self._frozen_idx

    def with_frozen_values(self, frozen_values):
        return PolarCode(self.field, self.m, self.info_set, frozen_values)

    def full_message(self, info_symbols):
        """Assemble the length-n message from k information symbols."""
        info_symbols = [self.field.element(v) for v in info_symbols]
        if len(info_symbols) != self.k:
            raise ValueError(f"need {self.k} information symbols, got {len(info_symbols)}")
        u = [None] * self.n
        for i, v in zip(self.info_set, info_symbols):
            u[i] = v
        for i, v in self._frozen_map.items():
            u[i] = v
        return tuple(u)

    def encode(self, u):
        """Codeword u * G_n; raises if u departs from a frozen value."""
        u = [self.field.element(v) for v in u]
        if len(u) != self.n:
            raise ValueError(f"message length {len(u)} != n = {self.n}")
        for i, v in self._frozen_map.items():
            if u[i] != v:
                raise ValueError(
                    f"position {i} is frozen to {v!r} but the message carries {u[i]!r}")
        return polar_transform(self.field, u)

    def kron_matrix(self):
        if self._kron is None:
            self._kron = kron_matrix(self.field, self.m)
        return self._kron

    def codewords(self):
        """All q^k codewords, in information-symbol index order."""
        elems = self.field.elements
        out = []

        def rec(prefix):
            if len(prefix) == self.k:
                out.append(polar_transform(self.field, self.full_message(prefix)))
                return
            for e in elems:
                rec(prefix + [e])

        rec([])
        return out

    def __repr__(self):
        return (f"PolarCode(n={self.n}, k={self.k}, q={self.field.q}, "
                f"decreasing={self.is_decreasing})")

    def to_json(self):
        return {
            "field": self.field.to_json(),
            "m": self.m,
            "k": self.k,
            "info_set": list(self.info_set),
            "frozen_values": [list(v.coeffs) for v in self.frozen_values],
        }

    @staticmethod
    def from_json(obj, field=None):
        from .gf import Field, default_field

        if field is None:
            field = Field.from_json(obj["field"]) if "field" in obj else default_field(2)
        code = PolarCode(field, obj["m"], obj["info_set"], obj.get("frozen_values"))
        if "k" in obj and obj["k"] != code.k:
            raise ValueError(f"config says k={obj['k']} but info_set has {code.k} indices")
        return code
