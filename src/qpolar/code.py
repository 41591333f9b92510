"""Polar code parameters and the Kronecker-power transform.

The length-n transform is the m-fold Kronecker power of the 2x2 kernel
[[1, 0], [alpha, 1]] with no bit-reversal permutation.  Index i carries
the binary expansion b_{m-1}(i) ... b_0(i); the encoding recursion splits
on the most significant bit, so the low half is indices < n/2.  An index
i dominates j (i >= j in the bitwise order) when every bit of j is set in
i; information sets closed upward under this order are called decreasing.

:func:`polar_transform_indices` computes u * G_n on arrays of element
indices, one gather from the field's table ``aff[z, u]`` = z + alpha*u per
step, for every caller but one: ``oracle.exact_ser`` encodes its reference
codeword with :func:`polar_transform`, the element-level form.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .gf import Field, _index, _integer, _object, _sequence, default_field


def check_condition_A(info_set, m):
    """Is the index set closed upward under domination?

    It is closed exactly when every one-bit superset j | 2^r of each member
    j is a member.  Returns ``(True, None)`` or ``(False, (j, i))``: j is
    the smallest member with a one-bit superset missing, and i = j | 2^r
    the smallest such superset.
    """
    n = 1 << _integer(m, "m")
    members = {_index(j, n, "index") for j in info_set}
    for j in sorted(members):
        for i in (j | 1 << r for r in range(m)):
            if i not in members:
                return False, (j, i)
    return True, None


def decreasing_sets(m):
    """All information sets at length 2^m satisfying the closure condition."""
    n = 1 << _integer(m, "m")
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
    if n < 1 or n & (n - 1):
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
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of 2")
    if n == 1:
        return u
    half = n // 2
    lo = field.aff[u[..., :half], u[..., half:]]
    return np.concatenate(
        [polar_transform_indices(field, lo), polar_transform_indices(field, u[..., half:])],
        axis=-1,
    )


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
        m = _integer(m, "m")
        if m < 0:
            raise ValueError("m must be nonnegative")
        self.field = field
        self.m = m
        self.n = 1 << m
        given = tuple(_index(i, self.n, "information index")
                      for i in _sequence(info_set, "info_set"))
        info = tuple(sorted(set(given)))
        if len(info) != len(given):
            raise ValueError("information set contains duplicates")
        self.info_set = info
        self.k = len(info)
        self.frozen_set = tuple(sorted(set(range(self.n)) - set(info)))
        if frozen_values is None:
            frozen_values = [field.zero] * len(self.frozen_set)
        frozen_values = [field.element(v) for v in _sequence(frozen_values, "frozen_values")]
        if len(frozen_values) != len(self.frozen_set):
            raise ValueError(
                f"need {len(self.frozen_set)} frozen values, got {len(frozen_values)}")
        self.frozen_values = tuple(frozen_values)
        self.is_decreasing, self.condition_witness = check_condition_A(info, m)
        # per-position views for the decoders, read-only: a write would
        # change the decoded code under an unchanged info_set
        self.info_mask = np.isin(np.arange(self.n), info)
        self.info_mask.flags.writeable = False
        # frozen value indices, zero at information positions
        self.frozen_index_array = np.zeros(self.n, dtype=np.intp)
        self.frozen_index_array[list(self.frozen_set)] = [v.index for v in self.frozen_values]
        self.frozen_index_array.flags.writeable = False
        # (lo, span) -> transform of the frozen values of each all-frozen
        # (rate-0) subtree, which the SC decoders take instead of decoding it
        rate0 = {(i, 1): self.frozen_index_array[i:i + 1] for i in self.frozen_set}
        for span in (1 << s for s in range(m)):
            for lo in range(0, self.n, 2 * span):
                xl, xh = rate0.get((lo, span)), rate0.get((lo + span, span))
                if xl is not None and xh is not None:
                    rate0[lo, 2 * span] = np.concatenate([field.aff[xl, xh], xh])
                    rate0[lo, 2 * span].flags.writeable = False
        self.rate0_transforms = MappingProxyType(rate0)

    def with_frozen_values(self, frozen_values):
        return PolarCode(self.field, self.m, self.info_set, frozen_values)

    def encode(self, u):
        """Codeword u * G_n; raises if u departs from a frozen value."""
        elems = self.field.elements
        u = np.array([self.field.element(v).index for v in u], dtype=np.intp)
        if len(u) != self.n:
            raise ValueError(f"message length {len(u)} != n = {self.n}")
        departs = np.flatnonzero((u != self.frozen_index_array) & ~self.info_mask)
        if departs.size:
            i = departs[0]
            raise ValueError(f"position {i} is frozen to {elems[self.frozen_index_array[i]]!r} "
                             f"but the message carries {elems[u[i]]!r}")
        return tuple(elems[i] for i in polar_transform_indices(self.field, u).tolist())

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
    def from_json(obj):
        obj = _object(obj, "a code", ("m", "info_set"), ("field", "k", "frozen_values", "meta"))
        field = Field.from_json(obj["field"]) if "field" in obj else default_field(2)
        code = PolarCode(field, obj["m"], obj["info_set"], obj.get("frozen_values"))
        if "k" in obj and _integer(obj["k"], "k") != code.k:
            raise ValueError(f"config says k={obj['k']} but info_set has {code.k} indices")
        return code
