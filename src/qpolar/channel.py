"""Symmetric memoryless channels over a finite field input alphabet.

A channel ``W: F_q -> Y`` is symmetric here when two permutation families
on the output alphabet exist: additive shifts ``sigma_b`` with
``W[y|x] = W[sigma_{x'-x}(y)|x']`` and multiplicative scalings ``pi_a``
(a nonzero) with ``W[y|x] = W[pi_a(y)|a*x]``.  Finite channels carry their
transition law as exact rationals so the brute-force oracle can certify
exact equalities; float mirrors are derived from the rational source.
Their families are never declared: every finite channel, the shipped
constructions included, gets them from one search over its matrix.

Likelihood vectors are indexed by the input element index: the exact
column ``matrix[:][y]`` of a finite channel, float arrays from
``likelihood_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ERASURE = "?"


def _as_fraction(v):
    if isinstance(v, (Fraction, int, str)):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {v!r} as an exact probability")


@dataclass
class SymmetryReport:
    """Outcome of the search for the two defining permutation families."""

    ok: bool
    sigma: list | None = None       # sigma[b][y] -> y', for every b index
    pi: dict | None = None          # pi[a][y] -> y', for every nonzero a index
    witness: tuple | None = None    # (kind, y, x, b_or_a) for the violated identity
    detail: str = ""


class FiniteChannel:
    """A finite-output F_q-symmetric channel with an exact rational law.

    Parameters
    ----------
    field : Field
        Input alphabet F_q.
    outputs : sequence
        Output symbol labels; symbols are addressed by their index here.
    matrix : sequence of rows
        ``matrix[x][y]`` = W(y | x) as ``Fraction`` (or int/str coercible),
        one row per input element index.  Rows must sum to exactly 1.

    The permutation families ``shift`` and ``scale`` are found from the
    matrix by :func:`verify_symmetry`; construction fails if none exist.
    """

    is_finite = True

    def __init__(self, field, outputs, matrix, kind="table", params=None):
        self.field = field
        self.outputs = tuple(outputs)
        self.kind = kind
        self.params = dict(params or {})
        q = field.q
        ny = len(self.outputs)
        if len(matrix) != q:
            raise ValueError(f"matrix needs {q} rows, got {len(matrix)}")
        rows = []
        for x, row in enumerate(matrix):
            row = tuple(_as_fraction(v) for v in row)
            if len(row) != ny:
                raise ValueError(f"row {x} has {len(row)} entries, expected {ny}")
            if any(v < 0 for v in row):
                raise ValueError(f"row {x} has a negative probability")
            if sum(row) != 1:
                raise ValueError(f"row {x} sums to {sum(row)}, not 1")
            rows.append(row)
        self.matrix = tuple(rows)
        report = verify_symmetry(self)
        if not report.ok:
            raise ValueError(f"channel is not F_q-symmetric: {report.detail}")
        self._sigma = report.sigma
        self._pi = report.pi
        self._float = None
        self._cum = None

    # -- core law ---------------------------------------------------------

    @property
    def q(self):
        return self.field.q

    @property
    def num_outputs(self):
        return len(self.outputs)

    @property
    def matrix_float(self):
        if self._float is None:
            self._float = np.array([[float(v) for v in row] for row in self.matrix])
        return self._float

    def likelihood_batch(self, y):
        """(... , q) float likelihoods for an integer array of output indices."""
        y = np.asarray(y)
        return self.matrix_float.T[y]

    # -- symmetry actions ---------------------------------------------------

    def shift(self, y, b):
        """sigma_b(y): the output standing for y + b."""
        return self._sigma[b.index][y]

    def scale(self, y, a):
        """pi_a(y): the output standing for a * y; a must be nonzero."""
        if a.index == 0:
            raise ValueError("scaling permutations are defined for nonzero a only")
        return self._pi[a.index][y]

    # -- sampling -----------------------------------------------------------

    @property
    def cumulative_float(self):
        if self._cum is None:
            self._cum = np.cumsum(self.matrix_float, axis=1)
        return self._cum

    def sample_batch(self, x_indices, uniforms):
        """Vectorized inverse-CDF sampling: one uniform per transmitted symbol."""
        x_indices = np.asarray(x_indices)
        cum = self.cumulative_float[x_indices]
        # a float cumulative row can end just below 1
        return np.minimum((uniforms[..., None] >= cum).sum(axis=-1), self.num_outputs - 1)

    def __repr__(self):
        return f"FiniteChannel(kind={self.kind!r}, q={self.q}, outputs={self.num_outputs})"


class AwgnBpskChannel:
    """Binary-input AWGN channel with BPSK mapping 0 -> +1, 1 -> -1.

    Continuous outputs (real numbers); restricted to q = 2.  Symmetry holds
    analytically: sigma_1 is real negation and pi_1 is the identity.
    """

    is_finite = False

    def __init__(self, field, sigma2):
        if field.q != 2:
            raise ValueError("AWGN/BPSK is supported for the binary field only")
        if sigma2 <= 0:
            raise ValueError("noise variance must be positive")
        self.field = field
        self.sigma2 = float(sigma2)
        self.kind = "awgn_bpsk"
        self.params = {"sigma2": self.sigma2}

    @property
    def q(self):
        return 2

    @staticmethod
    def modulate(x_index):
        return 1.0 - 2.0 * x_index

    def likelihood_batch(self, y):
        y = np.asarray(y, dtype=float)
        out = np.empty(y.shape + (2,))
        # common density factors drop out of every argmax, keep the exponents only
        out[..., 0] = -((y - 1.0) ** 2)
        out[..., 1] = -((y + 1.0) ** 2)
        out -= out.max(axis=-1, keepdims=True)
        return np.exp(out / (2 * self.sigma2))

    def shift(self, y, b):
        return -y if b.index else y

    def scale(self, y, a):
        if a.index == 0:
            raise ValueError("scaling permutations are defined for nonzero a only")
        return y

    def sample_batch(self, x_indices, normals):
        return self.modulate(np.asarray(x_indices)) + math.sqrt(self.sigma2) * normals

    def __repr__(self):
        return f"AwgnBpskChannel(sigma2={self.sigma2:.6g})"


# -- standard constructions ----------------------------------------------

def qsc(field, epsilon):
    """q-ary symmetric channel: correct with 1-eps, each wrong symbol eps/(q-1)."""
    eps = _as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    q = field.q
    wrong = eps / (q - 1)
    matrix = [[(1 - eps) if y == x else wrong for y in range(q)] for x in range(q)]
    return FiniteChannel(field, field.elements, matrix, kind="qsc", params={"epsilon": eps})


def qec(field, epsilon):
    """q-ary erasure channel: output alphabet F_q + erasure, erased with eps."""
    eps = _as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    q = field.q
    outputs = tuple(field.elements) + (ERASURE,)
    matrix = []
    for x in range(q):
        row = [Fraction(0)] * (q + 1)
        row[x] = 1 - eps
        row[q] = eps
        matrix.append(row)
    return FiniteChannel(field, outputs, matrix, kind="qec", params={"epsilon": eps})


def table_channel(field, matrix):
    """Arbitrary finite channel given by its transition matrix; outputs are
    labelled 0, 1, ... in column order."""
    matrix = [list(row) for row in matrix]
    return FiniteChannel(field, range(len(matrix[0])), matrix, kind="table")


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

    # minus: outputs are pairs, index = y0 * ny + y1
    pair_outputs = tuple((ch.outputs[y0], ch.outputs[y1])
                         for y0 in range(ny) for y1 in range(ny))
    minus_matrix = []
    for u in range(q):
        row = []
        for y0 in range(ny):
            for y1 in range(ny):
                acc = Fraction(0)
                for u1 in range(q):
                    xin = field.add_index(u, field.mul_index(alpha.index, u1))
                    acc += ch.matrix[xin][y0] * ch.matrix[u1][y1]
                row.append(inv_q * acc)
        minus_matrix.append(row)
    minus = FiniteChannel(field, pair_outputs, minus_matrix,
                          kind="minus", params={"base": ch.kind, "alpha": alpha.index})

    # plus: outputs are triples (y0, y1, u0), index = (y0 * ny + y1) * q + u0
    triple_outputs = tuple((ch.outputs[y0], ch.outputs[y1], field.elements[u0])
                           for y0 in range(ny) for y1 in range(ny) for u0 in range(q))
    plus_matrix = []
    for u in range(q):
        row = []
        for y0 in range(ny):
            for y1 in range(ny):
                for u0 in range(q):
                    xin = field.add_index(u0, field.mul_index(alpha.index, u))
                    row.append(inv_q * ch.matrix[xin][y0] * ch.matrix[u][y1])
        plus_matrix.append(row)

    plus = FiniteChannel(field, triple_outputs, plus_matrix,
                         kind="plus", params={"base": ch.kind, "alpha": alpha.index})
    return minus, plus


# -- verification ----------------------------------------------------------

def _search_family(ch, table, keys):
    """Find output permutations realizing a family of input maps.

    For each key the input map is g = ``table[key]`` (an index list), and we
    search a permutation s of outputs with W[y|x] = W[s(y)|g(x)] for all
    x, y.  Outputs with identical likelihood columns are interchangeable,
    so we match columns up to that grouping.  Returns ``(found, None)`` or
    ``(None, (y, key))`` for the first output y without a match.
    """
    q = ch.q
    ny = ch.num_outputs
    # columns of value ids: equal entries share an id, hashed far faster than Fractions
    ids = {}
    cols = [tuple(ids.setdefault(ch.matrix[x][y], len(ids)) for x in range(q)) for y in range(ny)]
    found = {}
    for key in keys:
        g = table[key]
        # need col_{s(y)}[g(x)] = col_y[x], i.e. col_{s(y)} = col_y composed with g^{-1}
        ginv = [0] * q
        for x, gx in enumerate(g):
            ginv[gx] = x
        pool = {}
        for y in range(ny):
            pool.setdefault(cols[y], []).append(y)
        perm = [None] * ny
        for y in range(ny):
            target = tuple(cols[y][ginv[x]] for x in range(q))
            bucket = pool.get(target)
            if not bucket:
                return None, (y, key)
            perm[y] = bucket.pop()
        found[key] = perm
    return found, None


def verify_symmetry(ch):
    """Find both permutation families from the transition matrix.

    A family the search returns satisfies its defining identity by
    construction, so the search is the whole check.  On failure the report
    carries a witness: the output with no match and the shift or scaling
    index.
    """
    if not ch.is_finite:
        raise ValueError("exhaustive symmetry verification requires a finite output alphabet")
    q = ch.q
    families = []
    # sigma_b realizes x -> b + x, pi_a realizes x -> a * x
    for kind, table, keys, action in (("sigma", ch.field._add, range(q), "shift"),
                                       ("pi", ch.field._mul, range(1, q), "scaling")):
        found, witness = _search_family(ch, table, keys)
        if found is None:
            y, g = witness
            return SymmetryReport(False, witness=(kind, y, 0, g),
                                  detail=f"no output matches y={y} under the {action} by index {g}")
        families.append(found)
    sigma, pi = families
    return SymmetryReport(True, sigma=[sigma[b] for b in range(q)], pi=pi)


# -- JSON config ------------------------------------------------------------

def channel_to_json(ch):
    obj = {"kind": ch.kind, "field": ch.field.to_json()}
    if ch.kind in ("qsc", "qec"):
        eps = ch.params["epsilon"]
        obj["epsilon"] = f"{eps.numerator}/{eps.denominator}"
    elif ch.kind == "awgn_bpsk":
        obj["sigma2"] = ch.sigma2
        if "ebno_db" in ch.params:
            obj["ebno_db"] = ch.params["ebno_db"]
            obj["rate"] = ch.params["rate"]
    elif ch.kind == "table":
        obj["matrix"] = [[f"{v.numerator}/{v.denominator}" for v in row]
                         for row in ch.matrix]
    else:
        raise ValueError(f"channel kind {ch.kind!r} has no config serialization")
    return obj


def channel_from_json(obj, field=None):
    from .gf import Field, default_field

    if field is None:
        field = Field.from_json(obj["field"]) if "field" in obj else default_field(2)
    kind = obj["kind"]
    if kind == "qsc":
        return qsc(field, Fraction(obj["epsilon"]))
    if kind == "qec":
        return qec(field, Fraction(obj["epsilon"]))
    if kind == "awgn_bpsk":
        if "sigma2" in obj:
            ch = AwgnBpskChannel(field, obj["sigma2"])
        else:
            from .sim import ebno_to_channel
            ch = ebno_to_channel(obj["ebno_db"], obj["rate"], field)
        return ch
    if kind == "table":
        return table_channel(field, obj["matrix"])
    raise ValueError(f"unknown channel kind {kind!r}")
