"""Symmetric memoryless channels over a finite field input alphabet.

A channel ``W: F_q -> Y`` is symmetric here when two permutation families
on the output alphabet exist: additive shifts ``sigma_b`` with
``W[y|x] = W[sigma_{x'-x}(y)|x']`` and multiplicative scalings ``pi_a``
(a nonzero) with ``W[y|x] = W[pi_a(y)|a*x]``.  Finite channels carry their
transition law as exact rationals so the brute-force oracle can certify
exact equalities; float mirrors are derived from the rational source.

Likelihood vectors are indexed by the input element index: exact
``Fraction`` tuples from ``likelihoods``, float arrays from
``likelihood_batch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ERASURE = "?"


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {v!r} as an exact probability")


@dataclass
class SymmetryReport:
    """Outcome of checking the two defining permutation families."""

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
    sigma, pi : optional
        Explicit permutation families (``sigma[b][y]``, ``pi[a][y]`` by
        index).  When omitted they are searched for; construction fails if
        none exist, unless ``verify=False``.
    """

    is_finite = True

    def __init__(self, field, outputs, matrix, sigma=None, pi=None,
                 kind="table", params=None, verify=True):
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
        self._sigma = [list(s) for s in sigma] if sigma is not None else None
        self._pi = {a: list(s) for a, s in pi.items()} if pi is not None else None
        if verify:
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

    def transition(self, y, x):
        """W(y | x) exactly; y is an output index, x a FieldElement."""
        if not 0 <= y < self.num_outputs:
            raise ValueError(f"output index {y} outside alphabet of size {self.num_outputs}")
        return self.matrix[x.index][y]

    def likelihoods(self, y):
        """Exact likelihood vector (W(y|u))_u over the q input symbols."""
        if not 0 <= y < self.num_outputs:
            raise ValueError(f"output index {y} outside alphabet of size {self.num_outputs}")
        return tuple(self.matrix[u][y] for u in range(self.q))

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

    def transition(self, y, x):
        """Gaussian density value at y for input x (a float, not a mass)."""
        s = self.modulate(x.index)
        return math.exp(-((y - s) ** 2) / (2 * self.sigma2)) / math.sqrt(2 * math.pi * self.sigma2)

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
    sigma = [[field.add_index(y, b) for y in range(q)] for b in range(q)]
    pi = {a: [field.mul_index(a, y) for y in range(q)] for a in range(1, q)}
    return FiniteChannel(field, field.elements, matrix, sigma, pi,
                         kind="qsc", params={"epsilon": eps})


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
    sigma = [[field.add_index(y, b) for y in range(q)] + [q] for b in range(q)]
    pi = {a: [field.mul_index(a, y) for y in range(q)] + [q] for a in range(1, q)}
    return FiniteChannel(field, outputs, matrix, sigma, pi,
                         kind="qec", params={"epsilon": eps})


def table_channel(field, matrix, outputs=None, verify=True):
    """Arbitrary finite channel given by its transition matrix."""
    matrix = [list(row) for row in matrix]
    if outputs is None:
        outputs = tuple(range(len(matrix[0])))
    return FiniteChannel(field, outputs, matrix, kind="table", verify=verify)


def polarize(ch, alpha=None):
    """One polarization step: the pair of channels seen after combining two uses.

    Returns ``(minus, plus)``.  ``minus`` maps u to output pairs (y0, y1)
    with law (1/q) * sum_u1 W(y0|u + alpha*u1) W(y1|u1); ``plus`` maps u to
    triples (y0, y1, u0) with law (1/q) * W(y0|u0 + alpha*u) W(y1|u).  Both
    carry the canonical permutation families
        minus: sigma_b (y0,y1) -> (y0+b, y1),              pi_a -> (a*y0, a*y1)
        plus:  sigma_b (y0,y1,u0) -> (y0+alpha*b, y1+b, u0), pi_a -> (a*y0, a*y1, a*u0)
    verified exhaustively at construction.
    """
    if not ch.is_finite:
        raise ValueError("polarization tables require a finite channel")
    field = ch.field
    alpha = field.alpha if alpha is None else alpha
    q = field.q
    ny = ch.num_outputs
    elems = field.elements
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
    minus_sigma = [
        [ch.shift(y0, elems[b]) * ny + y1 for y0 in range(ny) for y1 in range(ny)]
        for b in range(q)
    ]
    minus_pi = {
        a: [ch.scale(y0, elems[a]) * ny + ch.scale(y1, elems[a])
            for y0 in range(ny) for y1 in range(ny)]
        for a in range(1, q)
    }
    minus = FiniteChannel(field, pair_outputs, minus_matrix, minus_sigma, minus_pi,
                          kind="minus", params={"base": ch.kind, "alpha": alpha.index})

    # plus: outputs are triples (y0, y1, u0), index = (y0 * ny + y1) * q + u0
    triple_outputs = tuple((ch.outputs[y0], ch.outputs[y1], elems[u0])
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

    def _tidx(y0, y1, u0):
        return (y0 * ny + y1) * q + u0

    plus_sigma = [
        [_tidx(ch.shift(y0, alpha * elems[b]), ch.shift(y1, elems[b]), u0)
         for y0 in range(ny) for y1 in range(ny) for u0 in range(q)]
        for b in range(q)
    ]
    plus_pi = {
        a: [_tidx(ch.scale(y0, elems[a]), ch.scale(y1, elems[a]),
                  field.mul_index(a, u0))
            for y0 in range(ny) for y1 in range(ny) for u0 in range(q)]
        for a in range(1, q)
    }
    plus = FiniteChannel(field, triple_outputs, plus_matrix, plus_sigma, plus_pi,
                         kind="plus", params={"base": ch.kind, "alpha": alpha.index})
    return minus, plus


# -- verification ----------------------------------------------------------

def _check_families(ch, sigma, pi):
    """Exhaustively test the defining identities for explicit families."""
    q = ch.q
    ny = ch.num_outputs
    elems = ch.field.elements
    for b in range(q):
        perm = sigma[b]
        if sorted(perm) != list(range(ny)):
            return SymmetryReport(False, witness=("sigma", None, None, b),
                                  detail=f"sigma_{b} is not a permutation")
        for y in range(ny):
            for x in range(q):
                xp = ch.field.add_index(x, b)
                if ch.matrix[x][y] != ch.matrix[xp][perm[y]]:
                    return SymmetryReport(
                        False, witness=("sigma", y, x, b),
                        detail=f"W[y={y}|x={x}] != W[sigma_{b}(y)|x+{elems[b]!r}]")
    for a in range(1, q):
        perm = pi[a]
        if sorted(perm) != list(range(ny)):
            return SymmetryReport(False, witness=("pi", None, None, a),
                                  detail=f"pi_{a} is not a permutation")
        for y in range(ny):
            for x in range(q):
                xp = ch.field.mul_index(a, x)
                if ch.matrix[x][y] != ch.matrix[xp][perm[y]]:
                    return SymmetryReport(
                        False, witness=("pi", y, x, a),
                        detail=f"W[y={y}|x={x}] != W[pi_{a}(y)|{elems[a]!r}*x]")
    return SymmetryReport(True, sigma=[list(s) for s in sigma],
                          pi={a: list(s) for a, s in pi.items()})


def _search_family(ch, maps):
    """Find output permutations realizing a family of input maps.

    ``maps`` is a dict key -> input permutation g (as an index list); for
    each key we search a permutation s of outputs with
    W[y|x] = W[s(y)|g(x)] for all x, y.  Outputs with identical likelihood
    columns are interchangeable, so we match columns up to that grouping.
    """
    q = ch.q
    ny = ch.num_outputs
    cols = [tuple(ch.matrix[x][y] for x in range(q)) for y in range(ny)]
    found = {}
    for key, g in maps.items():
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
    """Confirm both permutation families and return them explicitly.

    Channels built with attached families have those families checked
    exhaustively; raw tables trigger a search.  On failure the report
    carries a witness triple.
    """
    if not ch.is_finite:
        raise ValueError("exhaustive symmetry verification requires a finite output alphabet")
    q = ch.q
    field = ch.field
    if ch._sigma is not None and ch._pi is not None:
        return _check_families(ch, ch._sigma, ch._pi)

    shift_maps = {b: [field.add_index(x, b) for x in range(q)] for b in range(q)}
    sigma, witness = _search_family(ch, shift_maps)
    if sigma is None:
        y, b = witness
        return SymmetryReport(False, witness=("sigma", y, 0, b),
                              detail=f"no output matches y={y} under the shift by index {b}")
    scale_maps = {a: [field.mul_index(a, x) for x in range(q)] for a in range(1, q)}
    pi, witness = _search_family(ch, scale_maps)
    if pi is None:
        y, a = witness
        return SymmetryReport(False, witness=("pi", y, 0, a),
                              detail=f"no output matches y={y} under the scaling by index {a}")
    sigma_list = [sigma[b] for b in range(q)]
    return _check_families(ch, sigma_list, pi)


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
