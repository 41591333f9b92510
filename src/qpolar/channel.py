"""Symmetric memoryless channels over a finite field input alphabet.

A channel ``W: F_q -> Y`` is symmetric here when two permutation families
on the output alphabet exist: additive shifts ``sigma_b`` with
``W[y|x] = W[sigma_{x'-x}(y)|x']`` and multiplicative scalings ``pi_a``
(a nonzero) with ``W[y|x] = W[pi_a(y)|a*x]``.  Finite channels carry their
transition law as exact rationals so the brute-force oracle can certify
exact equalities; float mirrors are derived from the rational source.
Their families are never declared: every finite channel, the shipped
constructions included, gets them from one search over its matrix when
it is built, and a matrix without them is rejected there.

Likelihood vectors are indexed by the input element index: the exact
column ``matrix[:][y]`` of a finite channel, axis 0 of ``likelihood_batch``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .gf import Field, _real, _sequence, default_field


def _as_fraction(v):
    """The one parser of probabilities: a float reads as the nearest fraction
    with denominator at most 10^12 (0.1 is 1/10); a bool or a float that is not
    finite is refused."""
    if (isinstance(v, bool) or not isinstance(v, (Fraction, int, str, float))
            or isinstance(v, float) and not math.isfinite(v)):
        raise ValueError(f"cannot interpret {v!r} as an exact probability")
    if isinstance(v, float):
        return Fraction(v).limit_denominator(10**12)
    return Fraction(v)


class FiniteChannel:
    """A finite-output F_q-symmetric channel with an exact rational law.

    Parameters
    ----------
    field : Field
        Input alphabet F_q.
    matrix : sequence of rows
        ``matrix[x][y]`` = W(y | x) as ``Fraction`` (or int/str coercible),
        one row per input element index.  Rows must sum to exactly 1, and
        outputs are addressed by their column index.

    The permutation families ``shift`` and ``scale`` are found from the
    matrix by one search; construction fails if none exist.
    """

    is_finite = True

    def __init__(self, field, matrix, kind="table", params=None):
        self.field = field
        self.kind = kind
        self.params = dict(params or {})
        q = field.q
        matrix = [_sequence(row, f"row {x}") for x, row in enumerate(_sequence(matrix, "matrix"))]
        if len(matrix) != q:
            raise ValueError(f"matrix needs {q} rows, got {len(matrix)}")
        ny = self.num_outputs = len(matrix[0])
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
        # sigma_b realizes x -> b + x, pi_a realizes x -> a * x
        self._sigma = _search_family(self.matrix, field._add.tolist(), range(q), "shift")
        self._pi = _search_family(self.matrix, field._mul.tolist(), range(1, q), "scaling")
        # float mirrors of the law, read-only like the field's tables
        self.matrix_float = np.array([[float(v) for v in row] for row in self.matrix])
        self.matrix_float.flags.writeable = False
        self.cumulative_float = np.cumsum(self.matrix_float, axis=1)
        self.cumulative_float.flags.writeable = False
        # thresholds[j, x]: a uniform at or above it sends input x past output
        # j.  From a row's last positive entry on it is inf: a float row can
        # sum to just below 1, and no uniform may reach an output of mass 0
        last = [max(y for y, v in enumerate(row) if v) for row in self.matrix]
        self._thresholds = np.where(np.arange(ny - 1)[:, None] >= last, np.inf,
                                    self.cumulative_float[:, :-1].T)
        self._thresholds.flags.writeable = False

    # -- core law ---------------------------------------------------------

    @property
    def q(self):
        return self.field.q

    def likelihood_batch(self, y):
        """(q, ...) float likelihoods for an integer array of output indices."""
        # C-contiguous; matrix_float[:, y] would put the symbol axis innermost
        return np.take(self.matrix_float, y, axis=1)

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

    def sample_batch(self, x_indices, uniforms):
        """Inverse-CDF sampling, one uniform in [0, 1] per transmitted symbol: the
        output counts the input's thresholds the uniform reaches, one threshold
        at a time over the batch, and never has probability 0."""
        # np.take reads a transposed index array (the layout of encoded random
        # messages) about ten times slower than a C-ordered copy
        x_indices = np.ascontiguousarray(x_indices)
        y = np.zeros(np.broadcast_shapes(x_indices.shape, np.shape(uniforms)), dtype=np.intp)
        for row in self._thresholds:
            y += uniforms >= np.take(row, x_indices)
        return y

    def __repr__(self):
        return f"FiniteChannel(kind={self.kind!r}, q={self.q}, outputs={self.num_outputs})"


class AwgnBpskChannel:
    """Binary-input AWGN channel with BPSK mapping 0 -> +1, 1 -> -1.

    Continuous outputs (real numbers); restricted to q = 2.  Symmetry holds
    analytically: sigma_1 is real negation and pi_1 is the identity.  The
    noise variance must be a finite positive number: a NaN or infinite one
    would decode every block without error.
    """

    is_finite = False
    q = 2

    def __init__(self, field, sigma2):
        if field.q != 2:
            raise ValueError("AWGN/BPSK is supported for the binary field only")
        sigma2 = _real(sigma2, "noise variance")
        if not 0 < sigma2 < math.inf:  # a NaN fails both comparisons
            raise ValueError(f"noise variance must be a finite positive number, got {sigma2!r}")
        self.field = field
        self.sigma2 = sigma2
        self.kind = "awgn_bpsk"
        self.params = {}

    @staticmethod
    def modulate(x_index):
        return 1.0 - 2.0 * x_index

    def likelihood_batch(self, y):
        """(2, ...) float likelihoods of a real output array, built in place."""
        # common density factors drop out of every argmax, keep the exponents
        # only: -(y - 1)^2 and -(y + 1)^2 less their maximum, over 2 sigma^2;
        # at |y| <= 2^40 they neither overflow nor round to one float
        out = np.subtract.outer([1.0, -1.0], np.clip(y, -2.0**40, 2.0**40))
        np.square(out, out=out)
        np.negative(out, out=out)
        out -= np.maximum(out[0], out[1])
        out /= 2 * self.sigma2
        return np.exp(out, out=out)

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
    return FiniteChannel(field, matrix, kind="qsc", params={"epsilon": eps})


def qec(field, epsilon):
    """q-ary erasure channel: outputs F_q (by index) and the erasure q, erased with eps."""
    eps = _as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    q = field.q
    matrix = []
    for x in range(q):
        row = [Fraction(0)] * (q + 1)
        row[x] = 1 - eps
        row[q] = eps
        matrix.append(row)
    return FiniteChannel(field, matrix, kind="qec", params={"epsilon": eps})


# -- symmetry search -------------------------------------------------------

def _search_family(matrix, table, keys, action):
    """Find output permutations realizing a family of input maps.

    For each key the input map is g = ``table[key]`` (an index list), and we
    search a permutation s of outputs with W[y|x] = W[s(y)|g(x)] for all
    x, y.  Outputs with identical likelihood columns are interchangeable,
    so we match columns up to that grouping.  A permutation found satisfies
    its identity by construction, so the search is the whole check.
    Returns ``{key: perm}``, or raises ``ValueError`` naming the first output
    without a match and the ``action`` key it fails under.
    """
    q = len(matrix)
    ny = len(matrix[0])
    # columns of value ids: equal entries share an id, hashed far faster than Fractions
    ids = {}
    cols = [tuple(ids.setdefault(matrix[x][y], len(ids)) for x in range(q)) for y in range(ny)]
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
                raise ValueError(f"channel is not F_q-symmetric: no output matches "
                                 f"y={y} under the {action} by index {key}")
            perm[y] = bucket.pop()
        found[key] = perm
    return found


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
    """The channel a config object describes; ``field`` is the field of an
    object that names none (F_2 when not given)."""
    if not isinstance(obj, dict):
        raise ValueError(f"a channel must be a JSON object, got {obj!r}")
    if "field" in obj:
        field = Field.from_json(obj["field"])
    elif field is None:
        field = default_field(2)
    kind = obj["kind"]
    if kind == "qsc":
        return qsc(field, obj["epsilon"])
    if kind == "qec":
        return qec(field, obj["epsilon"])
    if kind == "awgn_bpsk":
        if "ebno_db" not in obj and "rate" not in obj:
            return AwgnBpskChannel(field, obj["sigma2"])
        from .sim import ebno_to_channel
        ch = ebno_to_channel(obj["ebno_db"], obj["rate"], field)
        # a variance given with the pair must be the one the pair gives
        if "sigma2" in obj and obj["sigma2"] != ch.sigma2:
            raise ValueError(f"sigma2 {obj['sigma2']!r} differs from {ch.sigma2!r}, "
                             f"the variance of ebno_db {obj['ebno_db']!r} at rate {obj['rate']!r}")
        return ch
    if kind == "table":
        return FiniteChannel(field, obj["matrix"])
    raise ValueError(f"unknown channel kind {kind!r}")
