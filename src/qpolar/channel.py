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

Each channel keeps in ``config`` the JSON object, less the field, that rebuilds
it: a read-only mapping with tuple rows that the channel's builder writes once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .gf import Field, _object, _real, _sequence, default_field


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
    matrix by one search; construction fails if none exist.  ``config`` holds
    the rows as "n/d" strings; :func:`qsc` and :func:`qec` replace it with
    their epsilon (the strings cost 20 ms of qsc(F_256)'s 2.5 s, 0.1 ms at F_16).
    """

    is_finite = True

    def __init__(self, field, matrix):
        self.field = field
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
        self.config = MappingProxyType({"kind": "table", "matrix": tuple(
            tuple(f"{v.numerator}/{v.denominator}" for v in row) for row in rows)})
        # value ids of the columns: equal entries share an id, hashed far faster
        # than Fractions.  sigma_b realizes x -> b + x, pi_a realizes x -> a * x
        ids = {}
        cols = np.array([[ids.setdefault(v, len(ids)) for v in col] for col in zip(*rows)])
        self._sigma = _search_family(cols, field._add, range(q), "shift")
        self._pi = _search_family(cols, field._mul, range(1, q), "scaling")
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
        return f"FiniteChannel(kind={self.config['kind']!r}, q={self.q}, outputs={self.num_outputs})"


class AwgnBpskChannel:
    """Binary-input AWGN channel with BPSK mapping 0 -> +1, 1 -> -1.

    Continuous outputs (real numbers); restricted to q = 2.  Symmetry holds
    analytically: sigma_1 is real negation and pi_1 is the identity.  The
    noise variance must be a finite positive number: a NaN or infinite one
    would decode every block without error.  ``config`` holds the variance
    and, when an Eb/N0 and rate gave it, that pair.
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
        self.config = MappingProxyType({"kind": "awgn_bpsk", "sigma2": sigma2})

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
        return 1.0 - 2.0 * np.asarray(x_indices) + math.sqrt(self.sigma2) * normals

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
    ch = FiniteChannel(field, matrix)
    ch.config = MappingProxyType({"kind": "qsc", "epsilon": f"{eps.numerator}/{eps.denominator}"})
    return ch


def qec(field, epsilon):
    """q-ary erasure channel: outputs F_q (by index) and the erasure q, erased with eps."""
    eps = _as_fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError("epsilon must lie in [0, 1]")
    q = field.q
    matrix = [[1 - eps if y == x else eps if y == q else 0 for y in range(q + 1)]
              for x in range(q)]
    ch = FiniteChannel(field, matrix)
    ch.config = MappingProxyType({"kind": "qec", "epsilon": f"{eps.numerator}/{eps.denominator}"})
    return ch


def _ebno_channel(ebno_db, rate, field):
    """:func:`~qpolar.sim.ebno_to_channel` over ``field``."""
    # the channel rejects the zero, infinite or NaN variance that an
    # infinite, NaN or extreme value gives
    ebno_db, rate = _real(ebno_db, "ebno_db"), _real(rate, "rate")
    if rate <= 0 or rate > 1:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0))
    except OverflowError:  # 10^(ebno_db/10) beyond the floats
        sigma2 = 0.0
    except ZeroDivisionError:  # 10^(ebno_db/10) rounded to 0
        sigma2 = math.inf
    ch = AwgnBpskChannel(field, sigma2)
    ch.config = MappingProxyType({**ch.config, "ebno_db": ebno_db, "rate": rate})
    return ch


# -- symmetry search -------------------------------------------------------

def _search_family(cols, table, keys, action):
    """Find output permutations realizing a family of input maps.

    ``cols[y, x]`` is an id of W[y|x], the same for equal values.  For each
    key the input map is g = ``table[key]`` (an index array), and we search a
    permutation s of outputs with W[y|x] = W[s(y)|g(x)] for all x, y.
    Outputs with identical likelihood columns are interchangeable, so we
    match columns, looked up by their bytes, up to that grouping.  A
    permutation found satisfies its identity by construction, so the search
    is the whole check.  Returns ``{key: perm}``, or raises ``ValueError``
    naming the first output without a match and the ``action`` key it fails
    under.
    """
    outputs = {}
    for y, col in enumerate(cols):
        outputs.setdefault(col.tobytes(), []).append(y)
    found = {}
    for key in keys:
        # need col_{s(y)}[g(x)] = col_y[x], i.e. col_{s(y)} = col_y composed with g^{-1}
        targets = cols[:, np.argsort(table[key])]
        pool = {col: list(ys) for col, ys in outputs.items()}
        perm = found[key] = []
        for y, target in enumerate(targets):
            bucket = pool.get(target.tobytes())
            if not bucket:
                raise ValueError(f"channel is not F_q-symmetric: no output matches "
                                 f"y={y} under the {action} by index {key}")
            perm.append(bucket.pop())
    return found


# -- JSON config ------------------------------------------------------------

def channel_to_json(ch):
    return {**ch.config, "field": ch.field.to_json()}


def channel_from_json(obj, field=None):
    """The channel a config object describes; ``field`` is the field of an
    object that names none (F_2 when not given)."""
    kind = _object(obj, "a channel", ("kind",),
                   ("field", "epsilon", "matrix", "sigma2", "ebno_db", "rate"))["kind"]
    if "field" in obj:
        field = Field.from_json(obj["field"])
    elif field is None:
        field = default_field(2)
    what = f"a {kind!r} channel"
    if kind in ("qsc", "qec"):
        _object(obj, what, ("kind", "epsilon"), ("field",))
        return (qsc if kind == "qsc" else qec)(field, obj["epsilon"])
    if kind == "awgn_bpsk":
        if "ebno_db" not in obj and "rate" not in obj:
            _object(obj, what, ("kind", "sigma2"), ("field",))
            return AwgnBpskChannel(field, obj["sigma2"])
        _object(obj, what, ("kind", "ebno_db", "rate"), ("field", "sigma2"))
        ch = _ebno_channel(obj["ebno_db"], obj["rate"], field)
        # a variance given with the pair must be the one the pair gives
        if "sigma2" in obj and obj["sigma2"] != ch.sigma2:
            raise ValueError(f"sigma2 {obj['sigma2']!r} differs from {ch.sigma2!r}, "
                             f"the variance of ebno_db {obj['ebno_db']!r} at rate {obj['rate']!r}")
        return ch
    if kind == "table":
        _object(obj, what, ("kind", "matrix"), ("field",))
        return FiniteChannel(field, obj["matrix"])
    raise ValueError(f"unknown channel kind {kind!r}")
