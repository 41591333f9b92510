"""Exact arithmetic in small finite fields F_q = F_{p^s}.

A :class:`Field` fixes a prime characteristic ``p``, an extension degree
``s``, a monic irreducible modulus of degree ``s`` over F_p, and a
designated nonzero kernel element ``alpha`` used by the polar transform.
``alpha`` must generate the whole field over F_p, i.e. its minimal
polynomial must have degree exactly ``s``; the constructor rejects any
other choice.

Elements live in the polynomial basis: the element with coordinates
``(c_0, ..., c_{s-1})`` is ``c_0 + c_1*x + ... + c_{s-1}*x^{s-1}`` and is
addressed by the integer index ``sum(c_i * p**i)``.  Construction
tabulates the arithmetic once (q <= 256), from the element coordinates in
a few array steps: read-only numpy index arrays ``_add``, ``_mul``,
``_neg`` and ``_inv``, and the kernel's one operation ``aff[z, u]``, the
index of z + alpha*u, which the encoder, both SC kernels and the checkers
read.  Element operations are lookups in those tables, and they are the
module's only arithmetic: a modulus of degree s is irreducible when it has
no root in the smaller fields F_{p^d}, d <= s/2, evaluated on their tables.
Fields are immutable and elements are frozen dataclasses, so both are safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

MAX_FIELD_SIZE = 256

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _integer(value, what, refusal=None):
    """``value`` as an int: the package's one integer rule.  A bool or any other
    non-integer raises ValueError, with ``refusal`` or a message naming both."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(refusal or f"{what} {value!r} is not an integer")
    return int(value)


def _index(value, bound, what):
    """``value`` as an int in [0, bound): the package's one index rule."""
    if not 0 <= (value := _integer(value, what)) < bound:
        raise ValueError(f"{what} {value} outside [0, {bound})")
    return value


def _count(value, what):
    """``value`` as an int >= 1: the package's one count rule."""
    if (value := _integer(value, what)) < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def _real(value, what):
    """``value`` as a float: the package's one real rule.  A bool, any other
    non-real or one beyond the floats raises ValueError; NaN and inf are reals."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a real number in the float range, got {value!r}")


def _flag(value, what):
    """``value`` as a bool: the package's one flag rule: a Python or numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be true or false, got {value!r}")
    return bool(value)


def _sequence(values, what):
    """``values`` as a tuple; a value that is not a sequence raises ValueError."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a sequence, got {values!r}") from None


def _object(value, what, required, optional):
    """The one object rule: a mapping (a dict, or a channel's read-only
    ``config``) with every ``required`` key, others from ``optional``."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    if unknown := [k for k in value if k not in required and k not in optional]:
        raise ValueError(f"{what} reads no keys {unknown}")
    if missing := [k for k in required if k not in value]:
        raise ValueError(f"{what} needs the keys {missing}")
    return value


def _coordinates(values, p, s, what):
    """The s coordinates of a modulus or an element, each an index in [0, p)."""
    coeffs = _sequence(values, what)
    if len(coeffs) != s:
        raise ValueError(f"{what} needs {s} coordinates, got {len(coeffs)}")
    return tuple(_index(c, p, f"{what} coordinate") for c in coeffs)


def is_irreducible(modulus, p):
    """Irreducibility of a monic polynomial over F_p, decided from its roots.

    ``modulus`` is the low-first coefficient list of the non-leading
    coefficients; the monic leading coefficient is implicit.  An irreducible
    factor of degree d has its roots in F_{p^d}, so a polynomial of degree
    s >= 1 is irreducible exactly when it has no root in F_{p^d} for any
    d = 1..s/2.
    """
    s = len(modulus)
    return s > 0 and _rootless(modulus, [Field(p, d) for d in range(1, s // 2 + 1)])


def _rootless(modulus, fields):
    """True iff the monic polynomial has a root in none of ``fields``.  Each
    field evaluates it at all of its elements at once, by Horner's rule on
    its tables; the constant c of F_p is the element of index c."""
    for f in fields:
        x = np.arange(f.q)
        value = np.ones(f.q, dtype=np.intp)  # the leading coefficient
        for c in reversed(modulus):
            value = f._add[f._mul[value, x], c]
        if not value.all():
            return False
    return True


def find_irreducible(p, s):
    """First monic irreducible polynomial of degree s over F_p, in index order."""
    fields = [Field(p, d) for d in range(1, s // 2 + 1)]  # shared by every candidate
    for idx in range(p ** s):
        cand = tuple(idx // p ** i % p for i in range(s))
        if _rootless(cand, fields):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {s} over F_{p}")


def alpha_generates(mul, p, s, alpha):
    """True iff the element of index ``alpha`` generates F_{p^s} over F_p.

    ``mul`` is the field's multiplication table.  Equivalent to the minimal
    polynomial of alpha having degree exactly s, that is, to a Frobenius
    orbit of size s: none of alpha^p, ..., alpha^(p^(s-1)) equals alpha.
    """
    if alpha == 0:
        return False
    cur = alpha
    for _ in range(s - 1):
        power = 1
        for _ in range(p):
            power = mul[power, cur]
        cur = power
        if cur == alpha:
            return False
    return True


@dataclass(frozen=True, slots=True, repr=False)
class FieldElement:
    """An element of a :class:`Field`, identified by its polynomial-basis index."""

    field: Field
    index: int
    coeffs: tuple

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field.key != self.field.key:
            raise ValueError("field mismatch between operands")
        return other

    def __add__(self, other):
        other = self._check(other)
        return self.field._elems[self.field._add[self.index, other.index]]

    def __sub__(self, other):
        other = self._check(other)
        f = self.field
        return f._elems[f._add[self.index, f._neg[other.index]]]

    def __mul__(self, other):
        other = self._check(other)
        return self.field._elems[self.field._mul[self.index, other.index]]

    def __neg__(self):
        return self.field._elems[self.field._neg[self.index]]

    def inverse(self):
        if self.index == 0:
            raise ZeroDivisionError("inversion of the zero element")
        return self.field._elems[self.field._inv[self.index]]

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        for _ in range(e):
            out = out * self
        return out

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        p = self.field.p
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            if d == 0:
                terms.append(str(c))
            else:
                xs = "x" if d == 1 else f"x^{d}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return "+".join(terms) if terms else "0"


class Field:
    """The finite field F_{p^s} with a designated kernel element alpha.

    Parameters
    ----------
    p : int
        Prime characteristic.
    s : int
        Extension degree (>= 1).
    modulus : sequence of int, optional
        Non-leading coefficients of a monic irreducible degree-s polynomial
        over F_p, low degree first, each in [0, p).  Defaults to
        ``find_irreducible(p, s)``, the first irreducible polynomial in index
        order.
    alpha : optional
        Kernel element as an index, coordinate sequence, or FieldElement.
        Defaults to x for s > 1 and to 1 for prime fields.  Must be nonzero
        and generate the field over F_p.
    """

    def __init__(self, p, s, modulus=None, alpha=None):
        p, s = _integer(p, "p"), _count(s, "extension degree")
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        q = p ** s
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
        if modulus is None:
            modulus = find_irreducible(p, s)
        elif not is_irreducible(modulus := _coordinates(modulus, p, s, "modulus"), p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")

        self.p = p
        self.s = s
        self.q = q
        self.modulus = modulus

        # coords[i] holds the coordinates of element i; weights map them back
        weights = p ** np.arange(s)
        coords = np.arange(q)[:, None] // weights % p
        # x * b: b's coordinates shifted up one place, less its top one times the modulus
        shifted = np.zeros_like(coords)
        shifted[:, 1:] = coords[:, :-1]
        times_x = (shifted - coords[:, -1:] * np.array(modulus)) % p @ weights
        # xb[i, b] = index of x^i * b, and a * b = sum_i a_i * x^i * b
        xb = [np.arange(q)]
        for _ in range(s - 1):
            xb.append(times_x[xb[-1]])
        self._mul = np.einsum("ai,ibd->abd", coords, coords[np.array(xb)]) % p @ weights
        self._add = (coords[:, None] + coords) % p @ weights
        self._neg = -coords % p @ weights
        self._inv = np.argmax(self._mul == 1, axis=1)  # 0 for the zero element

        self._elems = tuple(FieldElement(self, i, tuple(c)) for i, c in enumerate(coords.tolist()))

        if alpha is None:
            alpha = p if s > 1 else 1  # x, or 1 in a prime field
        elif isinstance(alpha, FieldElement):
            alpha = alpha.coeffs
        a = self.element(alpha).index
        if not alpha_generates(self._mul, p, s, a):
            raise ValueError(
                f"alpha={self._elems[a].coeffs} does not generate F_{q} over F_{p} "
                "(or is zero); the kernel requires F_p(alpha) = F_q"
            )
        self._alpha_index = a
        self.key = (p, s, modulus, a)
        # aff[z, u] = index of z + alpha*u, the one operation of the kernel
        self.aff = self._add[:, self._mul[a]]
        for table in (self._add, self._mul, self._neg, self._inv, self.aff):
            table.flags.writeable = False

    def _coeffs_to_index(self, coeffs):
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c
        return idx

    # -- element access --------------------------------------------------

    @property
    def zero(self):
        return self._elems[0]

    @property
    def one(self):
        return self._elems[1]

    @property
    def alpha(self):
        return self._elems[self._alpha_index]

    @property
    def elements(self):
        return self._elems

    def element(self, value):
        """Coerce an index, coordinate sequence, or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field.key != self.key:
                raise ValueError("field mismatch")
            return self._elems[value.index]
        if isinstance(value, (int, np.integer)):  # a bool too, which _index refuses
            return self._elems[_index(value, self.q, "element index")]
        return self._elems[self._coeffs_to_index(_coordinates(value, self.p, self.s, "element"))]

    # -- misc --------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and other.key == self.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Field(p={self.p}, s={self.s}, modulus={self.modulus}, alpha={self.alpha!r})"

    def to_json(self):
        return {
            "p": self.p,
            "s": self.s,
            "modulus": list(self.modulus),
            "alpha": list(self.alpha.coeffs),
        }

    @staticmethod
    def from_json(obj):
        obj = _object(obj, "a field", ("p", "s"), ("modulus", "alpha"))
        return Field(obj["p"], obj["s"], obj.get("modulus"), obj.get("alpha"))


def default_field(q):
    """Field of size q under the default modulus and default alpha."""
    q = _integer(q, "field size")
    for p in range(2, q + 1):
        if _is_prime(p):
            s = 0
            t = q
            while t % p == 0:
                t //= p
                s += 1
            if t == 1:
                return Field(p, s)
    raise ValueError(f"{q} is not a prime power")
