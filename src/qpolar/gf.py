"""Exact arithmetic in small finite fields F_q = F_{p^s}.

A :class:`Field` fixes a prime characteristic ``p``, an extension degree
``s``, a monic irreducible modulus of degree ``s`` over F_p, and a
designated nonzero kernel element ``alpha`` used by the polar transform.
``alpha`` must generate the whole field over F_p, i.e. its minimal
polynomial must have degree exactly ``s``; the constructor rejects any
other choice.

Elements live in the polynomial basis: the element with coordinates
``(c_0, ..., c_{s-1})`` is ``c_0 + c_1*x + ... + c_{s-1}*x^{s-1}`` and is
addressed by the integer index ``sum(c_i * p**i)``.  All q*q addition and
multiplication results are tabulated at construction (q <= 256), so
element operations are plain table lookups.  Fields and elements are
immutable and safe for unrestricted concurrent use.
"""

from __future__ import annotations

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


# -- dense polynomial helpers over F_p (coefficient lists, low degree first) --

def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    a = list(a)
    _poly_trim(a)
    dm = len(mod) - 1
    lead_inv = pow(mod[-1], -1, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * lead_inv) % p
        for j, mj in enumerate(mod):
            a[shift + j] = (a[shift + j] - factor * mj) % p
        _poly_trim(a)
    return a


def _index_to_poly(idx, p, degree):
    out = []
    for _ in range(degree):
        out.append(idx % p)
        idx //= p
    return out


def _coordinates(values, p, s, what):
    """The s coordinates of a modulus or an element, each checked to lie in [0, p)."""
    coeffs = tuple(int(c) for c in values)
    if len(coeffs) != s:
        raise ValueError(f"{what} needs {s} coordinates, got {len(coeffs)}")
    for c in coeffs:
        if not 0 <= c < p:
            raise ValueError(f"{what} coordinate {c} outside [0, {p})")
    return coeffs


def is_irreducible(modulus, p):
    """Brute-force irreducibility of a monic polynomial over F_p.

    ``modulus`` is the low-first coefficient list of the non-leading
    coefficients; the monic leading coefficient is implicit.  Checks trial
    division by every monic polynomial of degree 1..deg/2.
    """
    s = len(modulus)
    full = list(modulus) + [1]
    if s == 0:
        return False
    for d in range(1, s // 2 + 1):
        for idx in range(p ** d):
            g = _index_to_poly(idx, p, d) + [1]
            if not _poly_mod(full, g, p):
                return False
    return True


def find_irreducible(p, s):
    """First monic irreducible polynomial of degree s over F_p, in index order."""
    for idx in range(p ** s):
        cand = tuple(_index_to_poly(idx, p, s))
        if is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {s} over F_{p}")


def alpha_generates(p, s, modulus, alpha_coeffs):
    """True iff the nonzero element with the given coordinates generates F_{p^s} over F_p.

    Equivalent to the minimal polynomial of alpha having degree exactly s,
    that is, to a Frobenius orbit of size s: none of alpha^p, ...,
    alpha^(p^(s-1)) equals alpha.
    """
    alpha = _poly_trim(list(_coordinates(alpha_coeffs, p, s, "alpha")))
    if not alpha:
        return False
    full_mod = list(modulus) + [1]
    cur = alpha
    for _ in range(s - 1):
        power = [1]
        for _ in range(p):
            power = _poly_mod(_poly_mul(power, cur, p), full_mod, p)
        cur = power
        if cur == alpha:
            return False
    return True


class FieldElement:
    """An element of a :class:`Field`, identified by its polynomial-basis index."""

    __slots__ = ("field", "index", "coeffs")

    def __init__(self, field, index, coeffs):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field.key != self.field.key:
            raise ValueError("field mismatch between operands")
        return other

    def __add__(self, other):
        other = self._check(other)
        return self.field._elems[self.field._add[self.index][other.index]]

    def __sub__(self, other):
        other = self._check(other)
        f = self.field
        return f._elems[f._add[self.index][f._neg[other.index]]]

    def __mul__(self, other):
        other = self._check(other)
        return self.field._elems[self.field._mul[self.index][other.index]]

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

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and other.field.key == self.field.key
            and other.index == self.index
        )

    def __hash__(self):
        return hash((self.field.key, self.index))

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
        if not _is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if s < 1:
            raise ValueError(f"extension degree must be >= 1, got {s}")
        q = p ** s
        if q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {q} exceeds supported maximum {MAX_FIELD_SIZE}")
        modulus = (find_irreducible(p, s) if modulus is None
                   else _coordinates(modulus, p, s, "modulus"))
        if not is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")

        self.p = p
        self.s = s
        self.q = q
        self.modulus = modulus
        full_mod = list(modulus) + [1]

        coeff_list = [tuple(_index_to_poly(i, p, s)) for i in range(q)]
        self._add = [
            [self._coeffs_to_index(tuple((a + b) % p for a, b in zip(ca, cb)))
             for cb in coeff_list]
            for ca in coeff_list
        ]
        self._neg = [self._coeffs_to_index(tuple((-a) % p for a in ca)) for ca in coeff_list]
        self._mul = []
        for ca in coeff_list:
            row = []
            for cb in coeff_list:
                prod = _poly_mod(_poly_mul(list(ca), list(cb), p), full_mod, p)
                row.append(self._coeffs_to_index(tuple(prod) + (0,) * (s - len(prod))))
            self._mul.append(row)
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = self._mul[a].index(1)

        self._elems = tuple(FieldElement(self, i, coeff_list[i]) for i in range(q))

        if alpha is None:
            alpha_coeffs = (0, 1) + (0,) * (s - 2) if s > 1 else (1,)
        elif isinstance(alpha, FieldElement):
            alpha_coeffs = alpha.coeffs
        else:
            alpha_coeffs = self.element(alpha).coeffs
        if not alpha_generates(p, s, modulus, alpha_coeffs):
            raise ValueError(
                f"alpha={alpha_coeffs} does not generate F_{q} over F_{p} "
                "(or is zero); the kernel requires F_p(alpha) = F_q"
            )
        self._alpha_index = self._coeffs_to_index(alpha_coeffs)
        self.key = (p, s, modulus, self._alpha_index)

        self._np_add = np.array(self._add, dtype=np.intp)
        self._np_mul = np.array(self._mul, dtype=np.intp)
        self._np_alpha_mul = self._np_mul[self._alpha_index].copy()

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

    def from_index(self, i):
        return self._elems[i]

    def element(self, value):
        """Coerce an index, coordinate sequence, or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field.key != self.key:
                raise ValueError("field mismatch")
            return self._elems[value.index]
        if isinstance(value, (int, np.integer)):
            if not 0 <= value < self.q:
                raise ValueError(f"element index {value} outside [0, {self.q})")
            return self._elems[int(value)]
        return self._elems[self._coeffs_to_index(_coordinates(value, self.p, self.s, "element"))]

    # -- index-level arithmetic (hot paths and numpy code) ----------------

    def add_index(self, a, b):
        return self._add[a][b]

    def mul_index(self, a, b):
        return self._mul[a][b]

    @property
    def add_table(self):
        """(q, q) numpy index table for vectorized addition."""
        return self._np_add

    @property
    def mul_table(self):
        return self._np_mul

    @property
    def alpha_mul_table(self):
        """(q,) table mapping index u to index of alpha*u."""
        return self._np_alpha_mul

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
        return Field(obj["p"], obj["s"], obj.get("modulus"), obj.get("alpha"))


def default_field(q):
    """Field of size q under the default modulus and default alpha."""
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
