import itertools

import pytest

from qpolar.gf import Field, alpha_generates, default_field, find_irreducible, is_irreducible
from reference import rank_alpha_generates


SHIPPED_SIZES = [2, 3, 4, 5, 7, 8, 9, 16]

# Default moduli, low degree first.  Every JSON config and golden fixture
# names its field by these, so find_irreducible must keep returning them.
PINNED_MODULI = {
    2: (2, 1, (0,)),            # x
    3: (3, 1, (0,)),            # x
    4: (2, 2, (1, 1)),          # x^2 + x + 1
    5: (5, 1, (0,)),            # x
    7: (7, 1, (0,)),            # x
    8: (2, 3, (1, 1, 0)),       # x^3 + x + 1
    9: (3, 2, (1, 0)),          # x^2 + 1
    16: (2, 4, (1, 1, 0, 0)),   # x^4 + x + 1
}


@pytest.mark.parametrize("q", SHIPPED_SIZES)
def test_field_axioms_exhaustive(q):
    f = default_field(q)
    elems = f.elements
    assert len(elems) == q
    for a in elems:
        assert a + f.zero == a
        assert a * f.one == a
        assert a * f.zero == f.zero
        assert a + (-a) == f.zero
        if a != f.zero:
            assert a * a.inverse() == f.one
    for a in elems:
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_characteristic_two_addition():
    f = default_field(2)
    assert f.one + f.one == f.zero


def test_f4_add_example():
    f = default_field(4)
    x = f.alpha
    assert x + (x + f.one) == f.one


def test_f3_examples():
    f = default_field(3)
    two = f.element(2)
    assert two + two == f.one
    assert -f.one == two


def test_f4_mul_and_inverse():
    f = default_field(4)
    x = f.alpha
    assert x * x == x + f.one
    # exhaustive multiplication table pins inv(x) = x + 1
    hits = [b for b in f.elements if x * b == f.one]
    assert hits == [x + f.one]
    assert x.inverse() == x + f.one


def test_inverse_of_zero_raises():
    f = default_field(4)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()


def test_field_mismatch_rejected():
    a = default_field(4).one
    b = default_field(8).one
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize(
    "q,expected_generators",
    [
        (4, {2, 3}),        # everything outside F_2 = {0, 1}
        (8, {2, 3, 4, 5, 6, 7}),
        (9, {3, 4, 5, 6, 7, 8}),  # everything outside F_3 = {0, 1, 2}
    ],
)
def test_alpha_generates_exhaustive(q, expected_generators):
    p, s, modulus = PINNED_MODULI[q]
    f = Field(p, s, modulus)
    got = {
        i for i in range(q)
        if alpha_generates(p, s, modulus, f.from_index(i).coeffs)
    }
    assert got == expected_generators


def test_alpha_examples():
    assert alpha_generates(2, 2, (1, 1), (0, 1)) is True    # F_4, alpha = x
    assert alpha_generates(2, 2, (1, 1), (1, 0)) is False   # F_4, alpha = 1
    assert alpha_generates(2, 1, (0,), (1,)) is True        # F_2, alpha = 1
    assert alpha_generates(2, 1, (0,), (0,)) is False       # zero never allowed


def test_alpha_generates_matches_rank_reference():
    # every monic irreducible modulus with p <= 13 and q = p^s <= 64 (104
    # moduli), and every alpha including zero (2,735 pairs)
    pairs = 0
    for p in (2, 3, 5, 7, 11, 13):
        s = 1
        while p ** s <= 64:
            for modulus in itertools.product(range(p), repeat=s):
                if not is_irreducible(modulus, p):
                    continue
                for alpha in itertools.product(range(p), repeat=s):
                    assert (alpha_generates(p, s, modulus, alpha)
                            == rank_alpha_generates(p, s, modulus, alpha)), (p, modulus, alpha)
                    pairs += 1
            s += 1
    assert pairs == 2735


def test_constructor_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Field(2, 2, (1, 1), alpha=(1, 0))
    with pytest.raises(ValueError):
        Field(2, 1, (0,), alpha=(0,))


def test_element_index_outside_field_raises():
    f = default_field(4)
    assert f.element(3) == f.from_index(3)
    for bad in (-1, 4, 7):
        with pytest.raises(ValueError):
            f.element(bad)
        with pytest.raises(ValueError):
            Field(2, 2, (1, 1), alpha=bad)
    assert Field(2, 2, (1, 1), alpha=3).alpha.index == 3


@pytest.mark.parametrize("q", SHIPPED_SIZES)
def test_default_field_modulus_and_key_are_pinned(q):
    p, s, modulus = PINNED_MODULI[q]
    f = default_field(q)
    assert find_irreducible(p, s) == modulus
    assert f.modulus == modulus
    assert f.key == (p, s, modulus, 1 if s == 1 else p)
    assert f.key == Field(p, s, modulus).key


def test_coordinates_outside_prime_field_raise():
    f = default_field(4)
    assert f.element([1, 0]) == f.one
    for bad in ([3, 0], [-1, 0], [0, 2]):
        with pytest.raises(ValueError, match="outside"):
            f.element(bad)
        with pytest.raises(ValueError, match="outside"):
            Field(2, 2, (1, 1), alpha=bad)
    for bad in ((3, 1), (1, -1), (1, 2)):
        with pytest.raises(ValueError, match="outside"):
            Field(2, 2, bad)
    with pytest.raises(ValueError, match="outside"):
        default_field(9).element([0, 3])
    with pytest.raises(ValueError, match="coordinates"):
        f.element([1, 0, 0])


def test_constructor_rejects_reducible_modulus():
    # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ValueError):
        Field(2, 2, (1, 0))
    with pytest.raises(ValueError):
        Field(4, 1, (0,))  # p not prime


def test_irreducibility_search():
    assert is_irreducible((1, 1), 2)
    assert not is_irreducible((1, 0), 2)
    mod = find_irreducible(5, 2)
    assert is_irreducible(mod, 5)
    f = Field(5, 2, mod)
    assert f.q == 25


def test_json_round_trip():
    f = default_field(9)
    g = Field.from_json(f.to_json())
    assert g.key == f.key
    assert (g.alpha * g.alpha).index == (f.alpha * f.alpha).index


def test_index_table_consistency():
    f = default_field(8)
    for a in f.elements:
        for b in f.elements:
            assert (a + b).index == f.add_table[a.index, b.index]
            assert (a * b).index == f.mul_table[a.index, b.index]
        assert f.alpha_mul_table[a.index] == (f.alpha * a).index


def test_two_representations_of_f9():
    # the same abstract field under two distinct irreducible moduli
    f1 = Field(3, 2, (1, 0))   # x^2 + 1
    f2 = Field(3, 2, (2, 2))   # x^2 + 2x + 2
    assert is_irreducible((2, 2), 3)
    for f in (f1, f2):
        assert sum(1 for a in f.elements if a) == 8
        assert f.alpha.inverse() * f.alpha == f.one


MOBIUS = {1: 1, 2: -1, 3: -1, 4: 0}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_irreducible_count_matches_gauss_formula(p, s):
    # Gauss: F_p has (1/s) * sum_{d | s} mu(d) * p^(s/d) monic irreducible
    # polynomials of degree s
    want = sum(MOBIUS[d] * p ** (s // d) for d in range(1, s + 1) if s % d == 0) // s
    got = sum(is_irreducible(m, p) for m in itertools.product(range(p), repeat=s))
    assert got == want
