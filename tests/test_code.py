import itertools

import numpy as np
import pytest

from qpolar.code import (
    PolarCode,
    check_condition_A,
    decreasing_sets,
    polar_transform,
    polar_transform_indices,
)
from qpolar.gf import default_field
from reference import (
    codewords,
    dominates,
    full_message,
    kron_matrix,
    matrix_multiply,
    reference_check_condition_A,
    reference_closure,
)


def test_encode_length_one_is_identity():
    f = default_field(4)
    for e in f.elements:
        assert polar_transform(f, [e]) == (e,)


def test_encode_n2_binary():
    f = default_field(2)
    x = polar_transform(f, [f.one, f.one])
    assert x == (f.zero, f.one)


def test_encode_n4_f4_against_matrix():
    f = default_field(4)
    a = f.alpha
    u = (f.zero, f.zero, f.zero, f.one)
    x = polar_transform(f, u)
    assert x == (a * a, a, a, f.one)
    # independent route: explicit Kronecker matrix multiply
    g = kron_matrix(f, 2)
    assert matrix_multiply(f, [e.index for e in u], g) == tuple(e.index for e in x)


def test_kron_base_kernel():
    f = default_field(4)
    g = kron_matrix(f, 1)
    assert g.tolist() == [[1, 0], [f.alpha.index, 1]]


def test_kron_m2_binary():
    f = default_field(2)
    g = kron_matrix(f, 2)
    assert g.tolist() == [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]


def test_kron_rows_linearly_independent():
    # lower triangular with unit diagonal for every field
    for q in (2, 3, 4):
        f = default_field(q)
        g = kron_matrix(f, 3)
        assert all(g[i, i] == 1 for i in range(8))
        assert all(g[i, j] == 0 for i in range(8) for j in range(i + 1, 8))


@pytest.mark.parametrize("q,m", [(2, 4), (3, 3), (4, 3), (8, 2)])
def test_recursive_encode_matches_matrix_on_random_messages(q, m):
    f = default_field(q)
    g = kron_matrix(f, m)
    rng = np.random.default_rng(11)
    for _ in range(10):
        u_idx = [int(v) for v in rng.integers(0, q, size=1 << m)]
        u = [f.element(i) for i in u_idx]
        assert tuple(e.index for e in polar_transform(f, u)) == matrix_multiply(f, u_idx, g)


def test_inverse_kernel_tower_recovers_message():
    # decoding the transform via [[1,0],[-alpha,1]]^(m) is the inverse
    for q, m in ((2, 3), (4, 2), (9, 2)):
        f = default_field(q)
        neg_alpha_field_key = f.key  # same field, inverse kernel built by hand

        def inverse_transform(x):
            x = list(x)
            n = len(x)
            if n == 1:
                return tuple(x)
            half = n // 2
            lo = inverse_transform(x[:half])
            hi = inverse_transform(x[half:])
            return tuple(lo[i] + (-f.alpha) * hi[i] for i in range(half)) + hi

        rng = np.random.default_rng(5)
        for _ in range(10):
            u = [f.element(int(i)) for i in rng.integers(0, q, size=1 << m)]
            assert inverse_transform(polar_transform(f, u)) == tuple(u)
        assert f.key == neg_alpha_field_key


def test_encode_is_linear():
    f = default_field(4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = [f.element(int(i)) for i in rng.integers(0, 4, size=8)]
        v = [f.element(int(i)) for i in rng.integers(0, 4, size=8)]
        a = f.element(int(rng.integers(1, 4)))
        left = polar_transform(f, [a * ui + vi for ui, vi in zip(u, v)])
        xu = polar_transform(f, u)
        xv = polar_transform(f, v)
        assert left == tuple(a * xi + yi for xi, yi in zip(xu, xv))


def test_empty_transform_input_raises():
    f = default_field(2)
    for transform in (polar_transform, polar_transform_indices):
        with pytest.raises(ValueError, match="length 0 is not a power of 2"):
            transform(f, [])


def test_batch_transform_matches_scalar():
    f = default_field(4)
    g = kron_matrix(f, 3)
    rng = np.random.default_rng(9)
    u = rng.integers(0, 4, size=(6, 8))
    batch = polar_transform_indices(f, u)
    for row_in, row_out in zip(u, batch):
        want = matrix_multiply(f, [int(i) for i in row_in], g)
        assert tuple(row_out.tolist()) == want
        scalar = polar_transform(f, [f.element(int(i)) for i in row_in])
        assert tuple(e.index for e in scalar) == want


def test_dominates():
    assert all(dominates(7, j) for j in range(8))
    assert not dominates(2, 1)
    assert dominates(3, 1)
    assert dominates(5, 5)


def test_condition_A_examples():
    ok, witness = check_condition_A({1}, 1)
    assert ok and witness is None
    ok, witness = check_condition_A({0}, 1)
    assert not ok and witness == (0, 1)
    assert check_condition_A(set(), 3)[0]
    assert check_condition_A(set(range(8)), 3)[0]


def test_condition_A_matches_reference_scan():
    # every subset for m <= 3, then random sets and their closures for m = 4-6
    for m in range(4):
        n = 1 << m
        for mask in range(1 << n):
            members = [i for i in range(n) if mask >> i & 1]
            assert check_condition_A(members, m) == reference_check_condition_A(members, m)
    rng = np.random.default_rng(11)
    for m in (4, 5, 6):
        for _ in range(300):
            n = 1 << m
            members = set(int(i) for i in rng.integers(0, n, size=int(rng.integers(1, n))))
            for s in (members, reference_closure(members, m)):
                assert check_condition_A(s, m) == reference_check_condition_A(s, m), (m, s)


def test_closure():
    # check_condition_A accepts every closure and finds, in a set that is
    # not closed, a missing index of its closure
    assert reference_closure({1}, 1) == (1,)
    assert reference_closure({0}, 1) == (0, 1)
    assert reference_closure({2}, 2) == (2, 3)
    rng = np.random.default_rng(2)
    for m in range(1, 7):
        n = 1 << m
        for _ in range(50):
            members = set(int(i) for i in rng.integers(0, n, size=int(rng.integers(1, n))))
            closed = reference_closure(members, m)
            assert check_condition_A(closed, m) == (True, None)
            assert reference_closure(closed, m) == closed  # idempotent
            ok, witness = check_condition_A(members, m)
            assert ok == (set(closed) == members)
            if not ok:
                assert witness[0] in members and witness[1] in set(closed) - members
    with pytest.raises(ValueError, match="outside"):
        check_condition_A({4}, 2)


def test_decreasing_sets_small():
    assert decreasing_sets(1) == [(), (1,), (0, 1)]
    sets2 = decreasing_sets(2)
    assert ((3,) in sets2 and (1, 3) in sets2 and (2, 3) in sets2
            and (1, 2, 3) in sets2 and (0, 1, 2, 3) in sets2 and () in sets2)
    assert len(sets2) == 6


def test_decreasing_sets_are_the_closed_masks_in_mask_order():
    # built from their halves: the list and its order are those of a filter
    # over every mask, which at m = 5 would walk 2^32 of them
    for m in range(4):
        n = 1 << m
        masks = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
        assert decreasing_sets(m) == [s for s in masks if reference_check_condition_A(s, m)[0]]
    sets5 = decreasing_sets(5)
    assert len(sets5) == 7581 and len(set(sets5)) == 7581
    assert all(reference_check_condition_A(s, 5) == (True, None) for s in sets5)
    with pytest.raises(ValueError, match="negative shift count"):
        decreasing_sets(-1)


def test_polar_code_construction_and_flags():
    f = default_field(2)
    code = PolarCode(f, 2, [1, 2, 3])
    assert code.n == 4 and code.k == 3
    assert code.is_decreasing
    assert code.frozen_set == (0,)
    assert code.frozen_values == (f.zero,)

    bad = PolarCode(f, 1, [0])
    assert not bad.is_decreasing
    assert bad.condition_witness == (0, 1)


def test_polar_code_reads_a_one_shot_iterable_once():
    f = default_field(2)
    code = PolarCode(f, 2, (i for i in (3, 1, 2)))
    assert code.info_set == (1, 2, 3) and code.frozen_set == (0,)
    with pytest.raises(ValueError):
        PolarCode(f, 2, (i for i in (3, 3)))


def test_encode_validates_frozen_positions():
    f = default_field(2)
    code = PolarCode(f, 1, [1])
    with pytest.raises(ValueError):
        code.encode([f.one, f.zero])


def test_full_message_and_nonzero_frozen():
    f = default_field(4)
    code = PolarCode(f, 2, [2, 3], frozen_values=[f.one, f.alpha])
    u = full_message(code, [f.zero, f.one])
    assert u == (f.one, f.alpha, f.zero, f.one)
    code.encode(u)
    assert code.frozen_index_array.tolist() == [f.one.index, f.alpha.index, 0, 0]
    assert code.info_mask.tolist() == [False, False, True, True]


def test_per_position_arrays_are_read_only():
    # a write into info_mask once made the batch decoder decode position 0
    # as information while info_set still said (3, 5, 6, 7)
    code = PolarCode(default_field(2), 3, [3, 5, 6, 7])
    with pytest.raises(ValueError, match="read-only"):
        code.info_mask[0] = True
    with pytest.raises(ValueError, match="read-only"):
        code.frozen_index_array[0] = 1
    assert code.info_mask.tolist() == [i in code.info_set for i in range(8)]
    with pytest.raises(TypeError):
        code.rate0_transforms[4, 2] = np.zeros(2, dtype=np.intp)
    for key in [(0, 1), (0, 2)]:
        with pytest.raises(ValueError, match="read-only"):
            code.rate0_transforms[key][0] = 1


@pytest.mark.parametrize("q,m,info", [
    (2, 3, [3, 5, 6, 7]), (4, 3, [1, 6, 7]), (3, 4, [7, 11, 13, 14, 15]), (3, 2, []),
    (2, 2, [0, 1, 2, 3]),
])
def test_rate0_table_holds_every_all_frozen_subtree(q, m, info):
    # (4, 3, [1, 6, 7]) is not decreasing, so a low half decodes while the
    # high half beside it is all frozen
    f = default_field(q)
    n = 1 << m
    code = PolarCode(f, m, info, [i % (q - 1) + 1 for i in range(n - len(info))])
    frozen = code.frozen_index_array.tolist()
    want = {(lo, 1 << s): matrix_multiply(f, frozen[lo:lo + (1 << s)], kron_matrix(f, s))
            for s in range(m + 1) for lo in range(0, n, 1 << s)
            if not set(range(lo, lo + (1 << s))) & set(info)}
    assert {key: tuple(x.tolist()) for key, x in code.rate0_transforms.items()} == want


def test_code_json_round_trip():
    f = default_field(4)
    code = PolarCode(f, 2, [1, 2, 3], frozen_values=[f.alpha])
    back = PolarCode.from_json(code.to_json())
    assert back.info_set == code.info_set
    assert back.frozen_values == code.frozen_values
    assert back.field.key == code.field.key


def test_codewords_enumeration():
    f = default_field(2)
    code = PolarCode(f, 2, [2, 3])
    words = codewords(code)
    assert len(words) == 4
    assert len(set(words)) == 4
    zero = (f.zero,) * 4
    assert zero in words


@pytest.mark.parametrize("q,m,info,frozen", [
    (2, 0, (), (0,)),
    (2, 2, (), (1, 0, 1, 1)),
    (2, 3, (3, 5, 6, 7), (1, 0, 1, 1)),
    (3, 2, (1, 3), (2, 1)),
    (4, 2, (2, 3), (3, 2)),
    (4, 1, (0, 1), ()),
])
def test_codewords_match_matrix_enumeration(q, m, info, frozen):
    # order: the first information symbol varies slowest; k = 0 gives one word
    f = default_field(q)
    code = PolarCode(f, m, info, frozen_values=[f.element(v) for v in frozen])
    g = kron_matrix(f, m)
    want = []
    for syms in itertools.product(range(q), repeat=len(info)):
        u = [e.index for e in full_message(code, [f.element(v) for v in syms])]
        want.append(tuple(f.element(i) for i in matrix_multiply(f, u, g)))
    assert codewords(code) == want
    assert len(want) == q ** len(info)
