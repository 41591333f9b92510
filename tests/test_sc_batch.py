"""The batch SC kernel against a reference (B, n, q) implementation.

``reference_sc_decode_batch`` is the straightforward block-major form of
the kernel: a (B, n/2, q, q) gather for the minus rule, reduced over the
trailing axis left to right.  The production kernel works block-innermost
on (q, n, B) arrays and must reproduce its decisions and codewords bit for
bit on channels without zero transition entries.  The inputs here are built
block-major for the reference, and ``_kernel`` transposes them for the
production kernel and its outputs back.
"""

import gc
from fractions import Fraction

import numpy as np
import pytest

from qpolar import rng
from qpolar.channel import qec, qsc
from qpolar.code import PolarCode, polar_transform_indices
from qpolar.construct import construct_info_set
from qpolar.gf import default_field
from qpolar.mc import decode_tallies
from qpolar.sc import DEFAULT_TIE_RTOL, _minus, sc_decode_batch
from qpolar.sim import ExperimentConfig, ebno_to_channel, run_experiment


def reference_sc_decode_batch(code, T, tie_uniforms, force=None):
    field = code.field
    n = code.n
    B, nt, q = T.shape
    assert nt == n and q == field.q
    ADD = field._add
    MULA = field._mul[field.alpha.index]
    AFF = ADD[:, MULA]
    info_mask = code.info_mask
    frozen_idx = code.frozen_index_array
    if force is not None:
        force = np.broadcast_to(np.asarray(force, dtype=np.intp), (B, n))
    decisions = np.empty((B, n), dtype=np.intp)

    T = T / T.max(axis=2, keepdims=True)

    def rec(tb, lo, hi):
        span = hi - lo
        if span == 1:
            m = tb[:, 0, :]
            if info_mask[lo]:
                mx = m.max(axis=1)
                tied = m >= (mx * (1.0 - DEFAULT_TIE_RTOL))[:, None]
                s = tied.sum(axis=1)
                k = np.minimum((tie_uniforms[:, lo] * s).astype(np.intp), s - 1)
                cum = np.cumsum(tied, axis=1)
                u = np.argmax(cum == (k + 1)[:, None], axis=1)
            else:
                u = np.full(B, frozen_idx[lo], dtype=np.intp)
            decisions[:, lo] = u
            if force is not None:
                u = force[:, lo]
            return u[:, None]
        half = span // 2
        t0 = tb[:, :half]
        t1 = tb[:, half:]
        products = t0[:, :, AFF] * t1[:, :, None, :]
        tm = products[..., 0].copy()
        for u1 in range(1, q):
            tm += products[..., u1]
        tm /= tm.max(axis=2, keepdims=True)
        xl = rec(tm, lo, lo + half)
        tp = np.take_along_axis(t0, AFF[xl], axis=2) * t1
        tp /= tp.max(axis=2, keepdims=True)
        xh = rec(tp, lo + half, hi)
        return np.concatenate([ADD[xl, MULA[xh]], xh], axis=1)

    return decisions, rec(T, 0, n)


def _kernel(code, T, tie_uniforms, force=None):
    """sc_decode_batch on block-major (B, n, q) inputs, with (B, n) outputs."""
    force = None if force is None else np.asarray(force).T
    decisions, x = sc_decode_batch(code, T.transpose(2, 1, 0), tie_uniforms.T, force=force)
    return decisions.T, x.T


def _code(q, m, k):
    f = default_field(q)
    return PolarCode(f, m, construct_info_set(f, m, k, qec(f, Fraction(1, 2))))


def _batch_inputs(code, ch, seed, b, random_message):
    n = code.n
    t_idx = np.arange(b, dtype=np.uint64)
    if random_message:
        mu = rng.uniforms(seed, t_idx, np.arange(2 * n, 3 * n)).T
        u = np.minimum((mu * code.field.q).astype(np.intp), code.field.q - 1)
    else:
        u = np.zeros((b, n), dtype=np.intp)
    u[:, list(code.frozen_set)] = code.frozen_index_array[list(code.frozen_set)]
    x = polar_transform_indices(code.field, u)
    if ch.is_finite:
        noise = rng.uniforms(seed, t_idx, np.arange(n)).T
    else:
        noise = rng.normals(seed, t_idx, np.arange(n)).T
    likes = np.moveaxis(ch.likelihood_batch(ch.sample_batch(x, noise)), 0, -1)
    return likes, rng.uniforms(seed, t_idx, np.arange(n, 2 * n)).T, u


CASES = {
    "awgn_q2_n256": (lambda: (_code(2, 8, 128), ebno_to_channel(2.0, 0.5)), False),
    "qsc_q4_n64": (lambda: (_code(4, 6, 32), qsc(default_field(4), Fraction(1, 5))), True),
    "qsc_q16_n64": (lambda: (_code(16, 6, 32), qsc(default_field(16), Fraction(1, 10))),
                    True),
    "qsc_q3_n16": (lambda: (_code(3, 4, 8), qsc(default_field(3), Fraction(1, 4))), True),
    # extension fields of characteristics 2 and 3 with minus sums of 8 and 9 terms
    "qsc_q8_n64": (lambda: (_code(8, 6, 32), qsc(default_field(8), Fraction(1, 10))), True),
    "qsc_q9_n32": (lambda: (_code(9, 5, 16), qsc(default_field(9), Fraction(1, 10))), True),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("genie", [False, True])
@pytest.mark.parametrize("b", [700, 2048])
def test_kernel_bit_identical_to_reference(case, genie, b):
    build, random_message = CASES[case]
    code, ch = build()
    likes, tie_u, u = _batch_inputs(code, ch, seed=5, b=b, random_message=random_message)
    force = u if genie else None
    want_d, want_x = reference_sc_decode_batch(code, likes, tie_u, force=force)
    got_d, got_x = _kernel(code, likes, tie_u, force=force)
    assert got_d.shape == got_x.shape == (b, code.n)
    assert np.array_equal(got_d, want_d)
    assert np.array_equal(got_x, want_x)


def test_kernel_reads_any_memory_order_and_leaves_input_alone():
    code, ch = CASES["qsc_q4_n64"][0]()
    n, b = code.n, 500
    t_idx = np.arange(b, dtype=np.uint64)
    y = ch.sample_batch(np.zeros((n, b), dtype=np.intp), rng.uniforms(3, t_idx, np.arange(n)))
    tie_u = rng.uniforms(3, t_idx, np.arange(n, 2 * n))
    T = ch.likelihood_batch(y)
    # the same (q, n, B) values laid out C-ordered, Fortran-ordered and
    # with the symbol axis innermost in memory
    layouts = [T, np.asfortranarray(T), ch.matrix_float[:, y]]
    assert layouts[1].flags.f_contiguous and layouts[2].strides[0] == T.itemsize
    want_d, want_x = reference_sc_decode_batch(code, T.transpose(2, 1, 0), tie_u.T)
    assert (want_x != 0).any()
    for arr in layouts:
        before = arr.copy()
        got_d, got_x = sc_decode_batch(code, arr, tie_u)
        assert np.array_equal(got_d.T, want_d) and np.array_equal(got_x.T, want_x)
        assert np.array_equal(arr, before)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 17, 131, 256])
def test_minus_sum_order_matches_trailing_axis_reduce(q):
    # decisions absorb last-ulp differences in their tie tolerance, so the
    # summation order is checked on the minus messages themselves, against
    # a reduction over the trailing u1 axis in plain Python floats, left to
    # right
    f = default_field(q)
    aff = f.aff.tolist()
    gen = np.random.default_rng(q)
    b, h = (3, 2) if q > 100 else (40, 4)
    t0, t1 = gen.random((2, b, h, q)) ** 4
    want = np.empty((b, h, q))
    for blk in range(b):
        for j in range(h):
            a0, a1 = t0[blk, j].tolist(), t1[blk, j].tolist()
            for u, row in enumerate(aff):
                acc = a0[row[0]] * a1[0]
                for u1 in range(1, q):
                    acc += a0[row[u1]] * a1[u1]
                want[blk, j, u] = acc
    got = _minus(t0.transpose(2, 1, 0).copy(), t1.transpose(2, 1, 0).copy(), np.array(aff))
    assert np.array_equal(got, want.transpose(2, 1, 0))


def test_kernel_resolves_exact_ties_uniformly_at_q16():
    # every output equally likely under every input: all 16 symbols tie at
    # each information leaf, and the tie draw alone picks the decision
    f = default_field(16)
    code = PolarCode(f, 2, [1, 2, 3])
    b = 4096
    T = np.ones((b, 4, 16))
    tie_u = np.random.default_rng(2).random((b, 4))
    decisions, _ = _kernel(code, T, tie_u)
    want, _ = reference_sc_decode_batch(code, T, tie_u)
    assert np.array_equal(decisions, want)
    counts = np.bincount(decisions[:, 3], minlength=16)
    assert counts.min() > 0.5 * b / 16


def test_tallies_match_reference_loop():
    # decode_tallies (constant message encoded once) against a per-batch
    # loop built from the reference kernel
    code, ch = CASES["awgn_q2_n256"][0]()
    n = code.n
    trials = 3000
    msg, cw, _ = decode_tallies(code, ch, seed=9, start=0, stop=trials, batch=1024)
    likes, tie_u, u = _batch_inputs(code, ch, seed=9, b=trials, random_message=False)
    decisions, x_hat = reference_sc_decode_batch(code, likes, tie_u)
    x = polar_transform_indices(code.field, u)
    assert np.array_equal(msg, (decisions != u).sum(axis=0))
    assert np.array_equal(cw, (x_hat != x).sum(axis=0))
    assert cw.sum() > 0 and cw.shape == (n,)


def test_run_experiment_tallies_independent_of_batch():
    code = _code(2, 6, 32)
    ch = ebno_to_channel(1.0, 0.5)
    report = run_experiment(ExperimentConfig(code, ch, trials=10_000, seed=4))
    assert sum(report.codeword_errors) > 0
    for batch in (4096, 16384):
        parts = [decode_tallies(code, ch, 4, a, b, batch=batch)
                 for a, b in ((0, 3_000), (3_000, 10_000))]
        assert tuple(int(v) for v in parts[0][0] + parts[1][0]) == report.message_errors
        assert tuple(int(v) for v in parts[0][1] + parts[1][1]) == report.codeword_errors


def test_batch_decode_leaves_no_cyclic_garbage():
    code = _code(2, 3, 4)
    ch = qsc(default_field(2), Fraction(1, 10))
    likes, tie_u, _ = _batch_inputs(code, ch, seed=1, b=64, random_message=False)
    gc.collect()
    gc.disable()
    try:
        _kernel(code, likes, tie_u)
        _kernel(code, likes, tie_u, force=np.zeros(tie_u.shape, dtype=int))
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_decode_refuses_non_finite_likelihoods(bad):
    # two NaN leaves once decoded to 0 at every position of every block,
    # raising nothing; inf raised FloatingPointError from inside the recursion
    code = PolarCode(default_field(2), 2, [1, 2, 3])
    T = np.ones((2, 4, 3))
    T[0, 1, 0] = T[1, 3, 2] = bad
    with pytest.raises(ValueError, match="likelihoods must be finite"):
        sc_decode_batch(code, T, np.zeros((4, 3)))
