"""The batch SC kernel against a reference (B, n, q) implementation.

``reference_sc_decode_batch`` is the straightforward block-major form of
the kernel: a (B, n/2, q, q) gather for the minus rule, reduced over the
trailing axis left to right.  The production kernel works block-innermost
on (q, n, B) arrays, and at q = 2 on (bit, ratio) messages, and must
reproduce its decisions and codewords bit for bit.  The inputs here are
built block-major for the reference, and ``_kernel`` transposes them for
the production kernel and its outputs back.  ``_general`` runs the
kernel's general (q, n, B) recursion on a q = 2 batch, the referee of the
(bit, ratio) path on the same inputs.
"""

import gc
import hashlib
import os
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

from qpolar import mc, rng, sc
from qpolar.channel import AwgnBpskChannel, FiniteChannel, qec, qsc
from qpolar.code import PolarCode, polar_transform_indices
from qpolar.construct import construct_info_set
from qpolar.gf import default_field
from qpolar.mc import decode_tallies
from qpolar.oracle import exact_average_ser
from qpolar.sc import (
    DEFAULT_TIE_RTOL, PairTables, _BatchJob, _bit_rules, _decode_span, _minus, _normalize,
    _plus, sc_decode, sc_decode_batch, sc_decode_distribution,
)
from qpolar.sim import ExperimentConfig, ebno_to_channel, run_experiment
from reference import (
    ZERO_ENTRY_CHANNELS, kron_matrix, matrix_multiply, reference_bit_rules, reference_sc_decode,
    tie_draws,
)


def _scaled(t):
    """Each message (trailing axis) over its maximum; an all-zero one stays
    zero, as in the exact kernel, so every leaf below it ties."""
    mx = t.max(axis=-1, keepdims=True)
    return t / np.where(mx == 0, 1.0, mx)


def reference_sc_decode_batch(code, T, tie_uniforms, force=None, tied_blocks=None):
    """Decisions and codewords, (B, n) each; ``tied_blocks``, a dict if given,
    receives the blocks with s > 1 tied symbols at each information leaf."""
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

    T = _scaled(T)

    def rec(tb, lo, hi):
        span = hi - lo
        if span == 1:
            m = tb[:, 0, :]
            if info_mask[lo]:
                mx = m.max(axis=1)
                tied = m >= (mx * (1.0 - DEFAULT_TIE_RTOL))[:, None]
                s = tied.sum(axis=1)
                k = np.minimum((tie_uniforms[:, lo] * s).astype(np.intp), s - 1)
                if tied_blocks is not None:
                    tied_blocks[lo] = np.flatnonzero(s > 1)
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
        tm = _scaled(tm)
        xl = rec(tm, lo, lo + half)
        tp = np.take_along_axis(t0, AFF[xl], axis=2) * t1
        tp = _scaled(tp)
        xh = rec(tp, lo + half, hi)
        return np.concatenate([ADD[xl, MULA[xh]], xh], axis=1)

    return decisions, rec(T, 0, n)


def _kernel(code, T, tie_uniforms, force=None):
    """sc_decode_batch on block-major (B, n, q) inputs, with (B, n) outputs."""
    force = None if force is None else np.asarray(force).T
    decisions, x = sc_decode_batch(code, T.transpose(2, 1, 0), tie_draws(tie_uniforms.T),
                                   force=force)
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
    # nonzero frozen values, so that every all-frozen subtree has a nonzero transform
    "awgn_q2_n64_frozen": (lambda: (_code(2, 6, 32).with_frozen_values([1] * 32),
                                    ebno_to_channel(1.0, 0.5)), True),
    "qsc_q4_n64_frozen": (lambda: (_code(4, 6, 32).with_frozen_values(
        [1 + i % 3 for i in range(32)]), qsc(default_field(4), Fraction(1, 5))), True),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("genie", [False, True, "departs"])
@pytest.mark.parametrize("b", [700, 2048])
def test_kernel_bit_identical_to_reference(case, genie, b):
    build, random_message = CASES[case]
    code, ch = build()
    likes, tie_u, u = _batch_inputs(code, ch, seed=5, b=b, random_message=random_message)
    force = u if genie else None
    if genie == "departs":
        # a genie off the frozen values at one frozen position is refused: a
        # skipped all-frozen subtree propagates the code's frozen transform
        i = code.frozen_set[np.random.default_rng(b).integers(len(code.frozen_set))]
        force = u.copy()
        force[b // 2, i] = (force[b // 2, i] + 1) % code.field.q
        with pytest.raises(ValueError, match="departs from the frozen values"):
            _kernel(code, likes, tie_u, force=force)
        return
    want_d, want_x = reference_sc_decode_batch(code, likes, tie_u, force=force)
    got_d, got_x = _kernel(code, likes, tie_u, force=force)
    assert got_d.shape == got_x.shape == (b, code.n)
    assert np.array_equal(got_d, want_d)
    assert np.array_equal(got_x, want_x)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [0, 3])
def test_code_without_information_positions_decodes_to_its_frozen_values(q, m):
    # k = 0: the root itself is all frozen, so every decoder takes it whole
    f = default_field(q)
    n, b = 1 << m, 40
    frozen = [i % (q - 1) + 1 for i in range(n)]
    code = PolarCode(f, m, [], frozen)
    g = kron_matrix(f, m)
    ch = qsc(f, Fraction(1, 5))
    gen = np.random.default_rng(q + m)
    y = gen.integers(0, q, size=(n, b))
    T, tie_u = ch.likelihood_batch(y), gen.random((n, b))
    force = np.repeat(np.array(frozen)[:, None], b, axis=1)
    for genie in (None, force):
        d, x = sc_decode_batch(code, T, tie_draws(tie_u), force=genie)
        want_d, want_x = reference_sc_decode_batch(
            code, T.transpose(2, 1, 0), tie_u.T, force=None if genie is None else genie.T)
        assert np.array_equal(d.T, want_d) and np.array_equal(x.T, want_x)
        assert d.T.tolist() == [frozen] * b
        assert x.T.tolist() == [list(matrix_multiply(f, frozen, g))] * b
    force[n - 1, b - 1] = 0
    with pytest.raises(ValueError, match="departs from the frozen values"):
        sc_decode_batch(code, T, tie_draws(tie_u), force=force)
    elems = f.elements
    want = (tuple(elems[i] for i in frozen),
            tuple(elems[i] for i in matrix_multiply(f, frozen, g)))
    for col in range(3):
        yb = tuple(y[:, col].tolist())
        assert sc_decode(code, ch, yb) == reference_sc_decode(code, ch, yb) == want
        for method in ("recursive", "definitional"):
            assert sc_decode_distribution(code, ch, yb, method=method) == {want[1]: 1}
    if q == 2:
        assert sc_decode(code, ebno_to_channel(2.0, 0.5), gen.standard_normal(n)) == want
    assert exact_average_ser(code, ch).per_index == (0,) * n


@pytest.mark.parametrize("q,symbol", [(2, 2), (2, -1), (2, 1.5), (4, -1), (4, 7)])
def test_a_forced_symbol_outside_the_field_is_refused(q, symbol):
    # at the information position of this length-2 code, the F_2 forces once
    # propagated as symbol 0; over F_4, -1 propagated as symbol 3 and wrote 255
    # into the codeword, and 7 raised IndexError
    f = default_field(q)
    T = qsc(f, Fraction(1, 5)).likelihood_batch(np.zeros((2, 1), dtype=np.intp))
    with pytest.raises(ValueError, match="forced symbol"):
        sc_decode_batch(PolarCode(f, 1, (1,)), T, tie_draws(np.zeros((2, 1))),
                        force=np.array([[0], [symbol]]))


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
        got_d, got_x = sc_decode_batch(code, arr, tie_draws(tie_u))
        assert np.array_equal(got_d.T, want_d) and np.array_equal(got_x.T, want_x)
        assert np.array_equal(arr, before)


def test_binary_kernel_leaves_its_input_alone():
    # the q = 2 leaves take their maxima in a copy of T[0], never in T
    code = _code(2, 6, 32)
    likes, tie_u, _ = _batch_inputs(code, ebno_to_channel(0.0, 0.5), seed=3, b=500,
                                    random_message=False)
    before = likes.copy()
    want_d, want_x = reference_sc_decode_batch(code, likes, tie_u)
    got_d, got_x = _kernel(code, likes, tie_u)
    assert np.array_equal(got_d, want_d) and np.array_equal(got_x, want_x)
    assert np.array_equal(likes, before)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 17, 131, 256])
def test_minus_sum_order_matches_trailing_axis_reduce(q):
    # decisions absorb last-ulp differences in their tie tolerance, so the
    # summation order is checked on the minus messages themselves, against
    # a reduction over the trailing u1 axis, left to right: in plain Python
    # floats on one small case, and by one gather per u1 on block-major
    # copies over every (h, B) below.  In characteristic 2 the kernel takes
    # blocks of G rows at a time, and these shapes run every G from 1 to q
    # (up to q = 16; trimmed above q = 100, which runs G = 128 and 256 at
    # q = 256).  B = 1 stays in the sweep: where a reduction over u1 is one
    # column wide numpy sums it pairwise, not left to right
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
    got = _minus(t0.transpose(2, 1, 0).copy(), t1.transpose(2, 1, 0).copy(), f)
    assert np.array_equal(got, want.transpose(2, 1, 0))
    for h in (1, 2, 4, 8, 16, 32):
        for b in (1, 7) if q > 100 else (1, 7, 2048):
            # a (q, 2h, B) node buffer, as the kernel slices it, with an
            # all-zero message in each half and an all-zero symbol row in t0
            tb = gen.random((q, 2 * h, b)) ** 4
            tb[:, 0, -1] = tb[:, -1, 0] = tb[q // 2, :h] = 0.0
            t0, t1 = tb[:, :h].T, tb[:, h:].T  # (B, h, q)
            want = t0[..., f.aff[:, 0]] * t1[..., :1]
            for u1 in range(1, q):
                want += t0[..., f.aff[:, u1]] * t1[..., u1:u1 + 1]
            got = _minus(tb[:, :h], tb[:, h:], f)
            assert np.array_equal(got, want.T), (h, b)


@pytest.mark.parametrize("q", [3, 4, 16, 17])
def test_normalize_divides_each_message_by_its_maximum(q):
    # against plain Python floats: every message (axis 0) over its largest
    # entry, an all-zero message left zero, in place or into ``out``
    gen = np.random.default_rng(q)
    t = gen.random((q, 4, 40)) ** 4
    t[:, 1, 3] = t[:, 0, 39] = 0.0
    want = np.empty_like(t)
    for j in range(4):
        for blk in range(40):
            col = t[:, j, blk].tolist()
            mx = max(col)
            want[:, j, blk] = [v / mx if mx else 0.0 for v in col]
    got = _normalize(t, out=np.empty(t.shape))
    assert np.array_equal(got, want)
    assert np.array_equal(_normalize(t), want) and np.array_equal(t, want)


def test_one_minus_call_holds_about_three_messages_arrays():
    # at q = 16, h = 1, B = 2,048 one _minus call allocates its output, a
    # product buffer of at most the same size and numpy's iteration buffers;
    # a (q, q, h, B) gather of t0 would hold sixteen such arrays
    f = default_field(16)
    tb = np.random.default_rng(5).random((16, 2, 2048))
    _minus(tb[:, :1], tb[:, 1:], f)  # warm-up
    tracemalloc.start()
    try:
        _minus(tb[:, :1], tb[:, 1:], f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * 2048 * 8


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16, 17, 131, 256])
def test_plus_takes_each_row_from_the_node_buffer(q):
    # plus[u][j, b] = t0[aff[z, u]][j, b] * t1[u][j, b], entry by entry in
    # plain Python floats, on a C-ordered (q, 2h, B) node buffer
    aff = default_field(q).aff
    gen = np.random.default_rng(q)
    b, h = (3, 2) if q > 100 else (40, 4)
    tb = gen.random((q, 2 * h, b)) ** 4
    z = gen.integers(0, q, (h, b))
    before = tb.copy()
    got = _plus(tb, z, aff)
    assert np.array_equal(tb, before)
    t0, t1 = tb[:, :h].tolist(), tb[:, h:].tolist()
    for u in range(q):
        for j in range(h):
            for blk in range(b):
                zz = z[j, blk]
                assert got[u, j, blk] == t0[aff[zz, u]][j][blk] * t1[u][j][blk]


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


@pytest.mark.parametrize("q", [2, 4])
def test_batch_decode_drops_t_once_the_root_messages_exist(q):
    # T is made where only the call holds it, and it ties everywhere, so a
    # tie is drawn at every information leaf: by then T must be freed
    code = _code(q, 4, 8)
    refs, draws = [], []

    def all_tied():
        T = np.ones((q, code.n, 3))
        refs.append(weakref.ref(T))
        return T

    def ties(i, columns):
        draws.append((i, refs[0]() is None))
        return np.zeros(len(columns))

    sc_decode_batch(code, all_tied(), ties)
    assert draws == [(i, True) for i in sorted(code.info_set)]


@pytest.mark.parametrize("q", [2, 4])
def test_decode_tallies_frees_each_batch_array_after_its_last_read(monkeypatch, q):
    # the draws and outputs must be freed before the decoder runs (the
    # outputs of a finite channel once its level-1 keys exist, the AWGN
    # outputs once their leaf messages do), and a batch's decisions and
    # codeword before the next batch draws anything
    if q == 2:
        code, ch = _code(2, 5, 16), ebno_to_channel(1.0, 0.5)
    else:
        code, ch = _code(4, 4, 8), qsc(default_field(4), Fraction(1, 5))
    cls = type(ch)
    real_sample = cls.sample_batch
    real_decode, real_uniforms = mc.sc_decode_batch, rng.uniforms
    refs = {"decoded": []}
    decodes = []

    def sample_batch(self, x, noise):
        refs["noise"] = weakref.ref(noise)
        y = real_sample(self, x, noise)
        refs["y"] = weakref.ref(y)
        return y

    def uniforms(*args):
        # normals draw through this too, and so do the tie draws
        assert all(r() is None for r in refs["decoded"]), "last batch's arrays alive"
        return real_uniforms(*args)

    def decode(code, T, *args, **kwargs):
        assert refs["noise"]() is None and refs["y"]() is None, "draws or outputs alive"
        assert isinstance(T, sc._AwgnLeaves if q == 2 else sc._PairOutputs)
        out = real_decode(code, T, *args, **kwargs)
        refs["decoded"] = [weakref.ref(a) for a in out]
        decodes.append(len(refs["decoded"]))
        return out

    monkeypatch.setattr(cls, "sample_batch", sample_batch)
    monkeypatch.setattr(mc, "sc_decode_batch", decode)
    monkeypatch.setattr(rng, "uniforms", uniforms)
    want = decode_tallies(code, ch, 5, 0, 250, batch=100, random_message=q > 2)
    monkeypatch.undo()
    assert decodes == [2, 2, 2]
    got = decode_tallies(code, ch, 5, 0, 250, batch=100, random_message=q > 2)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_decode_refuses_non_finite_likelihoods(bad):
    # two NaN leaves once decoded to 0 at every position of every block,
    # raising nothing; inf raised FloatingPointError from inside the recursion
    code = PolarCode(default_field(2), 2, [1, 2, 3])
    T = np.ones((2, 4, 3))
    T[0, 1, 0] = T[1, 3, 2] = bad
    with pytest.raises(ValueError, match="likelihoods must be finite"):
        sc_decode_batch(code, T, tie_draws(np.zeros((4, 3))))


def _general(code, T, ties, force=None):
    """The general (q, n, B) recursion of the kernel, which takes any q, on a
    batch: normalize a C-ordered copy of T and decode it."""
    job = _BatchJob(code, T.shape[2], ties, force)
    with np.errstate(invalid="raise", divide="raise"):
        tb = np.array(T, dtype=float, order="C")
        _normalize(tb)
        x = _decode_span(tb, 0, job)
    return job.decisions, x


def _recording(draws):
    """A tie source over an (n, B) array that records each (position, columns)."""
    calls = []

    def ties(i, columns):
        calls.append((i, columns.copy()))
        return draws[i, columns]
    return ties, calls


def _same_calls(a, b):
    """Whether two recordings of ``_recording`` hold the same draws."""
    return len(a) == len(b) and all(i == j and np.array_equal(c, d)
                                    for (i, c), (j, d) in zip(a, b))


F2 = default_field(2)
BINARY = {
    "awgn_0db": (lambda: ebno_to_channel(0.0, 0.5), False),
    "bsc": (lambda: qsc(F2, Fraction(1, 10)), True),
    "bec_zero": (lambda: qec(F2, Fraction(1, 2)), False),
    "bec_random": (lambda: qec(F2, Fraction(1, 2)), True),
}


@pytest.mark.parametrize("case", sorted(BINARY))
@pytest.mark.parametrize("m", [1, 3, 6, 8])
@pytest.mark.parametrize("genie", [False, True])
def test_binary_path_matches_the_general_recursion(case, m, genie):
    build, random_message = BINARY[case]
    code = _code(2, m, 1 << (m - 1))
    likes, tie_u, u = _batch_inputs(code, build(), seed=m, b=600, random_message=random_message)
    T, draws = likes.transpose(2, 1, 0), tie_draws(tie_u.T)
    force = u.T if genie else None
    want_d, want_x = _general(code, T, draws, force)
    got_d, got_x = sc_decode_batch(code, T, draws, force=force)
    assert got_x.dtype == got_d.dtype == np.uint8
    assert np.array_equal(got_d, want_d) and np.array_equal(got_x, want_x)


@pytest.mark.parametrize("genie", [False, True])
def test_binary_path_matches_the_general_recursion_at_the_tie_edge(genie):
    # leaves with ratio 0, just below the tie threshold, at it exactly and 1,
    # some all zero, each scaled by a power of two so that min/max is exact
    code = _code(2, 6, 32)
    n, b = code.n, 3000
    gen = np.random.default_rng(12)
    edge = 1.0 - DEFAULT_TIE_RTOL
    ratios = np.array([0.0, np.nextafter(edge, 0.0), edge, 1.0, 0.5])
    r = ratios[gen.integers(0, len(ratios), size=(n, b))]
    scale = 2.0 ** gen.integers(-30, 30, size=(n, b))
    T = np.stack([scale, scale * r])
    flip = gen.random((n, b)) < 0.5
    T[:, flip] = T[::-1, flip]
    T[:, gen.random((n, b)) < 0.02] = 0.0
    # tie draws on and beside the edges of the k-th tied rule at s = 2
    draws = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 0.75])[gen.integers(0, 4, size=(n, b))]
    draws = tie_draws(draws)
    force = None
    if genie:
        # random at information positions, the frozen value (0) elsewhere
        force = gen.integers(0, 2, size=(n, b)) * code.info_mask[:, None]
    want_d, want_x = _general(code, T, draws, force)
    got_d, got_x = sc_decode_batch(code, T, draws, force=force)
    assert np.array_equal(got_d, want_d) and np.array_equal(got_x, want_x)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("xl_type", [bool, np.int64])
@pytest.mark.parametrize("agree", ["all", "none", "mixed"])
@pytest.mark.parametrize("with_dead", [False, True])
def test_bit_rules_match_the_min_max_referee(order, xl_type, agree, with_dead):
    # F-ordered messages are what random messages feed the root, an int xl is
    # what PairTables passes, and a plus message of r0 = r1 = 0 on a block
    # whose bits disagree is zero; the referee takes every input as given
    h, b = 3, 40
    gen = np.random.default_rng(7)
    ratios = np.array([0.0, 1e-300, 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0])
    r = np.where(gen.random((2 * h, b)) < 0.5, gen.random((2 * h, b)),
                 ratios[gen.integers(0, len(ratios), size=(2 * h, b))])
    bit = gen.random((2 * h, b)) < 0.5
    minus_bit = bit[:h] ^ bit[h:]
    xl = {"all": minus_bit, "none": ~minus_bit,
          "mixed": gen.random((h, b)) < 0.5}[agree]
    r[:h][(minus_bit != xl) & (gen.random((h, b)) < 0.2)] = 0.0
    r[h:][r[:h] == 0.0] = 0.0
    dead = gen.random((2 * h, b)) < 0.1 if with_dead else None
    if order == "F":
        bit, r = np.asfortranarray(bit), np.asfortranarray(r)
        dead = dead if dead is None else np.asfortranarray(dead)
    xl = xl.astype(xl_type)
    inputs = [a if a is None else a.copy(order="K") for a in (bit, r, dead)]
    minus, plus = _bit_rules(bit, r, dead)
    want_minus, want_plus = reference_bit_rules(bit, r, dead, xl)
    _assert_referee_messages(minus(), want_minus)
    _assert_referee_messages(plus(xl), want_plus)
    assert any(d for _, _, d in want_plus) == (agree != "all" or with_dead)
    for a, before in zip((bit, r, dead), inputs):
        assert a is None or np.array_equal(a, before)


def test_minus_rule_swaps_wherever_the_other_entry_leads():
    # ratios in [0, 1] give 1 + r0*r1 >= r0 + r1, so no message takes the
    # rule's swap; ratios up to 3, which no message carries, take it
    gen = np.random.default_rng(8)
    bit, r = gen.random((4, 50)) < 0.5, 3 * gen.random((4, 50))
    assert (r[:2] + r[2:] > r[:2] * r[2:] + 1.0).any()
    minus, _ = _bit_rules(bit, r, None)
    want, _ = reference_bit_rules(bit, r, None, np.zeros((2, 50), dtype=bool))
    _assert_referee_messages(minus(), want)


def _assert_referee_messages(got, want):
    """Rule output (bit, ratio, dead) equals the referee's triples: the same
    dead mask, and where not dead the same ratio and, unless tied, bit."""
    got_bit, got_r, got_dead = got
    assert got_bit.dtype == bool and got_r.dtype == float
    got_dead = np.zeros(got_r.shape, dtype=bool) if got_dead is None else got_dead
    assert got_dead.ravel().tolist() == [d for _, _, d in want]
    for u, v, (want_u, want_v, want_dead) in zip(got_bit.ravel().tolist(),
                                                 got_r.ravel().tolist(), want):
        assert want_dead or (v == want_v and want_u in (None, u))


def test_no_tie_draw_on_a_tie_free_awgn_batch():
    code = _code(2, 8, 128)
    likes, tie_u, _ = _batch_inputs(code, ebno_to_channel(2.0, 0.5), seed=3, b=2048,
                                    random_message=False)
    ties, calls = _recording(tie_u.T)
    sc_decode_batch(code, likes.transpose(2, 1, 0), ties)
    assert calls == []


@pytest.mark.parametrize("q", [2, 4])
def test_ties_are_drawn_for_the_tied_blocks_only(q):
    # on an erasure channel with random messages many leaves tie, and plus
    # messages after a wrong guess are all zero
    code = _code(q, 6, 32)
    likes, tie_u, u = _batch_inputs(code, qec(default_field(q), Fraction(1, 2)), seed=6,
                                    b=1500, random_message=True)
    tied = {}
    want_d, want_x = reference_sc_decode_batch(code, likes, tie_u, tied_blocks=tied)
    ties, calls = _recording(tie_u.T)
    got_d, got_x = sc_decode_batch(code, likes.transpose(2, 1, 0), ties)
    assert np.array_equal(got_d.T, want_d) and np.array_equal(got_x.T, want_x)
    want = {i: blocks for i, blocks in tied.items() if len(blocks)}
    assert len(want) > 10
    assert [i for i, _ in calls] == sorted(want)
    for i, blocks in calls:
        assert np.array_equal(blocks, want[i])


# an F_3-symmetric table of two reliability classes: input x shifts each
# block of three outputs by x
TABLE_Q3 = [["6/10", "1/20", "1/20", "1/5", "1/20", "1/20"],
            ["1/20", "6/10", "1/20", "1/20", "1/5", "1/20"],
            ["1/20", "1/20", "6/10", "1/20", "1/20", "1/5"]]

# channel, m and whether the messages are random; the zero-entry channels
# send the all-zero message
BLOCK_CASES = {name: (make, 6, False) for name, make in ZERO_ENTRY_CHANNELS.items()} | {
    "qsc_q3_n64": (lambda: qsc(default_field(3), Fraction(1, 5)), 6, True),
    "qsc_q16_n64": (lambda: qsc(default_field(16), Fraction(1, 5)), 6, True),
    "qsc_q2_n256": (lambda: qsc(default_field(2), Fraction(1, 5)), 8, True),
    "qec_q3_n64": (lambda: qec(default_field(3), Fraction(1, 2)), 6, True),
    "qec_q4_n256": (lambda: qec(default_field(4), Fraction(1, 2)), 8, True),
    "qsc_q4_n64": (lambda: qsc(default_field(4), Fraction(1, 5)), 6, True),
    "table_q3_n64": (lambda: FiniteChannel(default_field(3), TABLE_Q3), 6, True),
}


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_batch_kernel_equals_the_exact_point_decoder_block_by_block(name):
    # with the same tie uniforms both kernels must make the same decisions.
    # On the zero-entry channels a wrong tie guess makes all-zero messages,
    # which the exact kernel keeps zero down to leaves that tie.  The float
    # kernel also ties symbols within DEFAULT_TIE_RTOL of the maximum, below
    # the resolution of float64: on QSC(1/5) at q = 16, position 28 of block
    # 7 holds two exact values 2.2e-16 apart (relative), a strict maximum
    # for the exact kernel and a tie for the float one.  A block may differ
    # only from such a leaf
    make, m, random_message = BLOCK_CASES[name]
    ch = make()
    code = _code(ch.field.q, m, 1 << (m - 1))
    n, b = code.n, 100
    t_idx = np.arange(b, dtype=np.uint64)
    u = np.zeros((n, b), dtype=np.intp)
    if random_message:
        u[code.info_mask] = (rng.uniforms(5, t_idx, np.arange(2 * n, 3 * n))[code.info_mask]
                             * ch.field.q).astype(np.intp)
    sent = polar_transform_indices(code.field, u.T).T
    y = ch.sample_batch(sent, rng.uniforms(5, t_idx, np.arange(n)))
    tie_u = rng.uniforms(5, t_idx, np.arange(n, 2 * n))
    # the float side is the table route of decode_tallies, and it decides
    # as the likelihood route does, tie draws included
    ties, calls = _recording(tie_u)
    decisions, x = sc_decode_batch(code, PairTables(ch).outputs(y), ties)
    ties, likelihood_calls = _recording(tie_u)
    want_d, want_x = sc_decode_batch(code, ch.likelihood_batch(y), ties)
    assert np.array_equal(decisions, want_d) and np.array_equal(x, want_x)
    assert _same_calls(calls, likelihood_calls)
    assert (x != sent).any()  # some blocks decode wrongly
    float_ties = {(i, j) for i, cols in calls for j in cols.tolist()}
    elems = code.field.elements
    near_ties = []
    for j in range(b):
        block = tuple(y[:, j].tolist())
        want = sc_decode(code, ch, block, tie_u[:, j])
        got = (tuple(elems[i] for i in decisions[:, j]), tuple(elems[i] for i in x[:, j]))
        if want == got:
            continue
        i = next(i for i, (a, c) in enumerate(zip(want[0], got[0])) if a != c)
        # another uniform at i keeps the exact decision: no exact tie there
        shifted = tie_u[:, j].copy()
        shifted[i] = (shifted[i] + 0.5) % 1
        assert (i, j) in float_ties, (i, j)
        assert sc_decode(code, ch, block, shifted)[0][i] == want[0][i], (i, j)
        near_ties.append((i, j))
    assert near_ties == ([(28, 7)] if name == "qsc_q16_n64" else [])


@pytest.mark.parametrize("v7", [0.25, 0.75])
def test_a_leaf_below_a_zero_message_ties(v7):
    # BEC(1/2): after the prefix (0,0,0,1,0,1,1) the plus message of
    # position 7 is all zero in exact arithmetic, so position 7 ties and
    # its tie uniform decides it, in every kernel
    code = PolarCode(F2, 3, (3, 5, 6, 7))
    ch = qec(F2, Fraction(1, 2))
    y = (0, 0, 0, 2, 2, 2, 2, 0)
    tie_u = np.array([0, 0, 0, 0.75, 0, 0.75, 0.75, v7])
    want = [0, 0, 0, 1, 0, 1, 1, int(v7 >= 0.5)]
    assert [e.index for e in sc_decode(code, ch, y, tie_u)[0]] == want
    T = ch.likelihood_batch(np.array(y)[:, None])
    ties, calls = _recording(tie_u[:, None])
    assert sc_decode_batch(code, T, ties)[0][:, 0].tolist() == want
    assert [i for i, _ in calls] == [3, 5, 6, 7]
    assert _general(code, T, tie_draws(tie_u[:, None]))[0][:, 0].tolist() == want


@pytest.mark.parametrize("q", [2, 4])
def test_tallies_equal_a_decode_fed_every_tie_draw(q):
    code = _code(q, 6, 32)
    ch = qec(default_field(q), Fraction(1, 2))
    msg, cw, _ = decode_tallies(code, ch, seed=8, start=0, stop=1500, random_message=True)
    likes, tie_u, u = _batch_inputs(code, ch, seed=8, b=1500, random_message=True)
    decisions, x_hat = _kernel(code, likes, tie_u)
    x = polar_transform_indices(code.field, u)
    assert np.array_equal(msg, (decisions != u).sum(axis=0))
    assert np.array_equal(cw, (x_hat != x).sum(axis=0))
    assert cw.sum() > 0


# the criterion 7 code: the information set GenieMC(trials=100_000, seed=2024)
# builds at 2 dB
FIG1_INFO = (
    59, 61, 62, 63, 79, 87, 91, 92, 93, 94, 95, 103, 106, 107, 108, 109, 110, 111,
    113, 114, 115, 116, 117, 118, 119, 120, 121, 122, 123, 124, 125, 126, 127, 143,
    150, 151, 153, 154, 155, 156, 157, 158, 159, 163, 165, 166, 167, 169, 170, 171,
    172, 173, 174, 175, 177, 178, 179, 180, 181, 182, 183, 184, 185, 186, 187, 188,
    189, 190, 191, 195, 197, 198, 199, *range(201, 256))
# sha256 of the int64 message and codeword tallies of 5,000 blocks (two
# batches), as the (2, n, B) form of the kernel computed them
FIG1_DIGESTS = {
    (31, False): "d7c319b288484fbf877c1ec22b9ef8f73ad124d7b6eab8c5c0924d2033050a45",
    (31, True): "dc2892fa85133325cf80ec19bce19d520cacfb22e62f4cd7c7e1831376b3f91f",
    (32, False): "99169c26dadf10217da29cd6ba007fbb8a5f4ca0d346aa096a7f430afd2c917a",
    (32, True): "dd87ddde6221980f867b4b270390dc81c9278b767d233077156a6b50e193f5b1",
}


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("genie", [False, True])
def test_fig1_tallies_are_pinned(seed, genie):
    code = PolarCode(F2, 8, FIG1_INFO)
    msg, cw, _ = decode_tallies(code, ebno_to_channel(2.0, 0.5), seed, 0, 5000, genie=genie)
    assert code.k == 128 and msg.sum() > 0
    digest = hashlib.sha256(msg.astype("<i8").tobytes() + cw.astype("<i8").tobytes())
    assert digest.hexdigest() == FIG1_DIGESTS[seed, genie]


# the same digests (seed 31) with random messages, as the q = 2 rules that
# took min/max on every block computed them.  The leaves reach the rules
# F-ordered here (x is the transform of the messages' transpose), so each
# half of a leaf array is a strided slice
FIG1_RANDOM_DIGESTS = {
    False: "eb9bc631c6845fff3d46b31923d1933b31a437b7dcec80acf8ee4359172bddcb",
    True: "bad2bf3da96468c2f84fb94fbc8cfd649c82a0d552226c5dbf546b4a22d7aa74",
}


@pytest.mark.parametrize("genie", [False, True])
def test_fig1_random_message_tallies_are_pinned(genie):
    code = PolarCode(F2, 8, FIG1_INFO)
    msg, cw, _ = decode_tallies(code, ebno_to_channel(2.0, 0.5), 31, 0, 5000, genie=genie,
                                random_message=True)
    assert msg.sum() > 0 and (genie or cw.sum() > 0)
    digest = hashlib.sha256(msg.astype("<i8").tobytes() + cw.astype("<i8").tobytes())
    assert digest.hexdigest() == FIG1_RANDOM_DIGESTS[genie]


# the q = 16 code of the benchmark: k = 32 by the erasure ranking on QSC(1/10)
Q16_INFO = (15, 23, 27, 28, 29, 30, 31, 37, 38, 39, 41, 42, 43, 44, 45, 46, 47, 49,
            *range(50, 64))
# sha256 of the int64 message and codeword tallies of seed 33 on finite
# channels, as the gather sampler and gather plus rule computed them:
# (code, plain or genie) -> digest
FINITE_DIGESTS = {
    ("qsc16", False): "7c4b20be28256905a00c5ada266b359708ddcabafc6d871538fe1f4a7fe92754",
    ("qsc16", True): "6d8f1278a9c1644a689e13e671ad121700a7fcd818b3979e1aa49a1e3e91fee9",
    # re-pinned when an all-zero message came to stay zero (a leaf below it
    # ties), as in the exact kernel; the old tallies were biased low
    ("qec4", False): "fa14306cf76b992f1f2877ec342f1a454963c5a0d577ea5849cb246d4128ee5d",
    ("qec4", True): "993cf36331f708725ec9095cb2c6a91de292e336c0d69037b5c641e1211a6615",
    ("bsc", False): "11f1ca3af8e7a85f985aab92176fd1014eb5c729479c94eac893b9c7559d3d6a",
    ("bsc", True): "d0788521153bf3dda2851bc0ed7e59ebf790ea4de1af735385eb3bd26cb269e2",
}


def _finite_case(name):
    """(code, channel, random_message, blocks) of a pinned finite-channel run."""
    if name == "qsc16":
        f16 = default_field(16)
        return PolarCode(f16, 6, Q16_INFO), qsc(f16, Fraction(1, 10)), True, 3000
    f = default_field(4 if name == "qec4" else 2)
    ch = qec(f, Fraction(1, 2)) if name == "qec4" else qsc(f, Fraction(1, 10))
    return PolarCode(f, 3, (3, 5, 6, 7)), ch, False, 20000


@pytest.mark.parametrize("name", ["qsc16", "qec4", "bsc"])
@pytest.mark.parametrize("genie", [False, True])
def test_finite_channel_tallies_are_pinned(name, genie):
    code, ch, random_message, blocks = _finite_case(name)
    msg, cw, _ = decode_tallies(code, ch, 33, 0, blocks, genie=genie,
                                random_message=random_message)
    assert msg.sum() > 0
    digest = hashlib.sha256(msg.astype("<i8").tobytes() + cw.astype("<i8").tobytes())
    assert digest.hexdigest() == FINITE_DIGESTS[name, genie]


@pytest.mark.parametrize("name", ["fig1", "qsc16", "fig1_bsc_tables", "qsc16_tables"])
def test_no_messages_are_built_for_an_all_frozen_child(monkeypatch, name):
    if name.startswith("fig1"):
        ch = qsc(F2, Fraction(1, 10)) if "bsc" in name else ebno_to_channel(2.0, 0.5)
        code = PolarCode(F2, 8, FIG1_INFO)
    else:
        code, ch, _, _ = _finite_case("qsc16")
    tables = name.endswith("_tables")
    if tables:  # built before the count starts, as decode_tallies does
        outputs = PairTables(ch).outputs
        t_idx = np.arange(64, dtype=np.uint64)
        y = ch.sample_batch(np.zeros((code.n, 64), dtype=np.intp),
                            rng.uniforms(4, t_idx, np.arange(code.n)))
    # the leaves, and the bodies of the minus and plus rules that each node's
    # rule factory (_span_rules, or _bit_rules at q = 2) returns
    calls = dict.fromkeys(["_leaves", "minus", "plus"], 0)

    def count(name, rule):
        def counted(*args):
            calls[name] += 1
            return rule(*args)
        return counted
    for fname in ("_span_rules", "_bit_rules"):
        def factory(*args, _real=getattr(sc, fname)):
            minus, plus = _real(*args)
            return count("minus", minus), count("plus", plus)
        monkeypatch.setattr(sc, fname, factory)
    monkeypatch.setattr(sc, "_leaves", count("_leaves", sc._leaves))
    if tables:
        sc_decode_batch(code, outputs(y), tie_draws(rng.uniforms(4, t_idx, np.arange(code.n))))
    else:
        likes, tie_u, _ = _batch_inputs(code, ch, seed=4, b=64, random_message=True)
        _kernel(code, likes, tie_u)
    n = code.n
    spans = [1 << s for s in range(code.m)]
    live_low = sum(code.info_mask[lo:lo + s].any() for s in spans for lo in range(0, n, 2 * s))
    live_high = sum(code.info_mask[lo + s:lo + 2 * s].any()
                    for s in spans for lo in range(0, n, 2 * s))
    # both codes hold all-frozen children, so the counts are below 2(n - 1)
    assert live_low + live_high < 2 * (n - 1)
    # from tables, neither the leaves nor the root's children (both live) are built
    assert code.info_mask[:n // 2].any() and code.info_mask[n // 2:].any()
    root = int(tables)
    # one rule call per live child
    assert calls == {"_leaves": 1 - root, "minus": live_low - root, "plus": live_high - root}


# the channels of the table route: QSC and QEC at q = 2, 3, 4 and 16, the
# two-class table and the zero-entry channels
ROUTE_CHANNELS = {f"{kind.__name__}{q}": (lambda kind=kind, q=q: kind(
    default_field(q), Fraction(1, 5) if kind is qsc else Fraction(1, 2)))
    for kind in (qsc, qec) for q in (2, 3, 4, 16)} | ZERO_ENTRY_CHANNELS | {
    "table_q3": lambda: FiniteChannel(default_field(3), TABLE_Q3)}


@pytest.mark.parametrize("name", sorted(ROUTE_CHANNELS))
def test_table_route_equals_the_likelihood_route(name):
    # decisions, codewords and tie draws, bit for bit, with random messages
    # and information sets whose root halves are live, all frozen or both
    ch = ROUTE_CHANNELS[name]()
    f, q, b = ch.field, ch.q, 300
    tables = PairTables(ch)
    for m in (1, 3, 6):
        n = 1 << m
        gen = np.random.default_rng(m)
        sets = [range(n // 4, n), range(n // 2, n), range(n // 2), ()]
        t_idx = np.arange(b, dtype=np.uint64)
        for info in sets:
            code = PolarCode(f, m, info, gen.integers(0, q, n - len(info)).tolist())
            u = np.minimum((rng.uniforms(m, t_idx, np.arange(2 * n, 3 * n)) * q).astype(np.intp),
                           q - 1)
            u[~code.info_mask] = code.frozen_index_array[~code.info_mask, None]
            y = ch.sample_batch(polar_transform_indices(f, u.T).T,
                                rng.uniforms(m, t_idx, np.arange(n)))
            tie_u = rng.uniforms(m, t_idx, np.arange(n, 2 * n))
            for force in (None, u):
                ties, calls = _recording(tie_u)
                got = sc_decode_batch(code, tables.outputs(y), ties, force=force)
                ties, want_calls = _recording(tie_u)
                want = sc_decode_batch(code, ch.likelihood_batch(y), ties, force=force)
                assert all(np.array_equal(a, c) and a.dtype == c.dtype
                           for a, c in zip(got, want)), (m, len(info), force is None)
                assert _same_calls(calls, want_calls)


@pytest.mark.parametrize("batch", [4095, 4096])
def test_decode_tallies_takes_tables_where_they_fit_one_batch(monkeypatch, batch):
    # q = 16 QSC at n = 2: the tables hold |Y|^2 q = 4,096 keys, the level-1
    # messages of a batch (n/2) B, so a batch of 4,095 reads likelihoods
    f = default_field(16)
    code, ch = PolarCode(f, 1, (1,)), qsc(f, Fraction(1, 10))
    routes = []
    real_decode = mc.sc_decode_batch

    def decode(code, T, *args, **kwargs):
        routes.append(type(T).__name__)
        return real_decode(code, T, *args, **kwargs)

    monkeypatch.setattr(mc, "sc_decode_batch", decode)
    got = decode_tallies(code, ch, 6, 0, 5000, batch=batch, random_message=True)
    # and so does a call of fewer trials than one batch of 4,096
    decode_tallies(code, ch, 6, 0, 4095, batch=batch + 1, random_message=True)
    monkeypatch.undo()
    tables = batch == 4096
    assert routes == ["_PairOutputs" if tables else "ndarray"] * 2 + ["ndarray"]
    want = decode_tallies(code, ch, 6, 0, 5000, batch=100, random_message=True)
    assert got[0].sum() > 0
    assert all(np.array_equal(a, c) for a, c in zip(got, want))


# Eb/N0 in dB at rate 1/2; a variance at which most leaf ratios underflow to
# 0; and one at which outputs of +-1e-16, whose squares s0 and s1 differ by an
# ulp, still have ratio 1, so that the leaf bit s0 > s1 is not the argmax bit
# of the likelihoods there
AWGN_ROUTE_CHANNELS = {f"{ebno}db": lambda ebno=ebno: ebno_to_channel(ebno, 0.5)
                       for ebno in (-2.0, 0.0, 2.0, 6.0)} | {
    "underflow": lambda: AwgnBpskChannel(F2, 1e-3), "ratio_one": lambda: AwgnBpskChannel(F2, 4.0)}


@pytest.mark.parametrize("name", sorted(AWGN_ROUTE_CHANNELS))
def test_awgn_leaf_route_equals_the_likelihood_route(name):
    # decisions, codewords, dtypes and tie draws, bit for bit, on information
    # sets whose root halves are live or one of them all frozen.  Some outputs
    # are 0 (ratio 1, a tie), +-1e-16 and beyond the clip at 2^40
    ch = AWGN_ROUTE_CHANNELS[name]()
    b = 300
    t_idx = np.arange(b, dtype=np.uint64)
    gen = np.random.default_rng(7)
    special = np.array([0.0, 1e-16, -1e-16, 2.0**41, -3e300])
    for m in (1, 3, 6, 8):
        n = 1 << m
        for info in (range(n // 4, n), range(n // 2, n), range(n // 2)):
            code = PolarCode(F2, m, info, gen.integers(0, 2, n - len(info)).tolist())
            u = (rng.uniforms(m, t_idx, np.arange(2 * n, 3 * n)) < 0.5).astype(np.intp)
            u[~code.info_mask] = code.frozen_index_array[~code.info_mask, None]
            y = ch.sample_batch(polar_transform_indices(F2, u.T).T,
                                rng.normals(m, t_idx, np.arange(n)))
            spots = gen.random((n, b)) < 0.1
            y[spots] = special[gen.integers(0, len(special), spots.sum())]
            before = y.copy()
            tie_u = rng.uniforms(m, t_idx, np.arange(n, 2 * n))
            for force in (None, u):
                leaves = sc._awgn_leaves(ch, y)
                assert leaves.shape == (2, n, b) and np.array_equal(y, before)
                ties, calls = _recording(tie_u)
                got = sc_decode_batch(code, leaves, ties, force=force)
                ties, want_calls = _recording(tie_u)
                want = sc_decode_batch(code, ch.likelihood_batch(y), ties, force=force)
                assert all(np.array_equal(a, c) and a.dtype == c.dtype == np.uint8
                           for a, c in zip(got, want)), (m, len(info), force is None)
                assert _same_calls(calls, want_calls)
                assert calls  # the zero outputs tie
    y[0, 0] = np.nan
    with pytest.raises(ValueError, match="likelihoods must be finite"):
        sc_decode_batch(code, sc._awgn_leaves(ch, y), tie_draws(tie_u))


@pytest.mark.parametrize("case, batch, bound_mib", [
    ("fig1", 2048, 13.0), ("fig1", 4096, 25.0), ("qsc16", 2048, 21.1)])
def test_decode_tallies_peak_memory_is_bounded(monkeypatch, case, batch, bound_mib):
    # the tracemalloc peak of a two-batch call on one thread, after a warm-up
    # call; the Fig. 1 AWGN route builds no likelihood array, and the decoder
    # keeps no product past its rule.  2,048 blocks is the batch each of two
    # threads decodes, 4,096 the batch of a job on one thread
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if case == "fig1":
        code, ch, random_message = PolarCode(F2, 8, FIG1_INFO), ebno_to_channel(2.0, 0.5), False
    else:
        code, ch, random_message, _ = _finite_case("qsc16")
    decode_tallies(code, ch, 3, 0, 64, batch=64, random_message=random_message)
    tracemalloc.start()
    try:
        decode_tallies(code, ch, 3, 0, 2 * batch, batch=batch, random_message=random_message)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


@pytest.mark.parametrize("route", ["tables", "likelihoods", "awgn_leaves"])
def test_decode_tallies_hands_the_kernel_a_t_of_shape_q_n_b(monkeypatch, route):
    # every T the kernel receives has T's shape, (q, n, B), which the
    # benchmark tracer unpacks into three numbers on each route
    f16 = default_field(16)
    code, ch, batch, kind = {
        "tables": (_code(2, 3, 4), qsc(F2, Fraction(1, 10)), 100, sc._PairOutputs),
        # |Y|^2 q = 4,096 level-1 keys against (n/2) B = 100: no tables
        "likelihoods": (PolarCode(f16, 1, (1,)), qsc(f16, Fraction(1, 10)), 100, np.ndarray),
        "awgn_leaves": (_code(2, 3, 4), ebno_to_channel(1.0, 0.5), 100, sc._AwgnLeaves),
    }[route]
    shapes = []
    real_decode = mc.sc_decode_batch

    def decode(code, T, *args, **kwargs):
        assert isinstance(T, kind)
        shapes.append(T.shape)
        return real_decode(code, T, *args, **kwargs)

    monkeypatch.setattr(mc, "sc_decode_batch", decode)
    decode_tallies(code, ch, 2, 0, 250, batch=batch, random_message=True)
    assert shapes == [(ch.q, code.n, 100), (ch.q, code.n, 100), (ch.q, code.n, 50)]
    assert all(type(d) is int for shape in shapes for d in shape)
