"""The benchmark's three workloads: set-up, timed rounds and output checks.

A workload builds its inputs from the run's seed (``setup``), runs whole
rounds of the same operations (``round``) while the clock runs, then a
fixed certification sample (``prepare``), and checks the outputs of the
rounds (``certify``).  Every call into
qpolar goes through a module attribute (``sim.run_experiment``,
``symmetry.check_equal_ser``, ...) so the traced run can wrap it, and uses
the library's defaults, ``DEFAULT_BATCH`` included.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import qpolar
from qpolar import construct, mc, oracle, sc, sim, symmetry

import checks

# One timed round of the Monte Carlo workloads.  It is fixed here, not
# taken from DEFAULT_BATCH, so that a change of the library's batch size
# changes how a round is batched and shows in the figures.
ROUND_BLOCKS = 1 << 14
GENIE_TRIALS = 4096
# The homogeneity test runs on a sample drawn with this fixed seed: with a
# 1% level the Pearson test would, by chance, fail about one run in three
# hundred at Fig. 1 size (measured from the positions' error correlation),
# and a benchmark is run hundreds of times.  A real loss of homogeneity
# drives p far below 0.01 on any seed.
HOMOGENEITY_SEED = 20220328
# The Monte Carlo vs exact comparisons use fixed seeds too, so that their
# outcome, the two failing erasure-channel cases included, is the same in
# every run.
MC_ORACLE_SEED = 5
MC_ORACLE_TRIALS = 1 << 18


def derive(seed, *tags):
    """A 63-bit sub-seed that depends only on the run's seed and the tags."""
    digest = hashlib.sha256(repr((int(seed),) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class Phases:
    """Times the set-up calls, keyed by per-layer metric name."""

    def __init__(self):
        self.seconds = {}

    def __call__(self, name, fn, *args, **kwargs):
        t = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - t
        return out


@dataclass
class Op:
    name: str
    ok: bool
    detail: str


@dataclass
class Ops:
    """Outcomes of checked operations; a raised exception is a failure."""

    items: list = field(default_factory=list)

    def run(self, name, fn, *args):
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a crash is a failed operation, recorded by name
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.items.append(Op(name, bool(ok), str(detail)))


@dataclass
class Round:
    ops: list
    blocks: int          # Monte Carlo blocks decoded in this round
    mc_seconds: float    # wall time of the calls that decoded them
    outputs: object      # compared between the untraced and traced phases


# -- Monte Carlo workloads ----------------------------------------------------

def build_fig1(seed, clock):
    """(256,128) over F_2, AWGN/BPSK at Eb/N0 = 2 dB, genie-built info set."""
    f2 = clock("gf.field_s", qpolar.default_field, 2)
    ch = clock("channel.construct_s", sim.ebno_to_channel, 2.0, 128 / 256)
    info = clock("construct.info_set_s", construct.construct_info_set, f2, 8, 128, ch,
                 construct.GenieMC(trials=GENIE_TRIALS, seed=derive(seed, "genie")))
    return qpolar.PolarCode(f2, 8, info), ch


def build_q16(seed, clock):
    """Length 64 over F_16 on QSC(1/10), k = 32 by the erasure ranking."""
    f16 = clock("gf.field_s", qpolar.default_field, 16)
    ch = clock("channel.construct_s", qpolar.qsc, f16, Fraction(1, 10))
    info = clock("construct.info_set_s", construct.construct_info_set, f16, 6, 32, ch)
    return qpolar.PolarCode(f16, 6, info), ch


class MonteCarlo:
    certifies_in_rounds = False
    known_faults = frozenset()

    def __init__(self, name, build, random_message, homogeneity_blocks, slice_blocks,
                 fig1_levels):
        self.name = name
        self.build = build
        self.random_message = random_message
        self.homogeneity_blocks = homogeneity_blocks
        self.slice_blocks = slice_blocks
        self.fig1_levels = fig1_levels

    def setup(self, seed, clock):
        return self.build(seed, clock)

    def _experiment(self, state, trials, seed):
        code, ch = state
        cfg = sim.ExperimentConfig(code, ch, trials=trials, seed=seed,
                                   random_message=self.random_message)
        return sim.run_experiment(cfg)

    def round(self, state, seed, r):
        t = time.perf_counter()
        rep = self._experiment(state, ROUND_BLOCKS, derive(seed, "round", r))
        wall = time.perf_counter() - t
        ops = [Op("run_experiment", True, f"{rep.trials} blocks")]
        return Round(ops, rep.trials, wall, (rep.message_errors, rep.codeword_errors))

    def prepare(self, state, seed):
        """The certification sample: homogeneity and shard/batch invariance."""
        code, ch = state
        ops = Ops()
        rep = self._experiment(state, self.homogeneity_blocks, HOMOGENEITY_SEED)
        ops.run("codeword SER homogeneity", checks.homogeneous,
                rep.codeword_errors, rep.trials)
        ops.run("frozen positions never err (homogeneity sample)", checks.frozen_clean,
                rep.message_errors, code.frozen_set)
        s = derive(seed, "slice")
        lo = s % 1000
        cuts = [lo, lo + self.slice_blocks // 3, lo + self.slice_blocks // 2 + 1,
                lo + self.slice_blocks]
        whole = mc.decode_tallies(code, ch, s, cuts[0], cuts[-1],
                                  random_message=self.random_message)
        parts = [mc.decode_tallies(code, ch, s, a, b, batch=self.slice_blocks // 5 + 1,
                                   random_message=self.random_message)
                 for a, b in zip(cuts, cuts[1:])]
        ops.run("shard and batch invariance", checks.tallies_additive,
                whole[:2], [p[:2] for p in parts])
        return ops.items

    def certify(self, state, seed, rounds):
        """Checks on the tallies of the timed rounds."""
        code, _ = state
        msg = np.sum([r.outputs[0] for r in rounds], axis=0)
        cw = np.sum([r.outputs[1] for r in rounds], axis=0)
        trials = sum(r.blocks for r in rounds)
        ops = Ops()
        ops.run("frozen positions never err (timed rounds)", checks.frozen_clean,
                msg, code.frozen_set)
        if self.fig1_levels:
            ops.run("mean codeword BER at the Fig. 1 level", checks.mean_rate_in_window,
                    cw, trials)
            ops.run("message BER spread over information positions", checks.rates_spread,
                    msg, code.info_set)
        return ops.items


# -- exact certification --------------------------------------------------------

class OracleCertify:
    """Exact rational certification with a little float decoding at n=8."""

    name = "oracle_certify"
    certifies_in_rounds = True
    # Known fault: on an all-zero plus message sc_decode_batch divides 0/0,
    # the NaN empties the tie set and the decoder picks index 0 instead of
    # drawing uniformly, so Monte Carlo misses the exact SER on erasure
    # channels at n=8.  Counted as failed, not hidden.
    known_faults = frozenset({"mc_ser vs exact qec(F_2,1/2) n=8",
                              "mc_ser vs exact qec(F_4,1/2) n=8"})
    n8_info = (3, 5, 6, 7)
    decode_outputs = 16

    def setup(self, seed, clock):
        fields = {q: clock("gf.field_s", qpolar.default_field, q) for q in (2, 3, 4)}
        f2, f4 = fields[2], fields[4]
        ch = {}
        ch["bsc"] = clock("channel.construct_s", qpolar.qsc, f2, Fraction(1, 10))
        for q in (3, 4):
            ch[f"qsc{q}"] = clock("channel.construct_s", qpolar.qsc, fields[q],
                                  Fraction(1, 10))
            ch[f"qec{q}"] = clock("channel.construct_s", qpolar.qec, fields[q],
                                  Fraction(1, 3))
        ch["lemma"] = clock("channel.construct_s", qpolar.qsc, f4, Fraction(3, 10))
        ch["qec2_half"] = clock("channel.construct_s", qpolar.qec, f2, Fraction(1, 2))
        ch["qec4_half"] = clock("channel.construct_s", qpolar.qec, f4, Fraction(1, 2))
        info = clock("construct.info_set_s", construct.construct_info_set, f2, 3, 4,
                     ch["bsc"], construct.Manual(self.n8_info))
        rng = np.random.default_rng(derive(seed, "outputs"))
        ys = {"n8": [tuple(int(v) for v in rng.integers(0, 2, size=8))
                     for _ in range(self.decode_outputs)],
              "n4q4": [tuple(int(v) for v in rng.integers(0, 4, size=4))
                       for _ in range(self.decode_outputs)]}
        return {"fields": fields, "ch": ch, "n8_code": qpolar.PolarCode(f2, 3, info),
                "ys": ys}

    def round(self, st, seed, r):
        fields, ch = st["fields"], st["ch"]
        f2, f4 = fields[2], fields[4]
        ops = Ops()

        def equal_ser(code, channel):
            return checks.equal_ser_verdict(*symmetry.check_equal_ser(code, channel), code.k)

        for info in qpolar.decreasing_sets(3):
            ops.run(f"equal SER bsc n=8 {info}", equal_ser, qpolar.PolarCode(f2, 3, info),
                    ch["bsc"])
        for q in (3, 4):
            for kind in ("qsc", "qec"):
                for info in qpolar.decreasing_sets(2):
                    ops.run(f"equal SER {kind} q={q} n=4 {info}", equal_ser,
                            qpolar.PolarCode(fields[q], 2, info), ch[f"{kind}{q}"])

        lemma_code = qpolar.PolarCode(f4, 2, (2, 3))
        ops.run("coset invariance q=4 n=4", symmetry.check_coset_invariance, lemma_code,
                ch["lemma"])
        for bit in range(2):
            ops.run(f"xi invariance q=4 n=4 r={bit}", symmetry.check_xi_invariance,
                    lemma_code, ch["lemma"], bit)
        ops.run("SER bit-flip symmetry q=4 n=4", symmetry.check_ser_bit_flip_symmetry,
                lemma_code, ch["lemma"])

        def same_distribution(code, channel, y):
            return checks.distributions_match(
                sc.sc_decode_distribution(code, channel, y, method="recursive"),
                sc.sc_decode_distribution(code, channel, y, method="definitional"))

        for key, code, channel in (("n8", st["n8_code"], ch["bsc"]),
                                   ("n4q4", lemma_code, ch["lemma"])):
            for y in st["ys"][key]:
                ops.run(f"recursive vs definitional {key} y={y}", same_distribution,
                        code, channel, y)

        blocks = 0
        mc_seconds = 0.0
        for label, channel in (("qsc(F_2,1/10)", ch["bsc"]),
                               ("qec(F_2,1/2)", ch["qec2_half"]),
                               ("qec(F_4,1/2)", ch["qec4_half"])):
            code = qpolar.PolarCode(channel.field, 3, self.n8_info)
            t = time.perf_counter()
            rep = oracle.mc_ser(code, channel, MC_ORACLE_TRIALS, MC_ORACLE_SEED)
            mc_seconds += time.perf_counter() - t
            blocks += MC_ORACLE_TRIALS
            exact = oracle.exact_average_ser(code, channel).per_index
            ops.run(f"mc_ser vs exact {label} n=8", checks.within_sigma,
                    rep.errors, rep.trials, exact)

        ops.run("non-decreasing counterexample n=2", lambda: checks.counterexample(
            oracle.exact_average_ser(qpolar.PolarCode(f2, 1, (0,)), ch["bsc"]).per_index))
        outputs = [(op.name, op.ok, op.detail) for op in ops.items]
        return Round(ops.items, blocks, mc_seconds, outputs)

    def prepare(self, state, seed):
        return []

    def certify(self, state, seed, rounds):
        return []


WORKLOADS = {w.name: w for w in (
    MonteCarlo("fig1_awgn_q2_n256", build_fig1, random_message=False,
               homogeneity_blocks=1 << 15, slice_blocks=2048, fig1_levels=True),
    MonteCarlo("mc_qsc_q16_n64", build_q16, random_message=True,
               homogeneity_blocks=1 << 12, slice_blocks=1024, fig1_levels=False),
    OracleCertify(),
)}
