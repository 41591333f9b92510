"""Every public entry reads its numbers by the package's one rule.  One that
takes a count, an index or a bit position refuses a bool or a float with a
ValueError, and runs on a numpy integer, kept as a Python int; one that
takes a flag refuses anything but a bool; the block readers refuse the
outputs the command line once refused for them."""

from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import FiniteChannel, channel_from_json, qec, qsc
from qpolar.cli import main
from qpolar.code import PolarCode, check_condition_A, decreasing_sets
from qpolar.construct import GenieMC, Manual, construct_info_set, genie_mc_rank
from qpolar.gf import Field, default_field
from qpolar.mc import decode_tallies
from qpolar.oracle import exact_average_ser, exact_ser, mc_ser
from qpolar.sc import sc_decode, sc_decode_batch, sc_decode_distribution, synthetic_channel
from qpolar.sim import BerReport, ExperimentConfig, ebno_to_channel
from qpolar.symmetry import (
    check_coset_invariance,
    check_ser_bit_flip_symmetry,
    check_xi_invariance,
    delta,
    xi_coefficients,
)

F2 = default_field(2)
BSC = qsc(F2, Fraction(1, 10))
CODE = PolarCode(F2, 2, (1, 2, 3))

# entry -> (a call that passes v, read as 1, where the entry takes an
# integer; what the call returns at v = 1).  Each once ran a bool as 0 or 1,
# or ended a float in a TypeError, or both
INTEGER_ENTRIES = {
    "check_condition_A m": (lambda v: check_condition_A((1,), v), (True, None)),
    "check_condition_A index": (lambda v: check_condition_A((v,), 1), (True, None)),
    "decreasing_sets m": (lambda v: decreasing_sets(v), [(), (1,), (0, 1)]),
    "construct_info_set k": (lambda v: construct_info_set(F2, 2, v, BSC), (3,)),
    "construct_info_set m": (lambda v: construct_info_set(F2, v, 1, BSC), (1,)),
    "Manual index": (lambda v: construct_info_set(F2, 1, 1, BSC, Manual((v,))), (1,)),
    "delta r": (lambda v: delta(2, v, 0), 2),
    "delta i": (lambda v: delta(2, 0, v), 0),
    "xi_coefficients r": (lambda v: xi_coefficients(default_field(4), 2, v), (2, 2, 3, 3)),
    "check_xi_invariance r": (lambda v: check_xi_invariance(CODE, BSC, v), (True, None)),
    "decode_tallies start": (lambda v: decode_tallies(CODE, BSC, 1, v, 4)[2], 3),
    "mc_ser trials": (lambda v: mc_ser(CODE, BSC, v, 1).trials, 1),
    "GenieMC trials": (lambda v: GenieMC(trials=v, seed=1).trials, 1),
    "genie_mc_rank trials": (lambda v: len(genie_mc_rank(F2, 1, BSC, v, 1)), 2),
}


@pytest.mark.parametrize("value", [True, 1.0, np.int64(1)], ids=["bool", "float", "int64"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_every_integer_entry_reads_one_rule(entry, value):
    call, want = INTEGER_ENTRIES[entry]
    if isinstance(value, np.integer):
        # kept as an int: np.int64(1) has another repr than 1
        assert repr(call(value)) == repr(want)
    else:
        with pytest.raises(ValueError, match="is not an integer"):
            call(value)


# entry -> a call that passes v where the entry takes a count of one or more.
# They once refused 0 and -1 in three wordings, seven times written out
COUNT_ENTRIES = {
    "ExperimentConfig trials": lambda v: ExperimentConfig(CODE, BSC, trials=v, seed=1),
    "Field extension degree": lambda v: Field(2, v),
    "GenieMC trials": lambda v: GenieMC(trials=v, seed=1),
    "genie_mc_rank trials": lambda v: genie_mc_rank(F2, 1, BSC, v, 1),
    "mc_ser trials": lambda v: mc_ser(CODE, BSC, v, 1),
    "decode_tallies batch": lambda v: decode_tallies(CODE, BSC, 1, 0, 4, batch=v),
    "verify --samples": lambda v: main(["verify", "--code", "unread", "--channel", "unread",
                                        "--lemmas", "3", "--samples", str(v)]),
}


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_every_count_entry_reads_one_rule(entry, value, capsys):
    if entry.startswith("verify"):
        # the command line turns the refusal into exit 1 and an error line
        assert COUNT_ENTRIES[entry](value) == 1
        err = capsys.readouterr().err
        assert f"error: --samples must be a positive integer, got {value}" in err
    else:
        with pytest.raises(ValueError, match=f"must be a positive integer, got {value}"):
            COUNT_ENTRIES[entry](value)


@pytest.mark.parametrize("seed", [2.5, -1, 2**64])
@pytest.mark.parametrize("build", [
    lambda s: GenieMC(trials=10, seed=s),
    lambda s: ExperimentConfig(CODE, BSC, trials=10, seed=s),
], ids=["GenieMC", "ExperimentConfig"])
def test_configs_refuse_a_seed_no_run_accepts_when_built(build, seed):
    # each was once built, and then failed inside its run
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        build(seed)


# entry -> a call that passes v where the entry takes a flag.  decode_tallies
# once ran random_message="no" with random messages and genie="no" in genie
# mode, while ExperimentConfig refused them by a check of its own
FLAG_ENTRIES = {
    "ExperimentConfig random_message": lambda v: ExperimentConfig(
        CODE, BSC, trials=4, seed=1, random_message=v).random_message,
    "decode_tallies random_message": lambda v: decode_tallies(CODE, BSC, 1, 0, 4,
                                                              random_message=v),
    "decode_tallies genie": lambda v: decode_tallies(CODE, BSC, 1, 0, 4, genie=v),
}


@pytest.mark.parametrize("value", ["no", 1, None], ids=["string", "int", "None"])
@pytest.mark.parametrize("entry", sorted(FLAG_ENTRIES))
def test_every_flag_entry_reads_one_rule(entry, value):
    with pytest.raises(ValueError, match=f"must be true or false, got {value!r}"):
        FLAG_ENTRIES[entry](value)


def test_a_numpy_bool_flag_reads_as_a_python_bool():
    assert FLAG_ENTRIES["ExperimentConfig random_message"](np.bool_(True)) is True
    for entry in ("decode_tallies random_message", "decode_tallies genie"):
        got, want = FLAG_ENTRIES[entry](np.bool_(True)), FLAG_ENTRIES[entry](True)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_default_field_reads_its_size_by_the_rule():
    # 4.0 once ended in a TypeError
    with pytest.raises(ValueError, match="field size 4.0 is not an integer"):
        default_field(4.0)
    assert default_field(np.int64(4)) == default_field(4)


def test_experiment_config_keeps_a_numpy_integer_as_an_int():
    # np.int64 trials and seeds were once refused here, and taken everywhere else
    cfg = ExperimentConfig(CODE, BSC, trials=np.int64(10), seed=np.int64(3))
    assert (cfg.trials, cfg.seed) == (10, 3)
    assert type(cfg.trials) is int and type(cfg.seed) is int


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("decode", [
    lambda y: sc_decode(CODE, BSC, y),
    lambda y: sc_decode_distribution(CODE, BSC, y),
    lambda y: sc_decode_distribution(CODE, BSC, y, method="definitional"),
], ids=["point", "recursive", "definitional"])
def test_finite_block_readers_take_integer_output_indices_only(decode, bad):
    # (True, False) once decoded as the block (1, 0)
    with pytest.raises(ValueError, match="output index .* is not an integer"):
        decode((0, 0, bad, 0))


@pytest.mark.parametrize("bad", [True, "2", None, 10**400],
                         ids=["bool", "string", "None", "beyond the floats"])
def test_awgn_point_decoder_takes_real_outputs_only(bad):
    # True and "2" once read as 1.0 and 2.0, and 10**400 ended in an OverflowError
    with pytest.raises(ValueError, match="AWGN output must be a real number"):
        sc_decode(CODE, ebno_to_channel(2.0, 0.5), [0.3, bad, -1.1, 0.7])


AWGN = ebno_to_channel(2.0, 0.5)
N32 = PolarCode(F2, 5, range(32))

# refusal -> (a call that raises, the exception type, a phrase of its message).
# No other Tier-1 test reaches these checks
REFUSALS = {
    "FiniteChannel missing row": (lambda: FiniteChannel(F2, [[1, 0]]),
                                  ValueError, "needs 2 rows"),
    "FiniteChannel negative entry": (lambda: FiniteChannel(F2, [["3/2", "-1/2"], [0, 1]]),
                                     ValueError, "negative probability"),
    "qsc epsilon 11/10": (lambda: qsc(F2, Fraction(11, 10)), ValueError, r"lie in \[0, 1\]"),
    "qsc epsilon -1/10": (lambda: qsc(F2, Fraction(-1, 10)), ValueError, r"lie in \[0, 1\]"),
    "qec epsilon 11/10": (lambda: qec(F2, Fraction(11, 10)), ValueError, r"lie in \[0, 1\]"),
    "qec epsilon -1/10": (lambda: qec(F2, Fraction(-1, 10)), ValueError, r"lie in \[0, 1\]"),
    "channel_from_json unknown kind": (
        lambda: channel_from_json({"kind": "bec", "epsilon": "1/2"}),
        ValueError, "unknown channel kind 'bec'"),
    "check_condition_A string index": (lambda: check_condition_A(("a",), 1),
                                       ValueError, "index 'a' is not an integer"),
    "PolarCode m -1": (lambda: PolarCode(F2, -1, ()), ValueError, "m must be nonnegative"),
    "PolarCode information index n": (lambda: PolarCode(F2, 2, (1, 4)),
                                      ValueError, r"outside \[0, 4\)"),
    "PolarCode frozen count": (lambda: PolarCode(F2, 2, (1, 2, 3), [0, 0]),
                               ValueError, "need 1 frozen values, got 2"),
    "PolarCode.from_json k": (
        lambda: PolarCode.from_json({"m": 2, "k": 2, "info_set": [1, 2, 3]}),
        ValueError, "k=2 but info_set has 3"),
    "encode length": (lambda: CODE.encode([0, 0, 0]), ValueError, "message length 3 != n = 4"),
    "construct_info_set k n + 1": (lambda: construct_info_set(F2, 2, 5, BSC),
                                   ValueError, r"5 outside \[0, "),
    "construct_info_set method": (lambda: construct_info_set(F2, 2, 2, BSC, "x"),
                                  ValueError, "unknown construction method"),
    "Field(2, 9)": (lambda: Field(2, 9), ValueError, "field size 512 exceeds"),
    "default_field(6)": (lambda: default_field(6), ValueError, "6 is not a prime power"),
    "Field.element of another field": (lambda: F2.element(default_field(4).one),
                                       ValueError, "field mismatch"),
    "exact_average_ser AWGN": (lambda: exact_average_ser(CODE, AWGN),
                               ValueError, "requires a finite channel"),
    "exact_ser short message": (lambda: exact_ser(CODE, BSC, [0, 0, 0]),
                                ValueError, "message length 3 != n = 4"),
    "synthetic_channel short prefix": (lambda: synthetic_channel(CODE, BSC, (0,) * 4, (), 1),
                                       ValueError, "prefix has length 0, expected 1"),
    "synthetic_channel n 32": (lambda: synthetic_channel(N32, BSC, (0,) * 32, (), 0),
                               ValueError, "capped at n <= 16"),
    "sc_decode_distribution AWGN": (lambda: sc_decode_distribution(CODE, AWGN, (0.1,) * 4),
                                    ValueError, "require a finite channel"),
    "sc_decode_distribution n 32": (lambda: sc_decode_distribution(N32, BSC, (0,) * 32),
                                    ValueError, "capped at n <= 16"),
    "sc_decode_distribution method": (
        lambda: sc_decode_distribution(CODE, BSC, (0,) * 4, method="x"),
        ValueError, "unknown method 'x'"),
    "sc_decode_batch T shape": (lambda: sc_decode_batch(CODE, np.ones((2, 3, 5)), None),
                                ValueError, r"shape \(2, 3, 5\) does not match"),
    "coset check nonzero frozen value": (
        lambda: check_coset_invariance(PolarCode(F2, 2, (1, 2, 3), [1]), BSC),
        ValueError, "all-zero frozen symbols"),
    "bit-flip check non-decreasing set": (
        lambda: check_ser_bit_flip_symmetry(PolarCode(F2, 2, (0,)), BSC),
        ValueError, "needs a decreasing information set"),
    "BerReport tally above trials": (
        lambda: BerReport((1,), 4, (0, 5), (0, 0)).validate(),
        RuntimeError, r"message tally 5 at 1 outside \[0, 4\]"),
}


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_every_refusal_raises_with_its_reason(refusal):
    call, error, phrase = REFUSALS[refusal]
    with pytest.raises(error, match=phrase):
        call()


F4_JSON = default_field(4).to_json()

# config object -> (a call that reads it, the key its refusal names).  Each
# once ran with the key unread, or ended in a bare KeyError
MISREAD_KEYS = {
    "code frozen_value": (
        lambda: PolarCode.from_json({"m": 1, "info_set": [1], "frozen_value": [[1]]}),
        "frozen_value"),
    "code without info_set": (lambda: PolarCode.from_json({"m": 1}), "info_set"),
    "field modulos": (
        lambda: Field.from_json({"p": 2, "s": 2, "modulos": [1, 1], "alpha": [0, 1]}),
        "modulos"),
    "field alhpa": (lambda: Field.from_json({"p": 2, "s": 2, "alhpa": [1, 1]}), "alhpa"),
    "field without s": (lambda: Field.from_json({"p": 2}), "s"),
    "qsc matrix": (lambda: channel_from_json(
        {"kind": "qsc", "epsilon": "1/10", "matrix": [["1/2", "1/2"], ["1/2", "1/2"]]}),
        "matrix"),
    "qsc feild": (lambda: channel_from_json(
        {"kind": "qsc", "epsilon": "1/10", "feild": F4_JSON}), "feild"),
    "qec sigma2": (lambda: channel_from_json({"kind": "qec", "epsilon": "1/10", "sigma2": 1.0}),
                   "sigma2"),
    "qsc without epsilon": (lambda: channel_from_json({"kind": "qsc"}), "epsilon"),
    "table epsilon": (lambda: channel_from_json(
        {"kind": "table", "matrix": [[1, 0], [0, 1]], "epsilon": "1/10"}), "epsilon"),
    "awgn_bpsk without rate": (lambda: channel_from_json({"kind": "awgn_bpsk", "ebno_db": 2.0}),
                               "rate"),
    "awgn_bpsk epsilon": (lambda: channel_from_json(
        {"kind": "awgn_bpsk", "sigma2": 1.0, "epsilon": "1/10"}), "epsilon"),
    "channel without kind": (lambda: channel_from_json({"epsilon": "1/10"}), "kind"),
}


@pytest.mark.parametrize("case", sorted(MISREAD_KEYS))
def test_a_misspelled_or_missing_config_key_is_refused(case):
    call, key = MISREAD_KEYS[case]
    with pytest.raises(ValueError, match=rf"\['{key}'\]"):
        call()
