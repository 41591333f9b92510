"""Every public entry reads its numbers by the package's one rule.  One that
takes a count, an index or a bit position refuses a bool or a float with a
ValueError, and runs on a numpy integer, kept as a Python int; the block
readers refuse the outputs the command line once refused for them."""

from fractions import Fraction

import numpy as np
import pytest

from qpolar.channel import qsc
from qpolar.cli import main
from qpolar.code import PolarCode, check_condition_A, decreasing_sets
from qpolar.construct import GenieMC, Manual, construct_info_set, genie_mc_rank
from qpolar.gf import Field, default_field
from qpolar.mc import decode_tallies
from qpolar.oracle import mc_ser
from qpolar.sc import sc_decode, sc_decode_distribution
from qpolar.sim import ExperimentConfig, ebno_to_channel
from qpolar.symmetry import check_xi_invariance, delta, xi_coefficients

F2 = default_field(2)
BSC = qsc(F2, Fraction(1, 10))
CODE = PolarCode(F2, 2, (1, 2, 3))

# entry -> (a call that passes v, read as 1, where the entry takes an
# integer; what the call returns at v = 1).  Each once ran a bool as 0 or 1,
# or ended a float in a TypeError, or both
INTEGER_ENTRIES = {
    "check_condition_A m": (lambda v: check_condition_A((1,), v), (True, None)),
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
        sc_decode(CODE, ebno_to_channel(2.0, 0.5, F2), [0.3, bad, -1.1, 0.7])
