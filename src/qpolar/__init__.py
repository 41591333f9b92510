"""Polar codes over small finite fields.

Encoding and successive cancellation decoding for codes built from the
kernel [[1, 0], [alpha, 1]] over F_q, together with F_q-symmetric channel
models, an exact small-instance SER oracle, the code-automorphism
machinery that makes every codeword symbol share one SER, and a
reproducible Monte Carlo harness.
"""

from .channel import (
    AwgnBpskChannel,
    FiniteChannel,
    qec,
    qsc,
)
from .code import (
    PolarCode,
    check_condition_A,
    decreasing_sets,
    polar_transform,
)
from .construct import (
    GenieMC,
    Manual,
    construct_info_set,
    genie_mc_rank,
)
from .gf import Field, FieldElement, default_field
from .oracle import (
    SerReport,
    exact_average_ser,
    exact_ser,
    mc_ser,
)
from .sc import (
    sc_decode,
    sc_decode_batch,
    sc_decode_distribution,
    synthetic_channel,
)
from .sim import (
    BerReport,
    ExperimentConfig,
    chi2_homogeneity,
    ebno_to_channel,
    run_experiment,
)
from .symmetry import (
    check_coset_invariance,
    check_equal_ser,
    check_message_invariance,
    check_ser_bit_flip_symmetry,
    check_xi_invariance,
    delta,
)

__version__ = "0.1.0"
