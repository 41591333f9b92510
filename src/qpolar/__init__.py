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
    SymmetryReport,
    polarize,
    qec,
    qsc,
    table_channel,
    verify_symmetry,
)
from .code import (
    PolarCode,
    check_condition_A,
    closure,
    decreasing_sets,
    dominates,
    kron_matrix,
    polar_transform,
)
from .construct import (
    ErasureExact,
    GenieMC,
    Manual,
    construct_info_set,
    erasure_params,
    genie_mc_rank,
)
from .gf import Field, FieldElement, default_field
from .oracle import (
    SerReport,
    exact_average_ser,
    exact_genie_error_probs,
    exact_ser,
    exact_synthetic,
    mc_ser,
)
from .sc import (
    TieRule,
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
    export_report,
    plot_script,
    run_experiment,
)
from .symmetry import (
    check_coset_invariance,
    check_equal_ser,
    check_message_invariance,
    check_ser_bit_flip_symmetry,
    check_xi_invariance,
    coset_transform,
    delta,
    orbit_to_zero,
    xi_apply_field,
    xi_apply_output,
)

__version__ = "0.1.0"
