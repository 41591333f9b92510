"""Byte-identity of CLI outputs against fixtures.

The files under ``fixtures/cli`` hold the inputs (codes, channels, output
blocks, messages, a simulation config) and, in ``*.out.json`` and
``*.out.csv``, the output each command wrote.  The exact and
finite-channel decodes pin the integer kernel, and the random-tie decode
its tie pick (u_2 = 2, where the lexicographic rule keeps 0); the Monte
Carlo report (F_16 QSC(1/10), n = 64, random messages) pins the float
kernel's tallies, the AWGN report (Eb/N0 = 2 dB, n = 64) the normal draws
and AWGN likelihoods that feed it, and the AWGN decode the point decoder's
float route.  The Monte Carlo reports do not depend on the CPU count.
The commands must keep writing the same bytes.
"""

from pathlib import Path

import pytest

from qpolar.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "cli"

CASES = {
    "decode_exact_q2": ["decode", "--code", "code_q2.json", "--channel", "bsc.json",
                        "--y", "y_q2.json", "--exact"],
    "decode_exact_q2_frozen": ["decode", "--code", "code_q2_frozen.json",
                               "--channel", "bsc.json", "--y", "y_q2_frozen.json", "--exact"],
    "decode_exact_q4": ["decode", "--code", "code_q4.json", "--channel", "qec4.json",
                        "--y", "y_q4.json", "--exact"],
    "decode_exact_q4_frozen": ["decode", "--code", "code_q4_frozen.json",
                               "--channel", "qec4.json", "--y", "y_q4_frozen.json", "--exact"],
    "decode_lex_q2": ["decode", "--code", "code_q2.json", "--channel", "bsc.json",
                      "--y", "y_q2.json"],
    "decode_lex_q2_frozen": ["decode", "--code", "code_q2_frozen.json", "--channel", "bsc.json",
                             "--y", "y_q2_frozen.json"],
    "decode_lex_q4": ["decode", "--code", "code_q4.json", "--channel", "qec4.json",
                      "--y", "y_q4.json"],
    "decode_lex_q4_frozen": ["decode", "--code", "code_q4_frozen.json", "--channel", "qec4.json",
                             "--y", "y_q4_frozen.json"],
    "decode_random_q4": ["decode", "--code", "code_q4.json", "--channel", "qec4.json",
                         "--y", "y_q4.json", "--tie", "random", "--seed", "7"],
    "decode_lex_awgn_n16": ["decode", "--code", "code_q2_n16.json", "--channel", "awgn.json",
                            "--y", "y_awgn_n16.json"],
    "exact_ser_average_q2": ["exact-ser", "--code", "code_q2.json", "--channel", "bsc.json"],
    "exact_ser_message_q2": ["exact-ser", "--code", "code_q2.json", "--channel", "bsc.json",
                             "--message", "u_q2.json"],
    "exact_ser_average_q4": ["exact-ser", "--code", "code_q4.json", "--channel", "qsc4.json"],
    "exact_ser_average_q4_qec": ["exact-ser", "--code", "code_q4.json",
                                 "--channel", "qec4.json"],
    "exact_ser_message_q4": ["exact-ser", "--code", "code_q4.json", "--channel", "qsc4.json",
                             "--message", "u_q4.json"],
    "simulate_q16_csv": ["simulate", "--config", "simulate_q16.json", "--format", "csv"],
    "simulate_awgn": ["simulate", "--config", "simulate_awgn.json", "--format", "json"],
}


def _argv(args, out):
    # option values naming fixture files become absolute paths
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in args] + ["--out", str(out)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_cli_output_byte_identical(name, tmp_path):
    out_name = f"{name}.out.csv" if "csv" in CASES[name] else f"{name}.out.json"
    out = tmp_path / out_name
    assert main(_argv(CASES[name], out)) == 0
    assert out.read_bytes() == (FIXTURES / out_name).read_bytes()
