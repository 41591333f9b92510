"""Byte-identity of the exact and lexicographic CLI outputs against fixtures.

The files under ``fixtures/cli`` hold the inputs (codes, channels, output
blocks, messages) and, in ``*.out.json``, the output each command wrote
when the exact oracle and the point decoder still ran on Fractions.  The
commands must keep writing the same bytes.
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
    "exact_ser_average_q2": ["exact-ser", "--code", "code_q2.json", "--channel", "bsc.json"],
    "exact_ser_message_q2": ["exact-ser", "--code", "code_q2.json", "--channel", "bsc.json",
                             "--message", "u_q2.json"],
    "exact_ser_average_q4": ["exact-ser", "--code", "code_q4.json", "--channel", "qsc4.json"],
    "exact_ser_average_q4_qec": ["exact-ser", "--code", "code_q4.json",
                                 "--channel", "qec4.json"],
    "exact_ser_message_q4": ["exact-ser", "--code", "code_q4.json", "--channel", "qsc4.json",
                             "--message", "u_q4.json"],
}


def _argv(args, out):
    # option values naming fixture files become absolute paths
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in args] + ["--out", str(out)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_exact_cli_output_byte_identical(name, tmp_path):
    out = tmp_path / f"{name}.out.json"
    assert main(_argv(CASES[name], out)) == 0
    assert out.read_bytes() == (FIXTURES / f"{name}.out.json").read_bytes()
