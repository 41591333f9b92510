import json
from fractions import Fraction
from pathlib import Path

import pytest

from qpolar.channel import channel_to_json, qec, qsc
from qpolar.cli import main
from qpolar.code import PolarCode
from qpolar.gf import default_field
from qpolar.sim import ExperimentConfig, run_experiment

F2 = default_field(2)
F4 = default_field(4)
FIXTURES = Path(__file__).parent / "fixtures" / "cli"


@pytest.fixture
def paths(tmp_path):
    ch_path = tmp_path / "bsc.json"
    ch_path.write_text(json.dumps(channel_to_json(qsc(F2, Fraction(1, 10)))))
    code = PolarCode(F2, 2, [1, 2, 3])
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(code.to_json()))
    return tmp_path, str(ch_path), str(code_path)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--help"])
    assert e.value.code == 0
    assert "construct" in capsys.readouterr().out


def test_unknown_lemma_is_validation_failure(paths):
    _, ch, code = paths
    assert main(["verify", "--code", code, "--channel", ch, "--lemmas", "8"]) == 1


def test_construct_erasure(paths, tmp_path):
    _, _, _ = paths
    qec_path = tmp_path / "qec.json"
    qec_path.write_text(json.dumps(channel_to_json(qec(F2, Fraction(1, 2)))))
    out = tmp_path / "constructed.json"
    rc = main(["construct", "--m", "2", "--k", "1", "--channel", str(qec_path),
               "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["info_set"] == [3]
    assert obj["meta"]["method"] == "erasure"
    code = PolarCode.from_json(obj)
    assert code.is_decreasing


def test_construct_genie_records_seed(paths, tmp_path):
    _, ch, _ = paths
    out = tmp_path / "genie.json"
    rc = main(["construct", "--m", "3", "--k", "4", "--channel", ch,
               "--method", "genie", "--trials", "2000", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["meta"]["seed"] == 7
    assert len(obj["info_set"]) == 4


def test_encode_round(paths, tmp_path):
    _, _, code_path = paths
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps([0, 1, 1, 1]))
    out = tmp_path / "x.json"
    assert main(["encode", "--code", code_path, "--u", str(u_path),
                 "--out", str(out)]) == 0
    x = json.loads(out.read_text())["x"]
    assert x == [[1], [0], [0], [1]]


def test_encode_rejects_frozen_mismatch(paths, tmp_path, capsys):
    _, _, code_path = paths
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps([1, 1, 1, 1]))  # position 0 is frozen to 0
    assert main(["encode", "--code", code_path, "--u", str(u_path)]) == 1
    assert "frozen" in capsys.readouterr().err


@pytest.mark.parametrize("args,message", [
    (["encode", "--code", "code_q4.json", "--u"], [7, 0, 0, 0]),
    (["exact-ser", "--code", "code_q4.json", "--channel", "qsc4.json", "--message"],
     [-1, 0, 0, 0]),
])
def test_message_symbol_outside_field_is_validation_failure(tmp_path, capsys, args, message):
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps(message))
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
    assert main(argv + [str(u_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "outside [0, 4)" in err and "Traceback" not in err


def test_message_coordinate_outside_prime_field_is_validation_failure(tmp_path, capsys):
    # [3, 0] would name the element 1 of F_4 if coordinates wrapped mod 2
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps([[3, 0], [0, 0], [0, 0], [0, 0]]))
    assert main(["encode", "--code", str(FIXTURES / "code_q4.json"), "--u", str(u_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "outside [0, 2)" in err and "Traceback" not in err


def test_decode_exact_distribution(paths, tmp_path):
    tmp, ch_path, _ = paths
    code = PolarCode(F2, 1, [1])
    code_path = tmp / "n2.json"
    code_path.write_text(json.dumps(code.to_json()))
    y_path = tmp / "y.json"
    y_path.write_text(json.dumps([0, 1]))
    out = tmp / "dist.json"
    assert main(["decode", "--code", str(code_path), "--channel", ch_path,
                 "--y", str(y_path), "--exact", "--out", str(out)]) == 0
    dist = json.loads(out.read_text())["distribution"]
    assert dist == [{"x": [[0], [0]], "p": "1/2"}, {"x": [[1], [1]], "p": "1/2"}]


def test_decode_point_with_recorded_seed(paths, tmp_path):
    tmp, ch_path, code_path = paths
    y_path = tmp / "y.json"
    y_path.write_text(json.dumps([0, 0, 1, 0]))
    out = tmp / "hat.json"
    assert main(["decode", "--code", code_path, "--channel", ch_path,
                 "--y", str(y_path), "--tie", "random", "--seed", "5",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["tie"] == {"mode": "random", "seed": 5, "seed_generated": False}
    assert len(obj["x_hat"]) == 4


def test_exact_ser_reports_counterexample_values(paths, tmp_path):
    tmp, ch_path, _ = paths
    code = PolarCode(F2, 1, [0])
    code_path = tmp / "ctr.json"
    code_path.write_text(json.dumps(code.to_json()))
    out = tmp / "ser.json"
    assert main(["exact-ser", "--code", str(code_path), "--channel", ch_path,
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["per_index"] == ["9/50", "0/1"]


def test_verify_passes_on_decreasing_code(paths, capsys):
    _, ch_path, code_path = paths
    rc = main(["verify", "--code", code_path, "--channel", ch_path,
               "--lemmas", "2,3,4,5,6,7,thm1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 7


def test_verify_fails_on_counterexample_with_witness(paths, tmp_path, capsys):
    tmp, ch_path, _ = paths
    code = PolarCode(F2, 1, [0])
    code_path = tmp / "ctr.json"
    code_path.write_text(json.dumps(code.to_json()))
    out = tmp / "verify.json"
    rc = main(["verify", "--code", str(code_path), "--channel", ch_path,
               "--lemmas", "thm1", "--out", str(out)])
    assert rc == 1
    printed = capsys.readouterr().out
    assert "FAIL" in printed and "9/50" in printed
    obj = json.loads(out.read_text())
    assert obj["results"]["thm1"]["ok"] is False


def test_mc_ser_csv_byte_identical(paths, tmp_path):
    _, ch_path, code_path = paths
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = main(["mc-ser", "--code", code_path, "--channel", ch_path,
                   "--trials", "20000", "--seed", "3", "--shards", "4",
                   "--format", "csv", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert json.loads(header.removeprefix("# qpolar-report "))["seed"] == 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mc_ser_writes_the_simulate_report(paths, tmp_path, capsys, fmt):
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path, "trials": 3000,
                                    "seed": 4, "shards": 2}))
    sim_out = tmp_path / f"rep.{fmt}"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_out),
                 "--format", fmt]) == 0
    capsys.readouterr()
    # no --out: the report goes to stdout
    assert main(["mc-ser", "--code", code_path, "--channel", ch_path, "--trials", "3000",
                 "--seed", "4", "--shards", "2", "--format", fmt]) == 0
    text = capsys.readouterr().out
    assert text == sim_out.read_text()
    if fmt == "csv":
        # the codeword columns carry the experiment's counts, rates and errors
        report = run_experiment(ExperimentConfig(PolarCode(F2, 2, [1, 2, 3]),
                                                 qsc(F2, Fraction(1, 10)), trials=3000, seed=4))
        rates = report.codeword_ber
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert [int(r[5]) for r in rows] == list(report.codeword_errors)
        assert [r[6] for r in rows] == [f"{v:.10e}" for v in rates]
        assert [r[7] for r in rows] == [f"{v:.10e}" for v in report.stderr(rates)]


def test_simulate_csv_and_plot(paths, tmp_path):
    _, ch_path, code_path = paths
    cfg = {"code": code_path, "channel": ch_path, "trials": 5000, "seed": 9,
           "shards": 2}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.csv"
    plot = tmp_path / "rep.gp"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
               "--plot", str(plot)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 4
    assert "codeword symbol error rate" in plot.read_text()

    again = tmp_path / "rep2.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_nonpositive_samples(paths, capsys, samples):
    _, ch_path, code_path = paths
    assert main(["verify", "--code", code_path, "--channel", ch_path,
                 "--lemmas", "2,3", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert "pass" not in captured.out and "--samples" in captured.err


def test_simulate_rejects_plot_of_json_report(paths, tmp_path, capsys):
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path, "trials": 100,
                                    "seed": 1}))
    out = tmp_path / "rep.json"
    plot = tmp_path / "rep.gp"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--format", "json", "--plot", str(plot)]) == 1
    assert "--plot" in capsys.readouterr().err
    assert not out.exists() and not plot.exists()


def test_missing_file_is_validation_failure(capsys):
    assert main(["exact-ser", "--code", "/nonexistent.json",
                 "--channel", "/nonexistent.json"]) == 1
    assert "error:" in capsys.readouterr().err
