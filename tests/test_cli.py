import json
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qpolar import rng
from qpolar.channel import channel_to_json, qec, qsc
from qpolar.cli import _write_report, main
from qpolar.code import PolarCode
from qpolar.gf import default_field
from qpolar.mc import decode_tallies
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


def test_construct_manual_writes_the_given_set(tmp_path, capsys):
    out = tmp_path / "manual.json"
    assert main(["construct", "--m", "3", "--k", "4", "--channel", str(FIXTURES / "bsc.json"),
                 "--method", "manual", "--info", "7", "3", "6", "5", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["info_set"] == [3, 5, 6, 7]
    assert obj["meta"]["method"] == "manual" and obj["meta"]["seed"] is None
    # 3 is in but its dominating 7 is not
    assert main(["construct", "--m", "3", "--k", "4", "--channel", str(FIXTURES / "bsc.json"),
                 "--method", "manual", "--info", "3", "4", "5", "6"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "upward closure" in err and "Traceback" not in err


# (arguments, the option the chosen path ignores): each of these once exited
# 0, and construct wrote info_set [3] for --info 0
IGNORED_OPTIONS = [
    (["construct", "--m", "2", "--k", "1", "--info", "0"], "--info"),
    (["construct", "--m", "2", "--k", "1", "--method", "genie", "--trials", "20",
      "--seed", "1", "--info", "3"], "--info"),
    (["construct", "--m", "2", "--k", "1", "--trials", "20"], "--trials"),
    (["construct", "--m", "2", "--k", "1", "--seed", "1"], "--seed"),
    (["construct", "--m", "2", "--k", "1", "--method", "manual", "--info", "3",
      "--trials", "20"], "--trials"),
    (["construct", "--m", "2", "--k", "1", "--method", "manual", "--info", "3",
      "--seed", "1"], "--seed"),
    (["decode", "--seed", "5"], "--seed"),
    (["decode", "--tie", "lex", "--seed", "5"], "--seed"),
    (["decode", "--exact", "--tie", "random"], "--tie"),
    (["decode", "--exact", "--tie", "lex"], "--tie"),
    (["decode", "--exact", "--seed", "5"], "--seed"),
    (["verify", "--lemmas", "7", "--samples", "3"], "--samples"),
    (["verify", "--lemmas", "thm1", "--samples", "3"], "--samples"),
    (["verify", "--lemmas", "2,7", "--samples", "3"], "--samples"),
    (["verify", "--lemmas", "3", "--seed", "5"], "--seed"),
]


@pytest.mark.parametrize("args,option", IGNORED_OPTIONS,
                         ids=[" ".join(args) for args, _ in IGNORED_OPTIONS])
def test_an_option_the_path_ignores_is_refused(paths, capsys, args, option):
    tmp, ch_path, code_path = paths
    y_path = tmp / "y.json"
    y_path.write_text(json.dumps([0, 0, 1, 0]))
    files = {"construct": ["--channel", ch_path],
             "decode": ["--code", code_path, "--channel", ch_path, "--y", str(y_path)],
             "verify": ["--code", code_path, "--channel", ch_path]}[args[0]]
    out = tmp / "out.json"
    assert main(args + files + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and option in captured.err
    assert "Traceback" not in captured.err and "pass" not in captured.out
    assert not out.exists()


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


def test_message_coordinate_not_integer_is_validation_failure(tmp_path, capsys):
    # 1.5 once truncated silently to the coordinate 1
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps([[1.5, 0], [0, 0], [0, 0], [0, 0]]))
    assert main(["encode", "--code", str(FIXTURES / "code_q4.json"), "--u", str(u_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "not an integer" in err and "Traceback" not in err


def test_message_boolean_is_validation_failure(tmp_path, capsys):
    # true was once read as the element index 1
    u_path = tmp_path / "u.json"
    u_path.write_text(json.dumps([0, 0, 0, True, 0, 0, 0, 0]))
    assert main(["encode", "--code", str(FIXTURES / "code_q2.json"), "--u", str(u_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "not an integer" in err and "Traceback" not in err


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


@pytest.mark.parametrize("bad", [1.7, True])
def test_decode_rejects_non_integer_output_index(tmp_path, capsys, bad):
    # both were once read as the output index 1
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps([0, 0, 0, 0, 0, 0, 1, bad]))
    assert main(["decode", "--code", str(FIXTURES / "code_q2.json"),
                 "--channel", str(FIXTURES / "bsc.json"), "--y", str(y_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "is not an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("bad,message", [
    (True, "must be a real number"), ("2", "must be a real number"),
    (float("nan"), "finite reals"), (float("inf"), "finite reals"),
    (-float("inf"), "finite reals")])
def test_decode_rejects_awgn_output_that_is_not_a_finite_real(tmp_path, capsys, bad, message):
    # true and "2" were once read as 1.0 and 2.0, and NaN decoded to all zeros
    y = json.loads((FIXTURES / "y_awgn_n16.json").read_text())
    y[5] = bad
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(y))  # NaN and Infinity as the JSON extensions
    assert main(["decode", "--code", str(FIXTURES / "code_q2_n16.json"),
                 "--channel", str(FIXTURES / "awgn.json"), "--y", str(y_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err


@pytest.mark.parametrize("y0,x0", [(1e200, 0), (1e20, 0), (-1e20, 1), (-1e200, 1)])
def test_decode_reads_an_awgn_output_of_any_finite_size(tmp_path, y0, x0):
    # at |y| = 1e200 the likelihoods were NaN and decode exited 1; at 1e20
    # they tied, and -1e20 decoded to 0
    y = json.loads((FIXTURES / "y_awgn_n16.json").read_text())
    y[0] = y0
    y_path, out = tmp_path / "y.json", tmp_path / "hat.json"
    y_path.write_text(json.dumps(y))
    assert main(["decode", "--code", str(FIXTURES / "code_q2_n16.json"),
                 "--channel", str(FIXTURES / "awgn.json"), "--y", str(y_path),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["x_hat"][0] == [x0]


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


def test_random_tie_decode_replays_the_harness_trial_0(tmp_path):
    # --tie random once drew its tie uniforms from another generator than the
    # harness's streams, and erred where decode_tallies did on 45 of 60 seeds
    code, ch = PolarCode(F4, 3, [3, 5, 6, 7]), qec(F4, Fraction(1, 2))
    code_path, ch_path, y_path, out = (tmp_path / f for f in ("code", "ch", "y", "out"))
    code_path.write_text(json.dumps(code.to_json()))
    ch_path.write_text(json.dumps(channel_to_json(ch)))
    zero = np.zeros((code.n, 1), dtype=np.intp)
    for seed in range(60):
        y = ch.sample_batch(zero, rng.uniforms(seed, [0], range(code.n)))[:, 0]
        y_path.write_text(json.dumps(y.tolist()))
        assert main(["decode", "--code", str(code_path), "--channel", str(ch_path),
                     "--y", str(y_path), "--tie", "random", "--seed", str(seed),
                     "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        errs = [[int(any(c)) for c in obj[key]] for key in ("u_hat", "x_hat")]
        msg_err, cw_err, _ = decode_tallies(code, ch, seed, 0, 1)
        assert errs == [msg_err.tolist(), cw_err.tolist()], seed


@pytest.mark.parametrize("command", ["construct", "decode", "verify"])
def test_a_seed_no_run_accepts_is_a_validation_failure(paths, capsys, command):
    tmp, ch_path, code_path = paths
    y_path = tmp / "y.json"
    y_path.write_text(json.dumps([0, 0, 1, 0]))
    argv = {
        "construct": ["construct", "--m", "2", "--k", "1", "--channel", ch_path,
                      "--method", "genie", "--trials", "10", "--seed", "-1"],
        "decode": ["decode", "--code", code_path, "--channel", ch_path, "--y", str(y_path),
                   "--tie", "random", "--seed", "-1"],
        "verify": ["verify", "--code", code_path, "--channel", ch_path, "--lemmas", "2,3",
                   "--samples", "3", "--seed", "-1"],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: seed must be an integer in [0, 2^64), got -1" in captured.err
    assert "Traceback" not in captured.err and "pass" not in captured.out


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


def test_simulate_csv_byte_identical(paths, tmp_path, monkeypatch):
    # two runs on two threads write the same bytes as one run on one thread
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path,
                                    "trials": 20000, "seed": 3}))
    outs = []
    for name, cpus in (("a", 2), ("b", 2), ("single", 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        outs.append(tmp_path / f"{name}.csv")
        assert main(["simulate", "--config", str(cfg_path), "--out", str(outs[-1])]) == 0
    a, b, single = outs
    assert a.read_bytes() == b.read_bytes() == single.read_bytes()
    header = a.read_text().splitlines()[0]
    assert json.loads(header.removeprefix("# qpolar-report "))["seed"] == 3


def test_simulate_report_round_trip(paths, tmp_path):
    # both formats carry the experiment's tallies and its resolved config
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path, "trials": 3000,
                                    "seed": 4}))
    jpath, cpath = tmp_path / "rep.json", tmp_path / "rep.csv"
    for path, fmt in ((jpath, "json"), (cpath, "csv")):
        assert main(["simulate", "--config", str(cfg_path), "--out", str(path),
                     "--format", fmt]) == 0
    report = run_experiment(ExperimentConfig(PolarCode(F2, 2, [1, 2, 3]),
                                             qsc(F2, Fraction(1, 10)), trials=3000, seed=4))
    back = json.loads(jpath.read_text())
    assert tuple(back["info_set"]) == report.info_set
    assert back["trials"] == report.trials
    assert tuple(back["message_errors"]) == report.message_errors
    assert tuple(back["codeword_errors"]) == report.codeword_errors
    assert back["config"] == dict(report.config, seed_generated=False)

    header, columns, *lines = cpath.read_text().splitlines()
    assert json.loads(header.removeprefix("# qpolar-report ")) == back["config"]
    assert columns == ("index,is_info,message_errors,message_ber,message_stderr,"
                       "codeword_errors,codeword_ber,codeword_stderr")
    assert [int(line.split(",")[0]) for line in lines] == list(range(4))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_mc_ser_writes_the_simulate_report(paths, tmp_path, fmt):
    # the file simulate writes is the report of the Monte Carlo run it configures
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path, "trials": 3000,
                                    "seed": 4}))
    sim_out = tmp_path / f"rep.{fmt}"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim_out),
                 "--format", fmt]) == 0
    report = run_experiment(ExperimentConfig(PolarCode(F2, 2, [1, 2, 3]),
                                             qsc(F2, Fraction(1, 10)), trials=3000, seed=4))
    report.config["seed_generated"] = False
    direct = tmp_path / f"direct.{fmt}"
    _write_report(report, direct, fmt)
    text = sim_out.read_text()
    assert text == direct.read_text()
    if fmt == "csv":
        # the codeword columns carry the experiment's counts, rates and errors
        rates = report.codeword_ber
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert [int(r[5]) for r in rows] == list(report.codeword_errors)
        assert [r[6] for r in rows] == [f"{v:.10e}" for v in rates]
        assert [r[7] for r in rows] == [f"{v:.10e}" for v in report.stderr(rates)]


def test_simulate_csv_and_plot(paths, tmp_path):
    _, ch_path, code_path = paths
    cfg = {"code": code_path, "channel": ch_path, "trials": 5000, "seed": 9}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.csv"
    plot = tmp_path / "rep.gp"
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(out),
               "--plot", str(plot)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 4
    # the script draws from the report just written
    assert plot.read_text().count(str(out)) == 2

    again = tmp_path / "rep2.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()


def test_verify_samples_record_their_seed(paths, tmp_path, capsys):
    _, ch_path, code_path = paths
    out = tmp_path / "verify.json"
    assert main(["verify", "--code", code_path, "--channel", ch_path, "--lemmas", "2,3,5",
                 "--samples", "3", "--seed", "17", "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("pass") == 3
    config = json.loads(out.read_text())["config"]
    assert config["samples"] == 3 and config["seed"] == 17


def test_verify_samples_without_a_seed_use_and_record_seed_0(paths, tmp_path, capsys):
    _, ch_path, code_path = paths
    argv = ["verify", "--code", code_path, "--channel", ch_path, "--lemmas", "2,3",
            "--samples", "4"]
    out, seeded = tmp_path / "verify.json", tmp_path / "seeded.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv + ["--seed", "0", "--out", str(seeded)]) == 0
    assert capsys.readouterr().out.count("pass") == 4
    assert json.loads(out.read_text()) == json.loads(seeded.read_text())
    assert json.loads(out.read_text())["config"]["seed"] == 0


def test_verify_lemma_2_needs_samples_beyond_256_messages(tmp_path, capsys):
    # 5^4 = 625 messages: it once checked 20 random ones and recorded
    # samples null, the mark of an exhaustive check
    f5 = default_field(5)
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(PolarCode(f5, 2, [2, 3]).to_json()))
    ch_path = tmp_path / "qsc5.json"
    ch_path.write_text(json.dumps(channel_to_json(qsc(f5, Fraction(1, 10)))))
    out = tmp_path / "verify.json"
    assert main(["verify", "--code", str(code_path), "--channel", str(ch_path),
                 "--lemmas", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert "error:" in captured.err and "--samples" in captured.err
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_nonpositive_samples(paths, capsys, samples):
    _, ch_path, code_path = paths
    assert main(["verify", "--code", code_path, "--channel", ch_path,
                 "--lemmas", "2,3", "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert "pass" not in captured.out and "--samples" in captured.err


def test_simulate_without_a_seed_records_a_generated_one(paths, tmp_path):
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path, "trials": 100}))
    out = tmp_path / "rep.json"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--format", "json"]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["seed_generated"] is True and type(config["seed"]) is int


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


def test_simulate_rejects_a_nan_noise_variance(tmp_path, capsys):
    # json reads NaN; every block once decoded without error
    ch_path = tmp_path / "awgn.json"
    ch_path.write_text('{"kind": "awgn_bpsk", "sigma2": NaN}')
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(PolarCode(F2, 2, [1, 2, 3]).to_json()))
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": str(code_path), "channel": str(ch_path),
                                    "trials": 100, "seed": 1}))
    out = tmp_path / "rep.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "noise variance" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_file_is_validation_failure(capsys):
    assert main(["exact-ser", "--code", "/nonexistent.json",
                 "--channel", "/nonexistent.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field,value,message", [
    ("trials", 10.9, "trials 10.9 is not"), ("random_message", "false", "random_message must be"),
    ("seed", 2.5, "seed must be an integer in [0, 2^64), got 2.5")],
    ids=["trials-10.9", "random_message-false", "seed-2.5"])
def test_simulate_rejects_a_config_value_it_would_coerce(paths, tmp_path, capsys, field,
                                                         value, message):
    # each once ran: 10 trials, random messages, seed 2
    _, ch_path, code_path = paths
    cfg = {"code": code_path, "channel": ch_path, "trials": 100, "seed": 1, field: value}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "rep.json"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("channel", [
    {"kind": "awgn_bpsk", "ebno_db": -4000, "rate": 0.5},
    {"kind": "awgn_bpsk", "ebno_db": 4000, "rate": 0.5},
    {"kind": "awgn_bpsk", "ebno_db": "2", "rate": 0.5},
    {"kind": "awgn_bpsk", "ebno_db": 2.0, "rate": "0.5"},
])
def test_simulate_rejects_an_ebno_without_a_noise_variance(tmp_path, capsys, channel):
    # each once ended in a ZeroDivisionError, OverflowError or TypeError traceback
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": str(FIXTURES / "code_q2_n16.json"),
                                    "channel": channel, "trials": 100, "seed": 1}))
    out = tmp_path / "rep.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2**64 + 5, -1])
def test_simulate_rejects_a_seed_outside_64_bits(paths, tmp_path, capsys, seed):
    # 2^64 + 5 once ran seed 5's tallies and recorded 18446744073709551621
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path, "trials": 100,
                                    "seed": seed}))
    out = tmp_path / "rep.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "seed must be an integer in" in err and "Traceback" not in err
    assert not out.exists()


def test_simulate_refuses_a_config_key_it_does_not_read(paths, tmp_path, capsys):
    # "random_messages" once ran all-zero messages and recorded
    # "random_message": false; "shards" set a thread count, which the run
    # now takes from the CPU count
    _, ch_path, code_path = paths
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"code": code_path, "channel": ch_path, "trials": 100,
                                    "seed": 1, "random_messages": True, "shards": 2}))
    out = tmp_path / "rep.json"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "['random_messages', 'shards']" in err
    assert "Traceback" not in err
    assert not out.exists()


WRONG_SHAPES = {
    "config list": (["simulate", "--config"], []),
    "code list": (["exact-ser", "--channel", "bsc.json", "--code"], []),
    "channel list": (["exact-ser", "--code", "code_q2.json", "--channel"], []),
    "construct channel list": (["construct", "--m", "1", "--k", "1", "--channel"], []),
    "inline code list": (["simulate", "--config"],
                         {"code": [], "channel": str(FIXTURES / "bsc.json"), "trials": 10,
                          "seed": 1}),
    "channel field list": (["exact-ser", "--code", "code_q2.json", "--channel"],
                           {"kind": "qsc", "epsilon": "1/10", "field": []}),
    "message number": (["exact-ser", "--code", "code_q2.json", "--channel", "bsc.json",
                        "--message"], 5),
    "block number": (["decode", "--code", "code_q2.json", "--channel", "bsc.json", "--y"], 5),
    "encode number": (["encode", "--code", "code_q2.json", "--u"], 5),
    "table matrix of numbers": (["exact-ser", "--code", "code_q2.json", "--channel"],
                                {"kind": "table", "matrix": [1, 2]}),
    "table matrix number": (["exact-ser", "--code", "code_q2.json", "--channel"],
                            {"kind": "table", "matrix": 5}),
    "table null row": (["exact-ser", "--code", "code_q2.json", "--channel"],
                       {"kind": "table", "matrix": [None, ["1/2", "1/2"]]}),
    "info_set number": (["exact-ser", "--channel", "bsc.json", "--code"],
                        {"m": 1, "info_set": 5}),
    "frozen_values number": (["exact-ser", "--channel", "bsc.json", "--code"],
                             {"m": 1, "info_set": [1], "frozen_values": 5}),
    "modulus number": (["exact-ser", "--channel", "bsc.json", "--code"],
                       {"field": {"p": 2, "s": 1, "modulus": 5}, "m": 1, "info_set": [1]}),
}


@pytest.mark.parametrize("name", sorted(WRONG_SHAPES))
def test_json_of_the_wrong_shape_is_validation_failure(tmp_path, capsys, name):
    # each once ended in a TypeError traceback: configs, codes, channels and
    # fields are JSON objects, messages and blocks lists, and the package
    # reads a matrix, its rows, an information set, frozen values and a
    # modulus as sequences
    args, content = WRONG_SHAPES[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    out = tmp_path / "out.json"
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
    assert main(argv + [str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert "must be a JSON" in err or "must be a sequence" in err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("m", True), ("m", "1"), ("m", 1.0),
    ("info_set", [True]), ("info_set", ["1"]), ("info_set", [1.0]), ("k", True),
    ("s", True), ("s", 1.0), ("s", "1"), ("p", 2.0),
])
def test_a_code_size_or_index_that_is_not_an_integer_is_refused(paths, tmp_path, capsys,
                                                                key, value):
    # true once ran as 1 and was echoed as true; a float or a string ended in
    # a TypeError or IndexError traceback
    tmp, ch_path, _ = paths
    obj = PolarCode(F2, 1, [1]).to_json()
    (obj["field"] if key in ("p", "s") else obj)[key] = value
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(obj))
    out = tmp / "out.json"
    assert main(["exact-ser", "--code", str(bad), "--channel", ch_path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "not an integer" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["exact-ser", "--code", "code_q2.json", "--channel", "qsc4.json"],
    ["decode", "--code", "code_q2.json", "--channel", "qec4.json", "--y", "y_q2.json"],
    ["simulate", "--config"],
], ids=["exact-ser", "decode", "simulate"])
def test_a_channel_file_over_another_field_is_refused(tmp_path, capsys, args):
    # the code's field once replaced the file's own: F_4 channels ran over
    # F_2 and the output config recorded F_2
    if args[0] == "simulate":
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"code": str(FIXTURES / "code_q2.json"),
                                   "channel": str(FIXTURES / "qsc4.json"),
                                   "trials": 10, "seed": 1}))
        args = args + [str(cfg)]
    out = tmp_path / "out.json"
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in args]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "differs from the code field" in err
    assert not out.exists()


@pytest.mark.parametrize("lemmas", [",", " , ", ""])
def test_verify_refuses_an_empty_lemma_list(paths, capsys, lemmas):
    # --lemmas "," once exited 0 after checking nothing
    _, ch_path, code_path = paths
    assert main(["verify", "--code", code_path, "--channel", ch_path,
                 "--lemmas", lemmas]) == 1
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert "error:" in captured.err and "names no lemma" in captured.err
