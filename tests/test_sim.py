import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import qpolar
from qpolar import sim
from qpolar.cli import _plot_script, _write_report
from qpolar.channel import FiniteChannel, qsc
from qpolar.code import PolarCode
from qpolar.gf import Field, default_field
from qpolar.mc import DEFAULT_BATCH, decode_tallies
from qpolar.oracle import exact_average_ser
from qpolar.sc import sc_decode
from qpolar.sim import (
    BerReport,
    ExperimentConfig,
    chi2_homogeneity,
    ebno_to_channel,
    run_experiment,
)

F2 = default_field(2)


def test_ebno_conversion_values():
    ch = ebno_to_channel(2.0, 0.5)
    assert ch.sigma2 == pytest.approx(10 ** -0.2)
    assert ch.sigma2 == pytest.approx(0.63096, abs=1e-4)
    assert ebno_to_channel(0.0, 1.0).sigma2 == pytest.approx(0.5)
    assert ebno_to_channel(60.0, 0.5).sigma2 < 1e-5
    with pytest.raises(ValueError):
        ebno_to_channel(2.0, 0.0)
    # a NaN noise variance would decode every block without error
    for ebno_db, rate in ((float("nan"), 0.5), (2.0, float("nan"))):
        with pytest.raises(ValueError, match="noise variance"):
            ebno_to_channel(ebno_db, rate)


@pytest.mark.parametrize("ebno_db,rate,message", [
    (-4000, 0.5, "noise variance must be a finite positive number, got inf"),
    (4000, 0.5, "noise variance must be a finite positive number, got 0.0"),
    (float("inf"), 0.5, "noise variance must be a finite positive number, got 0.0"),
    ("2", 0.5, "ebno_db must be a real number"),
    (2.0, "0.5", "rate must be a real number"),
    (True, 0.5, "ebno_db must be a real number"),
    (2.0, True, "rate must be a real number"),
    (2.0, float("inf"), "rate must lie in"),
])
def test_ebno_to_channel_rejects_inputs_without_a_noise_variance(ebno_db, rate, message):
    # these once raised ZeroDivisionError, OverflowError or TypeError, and
    # True ran as 1 dB
    with pytest.raises(ValueError, match=message):
        ebno_to_channel(ebno_db, rate)


def test_noiseless_experiment_all_zero():
    ident = FiniteChannel(F2, [[1, 0], [0, 1]])
    code = PolarCode(F2, 3, [3, 5, 6, 7])
    cfg = ExperimentConfig(code, ident, trials=500, seed=1)
    report = run_experiment(cfg)
    assert report.message_errors == (0,) * 8
    assert report.codeword_errors == (0,) * 8


def test_shard_and_batch_invariance():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 3, [3, 5, 6, 7])
    base = run_experiment(ExperimentConfig(code, ch, trials=20_000, seed=11))
    # split trial ranges decoded in 777-block batches add up to the same tallies
    parts = [decode_tallies(code, ch, 11, a, b, batch=777)
             for a, b in ((0, 6_000), (6_000, 20_000))]
    assert tuple(int(v) for v in parts[0][0] + parts[1][0]) == base.message_errors
    assert tuple(int(v) for v in parts[0][1] + parts[1][1]) == base.codeword_errors


@pytest.mark.parametrize("batch,start", [(-5, 0), (0, 0), (2.5, 0), (True, 0), (1000, -3)])
def test_decode_tallies_rejects_a_bad_batch_or_start(batch, start):
    # a negative batch once returned all-zero tallies over every trial
    code = PolarCode(F2, 3, (3, 5, 6, 7))
    with pytest.raises(ValueError, match="batch must be a positive integer|not a range of indices|not an integer"):
        decode_tallies(code, qsc(F2, Fraction(1, 2)), 1, start, 1000, batch=batch)


def test_monte_carlo_refuses_a_channel_over_another_field():
    # F_9 modulo x^2 + 1 and modulo x^2 + 2x + 2: the Monte Carlo path once
    # returned tallies for this pair, which the point decoder refuses
    code = PolarCode(Field(3, 2, (1, 0)), 2, (1, 2, 3))
    ch = qsc(Field(3, 2, (2, 2)), Fraction(1, 10))
    for run in (lambda: sc_decode(code, ch, (0, 0, 0, 0)),
                lambda: decode_tallies(code, ch, 1, 0, 100),
                lambda: run_experiment(ExperimentConfig(code, ch, trials=100, seed=1))):
        with pytest.raises(ValueError, match="differs from the code field"):
            run()


@pytest.mark.parametrize("cpus", [1, 2, 3, 7])
def test_shard_pool_keeps_tallies(monkeypatch, cpus):
    # the trials split into one range per CPU, each decoded on a pool thread
    # in batches that keep one default batch in flight; the report, config
    # included, is the same byte for byte, also with fewer trials than CPUs
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 3, [3, 5, 6, 7])

    def blobs():
        return [json.dumps(run_experiment(ExperimentConfig(
            code, ch, trials=trials, seed=11, random_message=True)).to_json()).encode()
            for trials in (9_000, 5)]

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    want = blobs()
    started, ranges, batches = [], [], []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    def spy(code, ch, seed, start, stop, batch, **kwargs):
        ranges.append((start, stop))
        batches.append(batch)
        return decode_tallies(code, ch, seed, start, stop, batch=batch, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(sim, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(sim, "decode_tallies", spy)
    assert blobs() == want
    assert started == [cpus, cpus]
    assert batches == [DEFAULT_BATCH // cpus] * (2 * cpus)
    # the ranges of each run tile its trials, one per thread
    for trials, run in zip((9_000, 5), (sorted(ranges[:cpus]), sorted(ranges[cpus:]))):
        assert [a for a, _ in run] == [0] + [b for _, b in run[:-1]] and run[-1][1] == trials


@pytest.mark.parametrize("seed", [2.5, True, "2", None])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    # 2.5 once ran with seed 2's draws and recorded 2.5
    with pytest.raises(ValueError, match="seed must be an integer in"):
        ExperimentConfig(PolarCode(F2, 1, [1]), qsc(F2, Fraction(1, 10)), trials=10,
                         seed=seed)


@pytest.mark.parametrize("seed", [2**64 + 5, -1])
def test_experiment_rejects_a_seed_outside_64_bits(seed):
    # 2^64 + 5 once gave seed 5's tallies while its report recorded 2^64 + 5
    with pytest.raises(ValueError, match="seed must be an integer in"):
        cfg = ExperimentConfig(PolarCode(F2, 1, [1]), qsc(F2, Fraction(1, 10)), trials=10,
                               seed=seed)
        run_experiment(cfg)


def test_experiment_matches_oracle_n4():
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [1, 2, 3])
    trials = 200_000
    report = run_experiment(ExperimentConfig(code, ch, trials=trials, seed=3))
    exact = exact_average_ser(code, ch).per_index
    for est, truth in zip(report.codeword_ber, exact):
        p = float(truth)
        se = (p * (1 - p) / trials) ** 0.5
        assert abs(est - p) <= 4 * se


def test_random_message_mode_agrees():
    # message invariance, empirically: random messages give the same rates
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [1, 2, 3])
    trials = 150_000
    fixed = run_experiment(ExperimentConfig(code, ch, trials=trials, seed=21))
    rand = run_experiment(ExperimentConfig(code, ch, trials=trials, seed=22,
                                           random_message=True))
    for a, b in zip(fixed.codeword_ber, rand.codeword_ber):
        se = (a * (1 - a) / trials) ** 0.5
        assert abs(a - b) <= 5 * max(se, 1e-4)


def test_frozen_positions_never_err():
    ch = qsc(F2, Fraction(3, 10))
    code = PolarCode(F2, 3, [7])
    report = run_experiment(ExperimentConfig(code, ch, trials=5000, seed=2,
                                             random_message=True))
    for i in range(8):
        if i not in code.info_set:
            assert report.message_errors[i] == 0
    report.validate()


def test_tally_conservation_and_validation():
    report = BerReport(info_set=(1,), trials=100,
                       message_errors=(0, 7), codeword_errors=(3, 7))
    report.validate()
    frozen_errs = BerReport(info_set=(1,), trials=100,
                            message_errors=(5, 0), codeword_errors=(0, 0))
    with pytest.raises(RuntimeError):
        frozen_errs.validate()
    overflow = BerReport(info_set=(1,), trials=100,
                         message_errors=(0, 0), codeword_errors=(101, 0))
    with pytest.raises(RuntimeError):
        overflow.validate()


def test_chi2_homogeneity_behaviour():
    rng = np.random.default_rng(0)
    trials = 50_000
    equal = rng.binomial(trials, 0.01, size=64)
    stat, p = chi2_homogeneity(equal, trials)
    assert p > 0.001
    skewed = np.concatenate([rng.binomial(trials, 0.01, size=32),
                             rng.binomial(trials, 0.03, size=32)])
    _, p_bad = chi2_homogeneity(skewed, trials)
    assert p_bad < 1e-6
    assert chi2_homogeneity(np.zeros(8), trials) == (0.0, 1.0)


def test_chi2_pvalue_equals_scipy_stats_sf():
    from scipy.stats import chi2

    rng = np.random.default_rng(11)
    trials = 10_000
    for size in (2, 3, 8, 64, 256):
        for spread in (0.0, 0.002, 0.01, 0.05):
            rates = np.clip(0.02 + spread * rng.standard_normal(size), 1e-4, 0.5)
            counts = rng.binomial(trials, rates)
            stat, p = chi2_homogeneity(counts, trials)
            assert p == float(chi2.sf(stat, size - 1))


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(qpolar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, qpolar; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_export_round_trip(tmp_path):
    ch = qsc(F2, Fraction(1, 10))
    code = PolarCode(F2, 2, [1, 2, 3])
    report = run_experiment(ExperimentConfig(code, ch, trials=2000, seed=5))

    jpath = tmp_path / "report.json"
    _write_report(report, jpath, "json")
    back = json.loads(jpath.read_text())
    assert tuple(back["info_set"]) == report.info_set
    assert back["trials"] == report.trials
    assert tuple(back["message_errors"]) == report.message_errors
    assert tuple(back["codeword_errors"]) == report.codeword_errors
    assert back["config"] == report.config

    cpath = tmp_path / "report.csv"
    _write_report(report, cpath, "csv")
    lines = cpath.read_text().splitlines()
    assert lines[0].startswith("# qpolar-report ")
    assert json.loads(lines[0].removeprefix("# qpolar-report "))["seed"] == 5
    assert len(lines) == 2 + code.n  # header comment + columns + one row per index

    _write_report(report, tmp_path / "again.csv", "csv")
    assert (tmp_path / "again.csv").read_bytes() == cpath.read_bytes()


def test_plot_script_references_both_panels():
    script = _plot_script("report.csv")
    assert "message symbol error rate" in script
    assert "codeword symbol error rate" in script
    assert script.count("report.csv") == 2
    assert "set output 'ber_panels.png'" in script
