"""Monte Carlo harness for per-index error rates at practical block lengths.

Transmits the all-zero codeword by default (message invariance makes that
representative; a flag re-runs with random messages as an empirical check),
decodes every trial with the vectorized SC decoder, and tallies message and
codeword symbol errors per index.  Trials shard across workers; every draw
is counter indexed by (seed, trial), so tallies are identical for any shard
count or batch size and shards merge by plain integer addition.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.special import chdtrc

from .channel import AwgnBpskChannel, channel_to_json
from .mc import DEFAULT_BATCH, decode_tallies


def ebno_to_channel(ebno_db, rate, field=None):
    """AWGN/BPSK channel at a given Eb/N0; Eb accounts for the code rate.

    Unit-energy BPSK: sigma^2 = 1 / (2 * rate * 10^(ebno_db/10)).
    """
    if rate <= 0 or rate > 1:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    if field is None:
        from .gf import default_field
        field = default_field(2)
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0))
    ch = AwgnBpskChannel(field, sigma2)
    ch.params.update({"ebno_db": float(ebno_db), "rate": float(rate)})
    return ch


@dataclass
class ExperimentConfig:
    code: object
    channel: object
    trials: int
    seed: int
    shards: int = 1
    random_message: bool = False
    batch: int = DEFAULT_BATCH

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.shards < 1:
            raise ValueError("shard count must be >= 1")

    def to_json(self):
        return {
            "code": self.code.to_json(),
            "channel": channel_to_json(self.channel),
            "trials": self.trials,
            "seed": self.seed,
            "shards": self.shards,
            "random_message": self.random_message,
        }


@dataclass
class BerReport:
    """Per-index tallies of one experiment, plus the resolved config."""

    info_set: tuple
    trials: int
    message_errors: tuple
    codeword_errors: tuple
    config: dict = dataclass_field(default_factory=dict)

    @property
    def n(self):
        return len(self.codeword_errors)

    @property
    def message_ber(self):
        return tuple(e / self.trials for e in self.message_errors)

    @property
    def codeword_ber(self):
        return tuple(e / self.trials for e in self.codeword_errors)

    def stderr(self, rates):
        return tuple(math.sqrt(r * (1 - r) / self.trials) for r in rates)

    def summary(self):
        info = list(self.info_set)
        msg = [self.message_ber[i] for i in info] or [0.0]
        cw = list(self.codeword_ber)
        return {
            "message": {"max": max(msg), "min": min(msg),
                        "mean": sum(msg) / len(msg)},
            "codeword": {"max": max(cw), "min": min(cw),
                         "mean": sum(cw) / len(cw)},
        }

    def validate(self):
        """Internal consistency: raises RuntimeError on violation."""
        info = set(self.info_set)
        for i in range(self.n):
            if not 0 <= self.message_errors[i] <= self.trials:
                raise RuntimeError(f"message tally {self.message_errors[i]} at {i} "
                                   f"outside [0, {self.trials}]")
            if not 0 <= self.codeword_errors[i] <= self.trials:
                raise RuntimeError(f"codeword tally {self.codeword_errors[i]} at {i} "
                                   f"outside [0, {self.trials}]")
            if i not in info and self.message_errors[i]:
                raise RuntimeError(f"frozen position {i} shows message errors")

    def to_json(self):
        return {
            "config": self.config,
            "info_set": list(self.info_set),
            "trials": self.trials,
            "message_errors": list(self.message_errors),
            "codeword_errors": list(self.codeword_errors),
            "message_ber": list(self.message_ber),
            "codeword_ber": list(self.codeword_ber),
            "summary": self.summary(),
        }

    @staticmethod
    def from_json(obj):
        return BerReport(
            info_set=tuple(obj["info_set"]),
            trials=obj["trials"],
            message_errors=tuple(obj["message_errors"]),
            codeword_errors=tuple(obj["codeword_errors"]),
            config=obj.get("config", {}),
        )


def run_experiment(cfg, threads=1):
    """Run the configured trials and return a validated BerReport."""
    code = cfg.code
    bounds = [cfg.trials * s // cfg.shards for s in range(cfg.shards + 1)]

    def one_shard(s):
        return decode_tallies(code, cfg.channel, cfg.seed, bounds[s], bounds[s + 1],
                              batch=cfg.batch, random_message=cfg.random_message)

    if threads > 1 and cfg.shards > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_shard, range(cfg.shards)))
    else:
        results = [one_shard(s) for s in range(cfg.shards)]

    msg = np.zeros(code.n, dtype=np.int64)
    cw = np.zeros(code.n, dtype=np.int64)
    for m_err, c_err, _ in results:
        msg += m_err
        cw += c_err
    report = BerReport(
        info_set=code.info_set,
        trials=cfg.trials,
        message_errors=tuple(int(v) for v in msg),
        codeword_errors=tuple(int(v) for v in cw),
        config=cfg.to_json(),
    )
    report.validate()
    return report


def chi2_homogeneity(counts, trials):
    """Pearson chi-square test that all per-index error proportions are equal.

    Returns (statistic, p-value) with len(counts) - 1 degrees of freedom.
    The p-value is the chi-square survival function ``chdtrc``, which is
    what ``scipy.stats.chi2.sf`` evaluates; calling it directly keeps
    ``scipy.stats`` (most of the import time of this package) unloaded.
    """
    counts = np.asarray(counts, dtype=float)
    mean = counts.mean()
    p = mean / trials
    if p <= 0 or p >= 1:
        return 0.0, 1.0
    stat = float(((counts - mean) ** 2).sum() / (trials * p * (1 - p)))
    return stat, float(chdtrc(len(counts) - 1, stat))


CSV_COLUMNS = ("index", "is_info", "message_errors", "message_ber",
               "message_stderr", "codeword_errors", "codeword_ber",
               "codeword_stderr")


def export_report(report, path, fmt="csv"):
    """Write a report as CSV or JSON to ``path`` (stdout when None); both
    embed the resolved config."""
    if fmt == "json":
        text = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        info = set(report.info_set)
        mber = report.message_ber
        cber = report.codeword_ber
        mse = report.stderr(mber)
        cse = report.stderr(cber)
        lines = [
            "# qpolar-report " + json.dumps(report.config, sort_keys=True),
            ",".join(CSV_COLUMNS),
        ]
        for i in range(report.n):
            lines.append(
                f"{i},{int(i in info)},{report.message_errors[i]},{mber[i]:.10e},"
                f"{mse[i]:.10e},{report.codeword_errors[i]},{cber[i]:.10e},{cse[i]:.10e}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def plot_script(csv_path, out_path="ber_panels.png"):
    """gnuplot script drawing the two per-index panels from an exported CSV."""
    return "\n".join([
        "set datafile separator ','",
        f"set output '{out_path}'",
        "set terminal pngcairo size 1200,480",
        "set multiplot layout 1,2",
        "set logscale y",
        "set xlabel 'index'",
        "set title 'message symbol error rate'",
        f"plot '{csv_path}' using (column(2) == 1 ? column(1) : 1/0):4 "
        "with points pt 7 ps 0.4 notitle",
        "set title 'codeword symbol error rate'",
        f"plot '{csv_path}' using 1:7 with points pt 7 ps 0.4 notitle",
        "unset multiplot",
    ]) + "\n"
