"""Monte Carlo harness for per-index error rates at practical block lengths.

Transmits the all-zero codeword by default (message invariance makes that
representative; a flag re-runs with random messages as an empirical check),
decodes every trial with the vectorized SC decoder, and tallies message and
codeword symbol errors per index.  The trials split into one contiguous
range per CPU, each decoded on its own thread; every draw is counter indexed
by (seed, trial), so tallies are identical for any CPU count, trial split or
batch size and the ranges merge by plain integer addition.  The module holds
the harness only: the ``simulate`` command writes its ``BerReport`` as CSV
or JSON.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy.special import chdtrc

from .channel import AwgnBpskChannel, channel_to_json
from .gf import _count, _real, default_field
from .mc import DEFAULT_BATCH, decode_tallies
from .rng import checked_seed


def ebno_to_channel(ebno_db, rate, field=None):
    """AWGN/BPSK channel at a given Eb/N0; Eb accounts for the code rate.

    Unit-energy BPSK: sigma^2 = 1 / (2 * rate * 10^(ebno_db/10)).
    """
    # the channel rejects the zero, infinite or NaN variance that an
    # infinite, NaN or extreme value gives
    ebno_db, rate = _real(ebno_db, "ebno_db"), _real(rate, "rate")
    if rate <= 0 or rate > 1:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    if field is None:
        field = default_field(2)
    try:
        sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebno_db / 10.0))
    except OverflowError:  # 10^(ebno_db/10) beyond the floats
        sigma2 = 0.0
    except ZeroDivisionError:  # 10^(ebno_db/10) rounded to 0
        sigma2 = math.inf
    ch = AwgnBpskChannel(field, sigma2)
    ch.params.update({"ebno_db": ebno_db, "rate": rate})
    return ch


@dataclass
class ExperimentConfig:
    code: object
    channel: object
    trials: int
    seed: int
    random_message: bool = False

    def __post_init__(self):
        self.trials, self.seed = _count(self.trials, "trials"), checked_seed(self.seed)
        if type(self.random_message) is not bool:
            raise ValueError(f"random_message must be true or false, got {self.random_message!r}")

    def to_json(self):
        return {
            "code": self.code.to_json(),
            "channel": channel_to_json(self.channel),
            "trials": self.trials,
            "seed": self.seed,
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


def run_experiment(cfg):
    """Run the configured trials and return a validated BerReport.

    The trials split into one contiguous range per CPU, each decoded on its
    own thread (numpy releases the interpreter lock inside its array
    operations) in batches of ``DEFAULT_BATCH // threads`` blocks, so the
    blocks in flight stay one default batch whatever the CPU count.
    """
    code = cfg.code
    threads = os.cpu_count() or 1
    bounds = [cfg.trials * s // threads for s in range(threads + 1)]

    def one_range(s):
        return decode_tallies(code, cfg.channel, cfg.seed, bounds[s], bounds[s + 1],
                              batch=DEFAULT_BATCH // threads,
                              random_message=cfg.random_message)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(one_range, range(threads)))

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
