"""Seeded outcome sampling and exact binomial interval probabilities.

One PRNG is fixed for the whole package: numpy's PCG64 as wired up by
numpy.random.default_rng(seed). Outcome counts always equal those of
drawing each outcome through the inverse CDF of the target distribution,
so published seeds reproduce every count table bit-exactly. The draws are
counted in blocks of DRAW_BLOCK uniforms, so memory stays O(DRAW_BLOCK)
however many trials are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .correlations import CorrelationTable, make_table
from .operators import _freeze, _is_int, prob_values

SAMPLING_MODES = ("blocked", "per-trial-random")

#: Most uniforms _draw_counts holds at once; a block of float64s this size
#: (512 KiB) sorts in cache and bounds the peak memory of any draw.
DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class OutcomeCounts:
    """Counts per outcome label from n_trials seeded draws."""

    counts: np.ndarray
    n_trials: int
    seed: int

    def frequencies(self) -> np.ndarray:
        return self.counts / self.n_trials


@dataclass(frozen=True)
class DataTable:
    """Per-setting joint outcome counts d(x, y | a, b).

    counts maps a setting pair to an (n_x, n_y) integer block; n_trials
    maps it to that setting's realized trial count (constant in blocked
    mode, multinomial in per-trial-random mode).
    """

    settings_a: Tuple
    settings_b: Tuple
    counts: Dict[Tuple, np.ndarray]
    n_trials: Dict[Tuple, int]
    sampling_mode: str
    seed: int

    def empirical_table(self) -> CorrelationTable:
        """Relative frequencies as a correlation table.

        Raises ValueError when a setting has no realized trials (possible
        in per-trial-random mode with small trial counts).
        """
        probs = {}
        for key, block in self.counts.items():
            n = self.n_trials[key]
            if n == 0:
                raise ValueError(f"setting {key!r} received no trials")
            probs[key] = block / n
        return make_table(self.settings_a, self.settings_b, probs)


def _draw_counts(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws from a categorical distribution, as counts.

    Uniform u goes to the first outcome i with u < cdf[i], and the counts
    equal those of mapping each draw on its own. The draws are taken
    DRAW_BLOCK at a time, so memory is O(DRAW_BLOCK) for any n. Each block
    is sorted, and one binary search per outcome then gives
    below[i] = #{u < cdf[i]}, the number of draws at outcomes <= i. PCG64's
    random() spends one 64-bit output per double and buffers none, so the
    block sizes do not change the stream.
    """
    cdf = np.cumsum(probs)
    cdf[np.flatnonzero(probs)[-1]:] = 1.0
    # A -1e-17 entry (a rounded quantum probability) can step the cumsum
    # down by one ulp; a running maximum keeps every count non-negative.
    np.maximum.accumulate(cdf, out=cdf)
    below = np.zeros(cdf.shape[0], dtype=np.intp)
    for start in range(0, n, DRAW_BLOCK):
        block = rng.random(min(DRAW_BLOCK, n - start))
        block.sort()
        below += np.searchsorted(block, cdf)
        del block  # freed before the next draw, so one block is live at a time
    return np.diff(below, prepend=0)


def _check_draw_args(n, n_name: str, seed) -> None:
    """Refuse a trial count that is not an int >= 1 or a seed that is not an int >= 0."""
    if not _is_int(n) or n < 1:
        raise ValueError(f"{n_name} must be an integer >= 1, got {n!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def sample_outcomes(q, n: int, seed: int) -> OutcomeCounts:
    """n independent seeded draws from the distribution q.

    Raises ValueError unless n >= 1 and seed >= 0 are integers and q is a
    distribution.
    """
    _check_draw_args(n, "n", seed)
    probs = prob_values(q)
    rng = np.random.default_rng(seed)
    counts = _draw_counts(probs, n, rng)
    return OutcomeCounts(counts=_freeze(counts), n_trials=n, seed=seed)


def binomial_interval_prob(n: int, p: float, lo: int, hi: int) -> float:
    """Exact P(lo <= K <= hi) for K ~ Binomial(n, p), summed in log space."""
    if not all(map(_is_int, (n, lo, hi))):
        raise ValueError(f"n, lo and hi must be integers, got n={n!r} lo={lo!r} hi={hi!r}")
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"need 0 <= lo <= hi <= n, got lo={lo} hi={hi} n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    if p == 0.0:
        return 1.0 if lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if hi == n else 0.0
    k = np.arange(lo, hi + 1, dtype=float)
    count = hi - lo + 1
    lg_k = np.fromiter(map(math.lgamma, range(lo + 1, hi + 2)), float, count)
    lg_n_k = np.fromiter(map(math.lgamma, range(n - lo + 1, n - hi, -1)), float, count)
    log_terms = (
        math.lgamma(n + 1)
        - (lg_k + lg_n_k)
        + k * math.log(p)
        + (n - k) * math.log1p(-p)
    )
    peak = log_terms.max()
    return float(np.exp(peak) * np.sum(np.exp(log_terms - peak)))


def data_table_sim(
    table: CorrelationTable,
    n_per_setting: int,
    seed: int,
    mode: str = "blocked",
) -> DataTable:
    """Sample a data table from a correlation table.

    blocked: every setting pair gets exactly n_per_setting trials, sampled
    in row-major setting order from a single seeded stream. per-trial-random:
    the total n_per_setting * n_settings trials each draw their setting
    uniformly first; counts are per realized setting. Raises ValueError
    unless n_per_setting >= 1 and seed >= 0 are integers and mode is one of
    SAMPLING_MODES.
    """
    _check_draw_args(n_per_setting, "n_per_setting", seed)
    if mode not in SAMPLING_MODES:
        raise ValueError(f"mode must be one of {SAMPLING_MODES}, got {mode!r}")
    keys = [(a, b) for a in table.settings_a for b in table.settings_b]
    rng = np.random.default_rng(seed)

    if mode == "blocked":
        trials = {key: n_per_setting for key in keys}
    else:
        total = n_per_setting * len(keys)
        drawn = rng.integers(0, len(keys), size=total)
        realized = np.bincount(drawn, minlength=len(keys))
        trials = {key: int(realized[i]) for i, key in enumerate(keys)}

    counts = {}
    for key in keys:
        block = table.block(*key)
        n = trials[key]
        if n == 0:
            flat = np.zeros(block.size, dtype=int)
        else:
            flat = _draw_counts(block.reshape(-1), n, rng)
        counts[key] = _freeze(flat.reshape(block.shape))
    return DataTable(
        settings_a=table.settings_a,
        settings_b=table.settings_b,
        counts=counts,
        n_trials=trials,
        sampling_mode=mode,
        seed=seed,
    )
