"""Seeded outcome sampling and binomial interval probabilities.

One PRNG is fixed for the whole package: numpy's PCG64 as wired up by
numpy.random.default_rng(seed). The counts of n draws over k outcomes are
one multinomial draw, which numpy's Generator.multinomial takes as k - 1
conditional binomials (BTPE: Kachitvichyanukul & Schmeiser, Binomial
random variate generation, CACM 31, 1988). So a count table costs O(k)
time and memory however many trials are asked for, and is distributed as
the counts of drawing each trial on its own. Published seeds reproduce the
counts for one numpy version: numpy does not promise the multinomial
stream across versions (NEP 19), which is why result files record it.

Interval probabilities sum binomial terms in Loader's saddle-point form
(C. Loader, Fast and Accurate Computation of Binomial Probabilities, 2000,
the algorithm of R's dbinom), DRAW_BLOCK terms at a time. They are within
1e-14 relative of the exact sum (for results above 1e-5; see
binomial_interval_prob), clamped to [0, 1], in O(DRAW_BLOCK) memory. Only
the blocks that can hold a term above exp(-800) are evaluated: the others
sum to exactly 0.0, so skipping them leaves every result bit unchanged.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from . import correlations
from .operators import _check_draw_args, _freeze, _is_int, prob_values

#: Most terms binomial_interval_prob evaluates at once; its ~15 temporaries of
#: this many float64s (512 KiB each) bound the peak memory of any interval.
DRAW_BLOCK = 1 << 16


@dataclass(frozen=True)
class OutcomeCounts:
    """Counts per outcome label from n_trials seeded draws."""

    counts: np.ndarray
    n_trials: int
    seed: int


@dataclass(frozen=True)
class DataTable:
    """Per-setting joint outcome counts d(x, y | a, b).

    counts maps a setting pair to an (n_x, n_y) integer block of n_trials
    draws; every setting pair gets the same n_trials.
    """

    settings_a: Tuple
    settings_b: Tuple
    counts: Dict[Tuple, np.ndarray]
    n_trials: int
    seed: int

    def empirical_table(self) -> correlations.CorrelationTable:
        """Relative frequencies as a correlation table."""
        probs = {key: block / self.n_trials for key, block in self.counts.items()}
        return correlations.make_table(self.settings_a, self.settings_b, probs)


def _draw_counts(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of n draws from a categorical distribution: one multinomial draw.

    probs arrives validated, its entries in [PROB_FLOOR, 0) already set to
    0 by make_prob_vector or make_table. The positive entries are divided by
    their math.fsum, since numpy refuses sum(p[:-1]) > 1 + 1e-12 and a
    distribution may sum to 1 +- PROB_SUM_TOL; the zero entries get no
    counts. n must be below 2**63 (numpy counts in int64), as
    _check_draw_args ensures.
    """
    counts = np.zeros(probs.shape[0], dtype=np.int64)
    live = np.flatnonzero(probs)
    counts[live] = rng.multinomial(n, probs[live] / math.fsum(probs[live]))
    return counts


def sample_outcomes(q, n: int, seed: int) -> OutcomeCounts:
    """n independent seeded draws from the distribution q, as counts.

    Raises ValueError unless 1 <= n < 2**63 and seed >= 0 are integers and q
    is a distribution.
    """
    _check_draw_args(n, "n", seed)
    probs = prob_values(q)
    rng = np.random.default_rng(seed)
    counts = _draw_counts(probs, n, rng)
    return OutcomeCounts(counts=_freeze(counts), n_trials=n, seed=seed)


#: stirlerr(k) = log(k!) - log(sqrt(2 pi k) (k/e)^k) for k = 0..15, where the
#: Stirling series is too short. Each entry is the log of a ratio near 1, so
#: it is within 3e-16 of the exact value (lgamma(k + 1) minus the Stirling
#: terms cancels to 7e-15 at k = 14). Entry 0 is a placeholder: k = 0 and
#: k = n never go through stirlerr.
_STIRLERR_SMALL = np.array([0.0] + [
    math.log(math.factorial(k) / k**k * math.exp(k) / math.sqrt(2 * math.pi * k))
    for k in range(1, 16)
])


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """stirlerr(k) for integers k >= 1: the table up to 15, then 5 Stirling terms."""
    x = k.astype(float)
    x2 = x * x
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / x2) / x2) / x2) / x2) / x
    small = len(_STIRLERR_SMALL)
    return np.where(k < small, _STIRLERR_SMALL[np.minimum(k, small - 1)], series)


#: bd0 takes its series where |v| < _BD0_SERIES_V, v = (x - M)/(x + M): the
#: closed form loses ~1/v^2 ulps to cancellation (up to 167 at |v| = 0.1, 4
#: at 1/2), while the series, summed from its smallest term, stays within 3.
_BD0_SERIES_V = 0.5
#: Series terms kept: the first left out is below v^54 < 2^-54 of the sum.
_BD0_SERIES_TERMS = 27
#: exp(-800) is 0.0 in float64 (exp underflows from -745 on), so a larger bd0
#: needs no refining, and a log term below -800 is a term of 0.0.
_BD0_UNDERFLOW = 800.0


def _bd0(x: np.ndarray, m: float, m_low: float) -> np.ndarray:
    """Loader's deviance term x log(x/M) + M - x at M = m + m_low, for x > 0.

    Near M it is the series (x - m) v + 2x (v^3/3 + v^5/5 + ...), summed by
    Horner's rule. m_low, the rounding error of m, enters to first order,
    (1 - x/m) m_low: it is below half an ulp of m, but 1 - x/m need not be
    small.
    """
    with np.errstate(over="ignore"):  # x/m = inf at a subnormal m, and then bd0 = inf
        out = x * np.log(x / m) + m - x
    live = out < _BD0_UNDERFLOW
    near = live & (np.abs(x - m) < _BD0_SERIES_V * (x + m))
    xn = x[near]
    d = xn - m
    v = d / (xn + m)
    v2 = v * v
    tail = np.full_like(v, 1 / (2 * _BD0_SERIES_TERMS + 1))
    for j in range(_BD0_SERIES_TERMS - 1, 0, -1):
        tail = 1 / (2 * j + 1) + v2 * tail
    out[near] = d * v + 2 * xn * v * v2 * tail
    out[live] += (1 - x[live] / m) * m_low
    return out


def _split(num: int, den: int) -> Tuple[float, float]:
    """num/den, den a power of 2, as the nearest float plus the nearest float
    to the remainder (int / int rounds correctly)."""
    high = num / den
    high_num, high_den = high.as_integer_ratio()
    common = max(den, high_den)  # both are powers of 2
    return high, (num * (common // den) - high_num * (common // high_den)) / common


def binomial_interval_prob(n: int, p: float, lo: int, hi: int) -> float:
    """P(lo <= K <= hi) for K ~ Binomial(n, p), within 1e-14 relative.

    Loader's saddle-point form gives each term 0 < k < n as
    exp(stirlerr(n) - stirlerr(k) - stirlerr(n-k) - bd0(k, np) - bd0(n-k, nq))
    * sqrt(n / (2 pi k (n-k))), with no lgamma differences to cancel;
    k = 0 and k = n are exp(n log(1-p)) and exp(n log p), added once each
    (once in all when n = 0). np and nq enter exactly, as float pairs. The
    terms are summed DRAW_BLOCK at a time, in blocks aligned at max(lo, 1),
    so memory is O(DRAW_BLOCK) for any n; the block sums are added with
    math.fsum and the result is clamped to [0, 1].

    The terms rise up to the mode floor((n + 1) p) and fall after it, so a
    block before the mode's block peaks at its last k and one after it at
    its first k. A block whose peak log term is below -800 (exp underflows
    to 0.0 from -745 on) holds only terms that are 0.0, so its sum was
    exactly 0.0 and skipping it moves no bit of the fsum. Bisection on the
    peaks, evaluated by the same code on 1-element arrays, finds the
    skipped blocks on each side, so the cost is O(log n) probes plus the
    blocks within ~40 sqrt(n p (1-p)) of the mode, however wide the window is.

    A result P below ~1e-5 is the exp of logs of size ln(1/P) > 11 and
    inherits their rounding: its bound is 4 eps ln(1/P) relative (4e-14 at
    P = 1e-20), and a subnormal P is off by a few of its ulps.
    """
    if not all(map(_is_int, (n, lo, hi))):
        raise ValueError(f"n, lo and hi must be integers, got n={n!r} lo={lo!r} hi={hi!r}")
    if not 0 <= lo <= hi <= n < 2**63:
        raise ValueError(f"need 0 <= lo <= hi <= n < 2**63, got lo={lo} hi={hi} n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a probability, got {p}")
    if p == 0.0:
        return 1.0 if lo == 0 else 0.0
    if p == 1.0:
        return 1.0 if hi == n else 0.0
    n, p, lo, hi = int(n), float(p), int(lo), int(hi)
    sums = []
    if lo == 0:
        sums.append(math.exp(n * math.log1p(-p)))
    if hi == n and n > 0:
        sums.append(math.exp(n * math.log(p)))
    first, last = max(lo, 1), min(hi, n - 1)
    if first <= last:
        stirlerr_n = float(_stirlerr(np.array(n)))
        # rounding np to a float alone would put |k - np| eps into each log
        num, den = p.as_integer_ratio()
        mean_k, mean_k_low = _split(n * num, den)
        mean_n_k, mean_n_k_low = _split(n * (den - num), den)

        def log_terms(k: np.ndarray) -> np.ndarray:
            x = k.astype(float)
            return (stirlerr_n - _stirlerr(k) - _stirlerr(n - k)
                    - _bd0(x, mean_k, mean_k_low) - _bd0(n - x, mean_n_k, mean_n_k_low))

        def live(k: int) -> bool:
            return bool(log_terms(np.array([k]))[0] >= -_BD0_UNDERFLOW)

        starts = range(first, last + 1, DRAW_BLOCK)
        mode = min(max((n + 1) * num // den, first), last)
        centre = (mode - first) // DRAW_BLOCK
        left = bisect.bisect_left(range(centre), True,
                                  key=lambda j: live(starts[j] + DRAW_BLOCK - 1))
        right = centre + 1 + bisect.bisect_left(range(centre + 1, len(starts)), True,
                                                key=lambda j: not live(starts[j]))
        for start in starts[left:right]:
            k = np.arange(start, min(start + DRAW_BLOCK, last + 1))
            x = k.astype(float)
            y = n - x
            sums.append(float(np.sum(np.exp(log_terms(k)) * np.sqrt(n / (2 * math.pi * x * y)))))
    return min(1.0, max(0.0, math.fsum(sums)))


def data_table_sim(
    table: correlations.CorrelationTable, n_per_setting: int, seed: int
) -> DataTable:
    """Sample a data table from a correlation table.

    Every setting pair gets exactly n_per_setting trials, its counts one
    multinomial draw, the pairs taken in the table's row-major setting order
    from one default_rng(seed) stream, and counts kept in it. Raises
    ValueError unless 1 <= n_per_setting < 2**63 and seed >= 0 are integers.
    """
    _check_draw_args(n_per_setting, "n_per_setting", seed)
    rng = np.random.default_rng(seed)
    counts = {}
    for key, block in table.probs.items():
        flat = _draw_counts(block.reshape(-1), n_per_setting, rng)
        counts[key] = _freeze(flat.reshape(block.shape))
    return DataTable(
        settings_a=table.settings_a,
        settings_b=table.settings_b,
        counts=counts,
        n_trials=int(n_per_setting),
        seed=seed,
    )
