"""Statistics shared by the cellbench scripts.

Three rules live here, each tested by test_cellbench.py on fixed inputs:

* the percentile rule: report a timing as its median and the highest
  percentile that still has at least ten samples beyond it;
* per-round normalisation: counts and busy times are reported per
  learning round;
* the bound comparison: a metric regresses when its median worsens by more
  than the share of the base median that BENCHMARK.json allows.
"""

import math
import statistics

# Percentiles the rule may report, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10


def percentile(values, q):
    """The q-th percentile (0..100) with linear interpolation between the
    two closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile %r outside 0..100" % q)
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_percentile(n, candidates=CANDIDATE_PERCENTILES,
                         min_beyond=MIN_SAMPLES_BEYOND):
    """The highest candidate percentile with at least `min_beyond` of the
    n samples beyond it, or None when not even the median qualifies."""
    best = None
    for q in candidates:
        # n * (100 - q) / 100 samples lie beyond the q-th percentile;
        # rounded so that 100 samples support p90 despite float error.
        if round(n * (100.0 - q) / 100.0, 9) >= min_beyond:
            best = q
    return best


def per_round(total, rounds):
    """A run total normalised to one learning round."""
    if rounds <= 0:
        raise ValueError("no rounds to normalise by")
    return total / rounds


def ratio(numerator, denominator, empty=0.0):
    """numerator / denominator, or `empty` when nothing was counted."""
    return numerator / denominator if denominator else empty


def relative_spread(values):
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles with n=4, its default method)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(base_median, new_median, better):
    """How much worse new is than base, as a share of base (negative when
    it is better).  `better` is "lower" or "higher"."""
    if base_median == 0:
        raise ValueError("base median is 0; the bound is undefined")
    if better == "lower":
        return (new_median - base_median) / base_median
    if better == "higher":
        return (base_median - new_median) / base_median
    raise ValueError("better must be 'lower' or 'higher', not %r" % better)


def regressed(base_values, new_values, better, bound):
    """True when the median of new_values is worse than the median of
    base_values by more than `bound` (a share of the base median)."""
    return worsening(statistics.median(base_values),
                     statistics.median(new_values), better) > bound
