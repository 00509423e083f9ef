"""Seeded Monte Carlo estimation of union probabilities for window models.

Each trial derives its randomness purely from (seed, trial_index) through
a counter-based 64-bit mixing function (the SplitMix64 finalizer), so the
estimate is a deterministic function of (model, range, trials, seed) no
matter how the trials are chunked or parallelized.  Intervals are 95%
Wilson score intervals.

Draw c of a trial string is the 53-bit integer b = mix(key + (c+1)*GOLDEN)
>> 11, read as the uniform u = b * 2**-53, and its symbol is the number of
cumulative masses cum[0..s-2] that are <= u.  The lookup never forms u: it
compares b with the integer thresholds T_j = ceil(cum[j] * 2**53).  That
is exact, because scaling a double by 2**53 is exact and, b being an
integer, b * 2**-53 >= cum[j] holds iff b >= T_j.  Leaving out cum[s-1]
maps a draw at or above a cumulative total that rounds below 1.0 to the
top symbol.

The chunk loop is fused and in place: a fixed budget of trial-symbol
cells is mixed, mapped to symbols and folded into window indices (Horner's
rule over m+1 shifted slices) in buffers allocated once per call, so
working memory does not grow with the trial count, nor with the horizon
while one trial fits the budget; past that a chunk is a single trial.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .families import WindowModel, _nonempty_interval

#: Two-sided 95% standard normal quantile.
Z95 = 1.959963984540054

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Trial-symbol cells per chunk.  The buffers take under 30 bytes a cell,
#: so working memory stays near 7 MiB while one trial fits the budget
#: (N + m <= 2**18); a longer trial takes a chunk of its own.
_CELL_BUDGET = 1 << 18


def _mix64(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on a uint64 array; `scratch` is a
    uint64 array of the same shape."""
    np.right_shift(x, np.uint64(30), out=scratch)
    x ^= scratch
    x *= _MIX1
    np.right_shift(x, np.uint64(27), out=scratch)
    x ^= scratch
    x *= _MIX2
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x


def _thresholds(cum: np.ndarray) -> np.ndarray:
    """Integer thresholds ceil(cum[j] * 2**53) of the draws that map to a
    symbol above j, for j = 0..s-2."""
    return np.ceil(cum[:-1] * 2.0 ** 53).astype(np.uint64)


def _symbols(bits: np.ndarray, thresholds: np.ndarray, out: np.ndarray,
             flag: np.ndarray) -> np.ndarray:
    """Symbol of each 53-bit draw: the number of thresholds <= the draw.

    Writes into `out` (an unsigned integer array wide enough for s-1);
    `flag` is a bool array of the same shape used as scratch.
    """
    np.greater_equal(bits, thresholds[0], out=flag)
    np.copyto(out, flag)
    for t in thresholds[1:]:
        np.greater_equal(bits, t, out=flag)
        out += flag
    return out


class MonteCarloEstimate(NamedTuple):
    estimate: float
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in 0..trials")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials
                         + z2 / (4.0 * trials * trials)) / denom
    # the edges are exact: k = 0 pins the lower end, k = n the upper
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def estimate_union(model: WindowModel, first: int, last: int,
                   trials: int, seed: int, *,
                   chunk_size: int = 1 << 16) -> MonteCarloEstimate:
    """Monte Carlo estimate of P(A_first or ... or A_last) with a 95%
    Wilson interval.

    Simulates `trials` independent symbol strings covering the requested
    windows and counts the strings on which any window fires.  An empty
    interval (first > last) returns (0, 0, 0).  Working memory is a fixed
    budget of trial-symbol cells whatever `trials`, or one trial's symbols
    when a trial is longer than the budget; `chunk_size` (trials per chunk)
    can only lower it.  Any chunking yields byte-identical results because
    trial t consumes exactly the counters [t*L, (t+1)*L) of the seed's
    stream.  Raises ValueError unless `model` is a window model.
    """
    if not isinstance(model, WindowModel):
        raise ValueError("Monte Carlo estimation applies to window models only")
    first = operator.index(first)
    last = operator.index(last)
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunk_size = operator.index(chunk_size)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if not _nonempty_interval(model, first, last):
        return MonteCarloEstimate(0.0, 0.0, 0.0)

    s, m = model.alphabet_size, model.m
    n_windows = last - first + 1
    length = n_windows + m  # symbols per trial
    rows = min(trials, chunk_size, max(1, _CELL_BUDGET // length))
    key = _mix64(np.array([operator.index(seed) & int(_U64)], dtype=np.uint64),
                 np.empty(1, dtype=np.uint64))[0]
    # draw c uses the counter word key + (c+1)*GOLDEN, and trial t's draws
    # are c = t*length + j: a per-trial base plus a per-column step
    steps = np.arange(length, dtype=np.uint64) * _GOLDEN
    thresholds = _thresholds(np.cumsum(model.dist_array))
    table = model.table_array
    words = np.empty((rows, length), dtype=np.uint64)
    scratch = np.empty_like(words)
    symbols = np.empty((rows, length), dtype=np.min_scalar_type(s - 1))
    flag = np.empty((rows, length), dtype=bool)
    # the narrowest type that holds a table index keeps the Horner passes short
    index = np.empty((rows, n_windows), dtype=np.min_scalar_type(len(table) - 1))
    fired = np.empty((rows, n_windows), dtype=bool)

    hits = 0
    for start in range(0, trials, rows):
        r = min(rows, trials - start)
        base = (np.arange(start, start + r, dtype=np.uint64) * np.uint64(length)
                + np.uint64(1)) * _GOLDEN + key
        bits = words[:r]
        np.add(base[:, None], steps, out=bits)
        _mix64(bits, scratch[:r])
        bits >>= np.uint64(11)
        sym = _symbols(bits, thresholds, symbols[:r], flag[:r])
        # window k reads symbols k..k+m, the earliest the least significant
        idx = index[:r]
        np.copyto(idx, sym[:, m:m + n_windows])
        for k in range(m - 1, -1, -1):
            idx *= s
            idx += sym[:, k:k + n_windows]
        np.take(table, idx, out=fired[:r])
        hits += int(np.count_nonzero(fired[:r].any(axis=1)))

    estimate = hits / trials
    ci_low, ci_high = wilson_interval(hits, trials)
    return MonteCarloEstimate(estimate, ci_low, ci_high)
