"""Seeded Monte Carlo estimation of union probabilities for window models.

Each trial derives its randomness purely from (seed, trial_index) through
a counter-based 64-bit mixing function (the SplitMix64 finalizer), so the
estimate is a deterministic function of (model, range, trials, seed) no
matter how the trials are chunked or parallelized.  Intervals are 95%
Wilson score intervals.

Draw c of a trial string is the 53-bit integer b = w >> 11 of the mixed
word w = mix(key + (c+1)*GOLDEN), read as the uniform u = b * 2**-53, and
its symbol is the number of cumulative masses cum[0..s-2] that are <= u.
The lookup forms neither u nor b: it compares w with the pre-shifted
integer thresholds T_j << 11, T_j = ceil(cum[j] * 2**53).  That is exact,
because scaling a double by 2**53 is exact, b * 2**-53 >= cum[j] holds
iff b >= T_j (b being an integer), and floor(w / 2**11) >= T_j holds iff
w >= T_j * 2**11.  A T_j >= 2**53, from a cumulative mass that reaches
1.0 or massless top symbols, is dropped: no draw reaches it.  Leaving out
cum[s-1] maps a draw at or above a cumulative total that rounds below 1.0
to the top symbol.  With one threshold left the compare's bool buffer is
the symbol array.

The chunk loop is fused and in place: a fixed budget of trial-symbol
cells is mixed, mapped to symbols and folded into window indices (Horner's
rule over m+1 shifted slices) in buffers allocated once per call, so
working memory does not grow with the trial count, nor with the horizon
while one trial fits the budget; past that a chunk is a single trial.
The budget is small enough for the buffers to stay in a core's L2 cache
across the passes over a chunk, and a chunk's draws are consecutive
counters, so its words are one precomputed ramp plus the chunk's first.
A window fires when its index is one of the table's few fired entries:
up to ``_COMPARE_MAX`` entries, one compare pass each beats a gather
from the table, which the loop makes otherwise.  On the benchmark's four
generated Monte Carlo models (1-3 fired entries of 8-27) the loop's time
went 34-53% to the mix, 8-22% to the symbol lookup, 8-26% to the Horner
fold, 2-8% to the fire test, 6-24% to the per-trial `any` and 6-9% to
the counter ramp (2-vCPU Xeon, numpy 2.4).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError
from .families import WindowModel, _nonempty_interval

#: Two-sided 95% standard normal quantile.
Z95 = 1.959963984540054

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Trial-symbol cells per chunk.  The buffers take under 30 bytes a cell,
#: so working memory stays near 1 MiB while one trial fits the budget
#: (N + m <= 2**15); a longer trial takes a chunk of its own.  On the
#: benchmark's Monte Carlo models 2**14 to 2**16 ran fastest, and 2**18,
#: whose buffers overflow a 2 MiB L2 cache, about 1.5x slower.
_CELL_BUDGET = 1 << 15

#: Largest count of fired table entries whose windows are told by
#: comparing the index with each entry, not by gathering from the
#: table.  On a 162 x 200 chunk of uint8 indices one gather took 27-44 us,
#: the first compare 1.3-2.9 us and each further compare-and-or 2.4-5.0
#: us, so the break-even is 8-14 entries (10-11 for uint16 indices) on a
#: 2-vCPU Xeon with numpy 2.4; 8 keeps the compares on the winning side.
_COMPARE_MAX = 8

#: Refuse an estimate of more trials times windows than this before any
#: draw, counting a window once per trial; ``sweep --mc`` sums its rows'
#: work against the same cap.  On a small alphabet an estimate costs about
#: 5-9 ns per trial per window (5.5-6 ns for 10**5 trials of
#: ``consecutive_run_model(1000)`` on a 2-vCPU Xeon), so the cap runs for
#: 3 to 5 minutes, not hours.
MAX_MC_WORK = 30_000_000_000


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
    """Thresholds of the mixed 64-bit words that map to a symbol above j:
    T_j << 11 with T_j = ceil(cum[j] * 2**53), for j = 0..s-2, leaving out
    every T_j >= 2**53 (no 53-bit draw reaches it, and the shift would
    overflow)."""
    scaled = np.ceil(cum[:-1] * 2.0 ** 53)
    return scaled[scaled < 2.0 ** 53].astype(np.uint64) << np.uint64(11)


def _symbols(words: np.ndarray, thresholds: np.ndarray, out: np.ndarray,
             flag: np.ndarray) -> np.ndarray:
    """Symbol of each mixed 64-bit word: the number of thresholds <= it.

    Writes into `out` (an unsigned integer array wide enough for s-1);
    `flag` is a bool array of the same shape.  With one threshold the
    symbols are `flag` itself, viewed as uint8, and `out` is left alone.
    """
    if not len(thresholds):
        out.fill(0)
        return out
    np.greater_equal(words, thresholds[0], out=flag)
    if len(thresholds) == 1:
        return flag.view(np.uint8)
    np.copyto(out, flag)
    for t in thresholds[1:]:
        np.greater_equal(words, t, out=flag)
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
    stream; a table with no fired entry draws nothing.
    Raises ValueError unless `model` is a window model, and
    CapExceededError, before any draw, when `trials` times the windows
    exceeds ``MAX_MC_WORK``.
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
    if trials * n_windows > MAX_MC_WORK:
        raise CapExceededError(
            f"the Monte Carlo estimate would cover {trials * n_windows} "
            f"trial-events, above the Monte Carlo cap {MAX_MC_WORK}; narrow "
            f"the range or lower TRIALS")
    table = model.kernel.table_array
    fired = int(np.count_nonzero(table))
    if not fired:  # no window can fire
        return MonteCarloEstimate(0.0, *wilson_interval(0, trials))

    length = n_windows + m  # symbols per trial
    rows = min(trials, chunk_size, max(1, _CELL_BUDGET // length))
    key = int(_mix64(np.array([operator.index(seed) & int(_U64)], dtype=np.uint64),
                     np.empty(1, dtype=np.uint64))[0])
    # draw c uses the counter word key + (c+1)*GOLDEN, and a chunk's draws
    # are consecutive: one ramp of steps plus the chunk's first word
    ramp = np.arange(rows * length, dtype=np.uint64) * _GOLDEN
    thresholds = _thresholds(np.cumsum(model.kernel.dist_array))
    words = np.empty((rows, length), dtype=np.uint64)
    scratch = np.empty_like(words)
    symbols = np.empty((rows, length), dtype=np.min_scalar_type(s - 1))
    flag = np.empty((rows, length), dtype=bool)
    # the narrowest type that holds a table index keeps the Horner passes short
    index = np.empty((rows, n_windows), dtype=np.min_scalar_type(len(table) - 1))
    # a window fires iff its index is one of the few fired entries; with
    # more of them it is gathered from the table
    few = (np.flatnonzero(table).astype(index.dtype)
           if fired <= _COMPARE_MAX else None)
    marked = np.empty((rows, n_windows), dtype=bool)
    # the compare passes' scratch: `flag` is free once the indices are built
    equal = flag.reshape(-1)[:rows * n_windows].reshape(rows, n_windows)

    hits = 0
    for start in range(0, trials, rows):
        r = min(rows, trials - start)
        cells = r * length
        # the first word in Python ints, so no numpy scalar overflows
        offset = (key + (start * length + 1) * int(_GOLDEN)) & int(_U64)
        np.add(ramp[:cells], np.uint64(offset), out=words.reshape(-1)[:cells])
        _mix64(words[:r], scratch[:r])
        sym = _symbols(words[:r], thresholds, symbols[:r], flag[:r])
        # window k reads symbols k..k+m, the earliest the least significant
        idx = index[:r]
        np.copyto(idx, sym[:, m:m + n_windows])
        for k in range(m - 1, -1, -1):
            idx *= s
            idx += sym[:, k:k + n_windows]
        # window k of trial i is marked if it fires
        mark = marked[:r]
        if few is None:
            # every index is in range, and "clip" lets take write `out` unbuffered
            np.take(table, idx, out=mark, mode="clip")
        else:
            np.equal(idx, few[0], out=mark)
            for v in few[1:]:
                np.equal(idx, v, out=equal[:r])
                mark |= equal[:r]
        hits += int(np.count_nonzero(mark.any(axis=1)))

    return MonteCarloEstimate(hits / trials, *wilson_interval(hits, trials))
