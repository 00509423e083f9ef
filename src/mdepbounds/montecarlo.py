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

The chunk loop is fused and in place, and retires a trial at its first
fired window.  A chunk of trials is drawn segment by segment: a segment
mixes the symbols of its windows for every live trial, maps them to
symbols and folds them into window indices (Horner's rule over m+1
shifted row blocks), and the trials in which a window fired are counted
and leave the chunk, so the next segment draws only for the live ones.
The first segment is ``_SEGMENT`` windows wide; each next one at most
doubles, within ``_WIDEST`` and the room the live trials leave in the
buffers, so a trial that fires early costs about one segment, not N + m
draws.  The buffers are position-major (symbol position x live trial) and
allocated once per call: a segment's words are one broadcast add of each
position's counter step to the live trials' base words, its Horner slices
are contiguous row blocks, and a trial's verdict is one OR down a column.
They hold a fixed budget of cells, so working memory grows with neither
the trial count nor the horizon, and stays in a core's L2 cache across
the passes over a segment.
A window fires when its index is one of the table's few fired entries:
up to ``_COMPARE_MAX`` entries, one compare pass each beats a gather
from the table, which the loop makes otherwise.  On the benchmark's four
generated Monte Carlo models (1-3 fired entries of 8-27, unions
0.25-0.77) the loop's time went 49-61% to the mix, 7-23% to the symbol
lookup, 4-8% to the Horner fold, 2-5% to the fire test, 2-3% to the
per-trial verdict, 3-6% to retiring trials and 9-18% to the words
(2-vCPU Xeon, numpy 2.4).
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

#: Trial-symbol cells of one segment.  The buffers take about 20 bytes a
#: cell, so working memory stays near 1.3 MiB whatever N is.  On the
#: benchmark's Monte Carlo models 2**16 ran 12-23% faster than 2**15,
#: whose segments leave numpy's per-call overhead less work to amortize,
#: and 7-17% faster than 2**17 (2-vCPU Xeon, numpy 2.4).
_CELL_BUDGET = 1 << 16

#: Windows in a chunk's first segment: a trial is drawn segment by segment
#: and leaves its chunk at the first segment in which a window fires.
#: On the benchmark's models 8 ran within 3% of 16, and 32 10-12% slower.
_SEGMENT = 16

#: Most windows in one segment.  A segment widens while the live trials
#: leave room in the buffers, so a chunk of a few trials over a long
#: horizon makes a pass per up to 4096 windows, not one per ``_SEGMENT``
#: (one trial at N = 10**5: 1.9 ms, against 4.6 ms with 1024).
_WIDEST = 1 << 12

#: Largest count of fired table entries whose windows are told by
#: comparing the index with each entry, not by gathering from the
#: table.  On a 162 x 200 chunk of uint8 indices one gather took 27-44 us,
#: the first compare 1.3-2.9 us and each further compare-and-or 2.4-5.0
#: us, so the break-even is 8-14 entries (10-11 for uint16 indices) on a
#: 2-vCPU Xeon with numpy 2.4; 8 keeps the compares on the winning side.
_COMPARE_MAX = 8

#: Refuse an estimate of more trials times windows than this before any
#: draw, counting a window once per trial; ``sweep --mc`` sums its rows'
#: work against the same cap.  The cap counts every window although a
#: trial retires at its first fired one: that is the cost when no trial
#: fires.  On a small alphabet it is about 4-9 ns per trial per window
#: (4.0-4.4 ns for 10**5 trials at N = 1000 on a 2-vCPU Xeon), so the cap
#: runs for 2 to 5 minutes, not hours.
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


def _require_mc_scale(model: WindowModel, first: int, last: int, trials: int,
                      chunk_size: int = 1 << 16) -> tuple[int, int, int, int]:
    """Every refusal of ``estimate_union``, in order; returns its ints."""
    if not isinstance(model, WindowModel):
        raise ValueError("Monte Carlo estimation applies to window models only")
    first, last, trials = map(operator.index, (first, last, trials))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunk_size = operator.index(chunk_size)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    work = trials * (last - first + 1)
    if _nonempty_interval(model, first, last) and work > MAX_MC_WORK:
        raise CapExceededError(f"the Monte Carlo estimate would cover {work} "
                               f"trial-events, above the Monte Carlo cap "
                               f"{MAX_MC_WORK}; narrow the range or lower TRIALS")
    return first, last, trials, chunk_size


def estimate_union(model: WindowModel, first: int, last: int,
                   trials: int, seed: int, *,
                   chunk_size: int = 1 << 16) -> MonteCarloEstimate:
    """Monte Carlo estimate of P(A_first or ... or A_last) with a 95%
    Wilson interval.

    Simulates `trials` independent symbol strings covering the requested
    windows and counts the strings on which any window fires.  An empty
    interval (first > last) returns (0, 0, 0).  Working memory is a fixed
    budget of trial-symbol cells whatever `trials` and N; `chunk_size`
    (trials per chunk) can only lower it.  Any chunking yields
    byte-identical results because symbol j of trial t is drawn from
    counter t*L + j of the seed's stream, L = N + m, whether or not the
    trial is drawn to its end; a table with no fired entry draws nothing.
    Raises ValueError unless `model` is a window model, and
    CapExceededError, before any draw, when `trials` times the windows
    exceeds ``MAX_MC_WORK``.
    """
    first, last, trials, chunk_size = _require_mc_scale(
        model, first, last, trials, chunk_size)
    if first > last:
        return MonteCarloEstimate(0.0, 0.0, 0.0)

    s, m = model.alphabet_size, model.m
    n_windows = last - first + 1
    table = model.kernel.table_array
    fired = int(np.count_nonzero(table))
    if not fired:  # no window can fire
        return MonteCarloEstimate(0.0, *wilson_interval(0, trials))

    length = n_windows + m  # symbols per trial
    narrow = min(_SEGMENT, n_windows)  # windows in a chunk's first segment
    rows = min(trials, chunk_size, max(1, _CELL_BUDGET // (narrow + m)))
    cells = max(_CELL_BUDGET, narrow + m)
    mask = int(_U64)
    golden = int(_GOLDEN)
    key = int(_mix64(np.array([operator.index(seed) & mask], dtype=np.uint64),
                     np.empty(1, dtype=np.uint64))[0])
    # symbol j of trial t uses the counter word key + (t*L + j + 1)*GOLDEN:
    # a trial's base word plus its position's step, in position-major rows
    steps = np.arange(min(n_windows, _WIDEST) + m, dtype=np.uint64) * _GOLDEN
    trial_ramp = np.arange(rows, dtype=np.uint64) * np.uint64(length * golden & mask)
    thresholds = _thresholds(np.cumsum(model.kernel.dist_array))
    words = np.empty(cells, dtype=np.uint64)
    scratch = np.empty_like(words)
    symbols = np.empty(cells, dtype=np.min_scalar_type(s - 1))
    flag = np.empty(cells, dtype=bool)
    # the narrowest type that holds a table index keeps the Horner passes short
    index = np.empty(cells, dtype=np.min_scalar_type(len(table) - 1))
    # a window fires iff its index is one of the few fired entries; with
    # more of them it is gathered from the table
    few = (np.flatnonzero(table).astype(index.dtype)
           if fired <= _COMPARE_MAX else None)
    marked = np.empty(cells, dtype=bool)

    hits = 0
    for start in range(0, trials, rows):
        # the offsets in Python ints, so no numpy scalar overflows
        base = np.add(trial_ramp[:min(rows, trials - start)],
                      np.uint64((key + (start * length + 1) * golden) & mask))
        k, width = 0, narrow
        while k < n_windows:
            r = len(base)
            width = min(width, n_windows - k)
            span = width + m
            # symbol k + p of live trial i sits at row p, column i
            offset = np.add(steps[:span], np.uint64(k * golden & mask))
            word = words[:span * r].reshape(span, r)
            np.add(offset[:, None], base, out=word)
            _mix64(word, scratch[:span * r].reshape(span, r))
            sym = _symbols(word, thresholds, symbols[:span * r].reshape(span, r),
                           flag[:span * r].reshape(span, r))
            # window k + p reads symbols k+p..k+p+m, the earliest the least
            # significant
            idx = index[:width * r].reshape(width, r)
            np.copyto(idx, sym[m:])
            for j in range(m - 1, -1, -1):
                idx *= s
                idx += sym[j:j + width]
            # window k + p of live trial i is marked if it fires
            mark = marked[:width * r].reshape(width, r)
            if few is None:
                # every index is in range, and "clip" lets take write `out` unbuffered
                np.take(table, idx, out=mark, mode="clip")
            else:
                # the compare passes' scratch: `flag` is free once the indices are built
                equal = flag[:width * r].reshape(width, r)
                np.equal(idx, few[0], out=mark)
                for v in few[1:]:
                    np.equal(idx, v, out=equal)
                    mark |= equal
            hit = np.logical_or.reduce(mark, axis=0)
            retired = int(np.count_nonzero(hit))
            if retired:
                # a trial is decided at its first fired window: only the
                # live ones draw the next segment
                hits += retired
                if retired == r:
                    break
                base = base[~hit]
            # the next segment at most doubles, within the buffers and _WIDEST
            k += width
            width = min(2 * width, _WIDEST, cells // len(base) - m)

    return MonteCarloEstimate(hits / trials, *wilson_interval(hits, trials))
