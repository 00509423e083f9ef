"""Monte Carlo estimator: determinism, calibration, Wilson intervals."""

import bisect
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    CapExceededError,
    MonteCarloEstimate,
    WindowModel,
    consecutive_run_model,
    dump_model,
    estimate_union,
    expand_window_model,
    union_prob,
    wilson_interval,
)
from mdepbounds import cli, montecarlo
from mdepbounds.montecarlo import _symbols, _thresholds


def flat_model(n=6, value=False):
    table = (value,) * 4
    return WindowModel(2, (0.5, 0.5), 1, table, n)


class TestWilsonInterval:
    def test_zero_successes_has_positive_upper(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi > 0.0

    def test_all_successes_has_lower_below_one(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == 1.0
        assert lo < 1.0

    @given(k=st.integers(0, 500), n=st.integers(1, 500))
    def test_interval_brackets_the_proportion(self, k, n):
        if k > n:
            return
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(7, 5)


class TestEstimateUnion:
    def test_impossible_event(self):
        est = estimate_union(flat_model(value=False), 1, 6, 5000, 1)
        assert est.estimate == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high > 0.0

    def test_certain_event(self):
        est = estimate_union(flat_model(value=True), 1, 6, 5000, 1)
        assert est.estimate == 1.0

    def test_empty_range(self, run_model_24):
        assert estimate_union(run_model_24, 3, 2, 100, 0) == (0.0, 0.0, 0.0)

    def test_explicit_family_refused(self, run_model_24):
        """The estimator is the one place that refuses a non-window
        family; the CLI maps its ValueError to exit 2."""
        explicit = expand_window_model(consecutive_run_model(4))
        with pytest.raises(ValueError, match="applies to window models only"):
            estimate_union(explicit, 1, 4, 100, 0)

    def test_invalid_trials(self, run_model_24):
        with pytest.raises(ValueError):
            estimate_union(run_model_24, 1, 2, 0, 0)

    def test_working_memory_is_bounded(self):
        """A long horizon keeps the chunk buffers at a fixed budget; holding
        all 2000 trials of 5002 symbols at once takes over 300 MiB."""
        model = consecutive_run_model(5000)
        tracemalloc.start()
        try:
            estimate_union(model, 1, 5000, 2000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_working_memory_fits_the_cache_budget(self):
        """At the benchmark's largest Monte Carlo shape (s=3, m=2, N=200,
        10**5 trials) the chunk buffers stay within a cache-sized budget."""
        model = WindowModel(3, (0.5, 0.3, 0.2), 2,
                            _pin_table(27, lambda i: i == 26), 200)
        tracemalloc.start()
        try:
            estimate_union(model, 1, 200, 10 ** 5, 11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_work_cap(self, monkeypatch, run_model_24):
        """Trials times windows above MAX_MC_WORK is refused before any
        draw; at the cap the estimate runs."""
        def no_draw(*args):
            raise ValueError("a draw was made")

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_mix64", no_draw)
            with pytest.raises(CapExceededError, match="would cover "
                               "30000000024 trial-events, above the Monte "
                               "Carlo cap 30000000000"):
                estimate_union(run_model_24, 1, 24, 1_250_000_001, 0)
            patch.setattr(montecarlo, "MAX_MC_WORK", 24 * 100 - 1)
            with pytest.raises(CapExceededError):
                estimate_union(run_model_24, 1, 24, 100, 0)
        monkeypatch.setattr(montecarlo, "MAX_MC_WORK", 24 * 100)
        assert (estimate_union(run_model_24, 1, 24, 100, 0)
                == _scalar_estimate(run_model_24, 1, 24, 100, 0))

    def test_range_validation(self, run_model_24):
        with pytest.raises(IndexError):
            estimate_union(run_model_24, 1, 25, 10, 0)

    def test_large_run_within_ci_of_exact(self, run_model_24):
        """10^6 trials on the two-event union whose exact value is 0.1875."""
        exact = union_prob(run_model_24, 1, 2)
        assert exact == pytest.approx(0.1875, abs=1e-12)
        est = estimate_union(run_model_24, 1, 2, 10 ** 6, seed=2024)
        assert est.ci_low <= exact <= est.ci_high

    def test_chunking_is_invisible(self, run_model_24):
        """Identical (model, range, trials, seed) => byte-identical output
        no matter how trials are partitioned."""
        runs = [estimate_in_chunks(run_model_24, 1, 24, 4321, 99, c)
                for c in (1, 7, 256, 4321, 10_000, None)]
        assert all(r == runs[0] for r in runs)

    def test_different_seeds_differ(self, run_model_24):
        a = estimate_union(run_model_24, 1, 24, 10_000, 1)
        b = estimate_union(run_model_24, 1, 24, 10_000, 2)
        assert a.estimate != b.estimate

    def test_seed_coverage_quick(self, run_model_24):
        """20 seeds at 2*10^4 trials: at least 17 intervals catch 0.1875."""
        hits = sum(
            1 for seed in range(20)
            if (lambda e: e.ci_low <= 0.1875 <= e.ci_high)(
                estimate_union(run_model_24, 1, 2, 20_000, seed))
        )
        assert hits >= 17

    def test_skewed_distribution_calibration(self):
        model = WindowModel(3, (0.7, 0.2, 0.1), 1,
                            tuple(bool(i % 3 == 1) for i in range(9)), 10)
        exact = union_prob(model, 1, 10)
        est = estimate_union(model, 1, 10, 200_000, seed=5)
        assert est.ci_low <= exact <= est.ci_high


def _pin_table(size, fires):
    return tuple(fires(i) for i in range(size))


#: Windows in a chunk's first segment.
_W = montecarlo._SEGMENT


def estimate_in_chunks(model, first, last, trials, seed, chunk):
    """``estimate_union`` with `chunk` trials a chunk, set through the
    cell budget (whose first segment holds as many trials), or with the
    budget's own chunks for None."""
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(montecarlo, "_CELL_BUDGET",
                          chunk * (min(_W, last - first + 1) + model.m))
        return estimate_union(model, first, last, trials, seed)


#: Eight scattered entries of an s = 3, m = 2 table.
_K8 = (1, 3, 5, 9, 11, 15, 19, 21)


#: (model, first, last, trials, seed, trials a chunk or None for the
#: budget's own) -> repr of (estimate, ci_low, ci_high), recorded from
#: the float-uniform searchsorted implementation.  Any change to the SplitMix64 stream, the
#: counter layout or the symbol map shows up here.
PINNED = [
    ((WindowModel(2, (0.97, 0.03), 0, (False, True), 40), 1, 40, 3000, 0, None),
     "(0.7026666666666667, 0.6860596364249615, 0.7187553368917065)"),
    # zero-mass middle symbol, seed >= 2**63, sub-range, ragged last chunk
    ((WindowModel(3, (0.6, 0.0, 0.4), 1, _pin_table(9, lambda i: i == 8), 30),
      3, 10, 3001, 2 ** 63 + 5, 1000),
     "(0.6631122959013662, 0.6460029994380986, 0.6798045393011422)"),
    # negative seed, first > 1
    ((WindowModel(5, (0.5, 0.2, 0.15, 0.1, 0.05), 2,
                  _pin_table(125, lambda i: i % 5 == 1 and i // 25 == 3), 30),
      4, 20, 2500, -17, 777),
     "(0.2816, 0.2643143934634808, 0.2995557564803058)"),
    ((consecutive_run_model(20, m=3), 1, 20, 1237, 2 ** 64 - 1, 100),
     "(0.540016168148747, 0.5121610663106156, 0.5676235018920702)"),
    ((consecutive_run_model(24), 1, 24, 4321, 99, None),
     "(0.8662346679009488, 0.8557591408785502, 0.8760595928567293)"),
    ((WindowModel(3, (0.25, 0.25, 0.5), 2,
                  _pin_table(27, lambda i: i in (5, 6, 15, 21, 25)), 12),
      7, 7, 999, 12345, 64),
     "(0.1831831831831832, 0.16042532058725434, 0.20836822655589482)"),
    # two zero-mass top symbols: tied cumulative entries at the edge
    ((WindowModel(5, (0.2, 0.3, 0.5, 0.0, 0.0), 0,
                  (False, False, True, True, True), 9), 2, 8, 1500, 31337, 11),
     "(0.9953333333333333, 0.9903984313813807, 0.9977376459184928)"),
    # zero-mass first symbol
    ((WindowModel(2, (0.0, 1.0), 1, (False, False, False, True), 5), 1, 5, 100, 1, 7),
     "(1.0, 0.9630065017930143, 1.0)"),
    # cumulative law ends at 0.9999999999999999, below 1.0
    ((WindowModel(10, (0.1,) * 10, 0, _pin_table(10, lambda i: i == 9), 20),
      1, 20, 2000, 2 ** 40, 333),
     "(0.874, 0.8587356201177461, 0.8878304285158767)"),
    # The fire test compares window indices with the fired entries when
    # there are at most _COMPARE_MAX = 8 of them, and gathers from the
    # table otherwise.  These strings come from _scalar_estimate.
    # no fired entry, and every one of 8 entries fired: compared
    ((WindowModel(3, (0.3, 0.3, 0.4), 1, _pin_table(9, lambda i: False), 15),
      2, 15, 400, 7, 50),
     "(0.0, 0.0, 0.009512294334296508)"),
    ((WindowModel(2, (0.9, 0.1), 2, _pin_table(8, lambda i: True), 10),
      1, 10, 300, -3, None),
     "(1.0, 0.9873570287754538, 1.0)"),
    # 8 fired entries: compared
    ((WindowModel(3, (0.8, 0.15, 0.05), 2, _pin_table(27, lambda i: i in _K8), 6),
      1, 6, 700, 2 ** 50, 123),
     "(0.7157142857142857, 0.6811920897605184, 0.747881810640304)"),
    # 9 fired entries: gathered
    ((WindowModel(3, (0.8, 0.15, 0.05), 2,
                  _pin_table(27, lambda i: i in _K8 + (2,)), 6),
      1, 6, 700, 2 ** 50, 123),
     "(0.7971428571428572, 0.765768830808538, 0.8252733631210716)"),
    # 19 fired entries of 27: gathered
    ((WindowModel(3, (0.9, 0.05, 0.05), 2,
                  _pin_table(27, lambda i: i not in (0, 1, 2, 3, 6, 9, 10, 18)), 4),
      1, 4, 600, 424242, 99),
     "(0.06333333333333334, 0.04648712753383062, 0.08573542468480135)"),
]


def test_pins_straddle_the_compare_cutover():
    """The pinned tables' fired entries number none, exactly _COMPARE_MAX
    and one more, so both fire tests and the empty table run."""
    sizes = {sum(case[0].predicate_table) for case, _ in PINNED}
    k = montecarlo._COMPARE_MAX
    assert {0, k, k + 1} <= sizes


@pytest.mark.parametrize("case, expected", PINNED)
def test_pinned_estimates_are_byte_identical(case, expected):
    est = estimate_in_chunks(*case)
    assert repr(tuple(est)) == expected


def _searchsorted_symbols(cum, bits):
    """The float lookup: u = b * 2**-53, searchsorted, edge guard."""
    u = bits.astype(np.float64) * 2.0 ** -53
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _boundary_bits(cum):
    """53-bit draws T-1, T, T+1 around ceil(c * 2**53) of every entry c."""
    points = np.ceil(np.asarray(cum) * 2.0 ** 53).astype(np.int64)
    bits = (points[:, None] + np.arange(-1, 2)).ravel()
    bits = np.concatenate([bits, [0, 1, 2 ** 53 - 2, 2 ** 53 - 1]])
    return np.clip(bits, 0, 2 ** 53 - 1).astype(np.uint64)


_CUMS = [
    np.cumsum([0.5, 0.5]),
    np.cumsum([0.1] * 10),                        # ends at 0.9999999999999999
    np.array([0.3, 0.7, 1.0000000000000002]),     # ends just above 1.0
    np.array([0.25, 0.9999999999999999, 1.0000000000000002]),
    np.cumsum([0.0, 0.0, 0.4, 0.0, 0.6]),         # tied entries, zero first
    np.cumsum([0.2, 0.3, 0.5, 0.0, 0.0]),         # tied entries at the top
    np.cumsum([5e-324, 1e-300, 1.0]),            # subnormal and tiny masses
    np.cumsum(np.full(50, 0.02)),
    np.cumsum(np.full(200, 0.005)),
    np.cumsum(np.r_[np.zeros(60), np.full(40, 0.025), np.zeros(20)]),
    np.cumsum([1.0, 0.0]),                        # no threshold left
    np.cumsum([0.5, 0.5, 0.0, 0.0]),              # one threshold left, s = 4
]


@pytest.mark.parametrize("cum", _CUMS, ids=range(len(_CUMS)))
def test_integer_thresholds_match_float_lookup(cum):
    spread = np.random.default_rng(len(cum)).integers(0, 2 ** 53, size=2000,
                                                       dtype=np.uint64)
    bits = np.concatenate([_boundary_bits(cum), spread])
    # the lookup reads the mixed 64-bit word, whose top 53 bits are the
    # draw: each draw with its low 11 bits all clear, all set and random
    lows = [np.uint64(0), np.uint64(2 ** 11 - 1),
            np.random.default_rng(len(cum) + 1).integers(0, 2 ** 11, size=bits.size,
                                                         dtype=np.uint64)]
    words = np.concatenate([(bits << np.uint64(11)) | low for low in lows])
    out = np.empty(words.shape, dtype=np.min_scalar_type(len(cum) - 1))
    got = _symbols(words, _thresholds(cum), out, np.empty(words.shape, dtype=bool))
    np.testing.assert_array_equal(got, _searchsorted_symbols(cum, np.tile(bits, 3)))


_M64 = (1 << 64) - 1


def _mix_scalar(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _M64
    return z ^ (z >> 31)


def _scalar_estimate(model, first, last, trials, seed):
    """Trial by trial, symbol by symbol: integer SplitMix64, bisect on the
    float cumulative law, table lookup."""
    s, m = model.alphabet_size, model.m
    cum = list(itertools.accumulate(model.symbol_dist))
    length = last - first + 1 + m
    key = _mix_scalar(seed & _M64)
    hits = 0
    for t in range(trials):
        symbols = []
        for j in range(length):
            b = _mix_scalar((key + (t * length + j + 1) * 0x9E3779B97F4A7C15) & _M64) >> 11
            symbols.append(min(bisect.bisect_right(cum, b * 2.0 ** -53), s - 1))
        hits += any(model.predicate_table[sum(symbols[k + i] * s ** i for i in range(m + 1))]
                    for k in range(length - m))
    return MonteCarloEstimate(hits / trials, *wilson_interval(hits, trials))


@st.composite
def _mc_cases(draw):
    s = draw(st.integers(2, 4))
    m = draw(st.integers(0, 2))
    weights = draw(st.lists(st.integers(0, 5), min_size=s, max_size=s)
                   .filter(lambda w: sum(w) > 0))
    dist = tuple(w / sum(weights) for w in weights)
    table = tuple(draw(st.lists(st.booleans(), min_size=s ** (m + 1),
                                max_size=s ** (m + 1))))
    # horizons past three segments, so a trial spans several of them
    n = draw(st.integers(1, 3 * _W + 4))
    first = draw(st.integers(1, n))
    last = draw(st.integers(first, n))
    return (WindowModel(s, dist, m, table, n), first, last,
            draw(st.integers(1, 50)), draw(st.integers(-2 ** 64, 2 ** 65)),
            draw(st.integers(1, 60)))


@settings(max_examples=60, deadline=None)
@given(case=_mc_cases())
def test_matches_scalar_reference(case):
    model, first, last, trials, seed, chunk = case
    assert (estimate_in_chunks(model, first, last, trials, seed, chunk)
            == _scalar_estimate(model, first, last, trials, seed))


#: (model, first, last, trials, seed) whose window counts sit at and
#: around the segment width: one segment short of full, full, one window
#: into a second segment, two full segments, one window past them, and
#: one window past a first and a doubled second segment.
_SEGMENT_EDGES = [
    (consecutive_run_model(_W - 1, m=1), 1, _W - 1, 60, 5),
    (WindowModel(3, (0.6, 0.25, 0.15), 1, _pin_table(9, lambda i: i == 8), _W + 5),
     4, _W + 3, 60, -11),
    (WindowModel(2, (0.8, 0.2), 2, _pin_table(8, lambda i: i in (3, 6)), _W + 1),
     1, _W + 1, 60, 2 ** 64 - 9),
    (WindowModel(2, (0.85, 0.15), 1, (False, False, False, True), 2 * _W + 7),
     8, 2 * _W + 7, 60, 123),
    (WindowModel(3, (0.7, 0.2, 0.1), 2,
                 _pin_table(27, lambda i: i % 3 == 2 and i // 9 == 1), 2 * _W + 1),
     1, 2 * _W + 1, 60, 77),
    (WindowModel(3, (0.9, 0.08, 0.02), 0, (False, False, True), 2 * _W + 3),
     3, 2 * _W + 3, 60, 2 ** 40),
    (WindowModel(2, (0.9, 0.1), 1, (False, False, False, True), 3 * _W + 1),
     1, 3 * _W + 1, 60, 31),
]


@pytest.mark.parametrize("case", _SEGMENT_EDGES,
                         ids=lambda case: f"windows{case[2] - case[1] + 1}-m{case[0].m}")
def test_segment_edges_match_scalar_reference(case):
    """Trials fire in any of their segments, and a last segment may be
    narrower than the first."""
    model, first, last, trials, seed = case
    expected = _scalar_estimate(model, first, last, trials, seed)
    assert 0.0 < expected.estimate < 1.0
    for chunk in (1, 7, None):
        assert estimate_in_chunks(model, first, last, trials, seed, chunk) == expected


def _count_mixed_cells(monkeypatch):
    """Make montecarlo._mix64 add the cells it mixes to the returned list."""
    mixed = [0]
    mix = montecarlo._mix64
    lock = threading.Lock()  # two workers may mix at once

    def counting(x, scratch):
        with lock:
            mixed[0] += x.size
        return mix(x, scratch)

    monkeypatch.setattr(montecarlo, "_mix64", counting)
    return mixed


def test_trials_retire_at_their_first_fired_window(monkeypatch):
    """A table that always fires settles every trial in its first segment:
    one segment's cells a trial (and one cell for the seed's key), not
    the N + m a trial's whole string holds."""
    mixed = _count_mixed_cells(monkeypatch)
    model = WindowModel(2, (0.5, 0.5), 1, (True,) * 4, 10_000)
    trials = 5000
    assert estimate_union(model, 1, 10_000, trials, 3).estimate == 1.0
    assert mixed[0] <= trials * (_W + model.m) + 1


def test_a_table_that_never_fires_mixes_nothing(monkeypatch):
    mixed = _count_mixed_cells(monkeypatch)
    assert estimate_union(flat_model(10_000), 1, 10_000, 5000, 3).estimate == 0.0
    assert mixed[0] == 0


def test_working_memory_does_not_grow_with_the_horizon():
    """A rarely firing model at N = 10**5 keeps the chunk buffers within the
    cache budget; one trial's whole string takes about 3 MB."""
    model = WindowModel(2, (0.999, 0.001), 1, (False, False, False, True), 10 ** 5)
    tracemalloc.start()
    try:
        est = estimate_union(model, 1, 10 ** 5, 8, 21)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.estimate < 1.0
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("case", [
    (consecutive_run_model(12, m=2), 1, 12, 37, 2 ** 64 - 3),
    (WindowModel(3, (0.5, 0.3, 0.2), 2,
                 _pin_table(27, lambda i: i in (4, 13, 26)), 30), 5, 21, 29, -8),
])
def test_trials_longer_than_the_budget(monkeypatch, case):
    """With the cell budget below one trial's length every chunk holds one
    trial, so the counter ramp restarts at a new offset per trial."""
    model, first, last, trials, seed = case
    monkeypatch.setattr(montecarlo, "_CELL_BUDGET", 8)
    assert last - first + 1 + model.m > 8
    expected = _scalar_estimate(model, first, last, trials, seed)
    assert 0.0 < expected.estimate < 1.0
    assert estimate_union(model, first, last, trials, seed) == expected


#: Models whose chunks the workers split: a fired entry that needs the
#: massless top symbol, so every trial is drawn to its end; a table that
#: retires every trial in its first segment; the benchmark's largest Monte
#: Carlo shape; and s = 256, whose uint16 index is carved from the scratch.
_WORKER_MODELS = {
    "never-fires": WindowModel(3, (0.5, 0.5, 0.0), 1, _pin_table(9, lambda i: i == 8), 40),
    "all-fire": WindowModel(2, (0.5, 0.5), 1, (True,) * 4, 500),
    "s3-m2-n200": WindowModel(3, (0.5, 0.3, 0.2), 2, _pin_table(27, lambda i: i == 26), 200),
    "s256-m1": WindowModel(256, (1 / 256,) * 256, 1,
                           _pin_table(256 ** 2, lambda i: i % 97 == 0), 20),
}


def _count_started_threads(monkeypatch):
    """Make threading.Thread add the threads it starts to the returned list."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
@pytest.mark.parametrize("name", list(_WORKER_MODELS))
def test_two_workers_give_the_one_worker_estimate(monkeypatch, name, chunk):
    model = _WORKER_MODELS[name]
    n, m = model.horizon, model.m
    rows = montecarlo._CELL_BUDGET // (min(_W, n) + m)
    # three chunks or more at the budget's chunks
    trials = 300 if chunk else 2 * rows + 1
    started = _count_started_threads(monkeypatch)
    estimates = []
    for cpus in (1, 2):
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: cpus)
        estimates.append(estimate_in_chunks(model, 1, n, trials, 17, chunk))
        assert len(started) == cpus - 1
    assert estimates[0] == estimates[1]
    assert (0.0 < estimates[0].estimate < 1.0) == (name not in ("never-fires", "all-fire"))
    if name == "s256-m1":
        assert np.min_scalar_type(len(model.predicate_table) - 1) == np.uint16


def test_a_worker_draws_every_chunk_it_pulls(monkeypatch):
    """The second worker first looks at the stop event only after the
    first has drawn every other chunk and set it: the chunk the second
    may hold by then is drawn, not dropped."""
    looked = []

    class LateLook(threading.Event):
        def is_set(self):
            if threading.current_thread() is not threading.main_thread() and not looked:
                looked.append(True)
                self.wait(10)
            return super().is_set()

    monkeypatch.setattr(threading, "Event", LateLook)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    model = _WORKER_MODELS["all-fire"]
    assert estimate_in_chunks(model, 1, 500, 300, 5, 1).estimate == 1.0
    assert looked


def test_concurrent_estimates_under_fast_switching(monkeypatch):
    """Four calls at once, eight workers on fewer cores, switching threads
    every microsecond: a chunk start handed out twice or lost would move
    an estimate off the one-worker value."""
    model = _WORKER_MODELS["s3-m2-n200"]
    # three trials a chunk, set once for every caller
    monkeypatch.setattr(montecarlo, "_CELL_BUDGET", 3 * (_W + model.m))
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    expected = [estimate_union(model, 1, 200, 400, seed) for seed in range(4)]
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    got = [None] * 4

    def call(seed):
        got[seed] = estimate_union(model, 1, 200, 400, seed)

    callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == expected


class _Boom(Exception):
    pass


def _failing_mix(monkeypatch, fails):
    """Make montecarlo._mix64 raise _Boom on a call for which
    fails(call number, on the main thread) holds; returns a list holding
    the number of calls made."""
    calls = [0]
    lock = threading.Lock()
    mix = montecarlo._mix64

    def failing(x, scratch):
        with lock:
            calls[0] += 1
            n = calls[0]
        if fails(n, threading.current_thread() is threading.main_thread()):
            raise _Boom(f"call {n}")
        return mix(x, scratch)

    monkeypatch.setattr(montecarlo, "_mix64", failing)
    return calls


@pytest.mark.parametrize("fails", [
    lambda n, main: n == 1,        # the seed's key, before any worker
    lambda n, main: n == 2,
    lambda n, main: n == 3,
    lambda n, main: n == 40,
    lambda n, main: main and n > 1,
    lambda n, main: not main,
], ids=["key", "call2", "call3", "call40", "main-worker", "second-worker"])
def test_a_failing_worker_raises_and_stops_the_other(monkeypatch, fails):
    """The first exception comes out of estimate_union, the other worker
    stops at its next chunk, and no thread is left running."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    model = _WORKER_MODELS["all-fire"]
    trials = 2000  # one chunk, and one mix, a trial
    before = threading.active_count()
    assert estimate_in_chunks(model, 1, 500, trials, 5, 1).estimate == 1.0
    assert threading.active_count() == before
    calls = _failing_mix(monkeypatch, fails)
    with pytest.raises(_Boom):
        estimate_in_chunks(model, 1, 500, trials, 5, 1)
    assert threading.active_count() == before
    # the first chunks fail: a worker that went on would mix every trial
    assert calls[0] < trials // 2


def test_out_of_memory_in_the_second_worker_exits_2(capsys, monkeypatch, tmp_path):
    path = tmp_path / "w.json"
    dump_model(WindowModel(2, (0.5, 0.5), 1, (False, False, False, True), 8), path)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    mix = montecarlo._mix64

    def second_runs_out(x, scratch):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 7.28 TiB")
        return mix(x, scratch)

    monkeypatch.setattr(montecarlo, "_mix64", second_runs_out)
    before = threading.active_count()
    assert cli.main(["mc", str(path), "1", "8", "100000", "1"]) == 2
    assert capsys.readouterr() == ("", "error: Unable to allocate 7.28 TiB\n")
    assert threading.active_count() == before
