"""Window-model kernel answers per clamped gap row, from one store.

A window model answers ``survivals`` and ``pattern_laws`` with one sweep
per row of gaps clamped at m+1, and its kernel (``WindowModel.kernel``)
keeps the read-only state after each mark swept for its life, so a row
asked again is one reduce of a stored state; a union reads the kernel's
survival curve instead.  These tests hold the clamped answers and the
curve against the raw ``WindowKernel.sweep`` on unclamped gaps, check that
a caller cannot corrupt the store, and bound the number of kernel sweeps
the two audits make.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    WindowModel,
    check_m_dependence,
    consecutive_run_model,
    pattern_distribution,
    random_window_model,
    union_prob,
    verify_derivation,
)
from mdepbounds import families
from mdepbounds.families import WindowKernel

#: Worst |canonical - raw| seen over 3,000 random models (N <= 200) is
#: about 2.4e-14: a raw sweep's long runs of pass steps add rounding that
#: the clamped sweep skips.
CLAMP_TOL = 1e-13


def survival(model, indices):
    """The protocol's survival query on one index set: a one-row batch."""
    return model.survivals(np.array([indices]))[0]


@st.composite
def window_models(draw, max_horizon=200):
    s = draw(st.integers(2, 3))
    m = draw(st.integers(0, 3))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=s, max_size=s))
    table = draw(st.lists(st.booleans(), min_size=s ** (m + 1),
                          max_size=s ** (m + 1)))
    n = draw(st.integers(1, max_horizon))
    return WindowModel(s, tuple(w / sum(weights) for w in weights), m,
                       tuple(table), n)


@settings(max_examples=60, deadline=None)
@given(model=window_models(), data=st.data())
def test_clamped_gaps_match_raw_sweep(model, data):
    n = model.horizon
    indices = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1,
                                             max_size=min(n, 5)))))
    law = pattern_distribution(model, indices)
    gaps = np.diff(indices)
    assert np.abs(law - model.kernel.sweep(gaps, branch=True)).max() <= CLAMP_TOL
    assert abs(survival(model, indices)
               - model.kernel.sweep(gaps, branch=False)[0]) <= CLAMP_TOL


@settings(max_examples=60, deadline=None)
@given(model=window_models(), data=st.data())
def test_translated_queries_are_bit_identical(model, data):
    n, m = model.horizon, model.m
    gaps = data.draw(st.lists(st.integers(1, m + 1), max_size=4))
    span = sum(gaps)
    if span >= n:
        gaps, span = [], 0
    start = data.draw(st.integers(1, n - span))
    indices = tuple(int(k) for k in np.cumsum([start] + gaps))
    # A translated copy fills the store first, so the second query is a hit.
    shift = 1 - start + data.draw(st.integers(0, n - span - 1))
    pattern_distribution(model, tuple(k + shift for k in indices))
    survival(model, tuple(k + shift for k in indices))
    assert np.array_equal(pattern_distribution(model, indices),
                          model.kernel.sweep(np.diff(indices), branch=True))
    assert survival(model, indices) \
        == model.kernel.sweep(np.diff(indices), branch=False)[0]


@settings(max_examples=60, deadline=None)
@given(model=window_models(), data=st.data())
def test_union_is_bit_identical(model, data):
    n = model.horizon
    first = data.draw(st.integers(1, n))
    last = data.draw(st.integers(first, n))
    # The union reads the survival curve, the reference one raw sweep.
    raw = 1.0 - model.kernel.sweep((1,) * (last - first), branch=False)[0]
    assert model.union(first, last) == raw


@pytest.mark.parametrize("table", [(False,) * 3, (True, False, False),
                                   (False, True, True), (True,) * 3])
def test_every_law_is_clamped_when_the_stored_law_sums_above_one(table):
    """The kernel clamps only the law it returns, so mass above 1 from a
    stored law one rounding step over 1 must not reach a caller."""
    model = WindowModel(3, (0.4189683938723038, 0.531802861202355,
                            0.049228744925341406), 0, table, 40)
    assert sum(model.symbol_dist) > 1.0
    # a branching sweep has 2**(len(gaps) + 1) patterns: keep its rows short
    rows = [((), True), ((1,), True), ((3, 1, 7), True), ((1,) * 6, True),
            ((), False), ((1,) * 39, False), ((3, 1, 7), False)]
    for gaps, branch in rows:
        law = model.kernel.sweep(gaps, branch)
        assert ((0.0 <= law) & (law <= 1.0)).all()
    assert 0.0 <= model.union(1, 40) <= 1.0


class TestMemoIsolation:
    def test_mutating_a_returned_law_leaves_the_memo_intact(self):
        model = consecutive_run_model(12, m=2)
        law = pattern_distribution(model, (2, 5, 6))
        before = law.copy()
        law[:] = -1.0
        assert np.array_equal(pattern_distribution(model, (2, 5, 6)), before)
        assert np.array_equal(pattern_distribution(model, (4, 7, 8)), before)

    def test_memo_belongs_to_one_model(self):
        a = consecutive_run_model(12, m=2)
        b = consecutive_run_model(12, m=2)
        pattern_distribution(a, (1, 3))
        assert a.kernel._marks and not b.kernel._marks


@pytest.fixture
def sweep_counter(monkeypatch):
    """Counts WindowKernel.sweep calls, split by the branch flag."""
    counts = {False: 0, True: 0}
    sweep = WindowKernel.sweep

    def counted(self, gaps, branch):
        counts[branch] += 1
        return sweep(self, gaps, branch)

    monkeypatch.setattr(WindowKernel, "sweep", counted)
    return counts


@pytest.fixture
def unmemoized(monkeypatch):
    """Call it to make kernels built from then on store no mark state, so
    every law is swept from the start law."""
    return lambda: monkeypatch.setattr(families, "MARK_CELLS", 0)


@pytest.fixture
def raw_sweeps(monkeypatch):
    """Call it to route every kernel query straight to the raw sweep: a
    batch makes one ``sweep`` per row on its unclamped gaps, and a union
    one sweep over its whole range instead of a curve lookup."""
    def raw_laws(self, rows, branch):
        return np.array([self.sweep(np.diff(row), branch) for row in rows])

    def raw_survival(self, length):
        return float(self.sweep((1,) * (length - 1), branch=False)[0])

    def route():
        monkeypatch.setattr(WindowKernel, "laws", raw_laws)
        monkeypatch.setattr(WindowKernel, "survival", raw_survival)
    return route


def assert_same_outcome(report, reference):
    """Same check names and pass flags; slacks within the clamp rounding."""
    assert [(c.name, c.passed) for c in report.checks] \
        == [(c.name, c.passed) for c in reference.checks]
    assert all(abs(a.slack - b.slack) <= CLAMP_TOL
               for a, b in zip(report.checks, reference.checks))


class TestWorkCounters:
    def test_verify_derivation_sweeps_per_signature(self, sweep_counter):
        model = consecutive_run_model(200, m=3, alphabet_size=3)
        assert verify_derivation(model).passed
        assert sum(sweep_counter.values()) <= 40  # 12,412 before rows were shared

    @pytest.mark.parametrize("n", [12, 16])
    def test_check_m_dependence_sweeps_per_signature(self, sweep_counter, n):
        m, k = 2, 4
        model = consecutive_run_model(n, m=m)
        assert check_m_dependence(model, max_subset=k).passed
        assert sweep_counter[False] == 0
        assert sweep_counter[True] <= sum((m + 1) ** (u - 1)
                                          for u in range(2, k + 1))

    def test_verify_report_matches_unmemoized(self, unmemoized, raw_sweeps):
        """The stored states change no bit; raw sweeps stay within the
        clamp rounding.  Each report reads a model of its own, so that no
        state stored before carries over."""
        def model():
            return random_window_model(5, alphabet_sizes=(3,),
                                       dependence_ranges=(3,),
                                       min_horizon=40, max_horizon=40)
        stored = verify_derivation(model())
        unmemoized()
        assert verify_derivation(model()) == stored
        raw_sweeps()
        assert_same_outcome(verify_derivation(model()), stored)

    @pytest.mark.parametrize("claimed", [1, 2, 3])
    def test_dependence_report_matches_unmemoized(self, unmemoized, raw_sweeps,
                                                  claimed):
        def model():
            return random_window_model(11, alphabet_sizes=(2,),
                                       dependence_ranges=(2,),
                                       min_horizon=12, max_horizon=12)
        stored = check_m_dependence(model(), claimed, max_subset=4)
        unmemoized()
        assert check_m_dependence(model(), claimed, max_subset=4) == stored
        raw_sweeps()
        assert_same_outcome(check_m_dependence(model(), claimed, max_subset=4),
                            stored)


def test_long_union_memory_does_not_grow_with_the_span():
    """A union reads one survival curve.  A set or a tuple of its 20,000
    window indices, for the sweep or for a store key, peaks at about
    3.3 MiB; the 20,001-entry curve and its chunk buffer stay under
    0.5 MiB."""
    model = consecutive_run_model(20_000, m=2)
    tracemalloc.start()
    try:
        union_prob(model, 1, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20
