"""The derivation audit asked once per distinct query.

``verify_derivation`` hands the family its residue-class pairs and
triples and its far block pairs as arrays of equal-size index sets
(``complement_intersection_probs``).  A window model answers once per
row of gaps clamped at m+1; an explicit family answers every row.  These
tests require the report to equal the per-check loop in
``tests/derivation_walk.py`` (every ``Check`` field, names and order
included), and guard that the audit's queries on a window model do not
grow as N**2.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    ExplicitEventFamily,
    consecutive_run_model,
    expand_window_model,
    random_window_model,
    verify_derivation,
)
from mdepbounds.families import WindowKernel
from mdepbounds.verify import derivation_check_count

from derivation_walk import derivation_walk, layout


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(2, 3),
       m=st.integers(0, 3), n=st.integers(0, 60), density=st.floats(0.02, 0.6))
def test_window_models_equal_walk(seed, s, m, n, density):
    model = random_window_model(seed, alphabet_sizes=(s,), dependence_ranges=(m,),
                                min_horizon=n, max_horizon=n, table_density=density)
    assert verify_derivation(model) == derivation_walk(model)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), n_outcomes=st.integers(1, 12),
       m=st.integers(0, 40))
def test_random_explicit_families_equal_walk(data, n, n_outcomes, m):
    """Random families claim any m, so independence checks fail often."""
    weights = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n_outcomes,
                                 max_size=n_outcomes))
    masks = data.draw(st.lists(st.lists(st.booleans(), min_size=n_outcomes,
                                        max_size=n_outcomes),
                               min_size=n, max_size=n))
    family = ExplicitEventFamily(np.array(weights) / sum(weights),
                                 np.array(masks, dtype=bool).reshape(n, n_outcomes), m)
    assert verify_derivation(family) == derivation_walk(family)


@pytest.mark.parametrize("seed", range(6))
def test_expansions_equal_walk(seed):
    """An expansion answers per set; its report is its window model's up
    to the last digits, and the walk's exactly."""
    model = random_window_model(seed, dependence_ranges=(0, 1, 2, 3),
                                min_horizon=1, max_horizon=8)
    if model.alphabet_size ** (model.n_events + model.m) > 1 << 14:
        model = random_window_model(seed, alphabet_sizes=(2,),
                                    dependence_ranges=(1, 2), max_horizon=8)
    explicit = expand_window_model(model)
    report = verify_derivation(explicit)
    assert report == derivation_walk(explicit)
    assert [c.name for c in report.checks] \
        == [c.name for c in verify_derivation(model).checks]


def test_failing_tolerance_equals_walk():
    """At tol = 0 the roundoff of the product side fails some checks."""
    model = random_window_model(5, dependence_ranges=(2,), min_horizon=40,
                                max_horizon=40)
    report = verify_derivation(model, tol=0.0)
    assert report == derivation_walk(model, tol=0.0)
    assert report.failures()


def test_queries_do_not_grow_as_n_squared(monkeypatch):
    """Every exact index-set question a window model answers goes through
    ``WindowKernel.sweep`` or, for a contiguous union, ``WindowKernel.survival``.
    One oracle call per check made 4,727 of them at N = 100 and 67,077
    at N = 400; batched, the audit makes one per distinct batch row and
    per block event (113 and 413), so the count grows as N."""
    calls = []
    sweep, survival = WindowKernel.sweep, WindowKernel.survival

    def counted(self, gaps, branch):
        calls.append(len(gaps))
        return sweep(self, gaps, branch)

    def counted_survival(self, length):
        calls.append(length - 1)
        return survival(self, length)

    monkeypatch.setattr(WindowKernel, "sweep", counted)
    monkeypatch.setattr(WindowKernel, "survival", counted_survival)
    counts = {}
    for n in (100, 400):
        calls.clear()
        report = verify_derivation(consecutive_run_model(n, m=2))
        assert report.passed
        counts[n] = len(calls)
    assert counts[400] <= 4 * counts[100] + 20
    assert counts[400] < 0.01 * 400 ** 2


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_queries_are_one_array_per_row_width(monkeypatch, m):
    """A window model's audit hands the family one array for every
    class's pairs, one for every class's capped triples, one per class
    size (at most two) and one per width of the far block pair rows
    (2..2m), so its ``complement_intersection_probs`` calls are at most
    2m + 3 at any N."""
    from mdepbounds import verify
    widths = []
    ask = verify.complement_intersection_probs

    def counted(family, rows):
        widths.append(rows.shape[1])
        return ask(family, rows)

    monkeypatch.setattr(verify, "complement_intersection_probs", counted)
    for n in (40, 97, 400):
        widths.clear()
        verify_derivation(consecutive_run_model(n, m=m))
        assert widths[:2] == [2, 3]
        assert len(widths) <= 2 * m + 3


@pytest.mark.parametrize("m", [2, 5, 20, 2000])
def test_shift_steps_are_one_block_each(m):
    """The product chain of every class, and the block pairs and the
    parity split of every shift, are one block each, with r as an index
    column, so a report holds at most N + 5 blocks, and none is empty:
    at m = 20 on 30 events, classes of one member and shifts of two
    blocks write no row, classes of two no triple, and as no class holds
    four events there is no product-chain block.  At m = 2000 >= N - 1
    the claim holds for any 30 events, and the report holds no block."""
    families = [ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]] * 10, m)]
    if m <= 5:  # a window table holds 2**(m+1) entries
        families.append(random_window_model(
            3, alphabet_sizes=(2,), dependence_ranges=(m,), min_horizon=30,
            max_horizon=30))
    for family in families:
        n = family.n_events
        report = verify_derivation(family)
        assert report == derivation_walk(family)
        if m >= n - 1:
            assert report.blocks == ()
            continue
        fmts = [block.fmt for block in report.blocks]
        kinds = [fmt.split("[")[0] for fmt in fmts]
        assert fmts.count("product_chain[r=%d,joint<=product]") == (n >= 3 * m + 4)
        assert fmts.count("%s[r=%d%s]") == 1
        assert kinds.count("block_independence") == 1
        assert len(report.blocks) <= n + 5
        assert all(len(block.passed) for block in report.blocks)


def _three_events(m):
    return ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], m)


def test_three_events_far_past_n_stay_five_blocks():
    """At m = 20,000 the 3-event report stays within five blocks: any
    three events are 2-dependent, so from m = 2 on it holds none, as
    many checks as ``derivation_check_count`` counts."""
    for m in (2, 20_000):
        report = verify_derivation(_three_events(m))
        assert report.n_checks == derivation_check_count(3, m) == 0
        assert report.blocks == () and report.passed


def test_three_events_at_m_1e12_are_14_checks():
    """The 3-event audit at m = 10**12 was the 14 checks of m = 3; a
    claim m >= N - 1 now writes no row, so it is the empty audit of
    m = 2, and holds no array that grows with m.  At m = 1 it checks
    the claim."""
    import tracemalloc

    tracemalloc.start()
    try:
        report = verify_derivation(_three_events(10 ** 12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.blocks == () and report.passed
    assert report == verify_derivation(_three_events(2))
    assert peak < 1 << 20
    assert verify_derivation(_three_events(1)).n_checks == derivation_check_count(3, 1) > 0


#: The shift r of a block or parity row's name.
SHIFT_ROW = re.compile(r"(?:block|parity)_\w+\[r=(\d+)")


@pytest.mark.parametrize("window", [False, True])
def test_shifts_past_n_write_no_row(window):
    """A claim m >= N - 1 writes no row, and below it the shifts run
    0..m-1 < N, so no block or parity row names a shift r >= N, and no
    name holds a range."""
    def family_at(m):
        if window:  # a window table holds 2**(m+1) entries
            return random_window_model(1, alphabet_sizes=(2,), dependence_ranges=(m,),
                                       min_horizon=8, max_horizon=8)
        return ExplicitEventFamily.from_events([0.3, 0.7], [[0], [1]] * 4, m)

    for m in [4, 5, 6, 7, 8] if window else [4, 5, 6, 7, 8, 60, 10 ** 12]:
        names = [c.name for c in verify_derivation(family_at(m)).checks]
        assert not [name for name in names if ".." in name]
        shifts = [int(match[1]) for match in map(SHIFT_ROW.match, names) if match]
        if m >= 7:
            assert names == []
        else:  # a shift r >= 1 holds three blocks while r + m < N
            assert max(shifts) == min(m - 1, 7 - m)


@pytest.mark.parametrize("m", [1, 2, 60])
def test_no_events_leave_no_row(m):
    """Every claim holds for no events, so at N = 0 the derivation
    report holds no row, as the walk's."""
    families = [ExplicitEventFamily(np.ones(1), np.zeros((0, 1), dtype=bool), m)]
    if m <= 2:
        families.append(random_window_model(m, dependence_ranges=(m,),
                                            min_horizon=0, max_horizon=0))
    for family in families:
        report = verify_derivation(family)
        assert report.checks == () and report.passed
        assert report == derivation_walk(family)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 12),
       m=st.integers(0, 40), window=st.booleans())
def test_no_two_rows_share_a_name(seed, n, m, window):
    """Window and explicit families, m >= N + 2 included: every row of
    the report has its own name."""
    if window:
        family = random_window_model(seed, alphabet_sizes=(2,),
                                     dependence_ranges=(min(m, 3),),
                                     min_horizon=min(n, 4), max_horizon=min(n, 4))
    else:
        rng = np.random.default_rng(seed)
        family = ExplicitEventFamily(np.full(4, 0.25), rng.random((n, 4)) < 0.4, m)
    names = [c.name for c in verify_derivation(family).checks]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("m", [5, 600, 20_000])
def test_no_product_chain_row_past_n(m):
    """The product chain names only the classes of four events or more:
    a class past N is empty, a class of one event is its own product,
    and a class of two or three is its own only pair or triple.  So the
    10-event family has no product-chain row at m >= 5, whose classes
    hold two events or none, at m = 2 the row of its class {1, 4, 7, 10}
    alone, not of {2, 5, 8} or {3, 6, 9}, and at m = 1 the rows of both
    its classes of five."""
    def chain(m):
        family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]] * 3 + [[1]], m)
        return [c.name for c in verify_derivation(family).checks
                if c.name.startswith("product_chain[")]

    assert chain(m) == []
    assert chain(2) == ["product_chain[r=1,joint<=product]"]
    assert chain(1) == ["product_chain[r=1,joint<=product]",
                        "product_chain[r=2,joint<=product]"]


def test_each_block_table_row_is_measured_once(monkeypatch):
    """The audit asks one block event per block of a shift that writes
    rows, one of three blocks or more, so every interval once and none of
    a shift of two blocks.  Its report is the walk's."""
    from mdepbounds import verify
    asked = []
    measure = verify.block_event_prob

    def counted(family, lo, hi):
        asked.append((lo, hi))
        return measure(family, lo, hi)

    monkeypatch.setattr(verify, "block_event_prob", counted)
    family = ExplicitEventFamily.from_events([0.3, 0.7], [[0], [1]] * 4, 4)
    report = verify_derivation(family)
    layouts = [layout(8, 4, r) for r in range(4)]
    assert asked == [(lo, hi) for rows in layouts if len(rows) >= 3
                     for _, lo, hi in rows]
    assert len(asked) == len(set(asked)) == 9
    assert report == derivation_walk(family)
