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
    block_table,
    consecutive_run_model,
    expand_window_model,
    random_window_model,
    verify_derivation,
)
from mdepbounds.families import WindowKernel
from mdepbounds.verify import derivation_check_count

from derivation_walk import derivation_walk


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
    column, so a report holds at most N + 5 blocks.  No class or shift leaves a block without rows: at m = 20 on
    30 events, classes of one member have no pair and classes of two no
    triple.  Only the block pairs can be empty, when no shift has blocks
    two apart (N < m + 2)."""
    families = [ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]] * 10, m)]
    if m <= 5:  # a window table holds 2**(m+1) entries
        families.append(random_window_model(
            3, alphabet_sizes=(2,), dependence_ranges=(m,), min_horizon=30,
            max_horizon=30))
    for family in families:
        n = family.n_events
        report = verify_derivation(family)
        fmts = [block.fmt for block in report.blocks]
        kinds = [fmt.split("[")[0] for fmt in fmts]
        assert fmts.count("product_chain[r=%d,joint<=product]") == 1
        assert fmts.count("%s[r=%d%s]") == 1
        assert kinds.count("block_independence") == 1
        assert len(report.blocks) <= n + 5
        empty = [kind for kind, block in zip(kinds, report.blocks)
                 if not len(block.passed)]
        assert empty == (["block_independence"] if n < m + 2 else [])
        assert report == derivation_walk(family)


def test_three_events_far_past_n_stay_five_blocks():
    """At m = 20,000 the 3-event family's 14 checks are five blocks, as
    many checks as ``derivation_check_count`` counts."""
    family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], 20_000)
    report = verify_derivation(family)
    assert report.n_checks == derivation_check_count(3, 20_000) == 14
    assert len(report.blocks) <= 5
    assert report.passed


def test_three_events_at_m_1e12_are_14_checks():
    """The shifts 3..m-1 write no row, so the audit at m = 10**12 is the
    14 checks it is at m = 3, with the same distinct names, and holds no
    array that grows with m."""
    import tracemalloc
    family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], 10 ** 12)
    tracemalloc.start()
    try:
        report = verify_derivation(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    names = [c.name for c in report.checks]
    assert len(names) == len(set(names)) == 14
    assert names == [c.name for c in verify_derivation(
        ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], 3)).checks]
    assert report.passed
    assert peak < 1 << 20


#: The shift r of a block or parity row's name.
SHIFT_ROW = re.compile(r"(?:block|parity)_\w+\[r=(\d+)")


@pytest.mark.parametrize("window", [False, True])
def test_shifts_past_n_write_no_row(window):
    """Every shift r >= N holds 1..N as the one block j = 0, shift 0's
    rows with odd and even swapped, so past m = N the report's row names
    stay those at m = N: no name holds a range, and no block or parity
    row names a shift r >= N."""
    def family_at(m):
        if window:  # a window table holds 2**(m+1) entries
            return random_window_model(1, alphabet_sizes=(2,), dependence_ranges=(m,),
                                       min_horizon=4, max_horizon=4)
        return ExplicitEventFamily.from_events([0.3, 0.7], [[0], [1], [0], [1]], m)

    ms = [4, 5, 6] if window else [4, 5, 6, 60, 10 ** 12]
    at_n = [c.name for c in verify_derivation(family_at(4)).checks]
    for m in ms:
        names = [c.name for c in verify_derivation(family_at(m)).checks]
        assert names == at_n
        assert not [name for name in names if ".." in name]
        shifts = [int(match[1]) for match in map(SHIFT_ROW.match, names) if match]
        assert max(shifts) == 3


@pytest.mark.parametrize("m", [1, 2, 60])
def test_no_events_leave_only_the_bound_rows(m):
    """At N = 0 every shift holds no block, so the derivation report
    holds only the two bound rows."""
    families = [ExplicitEventFamily(np.ones(1), np.zeros((0, 1), dtype=bool), m)]
    if m <= 2:
        families.append(random_window_model(m, dependence_ranges=(m,),
                                            min_horizon=0, max_horizon=0))
    for family in families:
        report = verify_derivation(family)
        assert [c.name for c in report.checks] == ["bound_vs_exact[first_order]",
                                                   "bound_vs_exact[second_order]"]
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
    """The classes past N are empty, so the product chain of the 3-event
    family has exactly the rows r = 1..3, one each, at any m >= 2."""
    family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], m)
    chain = [c.name for c in verify_derivation(family).checks
             if c.name.startswith("product_chain[")]
    assert chain == [f"product_chain[r={r},joint<=product]" for r in (1, 2, 3)]


def test_each_block_table_row_is_measured_once(monkeypatch):
    """The audit asks one block event per row of ``block_table``: the
    shifts 0..N-1, as every shift r >= N repeats shift 0's block 1..N,
    so far past N it asks fewer than ten, and every interval once.  Its
    report is the walk's."""
    from mdepbounds import verify
    asked = []
    measure = verify.block_event_prob

    def counted(family, lo, hi):
        asked.append((lo, hi))
        return measure(family, lo, hi)

    monkeypatch.setattr(verify, "block_event_prob", counted)
    family = ExplicitEventFamily.from_events([0.3, 0.7], [[0], [1], [0], [1]], 60)
    report = verify_derivation(family)
    assert asked == [tuple(row) for row in block_table(4, 60)[:, 2:].tolist()]
    assert len(asked) == len(set(asked)) < 10
    assert report == derivation_walk(family)
