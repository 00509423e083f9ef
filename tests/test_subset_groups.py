"""The m-dependence audit evaluated once per subset group.

``check_m_dependence`` asks the family for its index subsets in groups
(``subset_groups``) and evaluates one representative per group.  A
window model groups subsets by their gap tuple clamped at
max(claimed m, model m) + 1; an explicit family puts every subset in a
group of its own.  These tests hold the groups against plain
enumeration, require the grouped audit's report to equal the subset walk
in ``tests/subset_walk.py`` (failures and detail lists included) on both
representations, require the batched evaluation to give the same report
at any batch budget, and guard that the audit's work on a window model
does not grow with N.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    ExplicitEventFamily,
    check_m_dependence,
    consecutive_run_model,
    expand_window_model,
    random_window_model,
)
from mdepbounds import dependence, families

from subset_walk import chains, subset_walk
from test_dependence import random_joints

#: Largest horizon drawn per max_subset, so one reference walk stays
#: under about 0.2 s.
MAX_HORIZON = {2: 30, 3: 24, 4: 14}


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), max_subset=st.integers(2, 4),
       density=st.floats(0.05, 0.6), shift=st.sampled_from([-1, 0, 1]))
def test_grouped_audit_equals_subset_walk(seed, max_subset, density, shift):
    """Claims one below the model's m mostly fail, so failures and detail
    lists are covered along with passing claims."""
    model = random_window_model(seed, dependence_ranges=(0, 1, 2, 3),
                                max_horizon=MAX_HORIZON[max_subset],
                                table_density=density)
    claimed = max(model.m + shift, 0)
    report = check_m_dependence(model, claimed, max_subset=max_subset)
    reference = subset_walk(model, claimed, max_subset=max_subset)
    assert report.to_dict() == reference.to_dict()


@pytest.mark.parametrize("n, max_subset", [(30, 3), (200, 2)])
def test_misdeclared_m_detail_list_equals_subset_walk(n, max_subset):
    """A claim one below the window length fails on far more splits
    than the detail list holds; the list is the walk's first ones."""
    model = random_window_model(3, alphabet_sizes=(2,), dependence_ranges=(2,),
                                min_horizon=n, max_horizon=n)
    report = check_m_dependence(model, 1, max_subset=max_subset)
    reference = subset_walk(model, 1, max_subset=max_subset)
    assert len(reference.failures()) > dependence.MAX_DETAILED_FAILURES
    assert report.to_dict() == reference.to_dict()


def test_explicit_families_equal_subset_walk():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n, n_outcomes = int(rng.integers(1, 11)), int(rng.integers(2, 16))
        weights = rng.random(n_outcomes)
        events = [np.flatnonzero(rng.random(n_outcomes) < 0.4) for _ in range(n)]
        family = ExplicitEventFamily.from_events(weights / weights.sum(),
                                                 events, int(rng.integers(0, 3)))
        for claimed in (0, 1, 2):
            assert check_m_dependence(family, claimed).to_dict() \
                == subset_walk(family, claimed).to_dict()
    model = random_window_model(8, alphabet_sizes=(2,), dependence_ranges=(2,),
                                min_horizon=8, max_horizon=8)
    explicit = expand_window_model(model)
    assert check_m_dependence(explicit, 1).to_dict() \
        == subset_walk(explicit, 1).to_dict()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), max_subset=st.integers(2, 4),
       shift=st.sampled_from([-2, -1, 0, 1]))
def test_expanded_audit_equals_subset_walk(seed, max_subset, shift):
    """The explicit expansion of a window model, claimed below, at and
    above the model's own range (its true range for most tables)."""
    model = random_window_model(seed, alphabet_sizes=(2,),
                                dependence_ranges=(1, 2, 3), max_horizon=9)
    explicit = expand_window_model(model)
    claimed = max(model.m + shift, 0)
    assert check_m_dependence(explicit, claimed, max_subset=max_subset) \
        == subset_walk(explicit, claimed, max_subset=max_subset)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 10),
       n_outcomes=st.integers(1, 40), density=st.floats(0.05, 0.95),
       claimed=st.integers(0, 4))
def test_random_explicit_audit_equals_subset_walk(seed, n, n_outcomes,
                                                  density, claimed):
    """Unstructured explicit families: most claims fail, many on more
    splits than the detail list holds."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n_outcomes) + 1e-3
    events = [np.flatnonzero(rng.random(n_outcomes) < density) for _ in range(n)]
    family = ExplicitEventFamily.from_events(weights / weights.sum(), events, 0)
    assert check_m_dependence(family, claimed) == subset_walk(family, claimed)


def test_explicit_detail_list_equals_subset_walk():
    """An explicit family failing on more splits than the detail list
    holds: the list is the walk's first ones."""
    rng = np.random.default_rng(5)
    events = [np.flatnonzero(rng.random(24) < 0.5) for _ in range(9)]
    family = ExplicitEventFamily.from_events(np.full(24, 1 / 24), events, 0)
    for claimed in (0, 1, 2):
        reference = subset_walk(family, claimed)
        assert len(reference.failures()) > dependence.MAX_DETAILED_FAILURES
        assert check_m_dependence(family, claimed) == reference


def pattern_family(joint, u):
    """An explicit family whose outcomes are the 2**u patterns of `joint`
    and whose event t+1 is the set of patterns with bit t set."""
    events = [[p for p in range(1 << u) if p >> t & 1] for t in range(u)]
    return ExplicitEventFamily.from_events(joint / joint.sum(), events, 0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pick=st.integers(0, 4),
       claimed=st.integers(0, 2))
def test_tied_laws_audit_equals_subset_walk(seed, pick, claimed):
    """Laws from ``random_joints``, whose window-model draws tie atoms of
    opposite sign in magnitude, as the law of events 1..u: the batched
    audit breaks the ties as the walk does."""
    joint, u = list(random_joints(np.random.default_rng(seed), 4))[pick]
    family = pattern_family(joint, u)
    assert check_m_dependence(family, claimed, max_subset=u) \
        == subset_walk(family, claimed, max_subset=u)


def chunk_cases():
    model = random_window_model(3, alphabet_sizes=(2,), dependence_ranges=(2,),
                                min_horizon=14, max_horizon=14)
    rng = np.random.default_rng(11)
    events = [np.flatnonzero(rng.random(40) < 0.4) for _ in range(12)]
    explicit = ExplicitEventFamily.from_events(np.full(40, 1 / 40), events, 0)
    # Pairs (1, 2), (1, 3), (2, 3) violate by +0.25, -0.25, -0.25: a tie
    # of opposite sign across groups, which the first pair wins.
    tied = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], 0)
    return [(model, 1), (model, 2), (explicit, 0), (explicit, 2), (tied, 0)]


@pytest.mark.parametrize("case", range(5))
def test_reports_do_not_depend_on_the_batch_budget(monkeypatch, case):
    family, claimed = chunk_cases()[case]
    default = check_m_dependence(family, claimed)
    assert default == subset_walk(family, claimed)
    monkeypatch.setattr(dependence, "BATCH_CELLS", 1)
    monkeypatch.setattr(families, "ATOM_BATCH_CELLS", 1)
    assert check_m_dependence(family, claimed) == default
    monkeypatch.setattr(dependence, "BATCH_CELLS", 40)
    assert check_m_dependence(family, claimed) == default


def test_explicit_pattern_laws_add_atoms_in_atom_order():
    """Each law cell is the sequential sum of its atoms' masses in atom
    order, whatever rows share the batch."""
    family = expand_window_model(random_window_model(
        6, alphabet_sizes=(2,), dependence_ranges=(2,), min_horizon=9,
        max_horizon=9))
    masks, weights = family.atoms
    for size in range(1, 5):
        rows = np.array(list(itertools.combinations(range(1, 10), size)))[::7]
        for row, law in zip(rows.tolist(), family.pattern_laws(rows)):
            expected = [0.0] * (1 << size)
            for a, mass in enumerate(weights.tolist()):
                expected[sum(int(masks[k - 1, a]) << t
                             for t, k in enumerate(row))] += mass
            assert law.tolist() == expected


@pytest.mark.parametrize("budget", [1, 1000, families.ATOM_BATCH_CELLS])
def test_pattern_laws_equal_stacked_one_row_batches(monkeypatch, budget):
    monkeypatch.setattr(families, "ATOM_BATCH_CELLS", budget)
    model = random_window_model(4, min_horizon=12, max_horizon=12)
    for family in (model, expand_window_model(random_window_model(
            4, alphabet_sizes=(2,), min_horizon=10, max_horizon=10))):
        for size in range(1, 5):
            rows = np.array(list(itertools.combinations(range(1, 11), size)))
            laws = family.pattern_laws(rows)
            assert laws.dtype == np.float64
            assert np.array_equal(laws, np.concatenate(
                [family.pattern_laws(rows[r:r + 1]) for r in range(len(rows))]))


@pytest.mark.parametrize("n", [1, 2, 5, 9, 17])
@pytest.mark.parametrize("m, far", [(0, 1), (1, 3), (2, 1), (2, 4), (3, 2)])
def test_window_groups_partition_the_subsets(n, m, far):
    """Every subset lies in exactly one group; a group's members are
    listed in order, start at `first`, number `count`, share the model's
    pattern-law signature and the gaps below `far`, and split alike."""
    model = consecutive_run_model(n, m=m)
    c = max(far, m + 1)
    for size in range(1, 5):
        groups = list(model.subset_groups(size, far))
        assert len(groups) == model.subset_group_count(size, far)
        assert [g.first for g in groups] == sorted(g.first for g in groups)
        seen = []
        for group in groups:
            members = list(group.members)
            assert members[0] == group.first
            assert members == sorted(members) and len(members) == group.count
            for subset in members:
                assert [min(b - a, c) for a, b in itertools.pairwise(subset)] \
                    == [b - a for a, b in itertools.pairwise(group.first)]
                assert [len(run) for run in chains(subset, far - 1)] \
                    == [len(run) for run in chains(group.first, far - 1)]
            seen.extend(members)
        assert sorted(seen) == list(itertools.combinations(range(1, n + 1), size))


@pytest.mark.parametrize("n", [0, 1, 8])
def test_window_group_count_past_the_horizon_is_zero(monkeypatch, n):
    """A size above N has no subset; the count says so without its
    inclusion-exclusion sum, so max_subset far above N costs O(1) a
    size."""
    model = consecutive_run_model(n, m=2)
    for size in (max(2, n + 1), n + 2):
        assert list(model.subset_groups(size, 3)) == []

    def no_terms(*args):
        assert not range(*args), "walked inclusion-exclusion terms"
        return range(*args)

    monkeypatch.setattr(families, "range", no_terms, raising=False)
    assert [model.subset_group_count(size, far) for size in (n + 1, n + 2, 10 ** 18)
            for far in (1, 3, 10 ** 6)] == [0] * 9


def test_explicit_groups_are_single_subsets():
    family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [1], [0], []], 1)
    groups = list(family.subset_groups(2, 2))
    assert family.subset_group_count(2, 2) == len(groups) == math.comb(4, 2)
    assert [g.first for g in groups] == list(itertools.combinations(range(1, 5), 2))
    assert all(g.count == 1 and list(g.members) == [g.first] for g in groups)


@pytest.fixture
def work_counter(monkeypatch):
    """Counts kernel sweeps and per-split violation measurements: the
    rows the batched measure evaluates, one per (group, split)."""
    counts = {"sweeps": 0, "violations": 0}
    sweep = families.WindowKernel.sweep
    violations = dependence._worst_violations

    def counted_sweep(self, gaps, branch):
        counts["sweeps"] += 1
        return sweep(self, gaps, branch)

    def counted_violations(laws, *args):
        counts["violations"] += len(laws)
        return violations(laws, *args)

    monkeypatch.setattr(families.WindowKernel, "sweep", counted_sweep)
    monkeypatch.setattr(dependence, "_worst_violations", counted_violations)
    return counts


@pytest.mark.parametrize("claimed", [1, 2, 3])
def test_audit_work_does_not_grow_with_n(work_counter, claimed):
    work = []
    for n in (24, 200):
        report = check_m_dependence(consecutive_run_model(n, m=2), claimed)
        assert report.passed == (claimed >= 2)
        work.append(dict(work_counter))
        for key in work_counter:
            work_counter[key] = 0
    assert work[0] == work[1]
    assert 0 < work[0]["violations"] < 200


def test_default_audit_admits_long_window_models():
    report = check_m_dependence(consecutive_run_model(600))
    assert report.passed
    # C(600, 2) pairs, all but the 599 + 598 at gaps 1 and 2 split once.
    assert report.checks[0].name \
        == f"factorization[subset_size=2,splits={math.comb(600, 2) - 599 - 598}]"
