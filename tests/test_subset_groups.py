"""The m-dependence audit evaluated once per subset group.

``check_m_dependence`` asks the family for its index subsets in groups
(``subset_groups``) and evaluates one representative per group.  A
window model groups subsets by their gap tuple clamped at
max(claimed m, model m) + 1; an explicit family puts every subset in a
group of its own.  These tests hold the groups against plain
enumeration, require the grouped audit's report to equal the subset walk
in ``tests/subset_walk.py`` (failures and detail lists included), and
guard that the audit's work on a window model does not grow with N.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    ExplicitEventFamily,
    WindowModel,
    check_m_dependence,
    consecutive_run_model,
    expand_window_model,
    random_window_model,
)
from mdepbounds import dependence

from subset_walk import chains, subset_walk

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


def test_explicit_groups_are_single_subsets():
    family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [1], [0], []], 1)
    groups = list(family.subset_groups(2, 2))
    assert family.subset_group_count(2, 2) == len(groups) == math.comb(4, 2)
    assert [g.first for g in groups] == list(itertools.combinations(range(1, 5), 2))
    assert all(g.count == 1 and list(g.members) == [g.first] for g in groups)


@pytest.fixture
def work_counter(monkeypatch):
    """Counts kernel sweeps and per-split violation measurements."""
    counts = {"sweeps": 0, "violations": 0}
    sweep = WindowModel._sweep
    violation = dependence._worst_atom_violation

    def counted_sweep(self, indices, branch):
        counts["sweeps"] += 1
        return sweep(self, indices, branch)

    def counted_violation(*args):
        counts["violations"] += 1
        return violation(*args)

    monkeypatch.setattr(WindowModel, "_sweep", counted_sweep)
    monkeypatch.setattr(dependence, "_worst_atom_violation", counted_violation)
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
    assert report.checks[1].name \
        == f"factorization[subset_size=2,splits={math.comb(600, 2) - 599 - 598}]"
