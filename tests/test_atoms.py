"""Explicit families answer from their atoms.

``ExplicitEventFamily`` lumps its M outcomes once into the atoms of
sigma(A_1, .., A_N), one per distinct event-membership column, and every
protocol query reads that table.  These tests require each query, and
the m-dependence and derivation audits built on them, to agree with the
outcome-level sweeps in ``tests/outcome_walk.py``; they guard that a
query sweeps atoms and not outcomes, and that a dump is written with the
same bytes.
"""

import inspect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    ExplicitEventFamily,
    check_m_dependence,
    consecutive_run_model,
    dump_model,
    expand_window_model,
    load_model,
    pattern_distribution,
    random_window_model,
    verify_derivation,
)

from outcome_walk import OutcomeWalkFamily, outcome_dict

#: Event counts at byte edges: none, one, a full byte, one past it, and
#: a third byte.  The 64-bit word edges have a test of their own.
EVENT_COUNTS = (0, 1, 7, 8, 9, 17)


@st.composite
def explicit_families(draw):
    """Families with repeated membership columns, zero-weight outcomes
    and empty events."""
    n = draw(st.sampled_from(EVENT_COUNTS))
    n_outcomes = draw(st.one_of(st.just(1), st.integers(1, 24)))
    columns = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                            min_size=1, max_size=6))
    which = draw(st.lists(st.integers(0, len(columns) - 1),
                          min_size=n_outcomes, max_size=n_outcomes))
    masks = np.array([columns[c] for c in which], dtype=bool).reshape(n_outcomes, n).T
    for k in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        masks[k] = False
    weights = np.array(draw(st.lists(st.integers(0, 4), min_size=n_outcomes,
                                     max_size=n_outcomes)), dtype=float)
    if not weights.sum():
        weights[0] = 1.0
    return ExplicitEventFamily(weights / weights.sum(), masks, draw(st.integers(0, 3)))


def index_tuples(n: int, size: int) -> list[tuple[int, ...]]:
    return list(itertools.islice(itertools.combinations(range(1, n + 1), size), 40))


@settings(max_examples=150, deadline=None)
@given(family=explicit_families())
def test_every_query_matches_the_outcome_sweeps(family):
    ref = OutcomeWalkFamily.of(family)
    n = family.n_events
    masks, weights = family.atoms
    assert 1 <= weights.size <= min(family.n_outcomes, 2 ** n)
    assert math.fsum(weights) == pytest.approx(1.0, rel=0, abs=1e-15)
    assert len({col.tobytes() for col in masks.T}) == weights.size
    np.testing.assert_allclose(family.pair_probs(0), ref.pair_probs(0), rtol=0, atol=1e-13)
    upto = np.arange(n + 1)
    np.testing.assert_allclose(family.prefix_mass(upto), ref.prefix_mass(upto),
                               rtol=0, atol=1e-13)
    for gap in range(n):
        np.testing.assert_allclose(family.pair_probs(gap), ref.pair_probs(gap),
                                   rtol=0, atol=1e-13)
        assert family.pair_mass(gap) == pytest.approx(ref.pair_mass(gap), rel=0, abs=1e-13)
    for first, last in itertools.combinations_with_replacement(range(1, n + 1), 2):
        assert family.union(first, last) == pytest.approx(
            ref.union(first, last), rel=0, abs=1e-13)
    for size in (1, 2, 3):
        subsets = index_tuples(n, size)
        if not subsets:
            continue
        rows = np.array(subsets)
        np.testing.assert_allclose(family.survivals(rows), ref.survivals(rows),
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(family.pattern_laws(rows), ref.pattern_laws(rows),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_columns_differing_in_one_event_are_apart_at_word_edges(n):
    """Membership columns are packed 64 events to a word: columns that
    differ in one event only, on either side of a word edge, are
    different atoms."""
    rng = np.random.default_rng(n)
    base = rng.random((n, 1)) < 0.5
    flipped = []
    for k in sorted({0, 62, 63, 64, n - 1} & set(range(n))):
        column = base[:, 0].copy()
        column[k] = not column[k]
        flipped.append(column)
    columns = np.column_stack([base, *flipped])
    masks = np.repeat(columns, 3, axis=1)
    weights = rng.random(masks.shape[1])
    family = ExplicitEventFamily(weights / weights.sum(), masks, 2)
    ref = OutcomeWalkFamily.of(family)
    assert family.atoms[1].size == len({c.tobytes() for c in columns.T})
    np.testing.assert_allclose(family.pair_probs(0), ref.pair_probs(0), rtol=0, atol=1e-13)
    for gap in (g for g in (1, 63, 64) if g < n):
        np.testing.assert_allclose(family.pair_probs(gap), ref.pair_probs(gap),
                                   rtol=0, atol=1e-13)
    for first, last in [(1, n), (64, n), (1, 63), (n, n)]:
        assert family.union(first, last) == pytest.approx(
            ref.union(first, last), rel=0, abs=1e-13)
    subsets = [t for t in [(1, 63, n), (2, 64, n), (62, 63, 64), (63, 64, 65)]
               if t[0] < t[1] < t[2] <= n]
    rows = np.array(subsets, dtype=np.int64).reshape(-1, 3)
    np.testing.assert_allclose(family.survivals(rows), ref.survivals(rows),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(family.pattern_laws(rows), ref.pattern_laws(rows),
                               rtol=0, atol=1e-13)


#: The protocol members an explicit family answers from its atoms.
ATOM_QUERIES = ("prefix_mass", "pair_probs", "pair_mass", "union", "survivals",
                "pattern_laws")


def test_outcome_walk_overrides_every_atom_query():
    """A member the reference inherited would be checked against itself,
    so it overrides the atom queries, and every other member of
    ``ExplicitEventFamily`` that reads ``self.atoms``; it cannot read
    them."""
    readers = []
    for name, member in vars(ExplicitEventFamily).items():
        for attr in ("func", "fget", "__func__"):  # unwrap descriptors
            member = getattr(member, attr, member)
        if inspect.isfunction(member) and "atoms" in member.__code__.co_names:
            readers.append(name)
    assert "pattern_laws" in readers
    assert [name for name in sorted({*readers, *ATOM_QUERIES} - {"atoms"})
            if name not in vars(OutcomeWalkFamily)] == []
    ref = OutcomeWalkFamily.of(expand_window_model(consecutive_run_model(5, m=1)))
    with pytest.raises(AssertionError, match="reads no atoms"):
        ref.atoms


def same_checks(report, reference) -> bool:
    return ([(c.name, c.passed) for c in report.checks]
            == [(c.name, c.passed) for c in reference.checks]
            and report.passed == reference.passed)


@settings(max_examples=60, deadline=None)
@given(family=explicit_families(), m=st.integers(0, 3))
def test_audits_match_the_outcome_sweeps(family, m):
    ref = OutcomeWalkFamily.of(family)
    assert same_checks(check_m_dependence(family, m, max_subset=3),
                       check_m_dependence(ref, m, max_subset=3))
    assert same_checks(verify_derivation(family), verify_derivation(ref))


def test_window_expansion_audits_match_the_outcome_sweeps():
    """A family whose dependence claim holds, and one whose claim fails."""
    for claimed in (2, 0):
        family = expand_window_model(consecutive_run_model(8, m=2))
        family = ExplicitEventFamily(family.outcome_weights, family.event_masks, claimed)
        ref = OutcomeWalkFamily.of(family)
        report = check_m_dependence(family)
        assert report.passed == (claimed == 2)
        assert same_checks(report, check_m_dependence(ref))
        assert same_checks(verify_derivation(family), verify_derivation(ref))


def test_pattern_law_sweeps_atoms_not_outcomes(monkeypatch):
    """A run-of-three model on 14 fair coin flips has 16,384 outcomes but
    at most 2**12 atoms, and a pattern law bins only those."""
    family = expand_window_model(consecutive_run_model(12, m=2))
    assert family.n_outcomes == 2 ** 14
    assert family.pair_probs(0).size == 12  # lumps the outcomes before counting
    subsets = [(1,), (1, 2), (3, 7, 12), (1, 4, 8, 12)]
    binned = []
    bincount = np.bincount

    def counting(x, *args, **kwargs):
        binned.append(len(x))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    laws = [pattern_distribution(family, subset) for subset in subsets]
    monkeypatch.undo()
    assert binned and max(binned) <= 2 ** 12
    ref = OutcomeWalkFamily.of(family)
    for law, subset in zip(laws, subsets):
        np.testing.assert_allclose(law, pattern_distribution(ref, subset),
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("s, m, n", [(2, 1, 12), (2, 2, 11), (3, 1, 7), (3, 2, 6)])
def test_dump_bytes_unchanged(tmp_path, s, m, n):
    model = random_window_model(1000 * s + 100 * m + n, alphabet_sizes=(s,),
                                dependence_ranges=(m,), min_horizon=n,
                                max_horizon=n, table_density=0.25)
    family = expand_window_model(model)
    path = tmp_path / "x.json"
    dump_model(family, path)
    assert path.read_text() == json.dumps(outcome_dict(family), indent=2) + "\n"
    assert np.array_equal(load_model(path).event_masks, family.event_masks)
