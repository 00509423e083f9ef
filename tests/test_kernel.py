"""The window-model transfer-operator kernel and the family protocol.

Window models answer ``survivals`` (kill at the members), ``pattern_laws``
(branch at the indices) and the prefix and pair masses through one
kernel; these tests hold each action against brute-force enumeration and
against the explicit expansion, check that both representations define
the whole protocol, and check the index validation of the public
pattern-law entry point on both representations.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    ExplicitEventFamily,
    WindowModel,
    check_m_dependence,
    complement_intersection_prob,
    consecutive_run_model,
    expand_window_model,
    pair_prob,
    pattern_distribution,
    t_local,
)
from mdepbounds import cli, dependence, families

from exhaustive import brute_complement_prob, brute_pair_prob

#: Largest outcome space s**(N+m) the differential test expands.
MAX_STRINGS = 1 << 12

#: The family protocol: every member the query functions and the audits
#: read without checking the representation.
PROTOCOL = ("prefix_mass", "pair_probs", "pair_mass", "union", "survivals",
            "pattern_laws", "require_query_scale", "subset_groups",
            "subset_group_count")


@pytest.mark.parametrize("cls", [WindowModel, ExplicitEventFamily])
def test_both_representations_define_the_protocol(cls):
    assert [name for name in PROTOCOL if name not in vars(cls)] == []
    assert not hasattr(cls, "survival")  # one index-set query: survivals
    assert not hasattr(cls, "pattern_law")  # one law query: pattern_laws
    # P(A_k) is pair_probs(0), and prefix masses come one index array at a time
    assert not hasattr(cls, "event_probs") and not hasattr(cls, "prefix_probs")


def test_families_docstring_names_the_protocol():
    assert [name for name in PROTOCOL
            if f"``{name}" not in families.__doc__] == []


@pytest.mark.parametrize("claimed", [1, 2, 3], ids=["below", "at", "above"])
def test_dependence_audit_holds_no_structural_row(claimed):
    """No representation declares a range the audit takes on trust: no
    row is a structural certificate, whatever m is claimed against the
    window, and a claim below the window fails on its numbers."""
    assert not hasattr(WindowModel, "structural_range")
    assert not hasattr(ExplicitEventFamily, "structural_range")
    model = consecutive_run_model(6, m=2)
    for family in (model, expand_window_model(model)):
        report = check_m_dependence(family, claimed, max_subset=3)
        assert [c.name for c in report.checks
                if c.name.startswith("structural")] == []
        assert report.passed is (claimed >= 2)
        if claimed < 2:
            assert abs(report.worst().slack) > 1e-3


@pytest.mark.parametrize("module", [cli, dependence], ids=lambda m: m.__name__)
def test_protocol_readers_do_not_name_the_representations(module):
    """The CLI and the dependence audit read the family protocol only."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert names & {"WindowModel", "ExplicitEventFamily"} == set()


@st.composite
def small_window_models(draw):
    s = draw(st.integers(2, 4))
    m = draw(st.integers(0, 3))
    max_n = max(n for n in range(1, 13) if s ** (n + m) <= MAX_STRINGS)
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=s, max_size=s))
    table = draw(st.lists(st.booleans(), min_size=s ** (m + 1),
                          max_size=s ** (m + 1)))
    return WindowModel(s, tuple(w / sum(weights) for w in weights), m,
                       tuple(table), n)


@settings(max_examples=100, deadline=None)
@given(model=small_window_models(), data=st.data())
def test_kernel_actions_match_enumeration(model, data):
    n = model.horizon
    assert model.alphabet_size ** (n + model.m) <= MAX_STRINGS
    indices = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1,
                                             max_size=min(n, 4)))))
    law = pattern_distribution(model, indices)
    explicit = expand_window_model(model)
    assert np.abs(law - pattern_distribution(explicit, indices)).max() < 1e-12

    survival = model.survivals(np.array([indices]))[0]
    assert survival == pytest.approx(brute_complement_prob(model, indices),
                                     abs=1e-12)
    # kill and branch agree on the no-event pattern
    assert abs(law[0] - survival) <= 1e-15

    for gap in range(min(model.m, n - 1) + 1):
        assert pair_prob(model, 1, 1 + gap) == pytest.approx(
            brute_pair_prob(model, 1, 1 + gap), abs=1e-12)

    # The prefix and pair masses of the family protocol, at every gap
    # (also those beyond m, which a window model answers as p**2).
    for gap in range(n):
        pairs = model.pair_probs(gap)
        assert pairs.shape == (n - gap,)
        assert np.abs(pairs - explicit.pair_probs(gap)).max() < 1e-12
    upto = np.arange(n + 1)
    assert model.prefix_mass(upto).shape == (n + 1,)
    assert np.abs(model.prefix_mass(upto) - explicit.prefix_mass(upto)).max() < 1e-12
    if model.m >= 1:
        assert t_local(model) == pytest.approx(t_local(explicit), abs=1e-12)


RUN_MODEL = consecutive_run_model(10)
REPRESENTATIONS = {"window": RUN_MODEL,
                   "explicit": expand_window_model(RUN_MODEL)}


@pytest.mark.parametrize("kind", sorted(REPRESENTATIONS))
class TestPatternDistributionIndices:
    @pytest.mark.parametrize("indices", [(5, 2), (3, 3)])
    def test_not_strictly_increasing(self, kind, indices):
        with pytest.raises(ValueError, match="strictly increasing"):
            pattern_distribution(REPRESENTATIONS[kind], indices)

    @pytest.mark.parametrize("indices", [(0, 2), (9, 11)])
    def test_outside_event_range(self, kind, indices):
        family = REPRESENTATIONS[kind]
        with pytest.raises(IndexError) as raised:
            pattern_distribution(family, indices)
        with pytest.raises(IndexError) as expected:
            complement_intersection_prob(family, indices)
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("family", [
    consecutive_run_model(6, m=1), expand_window_model(consecutive_run_model(6, m=1))],
    ids=["window", "explicit"])
def test_batch_queries_of_no_rows(family):
    rows = np.zeros((0, 2), dtype=np.int64)
    assert family.survivals(rows).shape == (0,)
    assert family.pattern_laws(rows).shape == (0, 4)
