"""The m-dependence checker on valid and broken claims."""

import math

import numpy as np
import pytest

from mdepbounds import (
    ExplicitEventFamily,
    WindowModel,
    check_m_dependence,
    consecutive_run_model,
    expand_window_model,
    pattern_distribution,
    random_window_model,
)
from mdepbounds import dependence, families
from mdepbounds.dependence import _worst_violations
from mdepbounds.errors import CapExceededError

from subset_walk import subset_walk


def no_work(*args):
    raise AssertionError("the audit ran")


def identical_event_family(m=1):
    """Two-outcome space with A_1 = A_{m+2} nontrivial: gap m+1 > m but
    the events are identical, so the claimed m fails."""
    n = m + 2
    events = [[0] if k in (1, n) else [] for k in range(1, n + 1)]
    return ExplicitEventFamily.from_events([0.5, 0.5], events, m)


class TestPatternDistribution:
    def test_sums_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model = random_window_model(rng, min_horizon=6, max_horizon=10)
            joint = pattern_distribution(model, (1, 3, model.horizon))
            assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_marginals(self, run_model_24):
        joint = pattern_distribution(run_model_24, (2, 7))
        p_first = joint[1] + joint[3]
        p_second = joint[2] + joint[3]
        assert p_first == pytest.approx(0.125, abs=1e-12)
        assert p_second == pytest.approx(0.125, abs=1e-12)

    def test_explicit_matches_window_on_expansion(self):
        from mdepbounds import expand_window_model
        model = random_window_model(3, alphabet_sizes=(2,), min_horizon=5,
                                    max_horizon=8)
        explicit = expand_window_model(model)
        for indices in [(1, 3), (2, 4, 5)]:
            a = pattern_distribution(model, indices)
            b = pattern_distribution(explicit, indices)
        assert np.abs(a - b).max() < 1e-12


class TestCheckMDependence:
    def test_window_models_pass_at_their_own_m(self):
        """A window model passes its own m on numbers alone: the report
        opens with the size-2 factorization row, not a certificate."""
        rng = np.random.default_rng(19)
        for _ in range(6):
            model = random_window_model(rng, min_horizon=4, max_horizon=10)
            report = check_m_dependence(model, max_subset=3)
            assert report.passed
            assert report.checks[0].name.startswith("factorization[subset_size=2,")

    def test_identical_events_fail_with_measured_violation(self):
        family = identical_event_family(m=1)
        report = check_m_dependence(family)
        assert not report.passed
        # worst violation is |P(A) - P(A)^2| = 0.25 at some atom
        worst = report.worst()
        assert abs(worst.slack) == pytest.approx(0.25, abs=1e-12)

    def test_single_event_vacuous_pass(self):
        family = ExplicitEventFamily.from_events([0.5, 0.5], [[0]], 0)
        report = check_m_dependence(family)
        assert report.passed

    def test_pairwise_independent_triple_caught_at_size_3(self):
        """Two fair coins and their parity: every pair of events is
        independent, but the triple is not, so the claimed m = 0 passes
        pairwise checks and fails only at subset size 3."""
        # outcomes = (X, Y) in {0,1}^2; A_1 = {X=1}, A_2 = {Y=1}, A_3 = {X^Y=1}
        family = ExplicitEventFamily.from_events(
            [0.25] * 4, [[2, 3], [1, 3], [1, 2]], 0)
        assert check_m_dependence(family, max_subset=2).passed
        report = check_m_dependence(family, max_subset=3)
        assert not report.passed
        assert abs(report.worst().slack) == pytest.approx(0.125, abs=1e-12)

    def test_monotone_in_m(self):
        """A window model built with window length 2 (1-dependent) fails
        the independence claim m = 0 but passes m = 1 and above."""
        model = consecutive_run_model(8, m=1)
        fails = check_m_dependence(model, 0, max_subset=2)
        assert not fails.passed
        for claimed in (1, 2, 3):
            assert check_m_dependence(model, claimed, max_subset=2).passed

    def test_structural_and_numerical_agree(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            model = random_window_model(rng, min_horizon=4, max_horizon=9)
            report = check_m_dependence(model, max_subset=4)
            assert report.passed  # no false negatives at tol 1e-9

    def test_subset_cap(self, monkeypatch):
        """The cap counts the subsets evaluated: all C(N, k) on an explicit
        family, one per clamped gap tuple on a window model."""
        explicit = ExplicitEventFamily.from_events([0.5, 0.5], [[0]] * 20, 1)
        monkeypatch.setattr(dependence, "MAX_SUBSETS", 1000)
        with pytest.raises(CapExceededError,
                           match=r"^6175 candidate index subsets exceed the cap "
                                 r"1000; lower max_subset \(currently 4\)$"):
            check_m_dependence(explicit, max_subset=4)
        # m = 2, so 3 + 9 + 27 gap tuples over {1, 2, 3} at any horizon.
        model = consecutive_run_model(600)
        monkeypatch.setattr(dependence, "MAX_SUBSETS", 38)
        with pytest.raises(CapExceededError, match=r"^39 candidate .* max_subset"):
            check_m_dependence(model, max_subset=4)
        monkeypatch.setattr(dependence, "MAX_SUBSETS", 39)
        assert check_m_dependence(model, max_subset=4).passed
        assert check_m_dependence(model).passed

    @pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
    def test_tolerance_must_be_finite_and_nonnegative(self, monkeypatch, tol):
        family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], 0)
        assert not check_m_dependence(family, tol=0.0).passed
        monkeypatch.setattr(ExplicitEventFamily, "pattern_laws", no_work)
        with pytest.raises(ValueError, match=r"^tol must be finite and "
                                             r"nonnegative \(got "):
            check_m_dependence(family, tol=tol)

    def test_summary_rows_are_capped_before_any_work(self, monkeypatch):
        """One summary row per size 2..min(max_subset, N - m): sizes past
        N - m add no row and nothing to the MAX_SUBSETS count, so a huge
        max_subset is refused, or run, on the groups of sizes up to
        N - m alone, and a refusal comes before the groups are listed."""
        family = ExplicitEventFamily.from_events([0.25] * 4, [[2, 3], [1, 3]], 0)
        monkeypatch.setattr(dependence, "MAX_SUBSETS", 0)
        monkeypatch.setattr(ExplicitEventFamily, "subset_groups", no_work)
        for max_subset in (12, 10 ** 18):
            with pytest.raises(CapExceededError,
                               match=rf"^1 candidate index subsets exceed the "
                                     rf"cap 0; lower max_subset \(currently "
                                     rf"{max_subset}\)$"):
                check_m_dependence(family, max_subset=max_subset)
        monkeypatch.undo()
        monkeypatch.setattr(dependence, "MAX_SUBSETS", 1)
        for max_subset in (2, 12, 10 ** 18):
            report = check_m_dependence(family, max_subset=max_subset)
            assert report.passed and len(report.checks) == 1

    @pytest.mark.parametrize("explicit", [False, True], ids=["window", "explicit"])
    def test_query_scale_is_capped_before_any_work(self, monkeypatch, explicit):
        """A family whose single exact query is too large for the verifier
        (a 2**18-entry predicate table, 2**20 + 1 outcomes) is refused
        with the derivation audit's message before any subset group is
        counted or listed, or any law asked for."""
        if explicit:
            n_outcomes = families.MAX_EXPLICIT_OUTCOMES + 1
            family = ExplicitEventFamily(np.full(n_outcomes, 1 / n_outcomes),
                                         np.zeros((2, n_outcomes), dtype=bool), 0)
            message = (f"^{n_outcomes} outcomes exceed the verifier cap "
                       f"{families.MAX_EXPLICIT_OUTCOMES}$")
        else:
            family = WindowModel(2, (0.5, 0.5), 17, (False,) * (1 << 18), 4)
            message = (f"^predicate table of size {1 << 18} exceeds the "
                       f"verifier cap {families.MAX_WINDOW_TABLE}$")
        for name in ("pattern_laws", "subset_groups", "subset_group_count"):
            monkeypatch.setattr(type(family), name, no_work)
        with pytest.raises(CapExceededError, match=message):
            check_m_dependence(family, max_subset=2)

    def test_pairwise_only_mode(self):
        model = consecutive_run_model(40)
        report = check_m_dependence(model, max_subset=2)
        assert report.passed

    def test_rejects_bad_max_subset(self):
        with pytest.raises(ValueError):
            check_m_dependence(consecutive_run_model(5), max_subset=1)

    @pytest.mark.parametrize("claimed", [None, 0])
    @pytest.mark.parametrize("explicit", [False, True], ids=["window", "explicit"])
    def test_sizes_above_n_pass_without_a_split_table(self, monkeypatch,
                                                      explicit, claimed):
        """A size above N has no subset, so it is neither walked nor
        reported, nor counted against MAX_SUBSETS: every max_subset >= N,
        10**18 included, gives the max_subset = N report, and its
        2**(size-1) split table is never built.  Nor is a size above
        N - m, which has no split: the claim m = 1 stops at size 5."""
        family = consecutive_run_model(6, m=1)
        if explicit:
            family = expand_window_model(family)
        split = dependence._split

        def split_within_n(shape, size):
            assert size <= 6, f"split table built for size {size} > N"
            return split(shape, size)

        monkeypatch.setattr(dependence, "_split", split_within_n)
        far = (family.m if claimed is None else claimed) + 1
        monkeypatch.setattr(dependence, "MAX_SUBSETS", sum(
            family.subset_group_count(size, far) for size in range(2, 7)))
        expected = check_m_dependence(family, claimed, max_subset=6)
        assert expected.passed is (claimed is None)
        for max_subset in (6, 7, 26, 10 ** 18):
            report = check_m_dependence(family, claimed, max_subset=max_subset)
            assert report == expected
            sizes = [int(c.name.split("=")[1].split(",")[0]) for c in report.checks
                     if c.name.startswith("factorization[")]
            assert sizes == list(range(2, 8 - far))

    @pytest.mark.parametrize("explicit", [False, True], ids=["window", "explicit"])
    def test_sizes_above_n_ask_the_family_nothing(self, monkeypatch, explicit):
        """No size above N lists subset groups or asks for pattern laws,
        and the report is still the plain walk's."""
        family = consecutive_run_model(5, m=1)
        if explicit:
            family = expand_window_model(family)
        kind = type(family)
        groups, laws = kind.subset_groups, kind.pattern_laws

        def groups_within_n(self, size, far):
            assert size <= 5, f"subset groups listed for size {size} > N"
            return groups(self, size, far)

        def laws_within_n(self, rows):
            assert rows.shape[1] <= 5, f"pattern laws of {rows.shape[1]} > N events"
            return laws(self, rows)

        monkeypatch.setattr(kind, "subset_groups", groups_within_n)
        monkeypatch.setattr(kind, "pattern_laws", laws_within_n)
        for claimed in (None, 0):
            report = check_m_dependence(family, claimed, max_subset=12)
            assert report == subset_walk(family, claimed, max_subset=12)


def loop_worst_atom_violation(joint, pos_i, pos_j, u):
    """Reference: the scalar loop over all 2**u patterns; the first
    pattern of largest magnitude wins."""
    def marginal(positions):
        out = np.zeros(1 << len(positions))
        for p in range(1 << u):
            out[sum((p >> pos & 1) << t for t, pos in enumerate(positions))] \
                += joint[p]
        return out

    marg_i, marg_j = marginal(pos_i), marginal(pos_j)
    worst = 0.0
    for p in range(1 << u):
        a = sum((p >> pos & 1) << t for t, pos in enumerate(pos_i))
        b = sum((p >> pos & 1) << t for t, pos in enumerate(pos_j))
        diff = joint[p] - marg_i[a] * marg_j[b]
        if abs(diff) > abs(worst):
            worst = float(diff)
    return worst


def random_joints(rng, count):
    """Skewed random laws, plus window-model pattern laws, whose 2x2
    covariance structure ties atoms of opposite sign in magnitude."""
    for _ in range(count):
        u = int(rng.integers(2, 7))
        joint = rng.random(1 << u) ** 3
        yield joint / joint.sum(), u
    for seed in range(count // 4):
        model = random_window_model(seed, min_horizon=8, max_horizon=8)
        u = int(rng.integers(2, 5))
        indices = tuple(sorted(rng.choice(8, u, replace=False) + 1))
        yield pattern_distribution(model, indices), u


def test_vectorized_atom_violation_matches_loop():
    """The batched measure, on a batch of one row and on the batch of all
    laws of one size under one split, against the scalar loop."""
    rng = np.random.default_rng(2024)
    by_size = {}
    for joint, u in random_joints(rng, 400):
        cut = int(rng.integers(1, u))
        order = rng.permutation(u)
        pos_i = tuple(sorted(int(t) for t in order[:cut]))
        pos_j = tuple(sorted(int(t) for t in order[cut:]))
        worst = loop_worst_atom_violation(joint, pos_i, pos_j, u)
        (got,) = _worst_violations(joint[None, :], pos_i, pos_j)
        assert abs(got - worst) <= 1e-15
        # Same arg-worst: tied atoms of opposite sign break the same way.
        assert np.sign(got) == np.sign(worst)
        by_size.setdefault(u, []).append(joint)
    for u, joints in by_size.items():
        pos_i = (0,) + tuple(range(2, u, 2))
        pos_j = tuple(range(1, u, 2))
        got = _worst_violations(np.array(joints), pos_i, pos_j)
        assert len(got) == len(joints) > 1
        for joint, value in zip(joints, got):
            worst = loop_worst_atom_violation(joint, pos_i, pos_j, u)
            assert abs(value - worst) <= 1e-15
            assert np.sign(value) == np.sign(worst)
