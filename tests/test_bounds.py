"""Closed-form bounds, threshold function, windowed bound, reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    BoundReport,
    ExplicitEventFamily,
    build_report,
    build_threshold,
    consecutive_run_model,
    event_prob,
    first_order_bound,
    partial_sum,
    random_window_model,
    residue_classes,
    second_order_bound,
    second_order_sharper,
    union_prob,
    windowed_bound,
)
from mdepbounds.errors import BoundViolationError


def certain_family(n, m=1):
    """N events that each occur with probability 1."""
    return ExplicitEventFamily.from_events([1.0], [[0]] * n, m)


class TestFirstOrderBound:
    def test_zero_mass(self):
        assert first_order_bound(0.0, 0) == 0.0
        assert first_order_bound(0.0, 7) == 0.0

    def test_closed_form_values(self):
        assert first_order_bound(3.0, 2) == pytest.approx(
            0.6321205588285577, abs=1e-12)
        assert first_order_bound(1.0, 0) == pytest.approx(
            0.6321205588285577, abs=1e-12)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            first_order_bound(-0.1, 1)

    def test_monotone_in_mass_and_m(self):
        grid = np.linspace(0.0, 10.0, 50)
        for m in range(0, 5):
            vals = [first_order_bound(s, m) for s in grid]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        for s in (0.5, 2.0, 7.0):
            by_m = [first_order_bound(s, m) for m in range(0, 8)]
            assert all(a >= b - 1e-15 for a, b in zip(by_m, by_m[1:]))


class TestSecondOrderBound:
    def test_m1_exponent_matches_first_order(self):
        s = 4.2
        exponent, _ = second_order_bound(s, 0.0, 1)
        assert exponent == s / 2

    def test_run_model_values(self):
        exponent, bound = second_order_bound(3.0, 1.4375, 2)
        assert exponent == pytest.approx(0.78125, abs=1e-15)
        assert bound == pytest.approx(0.5421666382283857, abs=1e-12)

    def test_clamped_when_overlap_dominates(self):
        exponent, bound = second_order_bound(2.0, 3.5, 2)
        assert exponent < 0
        assert bound == 0.0

    def test_rejects_m0(self):
        with pytest.raises(ValueError):
            second_order_bound(1.0, 0.0, 0)


class TestSharperVerdict:
    def test_m1_tie_reports_false(self):
        assert second_order_sharper(5.0, 0.0, 1) is False

    def test_run_model_not_sharper(self):
        assert second_order_sharper(3.0, 1.4375, 2) is False  # threshold 1

    def test_sharper_case(self):
        assert second_order_sharper(2.0, 0.5, 3) is True  # threshold 1

    @settings(max_examples=300)
    @given(s=st.floats(0, 100, allow_nan=False),
           t=st.floats(0, 100, allow_nan=False),
           m=st.integers(1, 10))
    def test_equivalent_to_threshold_form(self, s, t, m):
        """Strict exponent comparison == t < s(m-1)/(m+1), off tie zone."""
        verdict = second_order_sharper(s, t, m)
        diff = (s - t) / 2 - s / (m + 1)
        if abs(diff) > 1e-9:  # clear of the tie zone
            assert verdict == (t < s * (m - 1) / (m + 1))


class TestMassPigeonhole:
    def test_some_class_carries_average_mass(self):
        """max_r sum of class mass >= total mass / (m+1)."""
        rng = np.random.default_rng(71)
        for _ in range(20):
            model = random_window_model(rng, max_horizon=50)
            classes = residue_classes(model.horizon, model.m).classes
            masses = [sum(event_prob(model, k) for k in cls) for cls in classes]
            total = partial_sum(model, model.horizon)
            assert max(masses) >= total / (model.m + 1) - 1e-12


class TestThresholdFunction:
    def test_half_probability_events(self):
        family = ExplicitEventFamily.from_events([0.5, 0.5], [[0]] * 10, 1)
        phi = build_threshold(family)
        assert phi.values == (2, 4, 6, 8, 10)

    def test_certain_events(self):
        phi = build_threshold(certain_family(5))
        assert phi.values == (1, 2, 3, 4, 5)

    def test_run_model(self, run_model_24):
        phi = build_threshold(run_model_24)
        assert phi.values == (8, 16, 24)

    def test_empty_when_mass_below_one(self):
        model = consecutive_run_model(4)  # total mass 0.5
        phi = build_threshold(model)
        assert phi.is_empty
        with pytest.raises(ValueError, match="deficit"):
            phi(1)

    def test_nondecreasing_and_minimal(self):
        rng = np.random.default_rng(73)
        families = [random_window_model(rng, min_horizon=50, max_horizon=150,
                                        table_density=0.3)
                    for _ in range(10)]
        # Prefix masses on which a running sum of the event probabilities
        # and partial_sum round apart: 45 * (1/9) is exactly 5.0, and ten
        # events of mass 0.1 sum pairwise to exactly 1.0.
        families.append(consecutive_run_model(60, m=1, alphabet_size=3))
        families.append(ExplicitEventFamily.from_events([0.1, 0.9],
                                                        [[0]] * 12, 1))
        for family in families:
            phi = build_threshold(family)
            vals = phi.values
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            for n, t in enumerate(vals, start=1):
                assert partial_sum(family, t) >= n
                assert partial_sum(family, t - 1) < n


class TestWindowedBound:
    def test_run_model_full_window(self, run_model_24):
        phi = build_threshold(run_model_24)
        wb = windowed_bound(run_model_24, phi, 0, 3)
        assert (wb.first, wb.last) == (1, 24)
        assert wb.bound == pytest.approx(0.6321205588285577, abs=1e-12)
        assert wb.mass >= 3 - 1e-9

    def test_certain_events_window(self):
        family = certain_family(6, m=1)
        phi = build_threshold(family)
        wb = windowed_bound(family, phi, 2, 2)
        assert (wb.first, wb.last) == (3, 4)
        assert wb.bound == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_m0_single_unit_window(self):
        family = certain_family(3, m=0)
        phi = build_threshold(family)
        wb = windowed_bound(family, phi, 0, 1)
        assert wb.bound == pytest.approx(0.6321205588285577, abs=1e-12)

    def test_skipping_events_shifts_the_window(self, run_model_24):
        phi = build_threshold(run_model_24)
        wb = windowed_bound(run_model_24, phi, 1, 1)
        assert (wb.first, wb.last) == (2, 16)
        assert wb.bound == pytest.approx(1 - math.exp(-1 / 3), abs=1e-12)

    def test_undefined_threshold_names_deficit(self, run_model_24):
        phi = build_threshold(run_model_24)
        with pytest.raises(ValueError, match="deficit 6"):
            windowed_bound(run_model_24, phi, 8, 1)

    def test_exact_union_dominates_bound(self, run_model_24):
        phi = build_threshold(run_model_24)
        for i in range(3):
            for n in range(1, 4 - i):
                wb = windowed_bound(run_model_24, phi, i, n)
                exact = union_prob(run_model_24, wb.first, wb.last)
                assert exact >= wb.bound - 1e-9


class TestBoundReport:
    def test_report_fields_run_model(self, run_model_24):
        report = build_report(run_model_24, exact=True)
        assert report.s_n == pytest.approx(3.0, abs=1e-12)
        assert report.thm1_exponent == pytest.approx(1.0, abs=1e-12)
        assert report.thm1_bound == pytest.approx(0.6321205588285577, abs=1e-12)
        assert report.thm2_exponent == pytest.approx(0.78125, abs=1e-12)
        assert report.thm2_sharper is False
        assert report.exact_union >= report.thm1_bound - 1e-9

    def test_report_m0_omits_second_order(self):
        model = consecutive_run_model(10, m=0)
        report = build_report(model, exact=True)
        assert report.t_local is None
        assert report.thm2_bound is None
        d = report.to_dict()
        assert "thm2_bound" not in d and "t_local" not in d

    def test_report_n0_all_zero(self):
        model = consecutive_run_model(0)
        report = build_report(model, exact=True)
        assert (report.s_n, report.thm1_bound, report.exact_union) == (0, 0, 0)

    def test_dict_roundtrip(self, run_model_24):
        report = build_report(run_model_24, exact=True, mc=(2000, 4))
        clone = BoundReport.from_dict(report.to_dict())
        assert clone == report

    def test_wrong_m_claim_raises(self):
        """Three identical coin-flip events claimed independent (m=0)."""
        family = ExplicitEventFamily.from_events(
            [0.5, 0.5], [[0], [0], [0]], 0)
        with pytest.raises(BoundViolationError, match="dependence range"):
            build_report(family, exact=True)

    def test_validate_accepts_honest_reports(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            model = random_window_model(rng, max_horizon=60)
            build_report(model, exact=True)  # validate() runs inside


def hand_report(**fields):
    """An honest m = 2 report (S = 1, T = 0.25) with `fields` replaced."""
    honest = dict(n=8, m=2, s_n=1.0, t_local=0.25,
                  thm1_exponent=1 / 3, thm1_bound=-math.expm1(-1 / 3),
                  thm2_exponent=0.375, thm2_bound=-math.expm1(-0.375),
                  thm2_sharper=True, exact_union=0.5)
    return BoundReport(**{**honest, **fields})


class TestValidateMessages:
    def test_honest_hand_report_passes(self):
        hand_report().validate()

    def test_first_order_mismatch(self):
        with pytest.raises(BoundViolationError) as raised:
            hand_report(thm1_bound=0.3).validate()
        assert str(raised.value) == "first-order bound/exponent mismatch"

    @pytest.mark.parametrize("exponent, bound", [(0.375, 0.3), (-0.5, 0.1)])
    def test_second_order_mismatch(self, exponent, bound):
        """A nonpositive exponent means the bound 0."""
        with pytest.raises(BoundViolationError) as raised:
            hand_report(thm2_exponent=exponent, thm2_bound=bound).validate()
        assert str(raised.value) == "second-order bound/exponent mismatch"

    def test_exact_union_below_the_second_order_bound(self):
        """0.29 clears the first-order bound 0.2835 but not 0.3127."""
        with pytest.raises(BoundViolationError) as raised:
            hand_report(exact_union=0.29).validate()
        assert str(raised.value) == (
            "exact union 0.29 below the second-order bound 0.312710721209; "
            "the claimed dependence range m=2 is probably wrong")


class TestCoincidenceM1:
    def test_exponents_equal_for_m1_families(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            model = random_window_model(rng, dependence_ranges=(1,),
                                        max_horizon=80)
            report = build_report(model)
            assert report.t_local == 0.0
            assert abs(report.thm1_exponent - report.thm2_exponent) <= 1e-12
