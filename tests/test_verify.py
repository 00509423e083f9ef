"""The derivation auditor: passing families pass, broken claims fail."""

import math

import numpy as np
import pytest

from mdepbounds import (
    ExplicitEventFamily,
    WindowModel,
    consecutive_run_model,
    random_window_model,
    verify_derivation,
)
from mdepbounds.errors import CapExceededError
from mdepbounds.verify import (MAX_DERIVATION_CHECKS, MAX_EXPLICIT_OUTCOMES,
                               MAX_TRIPLES_PER_CLASS, MAX_WINDOW_TABLE,
                               derivation_check_count)


def loop_check_count(n, m):
    """``derivation_check_count`` by a loop over every residue class and
    every shift, O(m): the reference for the bulk count."""
    count = 0
    for r in range(1, m + 2):
        size = len(range(r, n + 1, m + 1))
        count += (math.comb(size, 2)
                  + min(math.comb(size, 3), MAX_TRIPLES_PER_CLASS) + 2)
    if m >= 1:
        for r in range(m):
            blocks = (n - r - 1) // m - (-r) // m + 1 if n else 0
            count += math.comb(max(blocks - 1, 0), 2) + blocks + 4
        count += 1
    return count + 1 + (m >= 1)


def correlated_pair_family(m=1):
    """Three outcomes; A_1 and A_3 are the same nontrivial event, which
    sits at gap m+1 = 2 inside one residue class, so independence fails."""
    return ExplicitEventFamily.from_events(
        [0.5, 0.25, 0.25], [[0], [1], [0]], m)


class TestVerifyDerivation:
    def test_run_model_passes(self):
        report = verify_derivation(consecutive_run_model(12))
        assert report.passed
        names = [c.name for c in report.checks]
        assert any(n.startswith("residue_independence") for n in names)
        assert any(n.startswith("block_independence") for n in names)
        assert any(n.startswith("block_bonferroni") for n in names)
        assert any(n.startswith("parity_product") for n in names)
        assert names[-1] == "bound_vs_exact[second_order]"

    def test_random_models_pass(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            model = random_window_model(rng, max_horizon=18)
            report = verify_derivation(model)
            assert report.passed, report.worst()

    def test_correlated_family_fails_residue_independence(self):
        report = verify_derivation(correlated_pair_family())
        assert not report.passed
        failing = report.failures()
        assert any(c.name == "residue_independence[r=1,(1,3)]" for c in failing)
        bad = next(c for c in failing if c.name == "residue_independence[r=1,(1,3)]")
        # P(A^c & A^c) = 0.5 against (1 - 0.5)**2 = 0.25
        assert bad.slack == pytest.approx(0.25, abs=1e-12)

    def test_n0_vacuous_pass(self):
        report = verify_derivation(consecutive_run_model(0))
        assert report.passed

    def test_m0_skips_block_checks(self):
        report = verify_derivation(consecutive_run_model(8, m=0))
        assert report.passed
        names = [c.name for c in report.checks]
        assert not any(n.startswith("block_") for n in names)
        assert not any(n.startswith("parity_") for n in names)
        assert any(n.startswith("residue_independence") for n in names)

    def test_explicit_independent_family_passes(self):
        """Product space of two fair coins: A_1 on coin 1, A_2 on coin 2."""
        family = ExplicitEventFamily.from_events(
            [0.25] * 4, [[2, 3], [1, 3]], 0)
        report = verify_derivation(family)
        assert report.passed

    def test_horizon_cap(self):
        with pytest.raises(CapExceededError):
            verify_derivation(consecutive_run_model(20_000))

    def test_window_table_cap(self):
        """s = 2, m = 16 has a predicate table of 2**17 entries."""
        model = WindowModel(2, (0.5, 0.5), 16, (False,) * (1 << 17), 4)
        with pytest.raises(CapExceededError,
                           match=f"predicate table of size {1 << 17} exceeds "
                                 f"the verifier cap {MAX_WINDOW_TABLE}$"):
            verify_derivation(model)

    def test_explicit_outcome_cap(self):
        n_outcomes = MAX_EXPLICIT_OUTCOMES + 1
        family = ExplicitEventFamily(np.full(n_outcomes, 1 / n_outcomes),
                                     np.zeros((2, n_outcomes), dtype=bool), 0)
        with pytest.raises(CapExceededError,
                           match=f"^{n_outcomes} outcomes exceed the verifier "
                                 f"cap {MAX_EXPLICIT_OUTCOMES}$"):
            verify_derivation(family)

    def test_check_count_cap_states_the_estimate(self):
        model = consecutive_run_model(900, m=1)
        count = derivation_check_count(900, 1)
        assert count > MAX_DERIVATION_CHECKS
        with pytest.raises(CapExceededError, match=f"emit {count} checks"):
            verify_derivation(model)
        assert all(derivation_check_count(800, m) <= MAX_DERIVATION_CHECKS
                   for m in range(12))

    def test_check_count_matches_the_loop(self):
        assert [(n, m) for n in range(60) for m in range(70)
                if derivation_check_count(n, m) != loop_check_count(n, m)] == []

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_check_count_at_huge_m(self, n):
        """Past m = N each unit of m adds one empty class (2 checks) and
        one one-block shift (5, or 4 when N = 0), so m = 10**12 is
        counted without a loop of that length."""
        m = 10 ** 12
        assert derivation_check_count(n, m) \
            == loop_check_count(n, n + 1) + (7 if n else 6) * (m - n - 1)

    def test_check_count_is_exact(self):
        rng = np.random.default_rng(404)
        for k in range(50):
            if k % 2:
                model = random_window_model(rng, dependence_ranges=(0, 1, 2, 3),
                                            min_horizon=0, max_horizon=60)
            else:
                n, m = int(rng.integers(0, 40)), int(rng.integers(0, 8))
                model = ExplicitEventFamily.from_events(
                    [0.5, 0.5], [[int(b)] for b in rng.integers(0, 2, n)], m)
            assert verify_derivation(model).n_checks \
                == derivation_check_count(model.n_events, model.m)

    def test_deterministic_report_order(self):
        model = random_window_model(7, max_horizon=14)
        first = verify_derivation(model)
        second = verify_derivation(model)
        assert [c.name for c in first.checks] == [c.name for c in second.checks]
        assert [c.slack for c in first.checks] == [c.slack for c in second.checks]

    def test_slacks_are_signed_lhs_minus_rhs(self):
        report = verify_derivation(consecutive_run_model(9))
        for check in report.checks:
            assert check.slack == pytest.approx(check.lhs - check.rhs, abs=1e-15)


def shift_cover(report):
    (check,) = (c for c in report.checks if c.name == "pair_shift_cover[exhaustive]")
    return check


@pytest.mark.parametrize("m, d", [(m, d) for m in range(2, 7) for d in range(1, m)])
def test_shift_cover_catches_a_count_off_at_one_gap(monkeypatch, m, d):
    """The check visits only i = 1..min(N, m), yet a shift count that is
    wrong at a single gap still fails it."""
    from mdepbounds import verify
    model = consecutive_run_model(3 * m, m=m)
    assert shift_cover(verify_derivation(model)) == (
        "pair_shift_cover[exhaustive]", "eq", 0.0, 0.0, 0.0, 0.0, True)
    count = verify.pair_shift_count
    monkeypatch.setattr(verify, "pair_shift_count",
                        lambda i, l, m: count(i, l, m) + (l - i == d))
    check = shift_cover(verify_derivation(model))
    assert not check.passed and check.lhs == 1.0


class TestVerifyReportShape:
    def test_json_roundtrip(self):
        """A real report survives its JSON rows, whose keys are the record
        fields in order; records are immutable values."""
        from mdepbounds import Check, VerificationReport
        report = verify_derivation(consecutive_run_model(9))
        payload = report.to_dict()
        assert all(type(row) is dict for row in payload["checks"])
        clone = VerificationReport.from_dict(payload)
        assert clone == report
        assert Check._fields == ("name", "kind", "lhs", "rhs", "tol", "slack",
                                 "passed")
        for check, copy in zip(report.checks, clone.checks):
            assert tuple(check.to_dict()) == Check._fields
            assert hash(copy) == hash(check)
        with pytest.raises(AttributeError):
            report.checks[0].lhs = 0.0

    def test_worst_check_identified(self):
        report = verify_derivation(correlated_pair_family())
        worst = report.worst()
        assert not worst.passed
        assert worst.violation > 0

    def test_block_violations_saturate_silently_like_the_scalar(self):
        """An overflowing or inf - inf violation warns in neither form."""
        import warnings
        from mdepbounds import Check, CheckBlock, VerificationReport
        rows = [Check("a", "le", 0.0, 0.0, 2.5e300, -1.7976931348623157e308, False),
                Check("b", "eq", 0.0, 0.0, math.inf, math.inf, False),
                Check("c", "le", 0.0, 0.0, 0.0, 1.0, False)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            blocks = tuple(map(CheckBlock.of, rows))
            violations = [block.violation[0] for block in blocks]
            worst = VerificationReport(blocks).worst()
        assert violations[0] == rows[0].violation == -math.inf
        assert math.isnan(violations[1]) and math.isnan(rows[1].violation)
        assert worst == rows[2]

    def test_equality_with_a_non_report_is_not_implemented(self):
        from mdepbounds import VerificationReport
        report = VerificationReport(())
        assert report.__eq__(report.checks) is NotImplemented
        assert report != () and report != "VerificationReport(checks=())"

    def test_repr_lists_the_checks(self):
        from mdepbounds import Check, CheckBlock, VerificationReport
        report = VerificationReport((CheckBlock.of(
            Check("x[1]", "le", 0.25, 0.5, 1e-9, -0.25, True)),))
        assert repr(report) == (
            "VerificationReport(checks=(Check(name='x[1]', kind='le', "
            "lhs=0.25, rhs=0.5, tol=1e-09, slack=-0.25, passed=True),))")


@pytest.mark.parametrize("n", range(61))
def test_pairs_are_the_lexicographic_2_subsets(n):
    import itertools
    from mdepbounds.verify import _pairs
    values = (np.arange(2 * n, dtype=np.int64) * 7 - 40)[::2]
    expected = np.array(list(itertools.combinations(values, 2)),
                        dtype=np.int64).reshape(-1, 2)
    got = _pairs(values)
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert np.array_equal(got, expected)
