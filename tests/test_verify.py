"""The derivation auditor: passing families pass, broken claims fail."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    ExplicitEventFamily,
    WindowModel,
    block_table,
    consecutive_run_model,
    event_prob,
    pair_shift_count,
    random_window_model,
    union_prob,
    verify_derivation,
)
from mdepbounds.errors import CapExceededError
from mdepbounds.families import MAX_EXPLICIT_OUTCOMES, MAX_WINDOW_TABLE
from mdepbounds.verify import (MAX_DERIVATION_CHECKS, MAX_TRIPLES_PER_CLASS,
                               derivation_check_count)

from derivation_walk import layout
from exhaustive import shift_count_mismatches


def loop_check_count(n, m):
    """``derivation_check_count`` by a loop over every residue class and
    every shift r = 0..m-1, with each shift's blocks laid out by the
    layout rule and each row rule applied as stated: the reference for
    the closed form."""
    if m >= n - 1:  # every family of N events is (N-1)-dependent
        return 0
    count = 0
    for r in range(1, m + 2):
        size = len(range(r, n + 1, m + 1))
        if size >= 2:  # a class of one has no row
            count += (math.comb(size, 2)
                      + min(math.comb(size, 3), MAX_TRIPLES_PER_CLASS) + 1)
    for r in range(m):
        js = [j for j, _, _ in layout(n, m, r)]
        if len(js) >= 3:  # a shift of two blocks or one has no row
            odd = sum(j % 2 for j in js)
            count += (math.comb(len(js) - 1, 2) + (odd >= 2)
                      + (len(js) - odd >= 2) + 1)
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
        assert any(n.startswith("parity_product") for n in names)
        assert any(n.startswith("block_mass_exponential") for n in names)
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

    @pytest.mark.parametrize("tol", [-1.0, -5e-324, math.inf, -math.inf, math.nan])
    def test_tolerance_must_be_finite_and_nonnegative(self, monkeypatch, tol):
        """A 3-event family claiming m = 0 with A_1 = A_2 fails at tol 0
        and at the default; an infinite tol would pass it, a NaN or
        negative one fail every check.  Each is refused before any
        query."""
        family = ExplicitEventFamily.from_events([0.5, 0.5], [[0], [0], [1]], 0)
        assert not verify_derivation(family, tol=0.0).passed
        assert not verify_derivation(family).passed

        def no_work(*args):
            raise AssertionError("the audit ran")

        monkeypatch.setattr(ExplicitEventFamily, "survivals", no_work)
        with pytest.raises(ValueError, match=r"^tol must be finite and "
                                             r"nonnegative \(got "):
            verify_derivation(family, tol=tol)

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
        assert [(n, m) for n in range(61) for m in range(71)
                if derivation_check_count(n, m) != loop_check_count(n, m)] == []
        # the 3-event family: every claim m >= 2 holds for any 3 events
        assert [derivation_check_count(3, m) for m in (3, 5, 600, 20_000, 60_000)] \
            == [0, 0, 0, 0, 0]

    @pytest.mark.parametrize("n", [0, 1, 5, 40])
    def test_check_count_at_huge_m(self, n):
        """From m = N - 1 on, every family of N events meets the claim,
        so the audit writes no row, and m = 10**12 is counted at once;
        at m = N - 2 some row can fail."""
        counts = {derivation_check_count(n, m)
                  for m in (max(n - 1, 0), n, n + 1, 10 ** 12)}
        assert counts == {0}
        if n >= 2:
            assert derivation_check_count(n, n - 2) == loop_check_count(n, n - 2) > 0

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


@pytest.mark.parametrize("m, d", [(m, d) for m in range(2, 7) for d in range(1, m)])
def test_shift_cover_catches_a_count_off_at_one_gap(m, d):
    """The shift count reads no number of the family, so no audit row
    checks it; ``shift_count_mismatches``, which the partition tests
    run on every N <= 30 and m <= 33, does.  A count that is wrong at a
    single gap fails it."""
    table = block_table(3 * m, m).tolist()
    assert shift_count_mismatches(3 * m, m, table, pair_shift_count) == []
    off = shift_count_mismatches(3 * m, m, table,
                                 lambda i, l, m: pair_shift_count(i, l, m) + (l - i == d))
    assert off and all(l - i == d for i, l in off)


@pytest.mark.parametrize("m, s", [(m, s) for m in range(2, 7) for s in range(m)])
def test_shift_cover_catches_a_layout_off_at_one_shift(m, s):
    """The membership side can fail too: a table whose block boundaries
    sit one index late at shift s alone fails against the true count."""
    table = [[r, *row] for r in range(m) for row in layout(3 * m, m, r + (r == s))]
    assert shift_count_mismatches(3 * m, m, table, pair_shift_count)


@pytest.mark.parametrize("tol", [1e-9, 0.0, 1e300])
def test_every_row_carries_the_audit_tol(tol):
    """Every derivation row compares numbers of the family's queries
    under the caller's tol, so the worst row of a passing report is a
    check of the family, never a row that cannot fail."""
    rng = np.random.default_rng(32)
    families = [random_window_model(rng, min_horizon=2, max_horizon=40)
                for _ in range(20)]
    families += [ExplicitEventFamily(np.full(4, 0.25), rng.random((n, 4)) < 0.4, m)
                 for n, m in zip(rng.integers(1, 14, 20), rng.integers(0, 20, 20))]
    steps = {"residue_independence", "product_chain", "block_independence",
             "parity_product", "block_mass_exponential", "bound_vs_exact"}
    for family in families:
        report = verify_derivation(family, tol=tol)
        if family.m >= family.n_events - 1:  # a claim every family meets
            assert report.checks == ()
            continue
        assert {c.tol for c in report.checks} == {tol}
        assert {c.name.split("[")[0] for c in report.checks} <= steps
        if report.passed and family.m >= 1:
            assert report.worst().name.split("[")[0] in steps



#: The links of the proof that hold for any events and any m, as the
#: names their rows had: 1 - x <= e**-x, the block Bonferroni bound and
#: the parity average.  A false m cannot break them, so no row checks them.
ELEMENTARY = re.compile(
    r"product_chain\[r=\d+,product<=exp\]|block_bonferroni\[|parity_average\[")


def misdeclared_families(count, seed=0):
    """Explicit families whose events are drawn from one to three masks
    and which claim m <= 3, so far events often coincide and the claim
    is false."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, outcomes, m = (int(rng.integers(2, 13)), int(rng.integers(2, 7)),
                          int(rng.integers(0, 4)))
        weights = rng.random(outcomes) + 0.05
        masks = rng.random((int(rng.integers(1, 4)), outcomes)) < rng.uniform(0.1, 0.6)
        yield ExplicitEventFamily(weights / weights.sum(),
                                  masks[rng.integers(0, len(masks), n)], m)


def test_every_step_kind_fails_on_a_misdeclared_family():
    """Every step a report holds (its name with the indices masked) fails
    on some family of a fixed corpus that misdeclares m: the audit holds
    no row that cannot fail."""
    held, failed = set(), set()
    for family in misdeclared_families(40):
        report = verify_derivation(family)
        held |= {re.sub(r"\d+", "#", c.name) for c in report.checks}
        failed |= {re.sub(r"\d+", "#", c.name) for c in report.failures()}
    assert held == failed
    assert {"residue_independence[r=#,(#,#)]", "residue_independence[r=#,(#,#,#)]",
            "product_chain[r=#,joint<=product]", "block_independence[r=#,j=(#,#)]",
            "parity_product[r=#,odd]", "parity_product[r=#,even]",
            "block_mass_exponential[r=#]", "bound_vs_exact[first_order]",
            "bound_vs_exact[second_order]"} == held


def test_no_row_checks_a_link_that_holds_for_every_family():
    """No report holds a row of an elementary link, so none is the worst
    row of a passing report: on these window models a block Bonferroni
    row was, at seeds 5, 22, 23 and 56."""
    for seed in range(60):
        report = verify_derivation(random_window_model(seed, min_horizon=2,
                                                       max_horizon=40))
        assert not [c.name for c in report.checks if ELEMENTARY.match(c.name)]
        if report.passed and report.n_checks:
            assert not ELEMENTARY.match(report.worst().name)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 30),
       m=st.integers(1, 30), window=st.booleans())
def test_block_unions_meet_their_bonferroni_bound(seed, n, m, window):
    """The block Bonferroni bound P(B) >= sum p - sum of pair masses
    holds for any events, so the audit does not check it; what it could
    catch is a union route that disagrees with the pair route.  On every
    interval of ``block_table``, ``union_prob`` meets the bound from
    ``event_prob`` and ``pair_probs`` within 1e-12."""
    if window:  # a window table holds s**(m+1) entries
        family = random_window_model(seed, alphabet_sizes=(2, 3),
                                     dependence_ranges=(min(m, 3),),
                                     min_horizon=n, max_horizon=n)
    else:
        rng = np.random.default_rng(seed)
        weights = rng.random(6) + 0.01
        family = ExplicitEventFamily(weights / weights.sum(),
                                     rng.random((min(n, 12), 6)) < rng.uniform(0.1, 0.7), m)
    n, m = family.n_events, family.m
    pairs = {d: family.pair_probs(d).tolist() for d in range(1, min(m, n))}
    for lo, hi in block_table(n, m)[:, 2:].tolist():
        members = range(lo, hi + 1)
        lower = (sum(event_prob(family, k) for k in members)
                 - sum(pairs[l - i][i - 1] for i, l in itertools.combinations(members, 2)))
        assert union_prob(family, lo, hi) >= lower - 1e-12, (lo, hi)

class TestVerifyReportShape:
    def test_json_roundtrip(self):
        """A real report's JSON rows are its records, field for field, with
        the record fields in order as keys, and come back from JSON text
        unchanged; records are immutable values."""
        from mdepbounds import Check
        report = verify_derivation(consecutive_run_model(9))
        payload = report.to_dict()
        assert all(type(row) is dict for row in payload["checks"])
        assert json.loads(json.dumps(payload)) == payload
        assert Check._fields == ("name", "kind", "lhs", "rhs", "tol", "slack",
                                 "passed")
        assert len(payload["checks"]) == payload["total"] == report.n_checks
        for check, row in zip(report.checks, payload["checks"]):
            assert tuple(row) == Check._fields
            assert tuple(row.values()) == check
            assert hash(Check(**row)) == hash(check)
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

    def test_a_block_has_one_row_count(self):
        """Two value rows under the one-row default index were read as a
        block of two checks whose second row has no name; such a block,
        and columns of unequal lengths, are refused."""
        from mdepbounds import CheckBlock
        with pytest.raises(ValueError, match=r"one row count \(got \[1, 2, 2, 2, 2\]\)"):
            CheckBlock.le("x", [0.0, 1.0], [1.0, 1.0], 0.0)
        with pytest.raises(ValueError, match="one row count"):
            CheckBlock.eq("x[%d]", [], [], 0.0)
        block = CheckBlock.le("x[%d]", [0.0, 1.0], [1.0, 1.0], 0.0, np.array([[1], [2]]))
        with pytest.raises(ValueError, match=r"\(got \[2, 2, 2, 2, 1\]\)"):
            CheckBlock(block.fmt, block.index, block.kind, block.lhs, block.rhs,
                       block.tol, block.slack, block.passed[:1])

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
