"""Acceptance suite: every exit criterion at its stated tolerance.

Each test records a PASS/FAIL line (printed in the terminal summary) and
asserts its criterion.  The shared corpus is 500 seeded random window
models with s in {2,3}, m in {1,2,3}, N <= 200.
"""

import math
import time

import numpy as np
import pytest

from mdepbounds import (
    ExplicitEventFamily,
    build_report,
    build_threshold,
    consecutive_run_model,
    estimate_union,
    event_prob,
    expand_window_model,
    first_order_bound,
    pair_shift_count,
    partial_sum,
    random_window_model,
    second_order_bound,
    t_local,
    union_prob,
    verify_derivation,
    windowed_bound,
)
from mdepbounds import montecarlo

from conftest import record_acceptance
from exhaustive import brute_shift_membership_count

CORPUS_SIZE = 500
SLACK = 1e-9
TIE = 1e-12


@pytest.fixture(scope="module")
def corpus_stats():
    """(rows, elapsed_seconds): exact union and both bounds per model."""
    start = time.perf_counter()
    rows = []
    for i in range(CORPUS_SIZE):
        model = random_window_model(np.random.default_rng(20_000 + i))
        n, m = model.horizon, model.m
        s_n = partial_sum(model, n)
        t = t_local(model)
        exponent1 = s_n / (m + 1)
        bound1 = first_order_bound(s_n, m)
        exponent2, bound2 = second_order_bound(s_n, t, m)
        exact = union_prob(model, 1, n)
        rows.append({
            "s": model.alphabet_size, "m": m, "n": n, "s_n": s_n, "t": t,
            "e1": exponent1, "b1": bound1, "e2": exponent2, "b2": bound2,
            "exact": exact,
        })
    elapsed = time.perf_counter() - start
    return rows, elapsed


def test_first_order_bound_holds_on_corpus(corpus_stats):
    """Exact DP union >= 1 - exp(-S/(m+1)) - 1e-9 on every corpus model."""
    rows, elapsed = corpus_stats
    assert len(rows) >= 500
    combos = {(r["s"], r["m"]) for r in rows}
    assert combos == {(s, m) for s in (2, 3) for m in (1, 2, 3)}
    assert all(r["n"] <= 200 for r in rows)
    worst = min(r["exact"] - r["b1"] for r in rows)
    ok = worst >= -SLACK and elapsed < 60
    record_acceptance(
        "first-order bound validity",
        ok, f"{len(rows)} models, worst slack {worst:.3e}, {elapsed:.1f}s")
    assert worst >= -SLACK
    assert elapsed < 60, f"corpus evaluation took {elapsed:.1f}s"


def test_second_order_bound_holds_on_corpus(corpus_stats):
    """Exact union >= clamped 1 - exp(-(S-T)/2) - 1e-9 on every model."""
    rows, elapsed = corpus_stats
    worst = min(r["exact"] - r["b2"] for r in rows)
    ok = worst >= -SLACK
    record_acceptance(
        "second-order bound validity",
        ok, f"{len(rows)} models, worst slack {worst:.3e} (runtime shared)")
    assert worst >= -SLACK


def test_m1_exponents_coincide(corpus_stats):
    """For every m=1 model: T_0 = 0 exactly and the exponents agree to 1e-12."""
    rows, _ = corpus_stats
    m1_rows = [r for r in rows if r["m"] == 1]
    assert m1_rows
    worst = max(abs(r["e1"] - r["e2"]) for r in m1_rows)
    exact_zero = all(r["t"] == 0.0 for r in m1_rows)
    ok = worst <= TIE and exact_zero
    record_acceptance(
        "m=1 exponent coincidence",
        ok, f"{len(m1_rows)} m=1 models, worst exponent gap {worst:.2e}")
    assert exact_zero
    assert worst <= TIE


def test_sharper_verdict_matches_exponent_comparison(corpus_stats):
    """The sharpness verdict equals the strict exponent comparison on the
    corpus and on 10^4 randomized (s_n, t, m) triples; ties are False."""
    from mdepbounds import second_order_sharper
    rows, _ = corpus_stats
    mismatches = 0
    for r in rows:
        verdict = second_order_sharper(r["s_n"], r["t"], r["m"])
        direct = (r["e2"] - r["e1"]) > TIE
        mismatches += verdict != direct
    rng = np.random.default_rng(424242)
    threshold_disagreements = 0
    for _ in range(10_000):
        s_n = float(rng.uniform(0, 60))
        t = float(rng.uniform(0, 60))
        m = int(rng.integers(1, 11))
        verdict = second_order_sharper(s_n, t, m)
        direct = ((s_n - t) / 2 - s_n / (m + 1)) > TIE
        mismatches += verdict != direct
        # the algebraically rearranged form must agree off the tie zone
        if abs((s_n - t) / 2 - s_n / (m + 1)) > 1e-9:
            threshold_disagreements += \
                verdict != (t < s_n * (m - 1) / (m + 1))
        if verdict:
            assert (s_n - t) / 2 > s_n / (m + 1)
    ok = mismatches == 0 and threshold_disagreements == 0
    record_acceptance(
        "sharpness comparison criterion",
        ok, f"corpus + 10^4 triples, {mismatches} mismatches")
    assert mismatches == 0
    assert threshold_disagreements == 0


def test_windowed_bound_holds(run_model_24):
    """Windowed bound on the run model and 50 randomized models: exact
    union over each window >= 1 - exp(-n/(m+1)) - 1e-9, mass >= n."""
    start = time.perf_counter()
    models = [run_model_24]
    seed = 0
    while len(models) < 51:
        candidate = random_window_model(
            np.random.default_rng(700_000 + seed), min_horizon=20,
            max_horizon=60, table_density=float((seed % 4) * 0.08 + 0.1))
        seed += 1
        if not build_threshold(candidate).is_empty:
            models.append(candidate)
    checked = 0
    worst = math.inf
    for model in models:
        phi = build_threshold(model)
        for i in range(phi.max_n):
            for window_n in range(1, phi.max_n - i + 1):
                wb = windowed_bound(model, phi, i, window_n)
                assert wb.mass >= window_n - SLACK
                exact = union_prob(model, wb.first, wb.last)
                worst = min(worst, exact - wb.bound)
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst >= -SLACK and elapsed < 30
    record_acceptance(
        "windowed bound validity",
        ok, f"51 models, {checked} windows, worst slack {worst:.3e}, "
            f"{elapsed:.1f}s")
    assert checked > 50
    assert worst >= -SLACK
    assert elapsed < 30, f"windowed-bound sweep took {elapsed:.1f}s"


def test_derivation_audit_passes_on_corpus():
    """Every derivation check passes on 100 random models, and the pair
    shift count matches brute-force membership exhaustively."""
    failures = []
    for i in range(100):
        model = random_window_model(np.random.default_rng(900_000 + i),
                                    min_horizon=2, max_horizon=20)
        report = verify_derivation(model)
        if not report.passed:
            failures.append((i, report.worst()))
    mismatch = 0
    for m in range(1, 9):
        for i in range(1, 101):
            for l in range(i + 1, 101):
                expected = m - (l - i) if l - i <= m - 1 else 0
                if pair_shift_count(i, l, m) != expected:
                    mismatch += 1
                if pair_shift_count(i, l, m) != \
                        brute_shift_membership_count(i, l, m):
                    mismatch += 1
    ok = not failures and mismatch == 0
    record_acceptance(
        "derivation audit",
        ok, f"100 models all checks pass, shift count exhaustive to "
            f"n=100 m=8 ({mismatch} mismatches)")
    assert not failures, failures[:3]
    assert mismatch == 0


def test_dp_matches_full_enumeration():
    """DP union equals the expanded explicit family's union to 1e-12 on
    50+ models with s**(N+m) <= 2**20."""
    rng = np.random.default_rng(31337)
    worst = 0.0
    checked = 0
    while checked < 50:
        model = random_window_model(rng, min_horizon=2, max_horizon=17)
        if model.alphabet_size ** (model.horizon + model.m) > 1 << 20:
            continue
        explicit = expand_window_model(model)
        dp_value = union_prob(model, 1, model.horizon)
        enum_value = union_prob(explicit, 1, model.horizon)
        worst = max(worst, abs(dp_value - enum_value))
        checked += 1
    ok = worst <= 1e-12
    record_acceptance(
        "oracle equivalence",
        ok, f"{checked} models, worst |dp - enumeration| = {worst:.2e}")
    assert worst <= 1e-12


def test_mc_calibration_and_determinism(run_model_24, monkeypatch):
    """100 seeds at 10^5 trials: >= 90 Wilson intervals contain the exact
    0.1875; identical seeds are byte-identical at any chunking, set
    through the cell budget (a chunk of two windows at m = 2 takes four
    cells a trial)."""
    start = time.perf_counter()
    exact = union_prob(run_model_24, 1, 2)
    assert exact == pytest.approx(0.1875, abs=1e-12)
    covered = 0
    for seed in range(100):
        est = estimate_union(run_model_24, 1, 2, 100_000, seed)
        if est.ci_low <= exact <= est.ci_high:
            covered += 1
    reference = estimate_union(run_model_24, 1, 2, 100_000, 77)
    identical = True
    for c in (999, 4096, 100_000):
        monkeypatch.setattr(montecarlo, "_CELL_BUDGET", c * (2 + run_model_24.m))
        identical &= estimate_union(run_model_24, 1, 2, 100_000, 77) == reference
    elapsed = time.perf_counter() - start
    ok = covered >= 90 and identical and elapsed < 60
    record_acceptance(
        "Monte Carlo calibration",
        ok, f"{covered}/100 intervals cover exact, chunk-invariant, "
            f"{elapsed:.1f}s")
    assert covered >= 90
    assert identical
    assert elapsed < 60, f"calibration took {elapsed:.1f}s"


def test_degenerate_conventions():
    """N=0 gives zero union and bounds; certain events give union 1 above
    every bound; m=0 reproduces the classical independent bound."""
    empty = consecutive_run_model(0)
    report0 = build_report(empty, exact=True)
    zero_ok = (report0.s_n == 0.0 and report0.thm1_bound == 0.0
               and report0.thm2_bound == 0.0 and report0.exact_union == 0.0)

    certain = ExplicitEventFamily.from_events([1.0], [[0]] * 7, 1)
    report1 = build_report(certain, exact=True)
    certain_ok = (report1.exact_union == 1.0
                  and report1.exact_union >= report1.thm1_bound
                  and report1.exact_union >= report1.thm2_bound)

    indep = consecutive_run_model(12, m=0)
    s_n = partial_sum(indep, 12)
    classical_ok = first_order_bound(s_n, 0) == pytest.approx(
        1.0 - math.exp(-s_n), abs=1e-12)
    exact = union_prob(indep, 1, 12)
    classical_ok = classical_ok and exact >= first_order_bound(s_n, 0) - SLACK

    ok = zero_ok and certain_ok and classical_ok
    record_acceptance(
        "degenerate conventions",
        ok, f"N=0 all-zero: {zero_ok}, certain events: {certain_ok}, "
            f"m=0 classical: {classical_ok}")
    assert zero_ok
    assert certain_ok
    assert classical_ok
