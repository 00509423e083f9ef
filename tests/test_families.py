"""Elementary probability queries on both family representations."""

import math
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdepbounds
from mdepbounds import (
    ExplicitEventFamily,
    WindowModel,
    consecutive_run_model,
    event_prob,
    expand_window_model,
    pair_prob,
    partial_sum,
    random_window_model,
    t_local,
    union_prob,
)
from mdepbounds.errors import CapExceededError

from exhaustive import brute_event_prob, brute_pair_prob


def quarters_family(m=1):
    """Four equal outcomes; A_1 = {0,1}, A_2 = {1,2}."""
    return ExplicitEventFamily.from_events(
        [0.25, 0.25, 0.25, 0.25], [[0, 1], [1, 2]], m)


class TestEventProb:
    def test_run_model_single_event(self, run_model_24):
        """One of the 8 fair windows fires: brute force gives (1/2)**3."""
        assert brute_event_prob(run_model_24) == pytest.approx(0.125, abs=1e-15)
        assert event_prob(run_model_24, 1) == pytest.approx(0.125, abs=1e-12)
        assert event_prob(run_model_24, 17) == pytest.approx(0.125, abs=1e-12)

    def test_explicit_half(self):
        assert event_prob(quarters_family(), 1) == pytest.approx(0.5, abs=1e-12)

    def test_empty_event_is_zero(self):
        family = ExplicitEventFamily.from_events([0.5, 0.5], [[]], 0)
        assert event_prob(family, 1) == 0.0

    def test_index_out_of_range(self, run_model_24):
        with pytest.raises(IndexError):
            event_prob(run_model_24, 0)
        with pytest.raises(IndexError):
            event_prob(run_model_24, 25)


class TestPairProb:
    def test_disjoint_windows_factorize_exactly(self, run_model_24):
        assert pair_prob(run_model_24, 1, 4) == 0.125 ** 2

    def test_adjacent_windows(self, run_model_24):
        """16 length-4 strings; only 1111 fires both windows."""
        assert brute_pair_prob(run_model_24, 1, 2) == pytest.approx(
            0.0625, abs=1e-15)
        assert pair_prob(run_model_24, 1, 2) == pytest.approx(0.0625, abs=1e-12)

    def test_same_index_is_event_prob(self, run_model_24):
        assert pair_prob(run_model_24, 5, 5) == event_prob(run_model_24, 5)

    def test_pair_bounded_by_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            model = random_window_model(rng, max_horizon=12)
            for i in range(1, model.horizon + 1):
                for j in range(i, model.horizon + 1):
                    p = pair_prob(model, i, j)
                    assert p <= min(event_prob(model, i),
                                    event_prob(model, j)) + 1e-12

    def test_matches_brute_force_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = random_window_model(rng, max_horizon=8, min_horizon=2)
            for j in range(2, model.horizon + 1):
                assert pair_prob(model, 1, j) == pytest.approx(
                    brute_pair_prob(model, 1, j), abs=1e-12)

    def test_gap_beyond_m_is_exact_product(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = random_window_model(rng, min_horizon=6, max_horizon=12)
            p1 = event_prob(model, 1)
            for j in range(model.m + 2, model.horizon + 1):
                assert pair_prob(model, 1, j) == p1 * p1


class TestPartialSum:
    def test_run_model_total(self, run_model_24):
        assert partial_sum(run_model_24, 24) == pytest.approx(3.0, abs=1e-12)

    def test_empty_prefix(self, run_model_24):
        assert partial_sum(run_model_24, 0) == 0.0

    def test_explicit_direct_addition(self):
        family = ExplicitEventFamily.from_events(
            [0.25, 0.25, 0.25, 0.25], [[0, 1], [0]], 1)
        assert partial_sum(family, 2) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("family", [
        random_window_model(31, min_horizon=60, max_horizon=60),
        ExplicitEventFamily(np.full(16, 1 / 16),
                            np.random.default_rng(31).random((30, 16)) < 0.3, 2)],
        ids=["window", "explicit"])
    def test_prefix_mass_of_an_index_array_is_each_partial_sum(self, family):
        """An index array gives, entry by entry, the bits that
        ``partial_sum`` gives for each index, in any order and with
        repeats; one index gives a float64 scalar."""
        n = family.n_events
        upto = np.arange(n + 1)
        masses = family.prefix_mass(upto)
        assert masses.dtype == np.float64 and masses.shape == (n + 1,)
        assert masses.tobytes() == np.array(
            [partial_sum(family, u) for u in range(n + 1)]).tobytes()
        picks = upto[::-1].repeat(2)
        assert family.prefix_mass(picks).tobytes() == masses[picks].tobytes()
        assert type(family.prefix_mass(n)) is np.float64
        assert family.prefix_mass(n) == partial_sum(family, n)

    def test_nondecreasing(self):
        rng = np.random.default_rng(23)
        model = random_window_model(rng, max_horizon=40)
        sums = [partial_sum(model, u) for u in range(model.horizon + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(sums, sums[1:]))

    def test_out_of_range(self, run_model_24):
        with pytest.raises(ValueError):
            partial_sum(run_model_24, 25)
        with pytest.raises(ValueError):
            partial_sum(run_model_24, -1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(0, 3000),
           big=st.integers(0, 2**53))
    def test_window_prefix_mass_is_the_prefix_vector(self, seed, horizon, big):
        """A window model's ``u * p``, read without the vector, has the
        bits of ``np.arange(N + 1) * p`` at every u, and of the one
        product at any u up to 2**53."""
        model = random_window_model(seed, min_horizon=horizon,
                                    max_horizon=horizon)
        p = model.with_horizon(1).pair_probs(0)[0]
        want = (np.arange(horizon + 1) * p).tolist()
        assert [partial_sum(model, u) for u in range(horizon + 1)] == want
        assert model.prefix_mass(np.arange(horizon + 1)).tolist() == want
        assert model.prefix_mass(big) == (np.arange(big, big + 1) * p)[0]


class TestTLocal:
    def test_m1_is_exactly_zero(self):
        model = consecutive_run_model(30, m=1)
        assert t_local(model) == 0.0

    def test_run_model_adjacent_pairs(self, run_model_24):
        """23 adjacent pairs, each 0.0625 by brute force."""
        expected = 23 * brute_pair_prob(run_model_24, 1, 2)
        assert expected == pytest.approx(1.4375, abs=1e-15)
        assert t_local(run_model_24) == pytest.approx(1.4375, abs=1e-12)

    def test_single_event_family(self):
        model = consecutive_run_model(1, m=3)
        assert t_local(model) == 0.0

    def test_rejects_m0(self):
        model = consecutive_run_model(5, m=0)
        with pytest.raises(ValueError):
            t_local(model)

    def test_matches_pair_sum_on_explicit_families(self):
        family = ExplicitEventFamily.from_events(
            [0.2, 0.3, 0.1, 0.4], [[0, 1], [1, 2], [0], [2, 3]], 3)
        expected = sum(pair_prob(family, i, j)
                       for i in range(1, 5) for j in range(i + 1, 5)
                       if j - i <= 2)
        assert t_local(family) == pytest.approx(expected, abs=1e-12)

    def test_pair_mass_is_fsum_of_pair_probs(self):
        """A window model's (N - d) * q is bit-equal to fsum of N - d
        copies of q; an explicit family sums its pair vector."""
        rng = np.random.default_rng(47)
        for _ in range(60):
            model = random_window_model(rng, max_horizon=2000)
            small = random_window_model(rng, max_horizon=8)
            for family in (model, small, expand_window_model(small)):
                n = family.n_events
                for gap in {*range(min(n, family.m + 3)), n - 1}:
                    assert family.pair_mass(gap) \
                        == math.fsum(family.pair_probs(gap))

    def test_window_t_local_cost_does_not_grow_with_n(self, monkeypatch):
        """t_local reads one pair mass per gap, no N-long vector."""
        n = 10 ** 9
        model = consecutive_run_model(n, m=3)
        monkeypatch.setattr(WindowModel, "pair_probs", None)
        assert t_local(model) == (n - 1) * 2.0 ** -5 + (n - 2) * 2.0 ** -6


class TestRepresentationEquivalence:
    def test_expansion_matches_window_queries(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            model = random_window_model(
                rng, alphabet_sizes=(2,), min_horizon=2, max_horizon=9)
            if model.horizon + model.m > 12:
                continue
            explicit = expand_window_model(model)
            for k in range(1, model.horizon + 1):
                assert event_prob(explicit, k) == pytest.approx(
                    event_prob(model, k), abs=1e-12)
            for i in range(1, model.horizon + 1):
                for j in range(i, model.horizon + 1):
                    assert pair_prob(explicit, i, j) == pytest.approx(
                        pair_prob(model, i, j), abs=1e-12)

    def test_expansion_cap(self):
        model = consecutive_run_model(40, m=2)
        with pytest.raises(CapExceededError):
            expand_window_model(model)


class TestValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ExplicitEventFamily.from_events([0.5, 0.4], [[0]], 0)

    def test_weights_renormalized_to_machine_precision(self):
        family = ExplicitEventFamily.from_events(
            [0.5, 0.5 + 5e-10], [[0]], 0)
        assert family.outcome_weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ExplicitEventFamily.from_events([1.5, -0.5], [[0]], 0)

    def test_outcome_index_out_of_range(self):
        with pytest.raises(ValueError):
            ExplicitEventFamily.from_events([1.0], [[1]], 0)

    def test_table_length_must_match(self):
        with pytest.raises(ValueError):
            WindowModel(2, (0.5, 0.5), 2, (True, False), 5)

    def test_table_length_message_names_the_power(self):
        with pytest.raises(ValueError, match=r"length 8 = alphabet_size"):
            WindowModel(2, (0.5, 0.5), 2, (True,) * 9, 5)
        with pytest.raises(ValueError, match=r"length 3\*\*4 = alphabet_size"):
            WindowModel(3, (0.5, 0.5, 0.0), 3, (True,) * 7, 5)

    def test_huge_m_is_refused_without_building_the_power(self):
        """2**(10**12 + 1) would take 125 GB.  The child process caps its
        own address space 256 MiB above what it holds after the import,
        so a regression fails with MemoryError instead of filling the
        machine's memory."""
        pytest.importorskip("resource")
        statm = Path("/proc/self/statm")
        if not statm.exists():
            pytest.skip("needs /proc/self/statm to size the cap")
        child = textwrap.dedent("""
            import os, resource
            from mdepbounds import WindowModel
            with open("/proc/self/statm") as fh:
                held = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            cap = held + (256 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            try:
                WindowModel(2, (0.5, 0.5), 10 ** 12, (True, False), 1)
            except ValueError as exc:
                print(exc)
        """)
        src = str(Path(mdepbounds.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", child], cwd=src,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout == ("predicate_table must have length "
                                 "2**1000000000001 = alphabet_size**(m+1) "
                                 "(got 2)\n")

    def test_symbol_dist_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WindowModel(2, (0.6, 0.6), 0, (True, False), 5)

    def test_negative_m_rejected(self):
        """Every negative m alike: m = -2 made s**(m+1) a float, and the
        run table's length then raised TypeError."""
        for m in (-1, -2, -10):
            with pytest.raises(ValueError, match="^m must be a nonnegative integer$"):
                consecutive_run_model(5, m=m)

    @pytest.mark.parametrize("m, s, size", [(16, 2, "2**17"), (40, 2, "2**41"),
                                            (100, 2, "2**101"),
                                            (1, 257, "257**2")])
    def test_run_table_above_cap_refused_before_building(self, m, s, size):
        """s**(m+1) entries above MAX_WINDOW_TABLE are refused on the
        counts alone; m = 40 raised MemoryError while building the list."""
        from mdepbounds.families import MAX_WINDOW_TABLE
        with pytest.raises(CapExceededError,
                           match=rf"^predicate table of size {re.escape(size)} "
                                 rf"exceeds the verifier cap {MAX_WINDOW_TABLE}$"):
            consecutive_run_model(5, m=m, alphabet_size=s)
        assert len(consecutive_run_model(5, m=15).predicate_table) == MAX_WINDOW_TABLE

    def test_events_roundtrip(self):
        family = quarters_family()
        assert family.events == ((0, 1), (1, 2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 10), seed=st.integers(0, 10_000))
def test_union_never_below_any_single_event(n, seed):
    """P(union) >= P(A_k): basic sanity tying events to the oracle."""
    model = random_window_model(seed, min_horizon=max(n, 1),
                                max_horizon=max(n, 1))
    if n == 0:
        return
    u = union_prob(model, 1, n)
    assert u >= event_prob(model, 1) - 1e-12
