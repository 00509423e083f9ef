"""Exact oracle: DP vs enumeration, algebraic identities, monotonicity."""

import numpy as np
import pytest

from mdepbounds import (
    ExplicitEventFamily,
    block_event_prob,
    complement_intersection_prob,
    complement_intersection_probs,
    consecutive_run_model,
    event_prob,
    expand_window_model,
    pair_prob,
    random_window_model,
    union_prob,
)

from exhaustive import brute_complement_prob, brute_union_prob


class TestUnionProb:
    def test_single_event(self, run_model_24):
        assert union_prob(run_model_24, 1, 1) == pytest.approx(0.125, abs=1e-12)

    def test_two_events(self, run_model_24):
        """3 of the 16 length-4 fair strings contain a run at position 1 or 2."""
        assert brute_union_prob(run_model_24, 1, 2) == pytest.approx(
            0.1875, abs=1e-15)
        assert union_prob(run_model_24, 1, 2) == pytest.approx(0.1875, abs=1e-12)

    def test_empty_interval(self, run_model_24):
        assert union_prob(run_model_24, 3, 2) == 0.0

    def test_out_of_range(self, run_model_24):
        with pytest.raises(IndexError):
            union_prob(run_model_24, 0, 3)
        with pytest.raises(IndexError):
            union_prob(run_model_24, 1, 25)

    def test_monotone_in_range(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            model = random_window_model(rng, max_horizon=30)
            values = [union_prob(model, 1, b)
                      for b in range(1, model.horizon + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_inclusion_exclusion_n2(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            model = random_window_model(rng, min_horizon=2, max_horizon=2)
            lhs = union_prob(model, 1, 2)
            rhs = (event_prob(model, 1) + event_prob(model, 2)
                   - pair_prob(model, 1, 2))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_interior_ranges_match_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            model = random_window_model(rng, min_horizon=5, max_horizon=8)
            if model.alphabet_size ** (model.horizon + model.m) > 1 << 16:
                continue
            for a in (1, 2, 3):
                for b in range(a, model.horizon + 1):
                    assert union_prob(model, a, b) == pytest.approx(
                        brute_union_prob(model, a, b), abs=1e-12)


class TestComplementIntersection:
    def test_empty_set_is_one(self, run_model_24):
        assert complement_intersection_prob(run_model_24, ()) == 1.0

    def test_explicit_two_events(self):
        """Only outcome 3 avoids both A_1 = {0,1} and A_2 = {1,2}."""
        family = ExplicitEventFamily.from_events(
            [0.25] * 4, [[0, 1], [1, 2]], 1)
        assert complement_intersection_prob(family, (1, 2)) == pytest.approx(
            0.25, abs=1e-12)

    def test_single_window(self, run_model_24):
        assert complement_intersection_prob(run_model_24, (1,)) == \
            pytest.approx(0.875, abs=1e-12)

    def test_noncontiguous_sets_match_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(8):
            model = random_window_model(rng, min_horizon=6, max_horizon=9)
            if model.alphabet_size ** (model.horizon + model.m) > 1 << 16:
                continue
            for indices in [(1, 4), (2, 5, 6), (1, 3, model.horizon)]:
                if max(indices) > model.horizon:
                    continue
                assert complement_intersection_prob(model, indices) == \
                    pytest.approx(brute_complement_prob(model, indices),
                                  abs=1e-12)

    def test_duplicate_indices_collapse(self, run_model_24):
        assert complement_intersection_prob(run_model_24, (3, 3, 3)) == \
            complement_intersection_prob(run_model_24, (3,))

    @pytest.mark.parametrize("explicit", [False, True])
    def test_rows_match_one_query_each(self, explicit):
        """Rows of one size, some sharing clamped gaps at other starts,
        give the scalar answer bit for bit on both representations, and
        the scalar query keeps its contract on both."""
        model = random_window_model(29, alphabet_sizes=(2,), dependence_ranges=(2,),
                                    min_horizon=9, max_horizon=9)
        family = expand_window_model(model) if explicit else model
        for rows in ([[1], [5], [9]], [[1, 2], [4, 5], [1, 9], [3, 7], [2, 3]],
                     [[1, 2, 6], [4, 5, 9], [1, 4, 8], [2, 3, 4]]):
            assert complement_intersection_probs(family, rows).tolist() == \
                [complement_intersection_prob(family, row) for row in rows]
        assert complement_intersection_probs(family, np.zeros((0, 2), int)).shape == (0,)

        assert complement_intersection_prob(family, ()) == 1.0
        single = complement_intersection_prob(family, [2, 6])
        assert type(single) is float
        assert complement_intersection_prob(family, iter((6, 2, 6, 2, 2))) == single
        for indices, span in [((3, 0), "0..3"), ((10, 4, 4), "4..10")]:
            with pytest.raises(IndexError, match=rf"^indices {span} outside "
                                                 rf"the event range 1\.\.9$"):
                complement_intersection_prob(family, indices)

    def test_rows_are_validated(self, run_model_24):
        with pytest.raises(ValueError, match="strictly increasing"):
            complement_intersection_probs(run_model_24, [[1, 2], [3, 3]])
        with pytest.raises(ValueError, match="shape"):
            complement_intersection_probs(run_model_24, [1, 2])
        with pytest.raises(IndexError):
            complement_intersection_probs(run_model_24, [[1, 2], [20, 25]])
        with pytest.raises(IndexError):
            complement_intersection_probs(run_model_24, [[0, 2]])

    @pytest.mark.parametrize("explicit", [False, True])
    def test_indices_beyond_int64_are_out_of_range(self, explicit):
        model = consecutive_run_model(10)
        family = expand_window_model(model) if explicit else model
        big = 2 ** 70
        for indices, span in [([big], f"{big}..{big}"), ([3, -big], f"-{big}..3")]:
            with pytest.raises(IndexError, match=rf"^indices {span} outside "
                                                 rf"the event range 1\.\.10$"):
                complement_intersection_prob(family, indices)
        for rows, span in [([[1, 2], [3, big]], f"1..{big}"),
                           (np.array([[1, 2 ** 64]], dtype=object), f"1..{2 ** 64}")]:
            with pytest.raises(IndexError, match=rf"^indices {span} outside "
                                                 rf"the event range 1\.\.10$"):
                complement_intersection_probs(family, rows)


class TestAlgebraicIdentity:
    def test_union_equals_one_minus_complement(self):
        """Exact identity between the two oracle entry points."""
        rng = np.random.default_rng(59)
        for _ in range(15):
            model = random_window_model(rng, max_horizon=40)
            n = model.horizon
            for a, b in [(1, n), (1, max(1, n // 2)), (max(1, n // 2), n)]:
                u = union_prob(model, a, b)
                c = complement_intersection_prob(model, range(a, b + 1))
                assert u == pytest.approx(1.0 - c, abs=1e-12)

    def test_identity_on_explicit_families(self):
        family = ExplicitEventFamily.from_events(
            [0.1, 0.2, 0.3, 0.4], [[0], [1, 2], [2, 3]], 1)
        u = union_prob(family, 1, 3)
        c = complement_intersection_prob(family, (1, 2, 3))
        assert u == pytest.approx(1.0 - c, abs=1e-12)


class TestBlockEventProb:
    def test_single_index_block(self, run_model_24):
        assert block_event_prob(run_model_24, 4, 4) == event_prob(run_model_24, 4)

    def test_two_index_block(self, run_model_24):
        assert block_event_prob(run_model_24, 1, 2) == pytest.approx(
            0.1875, abs=1e-12)

    def test_empty_block(self, run_model_24):
        assert block_event_prob(run_model_24, 5, 4) == 0.0


class TestConcurrentReads:
    def test_same_answers_from_many_threads(self, run_model_24):
        """Families are immutable and queries pure; a thread pool hitting
        one model must agree with the serial answers."""
        from concurrent.futures import ThreadPoolExecutor
        spans = [(a, b) for a in range(1, 25) for b in range(a, 25, 5)]
        serial = [union_prob(run_model_24, a, b) for a, b in spans]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda span: union_prob(run_model_24, *span), spans))
        assert threaded == serial


class TestCrossRepresentation:
    def test_dp_equals_expanded_explicit_union(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 12:
            model = random_window_model(rng, alphabet_sizes=(2, 3),
                                        min_horizon=2, max_horizon=10)
            if model.alphabet_size ** (model.horizon + model.m) > 1 << 20:
                continue
            explicit = expand_window_model(model)
            n = model.horizon
            assert union_prob(model, 1, n) == pytest.approx(
                union_prob(explicit, 1, n), abs=1e-12)
            checked += 1
