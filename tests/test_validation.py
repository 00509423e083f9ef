"""Argument validation of the library's public constructors and functions:
each refusal raises its own exception type with its exact message."""

import math

import numpy as np
import pytest

from mdepbounds import (
    ExplicitEventFamily,
    ModelSpecError,
    WindowModel,
    build_threshold,
    check_m_dependence,
    consecutive_run_model,
    first_order_bound,
    pair_shift_count,
    parse_model,
    partial_sum,
    pattern_distribution,
    residue_classes,
    second_order_bound,
    second_order_sharper,
    shifted_blocks,
    windowed_bound,
)
from mdepbounds import families

FAIR = (0.5, 0.5)
RUN = consecutive_run_model(12, m=2)


def coin_events(weights=np.array(FAIR), masks=np.zeros((1, 2), bool), m=0):
    return ExplicitEventFamily(weights, masks, m)


@pytest.mark.parametrize("build, error, message", [
    (lambda: WindowModel(1, (1.0,), 0, (True,), 3), ValueError,
     "alphabet_size must be an integer >= 2"),
    (lambda: WindowModel(2, FAIR, 0, (True, False), -1), ValueError,
     "horizon must be a nonnegative integer"),
    (lambda: WindowModel(2, (1.0,), 0, (True, False), 3), ValueError,
     "symbol_dist must have length 2 (got 1)"),
    (lambda: WindowModel(2, (1.5, -0.5), 0, (True, False), 3), ValueError,
     "symbol_dist entries must be finite and nonnegative"),
    (lambda: WindowModel(2, (math.inf, 0.5), 0, (True, False), 3), ValueError,
     "symbol_dist entries must be finite and nonnegative"),
    (lambda: coin_events(weights=np.array([FAIR])), ValueError,
     "outcome_weights must be a one-dimensional sequence"),
    (lambda: coin_events(weights=np.array([]), masks=np.zeros((1, 0), bool)),
     ValueError, "outcome space must contain at least one outcome"),
    (lambda: coin_events(masks=np.zeros((1, 3), bool)), ValueError,
     "event_masks must have shape (n_events, n_outcomes)"),
    (lambda: coin_events(m=-1), ValueError, "m must be a nonnegative integer"),
    (lambda: first_order_bound(1.0, -1), ValueError, "m must be nonnegative"),
    (lambda: second_order_bound(-1.0, 0.0, 1), ValueError,
     "total event mass must be nonnegative (got -1.0)"),
    (lambda: second_order_bound(1.0, -0.5, 1), ValueError,
     "local pair mass must be nonnegative (got -0.5)"),
    (lambda: second_order_sharper(1.0, 0.0, 0), ValueError,
     "the sharpness comparison requires m >= 1"),
    (lambda: windowed_bound(RUN, build_threshold(RUN), -1, 2), ValueError,
     "i must be nonnegative"),
    (lambda: windowed_bound(RUN, build_threshold(RUN), 0, 0), ValueError,
     "window_n must be >= 1"),
    (lambda: residue_classes(-1, 2), ValueError, "n and m must be nonnegative"),
    (lambda: shifted_blocks(-1, 2, 0), ValueError, "n must be nonnegative"),
    (lambda: pair_shift_count(1, 2, 0), ValueError,
     "pair_shift_count requires m >= 1"),
    (lambda: check_m_dependence(RUN, -1), ValueError, "m must be nonnegative"),
    (lambda: parse_model([]), ModelSpecError,
     "model spec: top level must be a JSON object"),
    (lambda: parse_model({"type": 3}), ModelSpecError,
     "model spec: field 'type' must be str (got int)"),
], ids=["window-s-below-2", "window-negative-horizon", "window-dist-length",
        "window-negative-entry", "window-infinite-entry", "explicit-2d-weights",
        "explicit-no-outcomes", "explicit-mask-shape", "explicit-negative-m",
        "first-order-negative-m", "second-order-negative-s",
        "second-order-negative-t", "sharper-m0", "windowed-negative-i",
        "windowed-empty-window", "residue-negative-n", "blocks-negative-n",
        "pair-shift-m0", "audit-negative-m", "parse-list", "parse-type-int"])
def test_refusal_message(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_explicit_repr_names_the_sizes_only():
    family = ExplicitEventFamily.from_events(list(FAIR), [[0], [1], [0]], 1)
    assert repr(family) == "ExplicitEventFamily(n_events=3, n_outcomes=2, m=1)"


def test_empty_pattern_is_the_sure_event():
    assert pattern_distribution(RUN, ()).tolist() == [1.0]


@pytest.mark.parametrize("family", [
    RUN, ExplicitEventFamily.from_events([0.25] * 4, [[0, 1], [1, 2], []], 1)],
    ids=["window", "explicit"])
def test_total_mass_is_the_full_prefix(family):
    assert families.total_mass(family) == partial_sum(family, family.n_events)
    assert families.total_mass(family) == pytest.approx(
        float(np.sum(family.pair_probs(0))), abs=1e-15)
