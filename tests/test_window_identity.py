"""Window-model numbers are pinned bit for bit.

``tests/window_reference.json`` holds ``repr`` strings recorded before the
prefix and pair masses moved onto the family classes: ``partial_sum`` at
every u, ``pair_prob(1, j)`` at every j, ``t_local`` and the exact report
of four fixed models.  A window model answers these from stationarity
(u * p rounded once, one pair mass per gap, (N - d) * q rounded once per
gap), so any change of summation order or rounding shows up here.
"""

import json
from pathlib import Path

import pytest

from mdepbounds import (
    WindowModel,
    build_report,
    consecutive_run_model,
    pair_prob,
    partial_sum,
    t_local,
)

REFERENCE = json.loads(
    (Path(__file__).parent / "window_reference.json").read_text())

MODELS = {
    "run_s3_m3_n200": lambda: consecutive_run_model(200, m=3, alphabet_size=3),
    "run_s3_m1_n60": lambda: consecutive_run_model(60, m=1, alphabet_size=3),
    "s2_m2_n150": lambda: WindowModel(
        2, (0.3, 0.7), 2, tuple(i % 3 == 0 for i in range(8)), 150),
    "s3_m2_n97": lambda: WindowModel(
        3, (0.2, 0.5, 0.3), 2, tuple((7 * i) % 5 < 2 for i in range(27)), 97),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_window_numbers_match_recorded_reprs(name):
    model = MODELS[name]()
    expected = REFERENCE[name]
    n = model.horizon
    assert [repr(partial_sum(model, u)) for u in range(n + 1)] \
        == expected["partial_sum"]
    assert [repr(pair_prob(model, 1, j)) for j in range(1, n + 1)] \
        == expected["pair_prob"]
    assert repr(t_local(model)) == expected["t_local"]
    assert repr(build_report(model, exact=True).to_dict()) == expected["report"]
