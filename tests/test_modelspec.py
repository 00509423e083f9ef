"""Model-spec JSON parsing, validation messages, and round trips."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    ExplicitEventFamily,
    WindowModel,
    consecutive_run_model,
    dump_model,
    load_model,
    model_to_dict,
    parse_model,
)
from mdepbounds.errors import ModelSpecError


class TestParseModel:
    def test_window_roundtrip(self, tmp_path):
        model = consecutive_run_model(24)
        path = tmp_path / "w1.json"
        dump_model(model, path)
        assert load_model(path) == model

    def test_explicit_roundtrip(self, tmp_path):
        family = ExplicitEventFamily.from_events(
            [0.25] * 4, [[0, 1], [1, 2]], 1)
        path = tmp_path / "e1.json"
        dump_model(family, path)
        loaded = load_model(path)
        assert isinstance(loaded, ExplicitEventFamily)
        assert loaded.events == family.events
        assert loaded.m == family.m

    def test_predicate_table_accepts_01(self):
        spec = {"type": "window", "m": 0, "alphabet_size": 2,
                "symbol_dist": [0.5, 0.5], "predicate_table": [0, 1],
                "horizon": 3}
        model = parse_model(spec)
        assert model.predicate_table == (False, True)

    def test_unknown_type(self):
        with pytest.raises(ModelSpecError, match="unknown model type"):
            parse_model({"type": "mystery"})

    def test_missing_field_named(self):
        with pytest.raises(ModelSpecError, match="missing field 'horizon'"):
            parse_model({"type": "window", "m": 0, "alphabet_size": 2,
                         "symbol_dist": [0.5, 0.5],
                         "predicate_table": [True, False]})

    def test_wrong_field_type_named(self):
        with pytest.raises(ModelSpecError, match="'m' must be an integer"):
            parse_model({"type": "window", "m": "two", "alphabet_size": 2,
                         "symbol_dist": [0.5, 0.5],
                         "predicate_table": [True, False], "horizon": 1})

    def test_bad_table_entry(self):
        with pytest.raises(ModelSpecError, match=r"predicate_table\[1\]"):
            parse_model({"type": "window", "m": 0, "alphabet_size": 2,
                         "symbol_dist": [0.5, 0.5],
                         "predicate_table": [True, 0.5], "horizon": 1})

    def test_domain_errors_become_spec_errors(self):
        with pytest.raises(ModelSpecError, match="sum to 1"):
            parse_model({"type": "window", "m": 0, "alphabet_size": 2,
                         "symbol_dist": [0.9, 0.6],
                         "predicate_table": [True, False], "horizon": 1})

    def test_decode_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"type": "window",\n  "m": }\n')
        with pytest.raises(ModelSpecError, match="line 2"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelSpecError):
            load_model(tmp_path / "nope.json")


class TestNormativeFieldNames:
    def test_window_dict_fields(self):
        d = model_to_dict(consecutive_run_model(3))
        assert set(d) == {"type", "m", "alphabet_size", "symbol_dist",
                          "predicate_table", "horizon"}

    def test_explicit_dict_fields(self):
        d = model_to_dict(ExplicitEventFamily.from_events([1.0], [[0]], 0))
        assert set(d) == {"type", "m", "outcome_weights", "events"}

    def test_emitted_json_parses_back(self, tmp_path):
        model = consecutive_run_model(5)
        path = tmp_path / "m.json"
        dump_model(model, path)
        raw = json.loads(path.read_text())
        assert raw["type"] == "window"
        assert parse_model(raw) == model


def explicit_spec(weights=(0.5, 0.5), events=([0], [1])):
    return {"type": "explicit", "m": 1, "outcome_weights": list(weights),
            "events": list(events)}


def window_spec(dist):
    return {"type": "window", "m": 0, "alphabet_size": 2, "symbol_dist": dist,
            "predicate_table": [True, False], "horizon": 3}


class TestLoaderMessages:
    """Lists are checked at once; a bad entry still gets the message of
    the element-by-element check."""

    @pytest.mark.parametrize("spec, message", [
        (explicit_spec(weights=[0.5, True]),
         "outcome_weights[1] must be a number (got bool)"),
        (explicit_spec(weights=["0.5", 0.5]),
         "outcome_weights[0] must be a number (got str)"),
        (explicit_spec(events=[[0], 1]),
         "events[1] must be a list of outcome indices"),
        (explicit_spec(events=[[5], "x"]),
         "events[1] must be a list of outcome indices"),
        (explicit_spec(events=[[0], [True]]),
         "events[1] contains a non-integer outcome index"),
        (explicit_spec(events=[[0], [1.0]]),
         "events[1] contains a non-integer outcome index"),
        (explicit_spec(events=[[0], ["1"]]),
         "events[1] contains a non-integer outcome index"),
        (explicit_spec(events=[[0], [-1]]),
         "event 2: outcome index -1 outside [0, 2)"),
        (explicit_spec(events=[[0], [2]]),
         "event 2: outcome index 2 outside [0, 2)"),
        (explicit_spec(events=[[0], [1, 2 ** 70]]),
         "event 2: outcome index 1180591620717411303424 outside [0, 2)"),
        (window_spec([False, 1.0]),
         "symbol_dist[0] must be a number (got bool)"),
        (window_spec([0.5, "0.5"]),
         "symbol_dist[1] must be a number (got str)"),
    ])
    def test_message(self, spec, message):
        with pytest.raises(ModelSpecError) as info:
            parse_model(spec)
        assert str(info.value) == f"model spec: {message}"

    def test_number_too_large_for_a_float(self):
        for spec, field in [
                (explicit_spec(weights=[10 ** 400, 0.5]), "outcome_weights[0]"),
                (window_spec([0.5, -10 ** 400]), "symbol_dist[1]")]:
            with pytest.raises(ModelSpecError) as info:
                parse_model(spec)
            assert str(info.value) == f"model spec: {field} is too large for a float"

    def test_ints_are_numbers(self):
        family = parse_model(explicit_spec(weights=[1, 0], events=[[0, 1], []]))
        assert family.outcome_weights.tolist() == [1.0, 0.0]
        assert family.events == ((0, 1), ())


class TestFromEvents:
    @pytest.mark.parametrize("make", [
        list, tuple, set, np.array, iter, lambda ev: (i for i in ev),
        lambda ev: range(min(ev, default=0), max(ev, default=-1) + 1, 3),
        lambda ev: [float(i) for i in ev], lambda ev: [str(i) for i in ev],
    ])
    def test_any_iterable_gives_the_same_masks(self, make):
        events = [[3, 0], [], [1]]
        family = ExplicitEventFamily.from_events([0.25] * 4, [make(ev) for ev in events], 1)
        assert family.events == ((0, 3), (), (1,))

    @pytest.mark.parametrize("event, error, message", [
        ([5, None], ValueError, "event 1: outcome index 5 outside [0, 2)"),
        ([None, 5], TypeError, "int() argument must be"),
        ([1, -3], ValueError, "event 1: outcome index -3 outside [0, 2)"),
        ([2 ** 64], ValueError, "event 1: outcome index 18446744073709551616 outside"),
        ([[1]], TypeError, "int() argument must be"),
    ])
    def test_first_bad_index_raises(self, event, error, message):
        with pytest.raises(error) as info:
            ExplicitEventFamily.from_events([0.5, 0.5], [event], 0)
        assert str(info.value).startswith(message)


@st.composite
def unit_laws(draw, min_size=1, max_size=64):
    """A law divided by its own total, as a caller normalizes it."""
    weights = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=min_size,
                                     max_size=max_size)))
    return weights / weights.sum()


class TestUnitMassIsIdempotent:
    """A law already normalized up to rounding is stored as given, so a
    family rebuilt from its own fields, or dumped and loaded, is equal."""

    @settings(max_examples=300, deadline=None)
    @given(law=unit_laws(min_size=2, max_size=6), data=st.data())
    def test_window_models_round_trip(self, law, data):
        s = len(law)
        table = data.draw(st.lists(st.booleans(), min_size=s, max_size=s))
        model = WindowModel(s, tuple(law.tolist()), 0, tuple(table), 5)
        assert parse_model(model_to_dict(model)) == model
        assert dataclasses.replace(model, horizon=model.horizon) == model

    @settings(max_examples=300, deadline=None)
    @given(law=unit_laws(), data=st.data())
    def test_explicit_families_round_trip(self, law, data):
        masks = np.array(data.draw(st.lists(st.booleans(), min_size=2 * law.size,
                                            max_size=2 * law.size))).reshape(2, -1)
        family = ExplicitEventFamily(law, masks, 1)
        for rebuilt in (parse_model(model_to_dict(family)),
                        ExplicitEventFamily(family.outcome_weights, masks, 1)):
            assert rebuilt.outcome_weights.tobytes() == family.outcome_weights.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(law=unit_laws())
    def test_normalized_laws_are_stored_as_given(self, law):
        model = WindowModel(law.size + 1, (*law.tolist(), 0.0), 0,
                            (False,) * (law.size + 1), 1)
        assert model.symbol_dist[:-1] == tuple(law.tolist())
        family = ExplicitEventFamily(law, np.ones((1, law.size), dtype=bool), 0)
        assert family.outcome_weights.tobytes() == law.tobytes()

    def test_a_law_off_by_more_than_rounding_is_divided(self):
        dist = (0.25, 0.25, 0.5 + 1e-12)
        divided = tuple(p / sum(dist) for p in dist)
        assert WindowModel(3, dist, 0, (True, False, False), 3).symbol_dist == divided
        family = ExplicitEventFamily(dist, [[True, False, False]], 0)
        assert tuple(family.outcome_weights.tolist()) == divided
