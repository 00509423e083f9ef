"""JSON model-spec format (the file format the CLI consumes).

Two shapes, discriminated by "type":

  {"type": "explicit", "m": int,
   "outcome_weights": [w0, w1, ...],
   "events": [[outcome indices], ...]}

  {"type": "window", "m": int, "alphabet_size": int,
   "symbol_dist": [p0, ..., p_{s-1}],
   "predicate_table": [bool, ...],      # length alphabet_size**(m+1)
   "horizon": int}

Field names and the predicate index convention are normative: table entry
sum(x_t * s**t) corresponds to the window whose earliest symbol is x_0
(the least-significant digit).  Event indices are 1-based; outcome and
symbol indices are 0-based.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ModelSpecError
from .families import ExplicitEventFamily, Family, WindowModel


def _require(d: dict, field: str, kinds: tuple[type, ...], where: str) -> Any:
    if field not in d:
        raise ModelSpecError(f"{where}: missing field '{field}'")
    value = d[field]
    if kinds == (int,):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ModelSpecError(f"{where}: field '{field}' must be an integer "
                                 f"(got {type(value).__name__})")
    elif not isinstance(value, kinds):
        names = "/".join(k.__name__ for k in kinds)
        raise ModelSpecError(f"{where}: field '{field}' must be {names} "
                             f"(got {type(value).__name__})")
    return value


def _number_list(d: dict, field: str, where: str) -> np.ndarray:
    raw = _require(d, field, (list,), where)
    if set(map(type, raw)) <= {int, float}:  # what JSON numbers parse to
        with contextlib.suppress(OverflowError):  # named by the loop below
            return np.array(raw, dtype=float)
    out = []
    for i, v in enumerate(raw):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ModelSpecError(f"{where}: {field}[{i}] must be a number "
                                 f"(got {type(v).__name__})")
        try:
            out.append(float(v))
        except OverflowError:
            raise ModelSpecError(f"{where}: {field}[{i}] is too large for a "
                                 f"float") from None
    return np.array(out)


def _events(d: dict, where: str) -> list[list[int]]:
    raw = _require(d, "events", (list,), where)
    if (set(map(type, raw)) <= {list}
            and set(map(type, itertools.chain.from_iterable(raw))) <= {int}):
        return raw
    for i, ev in enumerate(raw):
        if not isinstance(ev, list):
            raise ModelSpecError(f"{where}: events[{i}] must be a list "
                                 f"of outcome indices")
        for v in ev:
            if isinstance(v, bool) or not isinstance(v, int):
                raise ModelSpecError(f"{where}: events[{i}] contains a "
                                     f"non-integer outcome index")
    return raw


def parse_model(spec: dict, where: str = "model spec") -> Family:
    """Build a family from a parsed model-spec dict."""
    if not isinstance(spec, dict):
        raise ModelSpecError(f"{where}: top level must be a JSON object")
    kind = _require(spec, "type", (str,), where)
    try:
        if kind == "explicit":
            weights = _number_list(spec, "outcome_weights", where)
            events = _events(spec, where)
            m = _require(spec, "m", (int,), where)
            return ExplicitEventFamily.from_events(weights, events, m)
        if kind == "window":
            table_raw = _require(spec, "predicate_table", (list,), where)
            table = []
            for i, v in enumerate(table_raw):
                if isinstance(v, bool):
                    table.append(v)
                elif v in (0, 1):
                    table.append(bool(v))
                else:
                    raise ModelSpecError(f"{where}: predicate_table[{i}] must "
                                         f"be a boolean")
            return WindowModel(
                alphabet_size=_require(spec, "alphabet_size", (int,), where),
                symbol_dist=tuple(_number_list(spec, "symbol_dist", where)),
                m=_require(spec, "m", (int,), where),
                predicate_table=tuple(table),
                horizon=_require(spec, "horizon", (int,), where),
            )
    except ValueError as exc:
        if isinstance(exc, ModelSpecError):
            raise
        raise ModelSpecError(f"{where}: {exc}") from exc
    raise ModelSpecError(f"{where}: unknown model type {kind!r} "
                         f"(expected 'explicit' or 'window')")


def model_to_dict(family: Family) -> dict:
    """Model-spec dict for a family (inverse of parse_model)."""
    if isinstance(family, WindowModel):
        return {
            "type": "window",
            "m": family.m,
            "alphabet_size": family.alphabet_size,
            "symbol_dist": list(family.symbol_dist),
            "predicate_table": list(family.predicate_table),
            "horizon": family.horizon,
        }
    return {
        "type": "explicit",
        "m": family.m,
        "outcome_weights": family.outcome_weights.tolist(),
        "events": [list(ev) for ev in family.events],
    }


def _read_json(path: str | Path) -> Any:
    """Parsed JSON of a file; errors become ModelSpecError naming it."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ModelSpecError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelSpecError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_model(path: str | Path) -> Family:
    """Load and validate a model-spec JSON file."""
    return parse_model(_read_json(path), where=str(path))


def dump_model(family: Family, path: str | Path) -> None:
    """Write a family to a model-spec JSON file."""
    Path(path).write_text(json.dumps(model_to_dict(family), indent=2) + "\n")
