"""Command-line front end.

Verbs:
  report  MODEL [--exact] [--mc TRIALS SEED]     bound report as JSON
  verify  MODEL [--max-subset K] [--tol X]       derivation + dependence audit
  sweep   MODEL PARAM=LO..HI[:STEP]              CSV over a parameter sweep
  window  MODEL I WINDOW_N                       windowed bound as JSON
  mc      MODEL FIRST LAST TRIALS SEED [--exact] Monte Carlo union estimate

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage, model-spec, cap or out-of-memory error.  Numbers print with 12
significant digits; JSON output is ``json.dumps(payload, indent=2)`` with
every float first rounded to 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import struct
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .bounds import SLACK_TOL, build_report, build_threshold, windowed_bound
from .dependence import check_m_dependence
from .errors import BoundViolationError, CapExceededError, ModelSpecError
from .modelspec import _number_list, _read_json, load_model, parse_model
from .montecarlo import estimate_union
from .oracle import union_prob
from .reports import Check, CheckBlock, VerificationReport
from .verify import verify_derivation

CSV_COLUMNS = ["param", "n", "m", "s_n", "t_local", "thm1_bound", "thm2_bound",
               "thm2_sharper", "exact_union", "mc_estimate", "mc_ci_low",
               "mc_ci_high"]


def _float_text(value: float) -> str:
    """JSON text of ``float(f"{value:.12g}")``, as ``json.dumps`` writes it."""
    rounded = float(f"{value:.12g}")
    return repr(rounded) if math.isfinite(rounded) else json.dumps(rounded)


_DOUBLE = struct.Struct("<d")
_WORD = struct.Struct("<q")


class _FloatText(dict):
    """``_float_text`` memoized for one emission and keyed by the float's
    64-bit pattern, so 0.0, -0.0 and each NaN are formatted once and
    kept apart: verify reports repeat few values (``tol`` on every row,
    one lhs per residue class)."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = _float_text(_DOUBLE.unpack(_WORD.pack(bits))[0])
        return text

    def of(self, value: float) -> str:
        return self[_WORD.unpack(_DOUBLE.pack(value))[0]]

    def column(self, values: np.ndarray) -> Iterator[str]:
        """The text of every entry of a float64 array."""
        return map(self.__getitem__, values.view(np.int64).tolist())


#: Check rows are written from a block's columns this many at a time.
_SLICE_ROWS = 1 << 10

_BOOL_TEXT = ("false", "true")


def _json_pieces(payload: Any) -> Iterator[str]:
    """``json.dumps(payload, indent=2) + "\n"`` with every float rounded
    to 12 significant digits, as a stream of text pieces.  A
    ``VerificationReport`` in the payload is written as its
    ``to_dict()``, with the check rows taken from its blocks' columns."""
    number = _FloatText()

    def check_rows(blocks: Sequence[CheckBlock], pad: str) -> Iterator[str]:
        inner = pad + "  "
        # A row nested `inner` deep with one %s per field.  A block fills
        # in its name format, kind and tol, and leaves %s for the values;
        # its name is JSON-escaped before its index columns fill it in,
        # which is exact since they format to digits.
        row = ("{\n" + ",\n".join(f"{inner}  {encode_basestring_ascii(key)}: %s"
                                  for key in Check._fields) + "\n" + inner + "}")
        head = "[\n" + inner
        for block in blocks:
            template = row % (encode_basestring_ascii(block.fmt),
                              encode_basestring_ascii(block.kind).replace("%", "%%"),
                              "%s", "%s", number.of(block.tol), "%s", "%s")
            for lo in range(0, len(block.passed), _SLICE_ROWS):
                rows = slice(lo, lo + _SLICE_ROWS)
                fields = zip(*block.index[rows].T.tolist(),
                             number.column(block.lhs[rows]),
                             number.column(block.rhs[rows]),
                             number.column(block.slack[rows]),
                             map(_BOOL_TEXT.__getitem__, block.passed[rows].tolist()))
                yield head + (",\n" + inner).join(map(template.__mod__, fields))
                head = ",\n" + inner
        yield "[]" if head[0] == "[" else "\n" + pad + "]"

    def pieces(value: Any, pad: str) -> Iterator[str]:
        if isinstance(value, float):
            yield number.of(value)
        elif isinstance(value, str):
            yield encode_basestring_ascii(value)
        elif isinstance(value, bool):
            yield "true" if value else "false"
        elif isinstance(value, VerificationReport):
            # The totals object, reopened before its closing "\n}" for
            # the "checks" key that ends ``to_dict()``.
            totals = "".join(pieces(value.totals(), pad))
            yield totals[:-len(pad) - 2] + ",\n" + pad + '  "checks": '
            yield from check_rows(value.blocks, pad + "  ")
            yield "\n" + pad + "}"
        elif isinstance(value, dict) and value:
            inner = pad + "  "
            head = "{\n" + inner
            for key, item in value.items():
                yield head + encode_basestring_ascii(key) + ": "
                yield from pieces(item, inner)
                head = ",\n" + inner
            yield "\n" + pad + "}"
        elif isinstance(value, (list, tuple)) and value:
            inner = pad + "  "
            head = "[\n" + inner
            for item in value:
                yield head
                yield from pieces(item, inner)
                head = ",\n" + inner
            yield "\n" + pad + "]"
        else:
            yield json.dumps(value)  # int, None, {} and []; TypeError otherwise

    yield from pieces(payload, "")
    yield "\n"


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


#: Output is written in slices of about this many characters, so a large
#: report never sits in memory as one string.
_SLICE_CHARS = 1 << 16


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    with (open(out_path, "w") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        batch: list[str] = []
        size = 0
        for piece in pieces:
            batch.append(piece)
            size += len(piece)
            if size >= _SLICE_CHARS:
                fh.write("".join(batch))
                batch, size = [], 0
        fh.write("".join(batch))


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit(_json_pieces(payload), out_path)


def _cmd_report(args: argparse.Namespace) -> int:
    report = build_report(load_model(args.model), exact=args.exact,
                          mc=tuple(args.mc) if args.mc else None)
    _emit_json(report.to_dict(), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    family = load_model(args.model)
    derivation = verify_derivation(family, tol=args.tol)
    dependence = check_m_dependence(family, max_subset=args.max_subset,
                                    tol=args.tol)
    passed = derivation.passed and dependence.passed
    _emit_json({"passed": passed, "derivation": derivation,
                "dependence": dependence}, args.out)
    return 0 if passed else 1


_SWEEP_RE = re.compile(
    r"^(?P<name>[A-Za-z_()0-9]+)=(?P<lo>-?[0-9.]+)\.\.(?P<hi>-?[0-9.]+)"
    r"(?::(?P<step>-?[0-9.]+))?$")


#: Refuse a sweep of more rows than this before listing any.  A row
#: costs what one ``report`` on its model costs: about 0.25 ms on a small
#: model and 9 us per event with --exact, so ``horizon=1..10000 --exact``
#: (the cap) runs for minutes, not hours.
MAX_SWEEP_ROWS = 10_000


def _parse_sweep(spec: str) -> tuple[str, Iterable[Any]]:
    """The swept parameter and its values, in order and produced lazily,
    after the row count is checked against ``MAX_SWEEP_ROWS``."""
    match = _SWEEP_RE.match(spec)
    if not match:
        raise ModelSpecError(
            f"invalid sweep spec {spec!r}; expected PARAM=LO..HI[:STEP]")
    name = match["name"]
    prob = re.fullmatch(r"p\(?(\d+)\)?", name)
    if name in ("horizon", "m"):
        lo, hi = int(match["lo"]), int(match["hi"])
        step = int(match["step"]) if match["step"] else 1
        if step < 1:
            raise ModelSpecError("integer sweep step must be >= 1")
        values = range(lo, hi + 1, step)
        _require_sweep_rows(len(values))
        return name, values
    if prob:
        if not match["step"]:
            raise ModelSpecError(
                "probability sweeps need an explicit step, e.g. p1=0.1..0.9:0.1")
        lo, hi, step = float(match["lo"]), float(match["hi"]), float(match["step"])
        if step <= 0:
            raise ModelSpecError("probability sweep step must be positive")
        steps = (hi - lo) / step  # inf for a subnormal step
        count = (0 if hi < lo else math.inf if math.isinf(steps)
                 else int(round(steps)) + 1)
        _require_sweep_rows(count)
        values = (lo + k * step for k in range(count))
        return f"p{prob[1]}", (v for v in values if v <= hi + 1e-12)
    raise ModelSpecError(f"unknown sweep parameter {name!r}; supported: "
                         f"horizon, m, p<digit> (symbol probability)")


def _require_sweep_rows(count: float) -> None:
    if count > MAX_SWEEP_ROWS:
        raise CapExceededError(
            f"the sweep would emit {count} rows, above the sweep cap "
            f"{MAX_SWEEP_ROWS}; narrow the range or raise the step")


def _apply_sweep(template: dict, name: str, value: Any, where: str) -> dict:
    spec = dict(template)
    if name == "horizon":
        if spec.get("type") != "window":
            raise ModelSpecError("horizon sweeps need a window model template")
        spec["horizon"] = value
    elif name == "m":
        if spec.get("type") != "explicit":
            raise ModelSpecError("m sweeps need an explicit model template "
                                 "(a window model's table length depends on m)")
        spec["m"] = value
    else:  # p<digit>
        if spec.get("type") != "window":
            raise ModelSpecError("symbol-probability sweeps need a window "
                                 "model template")
        digit = int(name[1:])
        dist = _number_list(spec, "symbol_dist", where).tolist()
        if not 0 <= digit < len(dist):
            raise ModelSpecError(f"symbol index {digit} outside the alphabet")
        rest = sum(dist) - dist[digit]
        if not 0.0 <= value <= 1.0:
            raise ModelSpecError(f"swept probability {value} outside [0, 1]")
        if rest <= 0:
            raise ModelSpecError("cannot rescale the remaining symbol "
                                 "probabilities: they sum to 0")
        scale = (1.0 - value) / rest
        dist = [p * scale for p in dist]
        dist[digit] = value
        spec["symbol_dist"] = dist
    return spec


def _cmd_sweep(args: argparse.Namespace) -> int:
    template = _read_json(args.model)
    if not isinstance(template, dict):
        raise ModelSpecError(f"{args.model}: top level must be a JSON object")
    name, values = _parse_sweep(args.sweep)
    mc = tuple(args.mc) if args.mc else None
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for value in values:
        where = f"{args.model}[{name}={value}]"
        family = parse_model(_apply_sweep(template, name, value, where), where)
        report = build_report(family, exact=args.exact, mc=mc)
        # Column mc_<field> is that field of the Monte Carlo record; every
        # other column after param is the report field of its name.
        mc_union = report.mc_union._asdict() if report.mc_union else {}
        writer.writerow([_cell(value)] + [
            _cell(mc_union.get(col[3:]) if col.startswith("mc_")
                  else getattr(report, col)) for col in CSV_COLUMNS[1:]])
    _emit([buffer.getvalue()], args.out)
    return 0


def _cmd_window(args: argparse.Namespace) -> int:
    family = load_model(args.model)
    threshold = build_threshold(family)
    result = windowed_bound(family, threshold, args.i, args.window_n)
    exact = union_prob(family, result.first, result.last)
    _emit_json({
        "first": result.first,
        "last": result.last,
        "window_n": result.window_n,
        "m": family.m,
        "bound": result.bound,
        "exact_union": exact,
        "mass": result.mass,
        "mass_required": result.window_n,
        "mass_ok": result.mass >= result.window_n - SLACK_TOL,
    }, args.out)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    family = load_model(args.model)
    est = estimate_union(family, args.first, args.last, args.trials, args.seed)
    payload = {
        "first": args.first, "last": args.last,
        "trials": args.trials, "seed": args.seed,
        "estimate": est.estimate, "ci_low": est.ci_low, "ci_high": est.ci_high,
    }
    if args.exact:
        payload["exact_union"] = union_prob(family, args.first, args.last)
    _emit_json(payload, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdepbounds",
        description="Union lower bounds and exact oracles for m-dependent "
                    "event families")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="model-spec JSON file")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to PATH instead of stdout")

    p_report = sub.add_parser("report", help="bound report for a model")
    add_common(p_report)
    p_report.add_argument("--exact", action="store_true",
                          help="include the exact union probability")
    p_report.add_argument("--mc", nargs=2, type=int, metavar=("TRIALS", "SEED"),
                          help="include a Monte Carlo estimate")
    p_report.set_defaults(func=_cmd_report)

    p_verify = sub.add_parser("verify", help="audit the derivation and the "
                                             "claimed dependence range")
    add_common(p_verify)
    p_verify.add_argument("--max-subset", type=int, default=4, metavar="K",
                          help="largest |I|+|J| for factorization checks "
                               "(default 4)")
    p_verify.add_argument("--tol", type=float, default=1e-9, metavar="X",
                          help="comparison tolerance (default 1e-9)")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="CSV report over a parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("sweep", metavar="PARAM=LO..HI[:STEP]",
                         help="swept parameter: horizon, m, or p<digit>")
    p_sweep.add_argument("--exact", action="store_true",
                         help="include the exact union probability per row")
    p_sweep.add_argument("--mc", nargs=2, type=int, metavar=("TRIALS", "SEED"),
                         help="include a Monte Carlo estimate per row")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_window = sub.add_parser("window", help="windowed rate bound")
    add_common(p_window)
    p_window.add_argument("i", type=int, help="number of leading events to skip")
    p_window.add_argument("window_n", type=int, help="window mass target")
    p_window.set_defaults(func=_cmd_window)

    p_mc = sub.add_parser("mc", help="Monte Carlo union estimate")
    add_common(p_mc)
    p_mc.add_argument("first", type=int)
    p_mc.add_argument("last", type=int)
    p_mc.add_argument("trials", type=int)
    p_mc.add_argument("seed", type=int)
    p_mc.add_argument("--exact", action="store_true",
                      help="include the exact union probability")
    p_mc.set_defaults(func=_cmd_mc)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BoundViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ModelSpecError, CapExceededError, ValueError, IndexError,
            OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
