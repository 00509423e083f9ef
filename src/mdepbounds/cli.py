"""Command-line front end.

Verbs (``--out PATH`` writes to PATH instead of stdout):
  report  MODEL [--exact] [--mc TRIALS SEED] [--out PATH]
          bound report as JSON
  verify  MODEL [--max-subset K] [--tol X] [--out PATH]
          derivation + dependence audit
  sweep   MODEL PARAM=LO..HI[:STEP] [--exact] [--mc TRIALS SEED] [--out PATH]
          CSV over a parameter sweep
  window  MODEL I WINDOW_N [--out PATH]
          windowed bound as JSON
  mc      MODEL FIRST LAST TRIALS SEED [--exact] [--out PATH]
          Monte Carlo union estimate

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage, model-spec, cap or out-of-memory error.  Numbers print with 12
significant digits; JSON output is ``json.dumps(payload, indent=2)`` with
every float first rounded to 12 significant digits.

``main`` builds its argument parser once per process, so in-process
callers pay for it on the first call only, and runs verb V's handler
``_cmd_V``, looked up by name on each call.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import re
import secrets
import struct
import sys
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from .bounds import SLACK_TOL, build_report, build_threshold, windowed_bound
from .dependence import check_m_dependence
from .errors import BoundViolationError, CapExceededError, ModelSpecError
from .modelspec import _number_list, _read_json, load_model, parse_model
from . import montecarlo
from .montecarlo import estimate_union
from .oracle import union_prob
from .reports import Check, CheckBlock, VerificationReport
from .verify import verify_derivation

CSV_COLUMNS = ["param", "n", "m", "s_n", "t_local", "thm1_bound", "thm2_bound",
               "thm2_sharper", "exact_union", "mc_estimate", "mc_ci_low",
               "mc_ci_high"]


def _round12(value: float) -> float:
    """``value`` rounded to the 12 significant digits the output prints."""
    return float(f"{value:.12g}")


def _float_text(value: float) -> str:
    """JSON text of ``_round12(value)``, as ``json.dumps`` writes it."""
    rounded = _round12(value)
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
    ``to_dict()``.  ``json.dumps`` writes the grammar, once, of a plain
    copy of the payload in which each report is its ``totals()`` with a
    marker string for "checks"; only the check rows, the audits' O(N^2)
    part, are written here from the blocks' columns, one piece per slice
    of rows, in place of each marker.  The marker is a random token per
    call, so no text in the payload can forge one."""
    number = _FloatText()

    def check_rows(blocks: Sequence[CheckBlock], pad: str) -> Iterator[str]:
        inner = pad + "  "
        sep = ",\n" + inner
        # A row nested `inner` deep with one %s per field.  A slice fills
        # in its block's name format, kind and tol and the text of each
        # value column that is constant on the slice, and leaves %s for
        # the others; the name is JSON-escaped before the index columns
        # fill it in, which is exact since they format to digits.
        row = ("{\n" + ",\n".join(f"{inner}  {encode_basestring_ascii(key)}: %s"
                                  for key in Check._fields) + "\n" + inner + "}")
        head = "[\n" + inner
        for block in blocks:
            name = encode_basestring_ascii(block.fmt)
            kind = encode_basestring_ascii(block.kind).replace("%", "%%")
            tol = number.of(block.tol)
            for lo in range(0, len(block.passed), _SLICE_ROWS):
                rows = slice(lo, lo + _SLICE_ROWS)
                columns = block.index[rows].T.tolist()
                texts = []
                for values in (block.lhs[rows], block.rhs[rows], block.slack[rows]):
                    # Constant on its bits, so 0.0 and -0.0 stay apart.
                    bits = values.view(np.int64)
                    if (bits == bits[0]).all():
                        texts.append(number[int(bits[0])])
                    else:
                        texts.append("%s")
                        columns.append(number.column(values))
                passed = block.passed[rows]
                if passed.all() or not passed.any():
                    texts.append(_BOOL_TEXT[bool(passed[0])])
                else:
                    texts.append("%s")
                    columns.append(map(_BOOL_TEXT.__getitem__, passed.tolist()))
                lhs, rhs, slack, ok = texts
                template = row % (name, kind, lhs, rhs, tol, slack, ok)
                # One flat argument list, row-major over the %-fields.
                count, width = len(passed), len(columns)
                fields = [None] * (count * width)
                for at, column in enumerate(columns):
                    fields[at::width] = column
                yield head + sep.join([template] * count) % tuple(fields)
                head = sep
        yield "[]" if head[0] == "[" else "\n" + pad + "]"

    marker = secrets.token_hex(16)

    # `reports` is passed down, not closed over: this recursive closure
    # is a reference cycle, which would keep every report's arrays alive
    # until the cycle collector runs, and a long run's memory growing.
    def plain(value: Any, pad: str, reports: list) -> Any:
        if isinstance(value, float):
            return _round12(value)
        if isinstance(value, VerificationReport):
            reports.append((value.blocks, pad + "  "))
            return {**value.totals(), "checks": marker}
        if isinstance(value, dict):
            return {key: plain(item, pad + "  ", reports)
                    for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item, pad + "  ", reports) for item in value]
        return value

    reports: list[tuple[Sequence[CheckBlock], str]] = []
    text = json.dumps(plain(payload, "", reports), indent=2).split(f'"{marker}"')
    yield text[0]
    for (blocks, pad), tail in zip(reports, text[1:]):
        yield from check_rows(blocks, pad)
        yield tail
    yield "\n"


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _emit(pieces: Iterable[str], out_path: str | None) -> None:
    with (open(out_path, "w") if out_path
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(pieces)


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
#: costs what one ``report`` on its model costs, about 0.25 ms on a small
#: model.
MAX_SWEEP_ROWS = 10_000

#: Refuse a sweep whose --exact rows would cover more events than this
#: before computing any.  The rows of a horizon sweep share one survival
#: curve, so they cover its last N; the rows of any other sweep each
#: cover their own N.  An event costs one clear step of the curve,
#: 1.5-2.5 us at up to 27 kernel states on a 2-vCPU Xeon, so the cap runs
#: for minutes, not hours.
MAX_SWEEP_EXACT_EVENTS = 50_005_000


def _parse_sweep(spec: str) -> tuple[str, Sequence[Any]]:
    """The swept parameter and its values in order, a range or a list,
    after the row count is checked against ``MAX_SWEEP_ROWS``."""
    match = _SWEEP_RE.match(spec)
    if not match:
        raise ModelSpecError(
            f"invalid sweep spec {spec!r}; expected PARAM=LO..HI[:STEP]")
    name = match["name"]
    prob = re.fullmatch(r"p(\d+)|p\((\d+)\)", name)
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
        return f"p{prob[1] or prob[2]}", [v for v in values if v <= hi + 1e-12]
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
    for row, value in enumerate(values):
        where = f"{args.model}[{name}={value}]"
        family = (family.with_horizon(value) if row and name == "horizon"
                  else parse_model(_apply_sweep(template, name, value, where), where))
        if (args.exact or mc) and not row:
            # Only a horizon sweep changes N, by a fixed step a row, and
            # its exact rows read one curve up to the last N.
            last = values[-1] if name == "horizon" else family.n_events
            events = len(values) * (family.n_events + last) // 2
            exact = last if name == "horizon" else events
            if args.exact and exact > MAX_SWEEP_EXACT_EVENTS:
                raise CapExceededError(
                    f"the sweep's exact rows would cover {exact} events, above "
                    f"the exact sweep cap {MAX_SWEEP_EXACT_EVENTS}; narrow the "
                    f"range or drop --exact")
            # Monte Carlo rows share nothing: their summed work meets the
            # cap of one estimate
            if mc and mc[0] * events > montecarlo.MAX_MC_WORK:
                raise CapExceededError(
                    f"the sweep's Monte Carlo rows would cover {mc[0] * events} "
                    f"trial-events, above the Monte Carlo sweep cap "
                    f"{montecarlo.MAX_MC_WORK}; narrow the range or lower TRIALS")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no handler, since
    ``main`` looks up ``_cmd_<verb>`` when it runs, and parsing leaves it
    unchanged."""
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

    p_verify = sub.add_parser("verify", help="audit the derivation and the "
                                             "claimed dependence range")
    add_common(p_verify)
    p_verify.add_argument("--max-subset", type=int, default=4, metavar="K",
                          help="largest |I|+|J| for factorization checks "
                               "(default 4)")
    p_verify.add_argument("--tol", type=float, default=1e-9, metavar="X",
                          help="comparison tolerance (default 1e-9)")

    p_sweep = sub.add_parser("sweep", help="CSV report over a parameter sweep")
    add_common(p_sweep)
    p_sweep.add_argument("sweep", metavar="PARAM=LO..HI[:STEP]",
                         help="swept parameter: horizon, m, or p<digit>")
    p_sweep.add_argument("--exact", action="store_true",
                         help="include the exact union probability per row")
    p_sweep.add_argument("--mc", nargs=2, type=int, metavar=("TRIALS", "SEED"),
                         help="include a Monte Carlo estimate per row")

    p_window = sub.add_parser("window", help="windowed rate bound")
    add_common(p_window)
    p_window.add_argument("i", type=int, help="number of leading events to skip")
    p_window.add_argument("window_n", type=int, help="window mass target")

    p_mc = sub.add_parser("mc", help="Monte Carlo union estimate")
    add_common(p_mc)
    p_mc.add_argument("first", type=int)
    p_mc.add_argument("last", type=int)
    p_mc.add_argument("trials", type=int)
    p_mc.add_argument("seed", type=int)
    p_mc.add_argument("--exact", action="store_true",
                      help="include the exact union probability")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except BoundViolationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ModelSpecError, CapExceededError, ValueError, IndexError,
            OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
