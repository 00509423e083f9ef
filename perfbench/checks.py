"""Output checks behind the benchmark's `failed` count and `correct` flag.

Every call must exit 0 and print output that parses and satisfies the
paper's invariants for its verb.  A call whose expectation carries
`may_refuse` may instead exit 2 with that text on stderr (the known
MAX_SUBSETS refusal): it was *refused*, and counts as failed but not as
wrong.  Any other exit code or mismatch, an exit 2 included, is *wrong*
and clears `correct`.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import NamedTuple

from mdepbounds import expand_window_model, parse_model, union_prob

#: The sweep CSV header is a normative interface; it is spelled out here
#: rather than imported so that a change to it shows as a failure.
SWEEP_HEADER = ["param", "n", "m", "s_n", "t_local", "thm1_bound", "thm2_bound",
                "thm2_sharper", "exact_union", "mc_estimate", "mc_ci_low",
                "mc_ci_high"]

#: Bounds may exceed the exact union by at most this (the CLI's own slack).
SLACK = 1e-9
#: Agreement of exact unions with the expand_window_model cross-check.
XREF_TOL = 1e-12
#: Relative tolerance for values the harness recomputes from the spec;
#: the CLI prints 12 significant digits.
REL_TOL = 1e-11
#: Monte Carlo estimates must lie within this many standard errors of
#: the exact union (a false alarm every ~5e8 calls).
MC_SIGMAS = 6.0

OK, REFUSED, WRONG = "ok", "refused", "wrong"


class Verdict(NamedTuple):
    status: str
    reason: str = ""


class _Mismatch(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _Mismatch(message)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _bounds_below_exact(row: dict, m: int) -> None:
    exact = float(row["exact_union"])
    _require(0.0 <= exact <= 1.0, f"exact_union {exact} outside [0, 1]")
    _require(float(row["thm1_bound"]) <= exact + SLACK,
             f"thm1_bound {row['thm1_bound']} above exact_union {exact}")
    if m >= 1:
        _require(float(row["thm2_bound"]) <= exact + SLACK,
                 f"thm2_bound {row['thm2_bound']} above exact_union {exact}")


def _report(expect: dict, out: str, refs: dict) -> None:
    report = json.loads(out)
    n, m = expect["n"], expect["m"]
    _require(report["n"] == n and report["m"] == m, "wrong n or m echoed")
    _require(_close(report["s_n"], n * expect["p"]), f"s_n {report['s_n']} != N*p")
    _bounds_below_exact(report, m)
    if "xref" in expect:
        ref = refs["xref"][expect["xref"]]
        _require(abs(report["exact_union"] - ref) <= XREF_TOL,
                 f"exact_union {report['exact_union']!r} differs from the "
                 f"expand_window_model value {ref!r}")


def _window(expect: dict, out: str, refs: dict) -> None:
    result = json.loads(out)
    i, window_n, m = expect["i"], expect["window_n"], expect["m"]
    _require(result["first"] == i + 1, "window does not start at I+1")
    _require(i + 1 <= result["last"] <= expect["n"], "window end out of range")
    _require(result["window_n"] == window_n and result["m"] == m,
             "wrong window_n or m echoed")
    _require(result["mass_ok"] is True, "window mass below its target")
    _require(_close(result["bound"], -math.expm1(-window_n / (m + 1))),
             f"bound {result['bound']} != 1 - exp(-n/(m+1))")
    _require(result["bound"] <= result["exact_union"] + SLACK,
             f"windowed bound {result['bound']} above exact union "
             f"{result['exact_union']}")


def _sweep(expect: dict, out: str, refs: dict) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    _require(rows and rows[0] == SWEEP_HEADER, "CSV header is not the normative one")
    body = [dict(zip(SWEEP_HEADER, row)) for row in rows[1:]]
    _require([int(r["param"]) for r in body] == expect["rows"], "wrong sweep rows")
    for row in body:
        n = int(row["n"])
        _require(n == int(row["param"]) and int(row["m"]) == expect["m"],
                 "wrong n or m in a sweep row")
        _require(_close(float(row["s_n"]), n * expect["p"]), "s_n != N*p in a row")
        _require(row["mc_estimate"] == row["mc_ci_low"] == row["mc_ci_high"] == "",
                 "Monte Carlo columns filled without --mc")
        _bounds_below_exact(row, expect["m"])


def _verify(expect: dict, out: str, refs: dict) -> None:
    result = json.loads(out)
    for part in ("derivation", "dependence"):
        report = result[part]
        _require(report["passed"] is True and report["failed"] == 0,
                 f"{part} audit failed on an m-dependent model: {report['worst']}")
        _require(report["total"] == len(report["checks"]) >= 1,
                 f"{part} check count does not match its list")
    _require(result["passed"] is True, "verify did not pass")


def _mc(expect: dict, out: str, refs: dict) -> None:
    result = json.loads(out)
    for key in ("first", "last", "trials", "seed"):
        _require(result[key] == expect[key], f"wrong {key} echoed")
    trials, estimate = expect["trials"], result["estimate"]
    hits = round(estimate * trials)
    _require(abs(hits / trials - estimate) <= 1e-12, "estimate is not hits/trials")
    _require(result["ci_low"] <= estimate <= result["ci_high"],
             "estimate outside its own interval")
    exact = refs["exact"][expect["model"]]
    sigma = math.sqrt(max(exact * (1.0 - exact), 1.0 / trials) / trials)
    _require(abs(estimate - exact) <= MC_SIGMAS * sigma,
             f"estimate {estimate} more than {MC_SIGMAS:g} sigma from the "
             f"exact union {exact}")


def _mc_reference(expect: dict, out: str, refs: dict) -> None:
    _require(out == expect["stdout"],
             "output is not byte-identical to the stored reference")


CHECKS = {"report": _report, "window": _window, "sweep": _sweep,
          "verify": _verify, "mc": _mc, "mc_reference": _mc_reference}


def references(calls, models: dict) -> dict:
    """Cross-check values for a round, computed outside the timed phase.

    xref[name]: union probability of the small window model `name`,
    summed over the explicit expansion of its symbol strings.
    exact[name]: exact union over the range of a Monte Carlo call.
    """
    refs: dict = {"xref": {}, "exact": {}}
    for call in calls:
        expect = call.expect
        if "xref" in expect and expect["xref"] not in refs["xref"]:
            family = expand_window_model(parse_model(models[expect["xref"]]))
            fired = family.event_masks.any(axis=0)
            refs["xref"][expect["xref"]] = float(family.outcome_weights[fired].sum())
        if expect.get("kind") == "mc":
            family = parse_model(models[call.model])
            refs["exact"][call.model] = union_prob(family, expect["first"],
                                                   expect["last"])
    return refs


def check(expect: dict, rc: int | None, out: str, err: str, refs: dict) -> Verdict:
    """Verdict for one call.  `refs` holds the cross-check values:
    refs["xref"][name] is the union of the expanded small model `name` and
    refs["exact"][name] the exact union over a Monte Carlo call's range."""
    marker = expect.get("may_refuse")
    if rc == 2 and marker and marker in err:
        return Verdict(REFUSED, err.strip().splitlines()[-1])
    if rc != 0:
        return Verdict(WRONG, f"exit code {rc}: {err.strip()[-200:]}")
    try:
        CHECKS[expect["kind"]](expect, out, refs)
    except _Mismatch as exc:
        return Verdict(WRONG, str(exc))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(WRONG, f"unparsable output: {type(exc).__name__}: {exc}")
    return Verdict(OK)
