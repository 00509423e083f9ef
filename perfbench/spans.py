"""Spans and requested-work counters around the package's public functions.

Installed only for the traced run.  Modules bind imported names at import
time (`from .oracle import union_prob`), so a wrapper replaces the
function at *every* module attribute that holds it, which also catches
calls between the package's own modules.

Each span is (span_id, parent_id, call_id, name, start_ns, end_ns); the
call id is the index of the CLI call that caused it.  Spans stay in memory
and are written out once, at the end of the run.

The work counters are computed from call arguments at the wrapped
boundaries: they count work *requested* from a layer under the seed
algorithms (DP steps over the queried span, cells touched by that DP,
uniforms needed by the trials), not work the package actually did.  A
later cache or shortcut inside a layer does not change them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: Wrapped functions by module; the span name is "<module>.<function>".
TRACED = {
    "cli": ("main",),
    "modelspec": ("load_model", "parse_model"),
    "families": ("t_local", "pair_prob", "event_prob", "partial_sum"),
    "oracle": ("union_prob", "complement_intersection_prob", "block_event_prob"),
    "partitions": ("residue_classes", "shifted_blocks", "pair_shift_count"),
    "bounds": ("build_report", "build_threshold", "windowed_bound"),
    "verify": ("verify_derivation",),
    "dependence": ("check_m_dependence", "pattern_distribution"),
    "montecarlo": ("estimate_union",),
}


def covered_ns(intervals, start: int, end: int) -> int:
    """Length of the part of [start, end] covered by the union of intervals."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, int]:
    """span_id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for span_id, parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {span_id: (end - start) - covered_ns(children.get(span_id, ()), start, end)
            for span_id, _, _, _, start, end in spans}


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_s and self_s."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span_id, _, _, name, start, end in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += (end - start) * 1e-9
        row["self_s"] += own[span_id] * 1e-9
    return dict(out)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.call_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._queries: dict[str, set] = {}
        self._families: list = []
        self._window_type = None  # mdepbounds.families.WindowModel, once installed

    # -- per CLI call -------------------------------------------------------

    def begin_call(self) -> None:
        self.call_id += 1
        self._queries = {"oracle": set(), "dependence": set()}
        self._families = []  # keeps ids in the query keys unique for the call

    def end_call(self, out_bytes: int) -> None:
        self.counters["cli.out_bytes"] += out_bytes
        for layer, keys in self._queries.items():
            self.counters[f"{layer}.distinct"] += len(keys)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from mdepbounds.families import WindowModel
        from mdepbounds.reports import VerificationReport

        self._window_type = WindowModel
        counts = {"oracle.union_prob": self._count_union,
                  "oracle.complement_intersection_prob": self._count_complement,
                  "dependence.pattern_distribution": self._count_pattern,
                  "montecarlo.estimate_union": self._count_mc,
                  "verify.verify_derivation": self._count_checks}
        sites = [mod for name, mod in list(sys.modules.items())
                 if name == "mdepbounds" or name.startswith("mdepbounds.")]
        for module, names in TRACED.items():
            home = importlib.import_module(f"mdepbounds.{module}")
            for attr in names:
                original = getattr(home, attr)
                name = f"{module}.{attr}"
                wrapper = self._wrap(name, original, counts.get(name))
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is original:
                            self._patch(site, key, wrapper)
        self._patch(VerificationReport, "to_dict",
                    self._wrap("reports.to_dict", VerificationReport.to_dict, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, tracer.call_id, name, start, end))
            if count is not None:
                count(result, *args, **kwargs)
            return result

        return traced

    # -- requested-work counters ---------------------------------------------

    def _query(self, layer: str, family, members: list[int]) -> tuple:
        """Query key: window-model index sets are translated to start at 1."""
        self._families.append(family)
        if isinstance(family, self._window_type):
            members = [k - members[0] + 1 for k in members]
        key = (id(family), tuple(members))
        self._queries[layer].add(key)
        self.counters[f"{layer}.queries"] += 1
        return key

    def _oracle(self, family, members: list[int]) -> None:
        if not members:
            return
        self._query("oracle", family, members)
        if isinstance(family, self._window_type):
            steps = members[-1] - members[0] + 1
            self.counters["oracle.dp_steps"] += steps
            self.counters["oracle.dp_cells"] += steps * family.alphabet_size ** (family.m + 1)
        else:
            self.counters["oracle.sweep_cells"] += len(members) * family.n_outcomes

    def _count_union(self, result, family, first, last) -> None:
        self._oracle(family, list(range(first, last + 1)))

    def _count_complement(self, result, family, indices) -> None:
        self._oracle(family, sorted(set(indices)))

    def _count_pattern(self, result, family, indices) -> None:
        self._query("dependence", family, list(indices))
        if isinstance(family, self._window_type):
            steps = indices[-1] - indices[0] + 1
            self.counters["dependence.dp_cells"] += (
                steps * 2 ** len(indices) * family.alphabet_size ** (family.m + 1))
        else:
            self.counters["dependence.dp_cells"] += len(indices) * family.n_outcomes

    def _count_mc(self, result, model, first, last, trials, seed, **_) -> None:
        if first <= last:
            self.counters["montecarlo.uniforms"] += trials * (last - first + 1 + model.m)

    def _count_checks(self, result, *args, **kwargs) -> None:
        self.counters["verify.checks"] += result.n_checks

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        own = self_times(self.spans)
        with open(path, "w") as fh:
            fh.write("span_id\tparent_id\tcall_id\tname\tstart_ns\tend_ns\tself_ns\n")
            for span_id, parent, call_id, name, start, end in sorted(self.spans):
                fh.write(f"{span_id}\t{parent}\t{call_id}\t{name}\t{start}\t{end}"
                         f"\t{own[span_id]}\n")


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric; sums and counts are per round."""
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s/round"
    if name.endswith("_bytes"):
        return "B/round"
    return "count/round"


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, per round of the workload."""
    agg = aggregate(tracer.spans)
    counters = tracer.counters

    def span(name: str, field: str) -> float:
        return agg.get(name, {}).get(field, 0)

    def frac(layer: str) -> float:
        queries = counters.get(f"{layer}.queries", 0)
        return counters.get(f"{layer}.distinct", 0) / queries if queries else 0.0

    partitions = [f"partitions.{f}" for f in TRACED["partitions"]]
    per_round = {
        "cli.main.self_s": span("cli.main", "self_s"),
        "cli.out_bytes": counters.get("cli.out_bytes", 0),
        "modelspec.load_model.total_s": span("modelspec.load_model", "total_s"),
        "modelspec.parse_model.calls": span("modelspec.parse_model", "calls"),
        "modelspec.parse_model.total_s": span("modelspec.parse_model", "total_s"),
        "families.t_local.total_s": span("families.t_local", "total_s"),
        "families.pair_prob.calls": span("families.pair_prob", "calls"),
        "families.pair_prob.total_s": span("families.pair_prob", "total_s"),
        "families.event_prob.calls": span("families.event_prob", "calls"),
        "families.partial_sum.calls": span("families.partial_sum", "calls"),
        "oracle.union_prob.calls": span("oracle.union_prob", "calls"),
        "oracle.union_prob.self_s": span("oracle.union_prob", "self_s"),
        "oracle.complement_intersection_prob.calls":
            span("oracle.complement_intersection_prob", "calls"),
        "oracle.complement_intersection_prob.self_s":
            span("oracle.complement_intersection_prob", "self_s"),
        "oracle.block_event_prob.calls": span("oracle.block_event_prob", "calls"),
        "oracle.dp_steps": counters.get("oracle.dp_steps", 0),
        "oracle.dp_cells": counters.get("oracle.dp_cells", 0),
        "oracle.sweep_cells": counters.get("oracle.sweep_cells", 0),
        "partitions.calls": sum(span(p, "calls") for p in partitions),
        "partitions.self_s": sum(span(p, "self_s") for p in partitions),
        "bounds.build_report.calls": span("bounds.build_report", "calls"),
        "bounds.build_report.self_s": span("bounds.build_report", "self_s"),
        "bounds.build_threshold.total_s": span("bounds.build_threshold", "total_s"),
        "bounds.windowed_bound.total_s": span("bounds.windowed_bound", "total_s"),
        "verify.verify_derivation.calls": span("verify.verify_derivation", "calls"),
        "verify.verify_derivation.self_s": span("verify.verify_derivation", "self_s"),
        "verify.checks": counters.get("verify.checks", 0),
        "dependence.check_m_dependence.self_s":
            span("dependence.check_m_dependence", "self_s"),
        "dependence.pattern_distribution.calls":
            span("dependence.pattern_distribution", "calls"),
        "dependence.pattern_distribution.self_s":
            span("dependence.pattern_distribution", "self_s"),
        "dependence.dp_cells": counters.get("dependence.dp_cells", 0),
        "reports.to_dict.total_s": span("reports.to_dict", "total_s"),
        "montecarlo.estimate_union.total_s": span("montecarlo.estimate_union", "total_s"),
        "montecarlo.uniforms": counters.get("montecarlo.uniforms", 0),
    }
    metrics = {name: value / rounds for name, value in per_round.items()}
    metrics["oracle.distinct_frac"] = frac("oracle")
    metrics["dependence.distinct_frac"] = frac("dependence")
    mc_s = per_round["montecarlo.estimate_union.total_s"]
    metrics["montecarlo.uniforms_per_s"] = per_round["montecarlo.uniforms"] / mc_s if mc_s else 0.0
    return metrics
