"""Tests of the benchmark harness's own logic (not collected by the
package's test suite; run with `python3 -m pytest perfbench/tests`)."""

import contextlib
import io
import json
from pathlib import Path

import pytest

import checks
import spans
import workloads
from mdepbounds import cli, consecutive_run_model, dump_model
from mdepbounds import verify as verify_module


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- self time ---------------------------------------------------------------

def _span(span_id, parent, start, end, name="x"):
    return (span_id, parent, 0, name, start, end)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered_ns([(10, 30), (20, 50), (60, 70)], 0, 100) == 50
    assert spans.covered_ns([(90, 120), (-5, 5)], 0, 100) == 15
    assert spans.covered_ns([], 0, 100) == 0
    assert spans.covered_ns([(0, 100), (10, 20)], 0, 100) == 100


def test_self_time_subtracts_direct_children_only():
    tree = [_span(0, -1, 0, 100), _span(1, 0, 10, 60), _span(2, 1, 20, 40),
            _span(3, 0, 70, 80)]
    own = spans.self_times(tree)
    assert own == {0: 100 - 50 - 10, 1: 50 - 20, 2: 20, 3: 10}
    # self times of a properly nested tree add up to the root's duration
    assert sum(own.values()) == 100


def test_aggregate_sums_calls_total_and_self_per_name():
    tree = [_span(0, -1, 0, 1000, "a"), _span(1, 0, 0, 400, "b"),
            _span(2, 0, 500, 700, "b")]
    agg = spans.aggregate(tree)
    assert agg["a"] == {"calls": 1, "total_s": pytest.approx(1e-6),
                        "self_s": pytest.approx(4e-7)}
    assert agg["b"]["calls"] == 2
    assert agg["b"]["total_s"] == pytest.approx(6e-7)


# -- tracer --------------------------------------------------------------------

@pytest.fixture
def run_model(tmp_path):
    path = tmp_path / "run.json"
    dump_model(consecutive_run_model(10), path)
    return str(path)


def _traced(argv):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_call()
        rc, out = _run_cli(argv)
        tracer.end_call(len(out))
    finally:
        tracer.uninstall()
    assert rc == 0
    return tracer


def test_install_wraps_every_import_site_and_uninstall_restores(run_model):
    original = verify_module.complement_intersection_prob
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = verify_module.complement_intersection_prob
        assert wrapped is not original
        from mdepbounds import oracle
        assert oracle.complement_intersection_prob is wrapped
    finally:
        tracer.uninstall()
    assert verify_module.complement_intersection_prob is original


def test_internal_calls_nest_under_their_caller(run_model):
    tracer = _traced(["verify", run_model, "--max-subset", "2"])
    names = {span_id: name for span_id, _, _, name, _, _ in tracer.spans}
    parents = {name: names.get(parent) for _, parent, _, name, _, _ in tracer.spans}
    assert parents["cli.main"] is None
    assert parents["verify.verify_derivation"] == "cli.main"
    assert parents["oracle.complement_intersection_prob"] == "verify.verify_derivation"
    assert parents["dependence.pattern_distribution"] == "dependence.check_m_dependence"
    assert parents["reports.to_dict"] == "cli.main"


def test_work_counters_repeat_and_follow_the_arguments(run_model):
    first = _traced(["verify", run_model, "--max-subset", "2"]).counters
    second = _traced(["verify", run_model, "--max-subset", "2"]).counters
    assert first == second
    window = _traced(["window", run_model, "0", "1"]).counters
    # run model N=10, m=2, p=1/8: threshold(1) = 8, so the window is 1..8
    assert window["oracle.dp_steps"] == 8
    assert window["oracle.dp_cells"] == 8 * 2 ** 3
    assert window["oracle.queries"] == window["oracle.distinct"] == 1


def test_work_counters_repeat_over_rounds_of_a_plan(tmp_path):
    plan = workloads.build("exact", 7)
    plan.write_models(tmp_path)
    audit = workloads.build("audit", 7)
    audit.write_models(tmp_path)
    # the exact round plus the two smallest audit calls: oracle, sweep and
    # dependence counters, at a few seconds per round
    argvs = [c.argv(tmp_path) for c in plan.calls + audit.calls[:2]]

    def traced_round():
        tracer = spans.Tracer()
        tracer.install()
        try:
            for argv in argvs:
                tracer.begin_call()
                rc, out = _run_cli(argv)
                tracer.end_call(len(out))
                assert rc == 0
        finally:
            tracer.uninstall()
        return dict(tracer.counters)

    first, second = traced_round(), traced_round()
    assert first == second
    for name in ("oracle.dp_cells", "oracle.sweep_cells", "dependence.dp_cells"):
        assert first[name] > 0


def test_layer_metrics_match_the_benchmark_spec():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    emitted = set(spans.layer_metrics(spans.Tracer(), 1)) | {"trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == emitted
    for metric in spec["per_layer"]:
        assert metric["unit"] == spans.layer_unit(metric["name"])


# -- workload generator ----------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plans_are_deterministic_per_seed(workload):
    a, b = workloads.build(workload, 5), workloads.build(workload, 5)
    assert a.models == b.models
    assert a.calls == b.calls and [c.expect for c in a.calls] == [c.expect for c in b.calls]
    other = workloads.build(workload, 6)
    assert other.models != a.models
    # the seed changes the models, not the slots and verbs of a round
    assert [(c.verb, c.model) for c in other.calls] == [(c.verb, c.model) for c in a.calls]


def test_audit_keeps_the_capped_default_verify_calls():
    plan = workloads.build("audit", 1)
    capped = [c for c in plan.calls if plan.models[c.model].get("horizon", 0) >= 48]
    assert capped and all(c.verb == "verify" and c.args == () for c in capped)
    # only those calls may be refused
    assert [c for c in plan.calls if "may_refuse" in c.expect] == capped
    for workload in ("exact", "derive", "mc"):
        assert not any("may_refuse" in c.expect for c in workloads.build(workload, 1).calls)


def test_capped_call_is_refused_with_the_cap_message(tmp_path):
    plan = workloads.build("audit", 1)
    plan.write_models(tmp_path)
    call = next(c for c in plan.calls if "may_refuse" in c.expect)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(call.argv(tmp_path))
    assert checks.check(call.expect, rc, out.getvalue(), err.getvalue(), {}).status \
        == checks.REFUSED


# -- output checks ---------------------------------------------------------------

@pytest.fixture
def small_plan(tmp_path):
    plan = workloads.build("exact", 3)
    plan.write_models(tmp_path)
    return plan, tmp_path


def _first(plan, kind, **where):
    return next(c for c in plan.calls if c.expect["kind"] == kind
                and all(c.expect.get(k) == v for k, v in where.items()))


def test_real_outputs_pass(small_plan):
    plan, model_dir = small_plan
    calls = [_first(plan, "report"), _first(plan, "window"), _first(plan, "sweep"),
             _first(plan, "report", xref="w22n11")]
    refs = checks.references(calls, plan.models)
    for call in calls:
        rc, out = _run_cli(call.argv(model_dir))
        assert checks.check(call.expect, rc, out, "", refs) == checks.Verdict(checks.OK)


def test_bound_above_exact_is_wrong(small_plan):
    plan, model_dir = small_plan
    call = _first(plan, "report")
    rc, out = _run_cli(call.argv(model_dir))
    report = json.loads(out)
    report["thm1_bound"] = report["exact_union"] + 1e-6
    verdict = checks.check(call.expect, rc, json.dumps(report), "", {})
    assert verdict.status == checks.WRONG and "thm1_bound" in verdict.reason


def test_cross_check_mismatch_is_wrong(small_plan):
    plan, model_dir = small_plan
    call = _first(plan, "report", xref="w22n11")
    refs = checks.references([call], plan.models)
    rc, out = _run_cli(call.argv(model_dir))
    refs["xref"]["w22n11"] += 2e-12
    assert checks.check(call.expect, rc, out, "", refs).status == checks.WRONG


def test_csv_header_must_be_normative(small_plan):
    plan, model_dir = small_plan
    call = _first(plan, "sweep")
    rc, out = _run_cli(call.argv(model_dir))
    renamed = out.replace("exact_union", "exact", 1)
    assert checks.check(call.expect, rc, renamed, "", {}).status == checks.WRONG


def test_exit_codes():
    cap = ("error: 213004 candidate index subsets exceed the cap 200000; "
           "lower max_subset (currently 4) or raise max_subsets\n")
    marked = {"kind": "verify", "may_refuse": workloads.CAP_MESSAGE}
    assert checks.check(marked, 2, "", cap, {}) == checks.Verdict(checks.REFUSED,
                                                                  cap.strip())
    # exit 2 for any other reason is wrong, on a marked call too
    assert checks.check(marked, 2, "", "error: index 0 is out of range\n", {}).status \
        == checks.WRONG
    expect = {"kind": "verify"}
    assert checks.check(expect, 2, "", cap, {}).status == checks.WRONG
    usage = "usage: mdepbounds [-h] ...\nmdepbounds: error: invalid choice\n"
    assert checks.check(expect, 2, "", usage, {}).status == checks.WRONG
    assert checks.check(expect, 1, "{}", "", {}).status == checks.WRONG
    assert checks.check(expect, None, "", "Traceback", {}).status == checks.WRONG
    assert checks.check(expect, 0, "not json", "", {}).status == checks.WRONG


def test_verify_must_pass(run_model):
    rc, out = _run_cli(["verify", run_model, "--max-subset", "2"])
    assert checks.check({"kind": "verify"}, rc, out, "", {}).status == checks.OK
    result = json.loads(out)
    result["dependence"]["passed"] = False
    assert checks.check({"kind": "verify"}, rc, json.dumps(result), "", {}).status \
        == checks.WRONG


def test_mc_references_are_byte_identical(tmp_path):
    plan = workloads.build("mc", 1)
    plan.write_models(tmp_path)
    call = next(c for c in plan.calls if c.expect["kind"] == "mc_reference")
    rc, out = _run_cli(call.argv(tmp_path))
    assert checks.check(call.expect, rc, out, "", {}).status == checks.OK
    assert checks.check(call.expect, rc, out.replace("\n}", "}"), "", {}).status \
        == checks.WRONG


def test_mc_estimate_far_from_exact_is_wrong():
    expect = {"kind": "mc", "model": "w", "first": 1, "last": 50,
              "trials": 100_000, "seed": 9}
    result = {"first": 1, "last": 50, "trials": 100_000, "seed": 9,
              "estimate": 0.5, "ci_low": 0.4969, "ci_high": 0.5031}
    out = json.dumps(result)
    assert checks.check(expect, 0, out, "", {"exact": {"w": 0.501}}).status == checks.OK
    assert checks.check(expect, 0, out, "", {"exact": {"w": 0.51}}).status == checks.WRONG


# -- host speed scaling ------------------------------------------------------------

def test_pace_scales_each_call_by_the_calibrations_near_it():
    import pace

    p = pace.Pace()
    p.times = [0.0, 1.0, 1.2, 5.0]
    p.samples = [0.010, 0.020, 0.020, 0.005]
    assert p.scale(1.1, 0.05) == pytest.approx(0.5)   # only the two at 1.0 and 1.2
    assert p.scale(3.0, 0.1) == pytest.approx(2.0)    # none near: the next one, at 5.0
    assert p.scale(9.0, 1.0) == pytest.approx(2.0)    # past the end: the last one
    assert p.scale() == pytest.approx(0.010 / 0.015)  # all of them
