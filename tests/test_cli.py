"""CLI verbs, exit codes, and output schemas."""

import argparse
import csv
import io
import json
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    BoundReport,
    ExplicitEventFamily,
    VerificationReport,
    WindowModel,
    consecutive_run_model,
    dump_model,
    expand_window_model,
    model_to_dict,
)
from mdepbounds import cli, montecarlo
from mdepbounds.cli import main


@pytest.fixture
def w1_path(tmp_path):
    path = tmp_path / "w1.json"
    dump_model(consecutive_run_model(24), path)
    return str(path)


@pytest.fixture
def e1_path(tmp_path):
    family = ExplicitEventFamily.from_events([0.25] * 4, [[0, 1], [1, 2]], 1)
    path = tmp_path / "e1.json"
    dump_model(family, path)
    return str(path)


@pytest.fixture
def broken_path(tmp_path):
    """Three identical coin-flip events claimed independent (m = 0); the
    union stays at 1/2, far below the independent-case bound."""
    family = ExplicitEventFamily.from_events(
        [0.5, 0.5], [[0], [0], [0]], 0)
    path = tmp_path / "broken.json"
    dump_model(family, path)
    return str(path)


@pytest.fixture
def misdeclared_path(tmp_path):
    """A run model's expansion claiming one less than its window needs:
    it fails the dependence audit with a full detail list."""
    expanded = expand_window_model(consecutive_run_model(8))
    path = tmp_path / "misdeclared.json"
    dump_model(ExplicitEventFamily(expanded.outcome_weights,
                                   expanded.event_masks, 1), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_w1_report(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "report", w1_path, "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["s_n"] == pytest.approx(3.0)
        assert payload["thm1_bound"] == pytest.approx(0.632120558829)
        assert payload["thm2_sharper"] is False
        assert payload["exact_union"] >= payload["thm1_bound"]

    def test_explicit_report(self, capsys, e1_path):
        code, out, _ = run_cli(capsys, "report", e1_path, "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_union"] == pytest.approx(0.75)
        assert payload["thm1_bound"] == pytest.approx(0.393469340287)
        assert payload["exact_union"] >= payload["thm1_bound"]

    def test_n0_report_all_zero(self, capsys, tmp_path):
        path = tmp_path / "n0.json"
        dump_model(consecutive_run_model(0), path)
        code, out, _ = run_cli(capsys, "report", str(path), "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["s_n"] == 0
        assert payload["thm1_bound"] == 0
        assert payload["exact_union"] == 0

    def test_report_roundtrips_via_schema(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "report", w1_path,
                               "--exact", "--mc", "5000", "11")
        assert code == 0
        report = BoundReport.from_dict(json.loads(out))
        assert report.mc_union.trials == 5000
        assert report.mc_union.seed == 11

    def test_mc_on_explicit_rejected(self, capsys, e1_path):
        code, _, err = run_cli(capsys, "report", e1_path, "--mc", "100", "0")
        assert code == 2
        assert "window models" in err

    @pytest.mark.parametrize("field, spec", [
        ("outcome_weights[0]", {"type": "explicit", "m": 0,
                                "outcome_weights": [10 ** 400, 0.5],
                                "events": [[0]]}),
        ("symbol_dist[1]", {"type": "window", "m": 0, "alphabet_size": 2,
                            "symbol_dist": [0.5, 10 ** 400],
                            "predicate_table": [True, False], "horizon": 3}),
    ], ids=["explicit", "window"])
    def test_number_too_large_for_a_float_exit_2(self, capsys, tmp_path,
                                                  field, spec):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "report", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {field} is too large for a float\n"

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "window"}')
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert "missing field" in err

    def test_out_flag_writes_file(self, capsys, w1_path, tmp_path):
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "report", w1_path, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert json.loads(dest.read_text())["n"] == 24

    def test_wrong_m_claim_exit_1(self, capsys, broken_path):
        code, _, err = run_cli(capsys, "report", broken_path, "--exact")
        assert code == 1
        assert "verification failure" in err


class TestVerify:
    def test_w1_passes_exit_0(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "verify", w1_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["derivation"]["failed"] == 0
        assert payload["dependence"]["failed"] == 0

    def test_counterexample_exit_1_with_violation(self, capsys, broken_path):
        code, out, _ = run_cli(capsys, "verify", broken_path)
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        failing = [c for c in payload["derivation"]["checks"]
                   if not c["passed"]]
        assert failing

    def test_max_subset_flag(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "verify", w1_path, "--max-subset", "2")
        assert code == 0
        payload = json.loads(out)
        sizes = [c["name"] for c in payload["dependence"]["checks"]
                 if c["name"].startswith("factorization")]
        assert all("subset_size=2" in name for name in sizes)


class TestSweep:
    def test_horizon_sweep_rows_and_monotonicity(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "sweep", w1_path, "horizon=8..64")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 57
        bounds = [float(r["thm1_bound"]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_header_exact_column_order(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "sweep", w1_path, "horizon=8..9")
        assert out.splitlines()[0] == (
            "param,n,m,s_n,t_local,thm1_bound,thm2_bound,thm2_sharper,"
            "exact_union,mc_estimate,mc_ci_low,mc_ci_high")

    def test_probability_sweep_bound_dominated(self, capsys, tmp_path):
        path = tmp_path / "w16.json"
        dump_model(consecutive_run_model(16), path)
        code, out, _ = run_cli(capsys, "sweep", str(path),
                               "p1=0.1..0.9:0.1", "--exact")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        for row in rows:
            assert float(row["exact_union"]) >= float(row["thm1_bound"]) - 1e-9

    def test_empty_sweep_header_only(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "sweep", w1_path, "horizon=8..7")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_bit_stable_across_runs(self, capsys, w1_path):
        _, first, _ = run_cli(capsys, "sweep", w1_path, "horizon=8..20",
                              "--exact", "--mc", "2000", "3")
        _, second, _ = run_cli(capsys, "sweep", w1_path, "horizon=8..20",
                               "--exact", "--mc", "2000", "3")
        assert first == second

    def test_m0_rows_leave_second_order_empty(self, capsys, tmp_path):
        path = tmp_path / "m0.json"
        dump_model(consecutive_run_model(6, m=0), path)
        code, out, _ = run_cli(capsys, "sweep", str(path), "horizon=4..6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["t_local"] == "" and r["thm2_bound"] == ""
                   and r["thm2_sharper"] == "" for r in rows)

    def test_bad_sweep_spec_exit_2(self, capsys, w1_path):
        code, _, err = run_cli(capsys, "sweep", w1_path, "horizon=8")
        assert code == 2
        assert "sweep spec" in err

    def test_float_sweep_requires_step(self, capsys, w1_path):
        code, _, err = run_cli(capsys, "sweep", w1_path, "p1=0.1..0.9")
        assert code == 2
        assert "step" in err

    @pytest.mark.parametrize("spec, message", [
        ("horizon=1..5:0", "integer sweep step must be >= 1"),
        ("p1=0.1..0.9:-0.1", "probability sweep step must be positive"),
        ("foo=1..2", "unknown sweep parameter 'foo'; supported: horizon, m, "
                     "p<digit> (symbol probability)"),
    ], ids=["zero-int-step", "negative-prob-step", "unknown-param"])
    def test_sweep_spec_errors(self, capsys, w1_path, spec, message):
        assert run_cli(capsys, "sweep", w1_path, spec) \
            == (2, "", f"error: {message}\n")

    #: ``sweep w1.json p1=0.2..0.4:0.1 --exact`` as it has always read.
    P1_CSV = (
        "param,n,m,s_n,t_local,thm1_bound,thm2_bound,thm2_sharper,"
        "exact_union,mc_estimate,mc_ci_low,mc_ci_high\n"
        "0.2,24,2,0.192,0.0368,0.0619950004693,0.0746655136788,true,"
        "0.14661398902,,,\n"
        "0.3,24,2,0.648,0.1863,0.194264698127,0.206141464115,true,"
        "0.389334806138,,,\n"
        "0.4,24,2,1.536,0.5888,0.400704212154,0.377243694724,false,"
        "0.665808394687,,,\n")

    @pytest.mark.parametrize("name, out", [
        ("p1", P1_CSV), ("p(1)", P1_CSV), ("p(1", None), ("p1)", None),
    ])
    def test_probability_sweep_names(self, capsys, w1_path, name, out):
        """Only ``p<digits>`` and ``p(<digits>)`` name a symbol; a name
        with one parenthesis is unknown."""
        got = run_cli(capsys, "sweep", w1_path, f"{name}=0.2..0.4:0.1", "--exact")
        if out is not None:
            assert got == (0, out, "")
        else:
            assert got == (2, "", f"error: unknown sweep parameter {name!r}; "
                                  f"supported: horizon, m, p<digit> (symbol "
                                  f"probability)\n")

    @pytest.mark.parametrize("template, spec, message", [
        ("explicit", "horizon=1..2",
         "horizon sweeps need a window model template"),
        ("explicit", "p1=0.1..0.2:0.1",
         "symbol-probability sweeps need a window model template"),
        ("window", "m=1..2", "m sweeps need an explicit model template "
                             "(a window model's table length depends on m)"),
        ("window", "p7=0.1..0.2:0.1", "symbol index 7 outside the alphabet"),
        ("window", "p1=0.5..1.5:0.5", "swept probability 1.5 outside [0, 1]"),
        ("degenerate", "p0=0.1..0.2:0.1", "cannot rescale the remaining "
                                          "symbol probabilities: they sum to 0"),
    ], ids=["horizon-on-explicit", "p-on-explicit", "m-on-window",
            "p-outside-alphabet", "p-above-1", "nothing-to-rescale"])
    def test_sweep_template_errors(self, capsys, tmp_path, w1_path, e1_path,
                                   template, spec, message):
        degenerate = model_to_dict(consecutive_run_model(4, m=0))
        degenerate["symbol_dist"] = [1.0, 0.0]
        paths = {"window": w1_path, "explicit": e1_path,
                 "degenerate": tmp_path / "degenerate.json"}
        paths["degenerate"].write_text(json.dumps(degenerate))
        assert run_cli(capsys, "sweep", str(paths[template]), spec) \
            == (2, "", f"error: {message}\n")

    def test_mc_on_explicit_rejected(self, capsys, e1_path):
        code, out, err = run_cli(capsys, "sweep", e1_path, "m=1..2",
                                 "--mc", "100", "0")
        assert (code, out) == (2, "")
        assert "window models" in err

    def test_mc_on_explicit_empty_range_header_only(self, capsys, e1_path):
        """No row, so no report and no estimator call to refuse it."""
        code, out, _ = run_cli(capsys, "sweep", e1_path, "m=2..1",
                               "--mc", "100", "0")
        assert (code, out) == (0, ",".join(cli.CSV_COLUMNS) + "\n")

    @pytest.mark.parametrize("entry, message", [
        (True, "symbol_dist[0] must be a number (got bool)"),
        (10 ** 400, "symbol_dist[0] is too large for a float"),
    ], ids=["bool", "huge"])
    def test_probability_sweep_reads_symbol_dist_like_the_loader(
            self, capsys, tmp_path, entry, message):
        spec = model_to_dict(consecutive_run_model(4, m=0))
        spec["symbol_dist"][0] = entry
        path = tmp_path / "w.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(capsys, "sweep", str(path), "p1=0.2..0.4:0.1")
        assert (code, out) == (2, "")
        assert err == f"error: {path}[p1=0.2]: {message}\n"
        _, _, report_err = run_cli(capsys, "report", str(path))
        assert report_err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("spec, rows", [
        ("horizon=1..4", 4), ("horizon=1..9:2", 5), ("p1=0.1..0.4:0.1", 4),
    ], ids=["int", "int-step", "float"])
    def test_sweep_row_cap(self, capsys, monkeypatch, w1_path, spec, rows):
        """A range of one row more than the cap is refused before any
        row; at the cap it runs."""
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", rows)
        code, out, _ = run_cli(capsys, "sweep", w1_path, spec)
        assert (code, len(out.splitlines())) == (0, rows + 1)
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", rows - 1)
        code, out, err = run_cli(capsys, "sweep", w1_path, spec)
        assert (code, out) == (2, "")
        assert err == (f"error: the sweep would emit {rows} rows, above the "
                       f"sweep cap {rows - 1}; narrow the range or raise the step\n")

    @pytest.mark.parametrize("model, spec, events", [
        ("w1", "horizon=1..4", 4), ("w1", "horizon=3..9:3", 9),
        ("w1", "p1=0.1..0.4:0.1", 4 * 24), ("e1", "m=1..2", 2 * 2),
    ], ids=["int", "int-step", "float", "m"])
    def test_exact_sweep_event_cap(self, capsys, monkeypatch, w1_path, e1_path,
                                   model, spec, events):
        """The events of a sweep's --exact rows are counted before any row:
        a horizon sweep's rows share one survival curve, so its last N;
        any other's as rows times the first row's N.  At the cap it runs;
        one event less and it is refused, with or without rows."""
        path = {"w1": w1_path, "e1": e1_path}[model]
        monkeypatch.setattr(cli, "MAX_SWEEP_EXACT_EVENTS", events)
        code, out, _ = run_cli(capsys, "sweep", path, spec, "--exact")
        rows = len(out.splitlines()) - 1
        assert code == 0 and rows > 0
        monkeypatch.setattr(cli, "MAX_SWEEP_EXACT_EVENTS", events - 1)
        code, out, err = run_cli(capsys, "sweep", path, spec, "--exact")
        assert (code, out) == (2, "")
        assert err == (f"error: the sweep's exact rows would cover {events} "
                       f"events, above the exact sweep cap {events - 1}; "
                       f"narrow the range or drop --exact\n")
        code, out, _ = run_cli(capsys, "sweep", path, spec)
        assert (code, len(out.splitlines()) - 1) == (0, rows)

    @pytest.mark.parametrize("model, spec, exact, err", [
        ("w1", "horizon=50000000..50009999", True,
         "error: the sweep's exact rows would cover 50009999 events, above "
         "the exact sweep cap 50005000; narrow the range or drop --exact\n"),
        ("long", "p1=0.1..0.6:0.001", True,
         "error: the sweep's exact rows would cover 50100000 events, above "
         "the exact sweep cap 50005000; narrow the range or drop --exact\n"),
        ("w1", "horizon=100000..109999", True, "error: a row was computed\n"),
        ("w1", "horizon=100000..109999", False, "error: a row was computed\n"),
        ("w1", "horizon=1..10000", True, "error: a row was computed\n"),
        ("long", "p1=0.1..0.5:0.001", True, "error: a row was computed\n"),
    ], ids=["exact", "p-past-cap", "shared-curve", "plain",
            "documented-exact", "p-at-cap"])
    def test_long_exact_sweep_is_refused_before_any_row(
            self, capsys, monkeypatch, tmp_path, w1_path, model, spec, exact,
            err):
        """A horizon sweep's exact rows read one survival curve up to its
        last N, so it is refused when that N passes the cap.
        ``horizon=100000..109999 --exact``, 10,000 separate unions of
        10**5 events or more (hours of work), is one curve of 109,999
        events and reaches its first row.  A probability sweep's rows
        each have their own law, so 501 rows at N = 10**5 are refused and
        401 are admitted.  Without --exact the first row is computed."""
        def no_row(*args, **kwargs):
            raise ValueError("a row was computed")

        path = {"w1": w1_path, "long": tmp_path / "long.json"}[model]
        dump_model(consecutive_run_model(100_000), tmp_path / "long.json")
        monkeypatch.setattr(cli, "build_report", no_row)
        code, out, got = run_cli(capsys, "sweep", str(path), spec,
                                 *["--exact"][:exact])
        assert (code, out, got) == (2, "", err)

    @pytest.mark.parametrize("model, spec, work", [
        ("w1", "horizon=1..4", 10 * 200), ("w1", "p1=0.1..0.4:0.1", 4 * 24 * 200),
        ("e1", "m=1..2", 2 * 2 * 200),
    ], ids=["int", "float", "m"])
    def test_mc_sweep_work_cap(self, capsys, monkeypatch, w1_path, e1_path,
                               model, spec, work):
        """Trials times the events of a sweep's --mc rows are summed before
        any row.  At the cap it runs; one trial-event less and it is
        refused, before any row."""
        path = {"w1": w1_path, "e1": e1_path}[model]
        monkeypatch.setattr(montecarlo, "MAX_MC_WORK", work)
        code, out, err = run_cli(capsys, "sweep", path, spec, "--mc", "200", "1")
        if model == "w1":
            assert (code, len(out.splitlines()) > 1) == (0, True)
        else:  # the estimator refuses explicit families after the cap
            assert (code, out) == (2, "") and "window model" in err
        monkeypatch.setattr(montecarlo, "MAX_MC_WORK", work - 1)
        code, out, err = run_cli(capsys, "sweep", path, spec, "--mc", "200", "1")
        assert (code, out) == (2, "")
        assert err == (f"error: the sweep's Monte Carlo rows would cover {work} "
                       f"trial-events, above the Monte Carlo sweep cap "
                       f"{work - 1}; narrow the range or lower TRIALS\n")

    @pytest.mark.parametrize("args, err", [
        (("horizon=1..10000", "--mc", "100000", "1"),
         "error: the sweep's Monte Carlo rows would cover 5000500000000 "
         "trial-events, above the Monte Carlo sweep cap 30000000000; narrow "
         "the range or lower TRIALS\n"),
        (("horizon=1..10000", "--mc", "500", "1"), "error: a row was computed\n"),
        (("horizon=1..10000", "--exact", "--mc", "500", "1"),
         "error: a row was computed\n"),
    ], ids=["refused", "admitted", "admitted-exact"])
    def test_long_mc_sweep_is_refused_before_any_row(
            self, capsys, monkeypatch, w1_path, args, err):
        """10**5 trials on each of horizon=1..10000 would run for about 8
        hours; it is refused before the first report.  500 trials, about
        3 minutes of work, reach the first row."""
        def no_row(*args, **kwargs):
            raise ValueError("a row was computed")

        monkeypatch.setattr(cli, "build_report", no_row)
        assert run_cli(capsys, "sweep", w1_path, *args) == (2, "", err)

    @pytest.mark.parametrize("spec, rows", [
        ("horizon=1..1000000000", 10 ** 9), ("p1=0.0..1.0:0.000000001", 10 ** 9 + 1),
        ("p1=0.0..1.0:0." + "0" * 315 + "1", "inf"),
    ], ids=["int", "float", "subnormal-step"])
    def test_huge_sweep_is_refused_before_listing(self, tmp_path, spec, rows):
        """Listing 10**9 values would take about 36 GB.  The child caps
        its own address space 256 MiB above what it holds after the
        import, so a regression fails instead of filling the memory."""
        pytest.importorskip("resource")
        if not Path("/proc/self/statm").exists():
            pytest.skip("needs /proc/self/statm to size the cap")
        path = tmp_path / "w.json"
        dump_model(consecutive_run_model(4), path)
        child = textwrap.dedent(f"""
            import os, resource, sys
            from mdepbounds.cli import main
            with open("/proc/self/statm") as fh:
                held = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            cap = held + (256 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            sys.exit(main(["sweep", {str(path)!r}, {spec!r}]))
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", child], cwd=src,
                                capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == (
            f"error: the sweep would emit {rows} rows, above the sweep cap "
            f"{cli.MAX_SWEEP_ROWS}; narrow the range or raise the step\n")

    @pytest.mark.parametrize("extra", [[], ["--mc", "10", "1"]],
                             ids=["plain", "mc"])
    def test_non_object_template_exit_2(self, capsys, tmp_path, extra):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        code, _, err = run_cli(capsys, "sweep", str(path), "horizon=1..2",
                               *extra)
        assert code == 2
        assert "top level must be a JSON object" in err


class TestWindow:
    def test_w1_full_window(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "window", w1_path, "0", "3")
        assert code == 0
        payload = json.loads(out)
        assert (payload["first"], payload["last"]) == (1, 24)
        assert payload["bound"] == pytest.approx(0.632120558829)
        assert payload["exact_union"] >= payload["bound"]
        assert payload["mass_ok"] is True

    def test_last_index_is_minimal(self, capsys, tmp_path):
        """p = 1/3: six events carry prefix mass 2.0 exactly, so the
        window ends at 6 (a running sum reaches 1.9999999999999998)."""
        path = tmp_path / "third.json"
        dump_model(WindowModel(3, (1 / 3, 1 / 3, 1 / 3), 0,
                               (False, False, True), 12), path)
        code, out, _ = run_cli(capsys, "window", str(path), "0", "2")
        assert code == 0
        payload = json.loads(out)
        assert (payload["first"], payload["last"]) == (1, 6)
        assert payload["mass_ok"] is True

    def test_undefined_threshold_names_deficit(self, capsys, w1_path):
        code, _, err = run_cli(capsys, "window", w1_path, "8", "1")
        assert code == 2
        assert "deficit 6" in err


class TestMC:
    def test_estimate_with_exact(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "mc", w1_path, "1", "2",
                               "50000", "12", "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_union"] == pytest.approx(0.1875)
        assert payload["ci_low"] <= payload["exact_union"] <= payload["ci_high"]

    def test_deterministic_given_seed(self, capsys, w1_path):
        _, first, _ = run_cli(capsys, "mc", w1_path, "1", "24", "10000", "5")
        _, second, _ = run_cli(capsys, "mc", w1_path, "1", "24", "10000", "5")
        assert first == second

    def test_explicit_rejected(self, capsys, e1_path):
        code, out, err = run_cli(capsys, "mc", e1_path, "1", "2", "100", "0")
        assert (code, out) == (2, "")
        assert "window models" in err

    @pytest.mark.parametrize("argv", [
        ("mc", "{path}", "1", "100000", "1000000", "1"),
        ("mc", "{path}", "1", "100000", "1000000", "1", "--exact"),
        ("report", "{path}", "--mc", "1000000", "1"),
    ], ids=["mc", "mc-exact", "report"])
    def test_one_estimate_above_the_work_cap_is_refused(
            self, capsys, monkeypatch, tmp_path, argv):
        """10**6 trials on 10**5 windows, 10**11 trial-events (hours of
        work), are refused with exit 2 before any draw."""
        def no_draw(*args):
            raise ValueError("a draw was made")

        path = tmp_path / "long.json"
        dump_model(consecutive_run_model(100_000), path)
        monkeypatch.setattr(montecarlo, "_mix64", no_draw)
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in argv))
        assert (code, out) == (2, "")
        assert err == ("error: the Monte Carlo estimate would cover "
                       "100000000000 trial-events, above the Monte Carlo cap "
                       "30000000000; narrow the range or lower TRIALS\n")


class TestUsage:
    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 7.28 TiB"),
         "error: Unable to allocate 7.28 TiB\n"),
        (MemoryError(), "error: MemoryError\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exit_2(self, capsys, monkeypatch, w1_path, exc,
                                  line):
        def run_out(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_report", run_out)
        assert run_cli(capsys, "report", w1_path) == (2, "", line)

    def test_unknown_command_exit_2(self, w1_path):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", w1_path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["report"], ["sweep", "horizon=1..2"]],
                             ids=["report", "sweep"])
    def test_missing_model_file_exit_2(self, capsys, argv):
        path = "/nonexistent/m.json"
        code, _, err = run_cli(capsys, argv[0], path, *argv[1:])
        assert code == 2
        assert "error" in err
        assert f"error: {path}: No such file or directory" in err


class TestSharedParser:
    def test_two_calls_build_one_parser(self, capsys, monkeypatch, w1_path):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._build_parser.cache_clear()
        assert run_cli(capsys, "report", w1_path)[0] == 0
        assert len(built) == 6  # the verb parser and one per verb
        assert run_cli(capsys, "window", w1_path, "0", "1")[0] == 0
        assert len(built) == 6

    def test_report_flags_do_not_leak(self, capsys, w1_path):
        _, plain, _ = run_cli(capsys, "report", w1_path)
        code, exact, _ = run_cli(capsys, "report", w1_path, "--exact",
                                 "--mc", "100", "3")
        assert code == 0 and "exact_union" in json.loads(exact)
        assert run_cli(capsys, "report", w1_path) == (0, plain, "")
        assert not {"exact_union", "mc_union"} & set(json.loads(plain))

    def test_sweep_flags_do_not_leak(self, capsys, w1_path):
        code, out, _ = run_cli(capsys, "sweep", w1_path, "horizon=4..8:2",
                               "--mc", "100", "3", "--exact")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and all(row["mc_estimate"] for row in rows)
        code, out, _ = run_cli(capsys, "sweep", w1_path, "horizon=4..8:2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 3
        assert all(row[col] == "" for row in rows
                   for col in ("exact_union", "mc_estimate", "mc_ci_low",
                               "mc_ci_high"))

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["frobnicate"], ["report"], ["report", "--help"],
        ["verify", "--help"], ["sweep", "--help"], ["window", "--help"],
        ["mc", "--help"], ["mc", "m.json", "1"],
        ["verify", "m.json", "--max-subset", "k"], ["report", "m.json", "--mc", "1"],
    ], ids=lambda argv: " ".join(argv) or "none")
    def test_usage_and_help_match_a_fresh_parser(self, capsys, argv):
        def exit_of(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        fresh = exit_of(cli._build_parser.__wrapped__().parse_args)
        assert fresh[0] == (0 if "--help" in argv else 2)
        assert exit_of(main) == fresh
        assert exit_of(main) == fresh


MC_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "mc_reference.json"
MC_CASES = json.loads(MC_REFERENCE.read_text())["cases"]


@pytest.mark.parametrize("case", MC_CASES, ids=[f"ref{k}" for k in range(len(MC_CASES))])
def test_mc_matches_stored_reference_output(capsys, tmp_path, case):
    """`mc` stdout is byte-identical to the benchmark's stored references."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(case["model"]))
    code, out, _ = run_cli(capsys, "mc", str(path), *case["args"])
    assert code == 0
    assert out == case["stdout"]


def round12(value):
    """Reference rounding: every float (recursively) to 12 significant
    digits, as the JSON output promises.  A verification report stands
    for its ``to_dict()``."""
    if isinstance(value, VerificationReport):
        return round12(value.to_dict())
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round12(v) for v in value]
    return value


def reference_json(payload):
    return json.dumps(round12(payload), indent=2) + "\n"


#: Floats at the edges of the float text: integral values, the
#: switch to exponent notation at 1e-5 and 1e12 (repr switches at 1e16),
#: rounding across a power of ten, subnormals and non-finite values.
EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 100.0, 0.1, 1e-4, 1e-5, 9.99999999999e-5,
               0.000099999999999951, 123456789012.0, 999999999999.4,
               999999999999.5, 1e12, 1.5e13, 1e15, 1e16, 1e17, 2.5e300,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-307,
               2.2250738585072014e-308, 1e-308, 5e-324, -5e-324,
               4.9406564584124654e-324, float("inf"), float("-inf"),
               float("nan"), 1 / 3, 2 / 3, 0.1 + 0.2]


class TestJsonOutput:
    """JSON output is byte-identical to json.dumps(indent=2) of the
    rounded payload."""

    @pytest.fixture
    def payloads(self, monkeypatch):
        seen = []
        emit = cli._emit_json

        def spy(payload, out_path):
            seen.append(payload)
            emit(payload, out_path)

        monkeypatch.setattr(cli, "_emit_json", spy)
        return seen

    @pytest.mark.parametrize("argv, code", [
        (["report", "w1", "--exact"], 0),
        (["report", "e1", "--exact"], 0),
        (["verify", "w1"], 0),
        (["verify", "e1"], 0),
        (["verify", "broken"], 1),
        (["verify", "misdeclared", "--max-subset", "3"], 1),
        (["window", "w1", "0", "2"], 0),
        (["window", "e1", "0", "1"], 0),
        (["mc", "w1", "1", "24", "2000", "5", "--exact"], 0),
    ])
    def test_verbs_match_reference(self, capsys, payloads, w1_path, e1_path,
                                   broken_path, misdeclared_path, argv, code):
        paths = {"w1": w1_path, "e1": e1_path, "broken": broken_path,
                 "misdeclared": misdeclared_path}
        got, out, _ = run_cli(capsys, argv[0], paths[argv[1]], *argv[2:])
        assert got == code
        assert out == reference_json(payloads[-1])

    def test_failing_window_audit_matches_reference(self, tmp_path):
        from mdepbounds import check_m_dependence, verify_derivation
        model = consecutive_run_model(30)
        payload = {"passed": False,
                   "derivation": verify_derivation(model).to_dict(),
                   "dependence": check_m_dependence(model, 1).to_dict()}
        assert not payload["dependence"]["passed"]
        path = tmp_path / "out.json"
        cli._emit_json(payload, str(path))
        assert path.read_text() == reference_json(payload)

    def test_edge_values_match_reference(self, tmp_path):
        payload = {"floats": EDGE_FLOATS, "ints": [0, -1, 2 ** 70, True, False],
                   "none": None, "empty": {"dict": {}, "list": [], "tuple": ()},
                   "text": ["café", "quote\" \\ \n", "[1, 2]"],
                   "nested": [[{"x": -0.0}], ({"y": [1e-320]},)]}
        path = tmp_path / "out.json"
        cli._emit_json(payload, str(path))
        assert path.read_text() == reference_json(payload)

    @settings(max_examples=500, deadline=None)
    @given(value=st.floats(allow_nan=True, allow_infinity=True)
           | st.floats(-1e16, 1e16) | st.floats(-1e-300, 1e-300))
    def test_float_text_matches_json_dumps(self, value):
        assert cli._float_text(value) == json.dumps(float(f"{value:.12g}"))

    def test_float_text_edges(self):
        for value in EDGE_FLOATS:
            assert cli._float_text(value) == json.dumps(float(f"{value:.12g}"))
        rng = np.random.default_rng(12)
        mantissas = rng.random(20_000) * 10
        exponents = rng.integers(-330, 308, 20_000).astype(float)
        for value in (mantissas * 10.0 ** exponents).tolist():
            assert cli._float_text(value) == json.dumps(float(f"{value:.12g}"))


#: Values for the float fields of a check row: every edge value, any
#: double (NaN, infinities, -0.0 and subnormals included), and now and
#: then an int, which no row template may take.
ROW_VALUES = (st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=True, allow_infinity=True)
              | st.floats(-1e-300, 1e-300) | st.integers(-3, 3))
ROW_TEXT = st.text(st.sampled_from('ab"\\\n\t/é√ \x00[],:% ') | st.characters(),
                   max_size=12)


@st.composite
def check_rows(draw):
    from mdepbounds import Check
    return Check(draw(ROW_TEXT), draw(st.sampled_from(["le", "eq"]) | ROW_TEXT),
                 draw(ROW_VALUES), draw(ROW_VALUES), draw(ROW_VALUES),
                 draw(ROW_VALUES), draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(derivation=st.lists(check_rows(), max_size=6),
       dependence=st.lists(check_rows(), max_size=3), passed=st.booleans())
def test_verification_payloads_match_reference(derivation, dependence, passed):
    """Random verify payloads, empty check lists included, come out the
    same on stdout and through --out, byte for byte as json.dumps."""
    import contextlib
    import tempfile
    from mdepbounds import CheckBlock, VerificationReport
    payload = {"passed": passed,
               "derivation": VerificationReport(
                   tuple(map(CheckBlock.of, derivation))).to_dict(),
               "dependence": VerificationReport(
                   tuple(map(CheckBlock.of, dependence))).to_dict()}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._emit_json(payload, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        cli._emit_json(payload, str(path))
        written = path.read_text()
    assert stdout.getvalue() == written == reference_json(payload)


#: A NaN with another payload than ``float("nan")``'s.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<q", 0x7FF8_0000_0000_0001))[0]
ROW_FLOATS = st.sampled_from(EDGE_FLOATS + [NAN_PAYLOAD]) | st.floats()


def float_columns(rows):
    """`rows` floats that are one value, drawn from a small pool (0.0
    and -0.0, or up to three values), or distinct bit patterns."""
    pool = st.just([0.0, -0.0]) | st.lists(ROW_FLOATS, min_size=1, max_size=3)
    return (ROW_FLOATS.map(lambda value: [value] * rows)
            | pool.flatmap(lambda values: st.lists(
                st.sampled_from(values), min_size=rows, max_size=rows))
            | st.lists(ROW_FLOATS, min_size=rows, max_size=rows,
                       unique_by=lambda value: struct.pack("<d", value)))


@st.composite
def check_blocks(draw):
    """A block with any name text around %d fields, any kind, and value
    columns that are each constant, pooled or distinct, over up to a few
    slices of rows; slack and passed are measured from lhs and rhs or
    drawn the same way.  A block with no index columns has one row."""
    from mdepbounds import CheckBlock
    columns = draw(st.integers(0, 3))
    parts = draw(st.lists(ROW_TEXT, min_size=columns + 1, max_size=columns + 1))
    fmt = "%d".join(part.replace("%", "%%") for part in parts)
    rows = 1 if columns == 0 else draw(st.integers(0, 10))
    index = np.array(draw(st.lists(
        st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=columns, max_size=columns),
        min_size=rows, max_size=rows)), dtype=np.int64).reshape(rows, columns)
    make = draw(st.sampled_from([CheckBlock.eq, CheckBlock.le]))
    block = make(fmt, draw(float_columns(rows)), draw(float_columns(rows)),
                 draw(ROW_FLOATS), index)
    slack, passed = block.slack, block.passed
    if draw(st.booleans()):
        slack = np.array(draw(float_columns(rows)), dtype=np.float64)
        passed = np.array(draw(st.booleans().map(lambda ok: [ok] * rows)
                               | st.lists(st.booleans(), min_size=rows, max_size=rows)),
                          dtype=bool)
    kind = draw(st.sampled_from(["le", "eq"]) | ROW_TEXT)
    return CheckBlock(fmt, index, kind, block.lhs, block.rhs, block.tol, slack, passed)


#: Edge values overflow numpy's subtraction, which warns where float
#: arithmetic is silent; the text is what this test is about.
@pytest.mark.filterwarnings("ignore:.*encountered in subtract:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(blocks=st.lists(check_blocks(), max_size=5))
def test_block_rows_match_reference(blocks):
    """Rows written from block columns, in slices of three rows here, are
    ``json.dumps`` of the report's ``to_dict()``, byte for byte."""
    report = VerificationReport(tuple(blocks))
    slice_rows = cli._SLICE_ROWS
    cli._SLICE_ROWS = 3
    try:
        text = "".join(cli._json_pieces({"report": report, "after": [report]}))
    finally:
        cli._SLICE_ROWS = slice_rows
    assert text == reference_json({"report": report.to_dict(),
                                   "after": [report.to_dict()]})


def test_records_are_written_as_their_blocks():
    """A record holding an int or a numpy scalar enters a report as its
    one-row block, so ``to_dict()`` and the emitter give the same text
    (``3.0``, never ``3``)."""
    from mdepbounds import Check, CheckBlock
    records = [Check("int", "le", 3, 2, 0, 1, False),
               Check.le("ints", 3, 2, 0),
               Check("numpy", "eq", np.float64(0.5), np.float64(0.25),
                     np.float64(1e-9), np.float64(0.25), np.bool_(False)),
               Check.eq("numpy-made", np.float64(1 / 3), np.float64(0.25), 1e-9)]
    report = VerificationReport(tuple(map(CheckBlock.of, records)))
    text = "".join(cli._json_pieces({"r": report}))
    assert text == reference_json({"r": report.to_dict()})
    assert '"lhs": 3.0,' in text and '"tol": 0.0,' in text


#: Text a splice at the check rows' markers could trip on: a NUL, quotes,
#: a "checks" key of its own, %-fields and 32 hex digits in quotes.
SPLICE_TEXT = 'nul \x00 say "hi" "checks": [] 100% %s %%d "' + "0f" * 16 + '"'


def test_splice_keeps_any_text():
    """A string value, a key and a check name, hence also ``worst``,
    holding any of the splice's own characters come out as json.dumps
    writes them."""
    from mdepbounds import Check, CheckBlock
    report = VerificationReport((
        CheckBlock.le("row %d", [0.0, 0.5], [1.0, 1.0], 0.0, np.array([[1], [2]])),
        CheckBlock.of(Check.le(SPLICE_TEXT, 2.0, 1.0, 0.0))))
    assert report.worst().name == SPLICE_TEXT
    payload = {"text": SPLICE_TEXT, SPLICE_TEXT: [SPLICE_TEXT, 0.1],
               "report": report, "after": SPLICE_TEXT}
    text = "".join(cli._json_pieces(payload))
    assert text == reference_json(payload)
    assert text.count(json.dumps(SPLICE_TEXT)) == 6  # 4 values, worst, name


def test_splice_places_each_report(tmp_path, monkeypatch):
    """Two different reports in one payload, one in a list inside a dict
    inside the payload, each get their own rows at their own indent."""
    from mdepbounds import check_m_dependence, verify_derivation
    model = consecutive_run_model(8)
    derivation = verify_derivation(model)
    dependence = check_m_dependence(model, 1)
    assert not dependence.passed and derivation.passed
    monkeypatch.setattr(cli, "_SLICE_ROWS", 4)
    payload = {"derivation": derivation, "tol": 1 / 3,
               "outer": {"inner": [2 / 3, dependence, "tail"]}}
    path = tmp_path / "out.json"
    cli._emit_json(payload, str(path))
    assert path.read_text() == reference_json(payload)


@pytest.mark.parametrize("wrap", [
    lambda report: report, lambda report: {"r": report},
    lambda report: [{"r": [report, report]}, report],
], ids=["alone", "in-dict", "nested"])
def test_splice_of_a_report_without_blocks(wrap):
    payload = wrap(VerificationReport(()))
    assert "".join(cli._json_pieces(payload)) == reference_json(payload)


def test_written_reports_are_freed_without_the_cycle_collector():
    """Once written, a report's blocks are freed by reference counting: a
    long run of `verify` calls must not hold every call's arrays until
    the next full collection."""
    import gc
    import weakref
    from mdepbounds import CheckBlock
    report = VerificationReport((CheckBlock.le("row %d", [0.0, 2.0], [1.0, 1.0],
                                               0.0, np.array([[1], [2]])),))
    block = weakref.ref(report.blocks[0])
    gc.disable()
    try:
        text = "".join(cli._json_pieces({"r": [report]}))
        del report
        assert block() is None
    finally:
        gc.enable()
    assert '"worst": "row 2"' in text


def test_report_refuses_records():
    from mdepbounds import Check
    record = Check.le("x", 0.0, 1.0, 0.0)
    with pytest.raises(TypeError, match=r"CheckBlock\.of"):
        VerificationReport((record,))


@pytest.mark.parametrize("model", ["w1", "e1", "misdeclared"])
def test_audit_reports_roundtrip_through_dict(w1_path, e1_path, misdeclared_path,
                                             model):
    from mdepbounds import check_m_dependence, load_model, verify_derivation
    path = {"w1": w1_path, "e1": e1_path, "misdeclared": misdeclared_path}[model]
    family = load_model(path)
    for report in (verify_derivation(family),
                   check_m_dependence(family, max_subset=3)):
        assert VerificationReport.from_dict(report.to_dict()) == report


def record_dict(checks):
    """``VerificationReport.to_dict`` over check records, reduced the way
    a loop over the records does it: ``max`` picks the worst check, the
    first of a tie, and a NaN never replaces it unless it comes first."""
    worst = max(checks, key=lambda c: c.violation, default=None)
    return {"passed": all(c.passed for c in checks), "total": len(checks),
            "failed": sum(not c.passed for c in checks),
            "worst": None if worst is None else worst.name,
            "checks": [c.to_dict() for c in checks]}


@pytest.mark.parametrize("tol", ["1e-9", "0", "-1", "inf", "nan"])
@pytest.mark.parametrize("model", ["w1", "e1", "misdeclared"])
def test_verify_tolerance_edges_match_record_walks(capsys, w1_path, e1_path,
                                                  misdeclared_path, model, tol):
    """`verify` writes its rows, counts and worst check from the blocks'
    arrays; at every tolerance edge (all fail, all pass, NaN) they are
    the per-check walk's, byte for byte."""
    from derivation_walk import derivation_walk
    from mdepbounds import check_m_dependence, load_model
    from mdepbounds.dependence import MAX_DETAILED_FAILURES
    path = {"w1": w1_path, "e1": e1_path, "misdeclared": misdeclared_path}[model]
    family = load_model(path)
    derivation = derivation_walk(family, tol=float(tol)).checks
    dependence = check_m_dependence(family, max_subset=3, tol=float(tol)).checks
    passed = all(c.passed for c in derivation + dependence)
    code, out, err = run_cli(capsys, "verify", path, "--max-subset", "3",
                             f"--tol={tol}")
    assert (code, err) == (0 if passed else 1, "")
    assert out == reference_json({"passed": passed,
                                  "derivation": record_dict(derivation),
                                  "dependence": record_dict(dependence)})
    if model == "misdeclared" and tol == "1e-9":
        details = [c for c in dependence if c.name.startswith("atom_factorization")]
        assert len(details) == MAX_DETAILED_FAILURES


def test_verify_holds_no_record_per_check(tmp_path, monkeypatch):
    """`verify` at N = 400, m = 1 emits 120,014 checks.  Written from the
    blocks' columns, its traced peak stays below 24 MiB (63 MiB with a
    record and a row dict per check), and it makes no more ``Check.eq``
    or ``Check.le`` records than the audits have blocks (17 derivation
    blocks at m = 1, at most 51 dependence blocks)."""
    import tracemalloc
    from mdepbounds import Check
    from mdepbounds.verify import derivation_check_count
    path = tmp_path / "run400.json"
    dump_model(consecutive_run_model(400, m=1), path)
    records = 0

    def counted(make):
        def count(*args):
            nonlocal records
            records += 1
            return make(*args)
        return count

    monkeypatch.setattr(Check, "eq", counted(Check.eq))
    monkeypatch.setattr(Check, "le", counted(Check.le))
    tracemalloc.start()
    try:
        code = main(["verify", str(path), "--max-subset", "2",
                     "--out", str(tmp_path / "out.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads((tmp_path / "out.json").read_text())["derivation"]["total"] \
        == derivation_check_count(400, 1) == 120_012
    assert peak < 24 << 20
    assert records <= 17 + 51
