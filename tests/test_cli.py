"""CLI verbs, exit codes, and output schemas."""

import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdepbounds import (
    BoundReport,
    ExplicitEventFamily,
    WindowModel,
    consecutive_run_model,
    dump_model,
    expand_window_model,
    model_to_dict,
)
from mdepbounds import cli
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
    digits, as the JSON output promises."""
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
    def test_verbs_match_reference(self, capsys, payloads, tmp_path, w1_path,
                                   e1_path, broken_path, argv, code):
        # A run model's expansion claiming one less than its window
        # needs: it fails the dependence audit with a full detail list.
        expanded = expand_window_model(consecutive_run_model(8))
        misdeclared = tmp_path / "misdeclared.json"
        dump_model(ExplicitEventFamily(expanded.outcome_weights,
                                       expanded.event_masks, 1), misdeclared)
        paths = {"w1": w1_path, "e1": e1_path, "broken": broken_path,
                 "misdeclared": str(misdeclared)}
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
ROW_TEXT = st.text(st.sampled_from('ab"\\\n\t/é√ \x00[],: ') | st.characters(),
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
    from mdepbounds import VerificationReport
    payload = {"passed": passed,
               "derivation": VerificationReport(tuple(derivation)).to_dict(),
               "dependence": VerificationReport(tuple(dependence)).to_dict()}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._emit_json(payload, None)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        cli._emit_json(payload, str(path))
        written = path.read_text()
    assert stdout.getvalue() == written == reference_json(payload)
