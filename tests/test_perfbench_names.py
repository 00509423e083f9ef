"""The names the benchmark harness wraps or reads still exist.

``perfbench/spans.py`` wraps the functions listed in its ``TRACED`` table
and reads a few report attributes; a rename there would only show when
the harness runs with ``--trace 1``.  The table is read as source text,
so this test does not import the harness.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_table() -> dict:
    if not SPANS.exists():
        pytest.skip("perfbench/spans.py is absent")
    for node in ast.parse(SPANS.read_text()).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
            return ast.literal_eval(node.value)
    pytest.fail("perfbench/spans.py defines no TRACED table")


def test_traced_functions_are_callable():
    table = traced_table()
    assert table
    for module, names in table.items():
        package_module = importlib.import_module(f"mdepbounds.{module}")
        for name in names:
            assert callable(getattr(package_module, name, None)), f"{module}.{name}"


def test_read_report_names_exist():
    traced_table()
    from mdepbounds.reports import VerificationReport
    from mdepbounds.oracle import complement_intersection_prob
    assert callable(VerificationReport.to_dict)
    assert isinstance(VerificationReport.n_checks, property)
    assert callable(complement_intersection_prob)
