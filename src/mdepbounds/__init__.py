"""Exact oracles and finite-sample union lower bounds for m-dependent
event families.

The package models finite families of events with a declared dependence
range m (indices further than m apart generate independent
sigma-algebras), computes exact union probabilities by enumeration or a
sliding-window dynamic program, evaluates explicit first- and
second-order union lower bounds with a sharpness comparison and a
windowed rate form, and verifies both the bounds' derivation and the
dependence claim against the exact oracles, with seeded Monte Carlo as an
independent cross-check.
"""

import importlib

#: Each exported name's home module, listed by module.  A name is imported
#: from it on first access (PEP 562), so importing the package, or one
#: module of it, loads no module that its caller does not reach.
_HOME = {name: module for module, names in {
    "bounds": ("BoundReport", "MonteCarloRecord", "ThresholdFunction",
               "WindowedBound", "build_report", "build_threshold",
               "first_order_bound", "second_order_bound",
               "second_order_sharper", "windowed_bound"),
    "dependence": ("check_m_dependence", "pattern_distribution"),
    "errors": ("BoundViolationError", "CapExceededError", "ModelSpecError"),
    "families": ("ExplicitEventFamily", "WindowModel", "event_prob",
                 "expand_window_model", "pair_prob", "partial_sum", "t_local",
                 "total_mass"),
    "generate": ("consecutive_run_model", "random_window_model"),
    "modelspec": ("dump_model", "load_model", "model_to_dict", "parse_model"),
    "montecarlo": ("MonteCarloEstimate", "estimate_union", "wilson_interval"),
    "oracle": ("block_event_prob", "complement_intersection_prob",
               "complement_intersection_probs", "union_prob"),
    "partitions": ("block_table", "pair_shift_count", "residue_classes",
                   "shifted_blocks"),
    "reports": ("Check", "CheckBlock", "VerificationReport"),
    "verify": ("verify_derivation",),
}.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import ``name`` from its home module, once: the value is kept in
    the package's globals, where later lookups find it."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
