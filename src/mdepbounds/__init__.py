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

from .bounds import (
    BoundReport,
    MonteCarloRecord,
    ThresholdFunction,
    WindowedBound,
    build_report,
    build_threshold,
    first_order_bound,
    second_order_bound,
    second_order_sharper,
    windowed_bound,
)
from .dependence import check_m_dependence, pattern_distribution
from .errors import BoundViolationError, CapExceededError, ModelSpecError
from .families import (
    ExplicitEventFamily,
    WindowModel,
    event_prob,
    expand_window_model,
    pair_prob,
    partial_sum,
    t_local,
    total_mass,
)
from .generate import consecutive_run_model, random_window_model
from .modelspec import dump_model, load_model, model_to_dict, parse_model
from .montecarlo import MonteCarloEstimate, estimate_union, wilson_interval
from .oracle import (block_event_prob, complement_intersection_prob,
                     complement_intersection_probs, union_prob)
from .partitions import (block_table, pair_shift_count, residue_classes,
                         shifted_blocks)
from .reports import Check, CheckBlock, VerificationReport
from .verify import verify_derivation

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BoundViolationError",
    "CapExceededError",
    "Check",
    "CheckBlock",
    "ExplicitEventFamily",
    "ModelSpecError",
    "MonteCarloEstimate",
    "MonteCarloRecord",
    "ThresholdFunction",
    "VerificationReport",
    "WindowModel",
    "WindowedBound",
    "block_event_prob",
    "block_table",
    "build_report",
    "build_threshold",
    "check_m_dependence",
    "complement_intersection_prob",
    "complement_intersection_probs",
    "consecutive_run_model",
    "dump_model",
    "estimate_union",
    "event_prob",
    "expand_window_model",
    "first_order_bound",
    "load_model",
    "model_to_dict",
    "pair_prob",
    "pair_shift_count",
    "parse_model",
    "partial_sum",
    "pattern_distribution",
    "random_window_model",
    "residue_classes",
    "second_order_bound",
    "second_order_sharper",
    "shifted_blocks",
    "t_local",
    "total_mass",
    "union_prob",
    "verify_derivation",
    "wilson_interval",
    "windowed_bound",
]
