"""Exact union and complement-intersection probabilities.

Explicit families reduce to weighted sweeps over their atoms, the
outcomes lumped once by event membership: at most min(M, 2**N) of them
for M outcomes and N events.
Window models use the transfer-operator kernel ``WindowKernel.sweep`` in
:mod:`mdepbounds.families`: a forward dynamic program over the joint law
of the last m symbols that consumes one symbol per step and zeroes the
mass wherever a tracked window fires.  Its input is a row of gaps
between tracked windows, clamped at m+1.  The kernel stores the state
after each mark it sweeps, per gap prefix: a new row costs
O(L * s**(m+1)) for its clamped span L = 1 + the sum of its gaps, less
the span of its longest stored prefix, and a repeat one reduce of its
stored state.  A batch of K index rows of length u costs one clamp of
its (K, u) gap array and one compare of it against its first row: a
batch of one clamped row, as a residue class's pairs or triples are, is
one sweep, and any other batch finds its distinct rows with one
``np.unique`` over the gap array before the sweeps.  A
contiguous range a..b reads entry b - a + 1 of the kernel's survival
curve: O(1) once the curve is that long, else O(s**(m+1)) per step it
is extended by, and models that differ only in horizon share the curve.
``complement_intersection_probs`` answers many index sets of one size at
once and asks the family once per distinct query: once per row of gaps
clamped at m+1 on a window model, once per row on an explicit family.
It is the only route to a family's ``survivals``: the one-set
``complement_intersection_prob`` asks it for a one-row array.
The pairs and triples of a residue class mod m+1 all share one clamped
row, and the far block pairs of one shift share at most nine (first,
interior or last block on each side), so a window model's derivation
audit makes O(m) queries of these kinds at any N.
The kernel clamps each law it returns into [0, 1], once per sweep, and
``union_prob`` and ``complement_intersection_probs`` clamp their answers
again; at desk-scale horizons the accumulated rounding stays far below
the 1e-9 comparison tolerances used elsewhere.
"""

from __future__ import annotations

import operator
from typing import Iterable

import numpy as np

from .families import Family, _nonempty_interval, _require_event_indices


def union_prob(family: Family, first: int, last: int) -> float:
    """Exact P(A_first or ... or A_last); 0 for an empty interval.

    The interval is empty when first > last.  Nonempty intervals must
    satisfy 1 <= first <= last <= N; a window model refuses one longer
    than ``MAX_UNION_EVENTS`` with CapExceededError.
    """
    first = operator.index(first)
    last = operator.index(last)
    if not _nonempty_interval(family, first, last):
        return 0.0
    return min(1.0, max(0.0, family.union(first, last)))


def complement_intersection_prob(family: Family, indices: Iterable[int]) -> float:
    """Exact P(no A_k occurs, k in `indices`); 1 for the empty set.

    The empty intersection is the whole space, hence probability 1 (empty
    products count as 1).  Works for arbitrary, not necessarily
    contiguous, index sets.
    """
    members = sorted({operator.index(k) for k in indices})
    if not members:
        return 1.0
    return float(complement_intersection_probs(family, [members])[0])


def complement_intersection_probs(family: Family, rows: np.ndarray) -> np.ndarray:
    """``complement_intersection_prob`` of every row of a (K, L) integer
    array whose rows are strictly increasing 1-based indices, L >= 1.

    The rows are validated once as a whole and the family answers each
    distinct query once (see the module docstring).
    """
    try:
        rows = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        # An index beyond int64 is outside 1..N for any array-sized N.
        flat = [operator.index(k) for row in rows for k in row]
        _require_event_indices(family, (min(flat), max(flat)))
        raise
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise ValueError(f"rows must be a (K, L) array with L >= 1 "
                         f"(got shape {rows.shape})")
    if not rows.size:
        return np.ones(0)
    if np.any(rows[:, 1:] <= rows[:, :-1]):
        raise ValueError("every row must be strictly increasing")
    _require_event_indices(family, (int(rows.min()), int(rows.max())))
    return np.clip(family.survivals(rows), 0.0, 1.0)


def block_event_prob(family: Family, first: int, last: int) -> float:
    """Probability of a block event: the union over one index interval."""
    return union_prob(family, first, last)
