"""Reference m-dependence audit: the plain walk over every index subset.

``check_m_dependence`` evaluates one representative per subset group,
weights it by the group's size, and measures all groups of one split
shape in one batched pass.  This module keeps the walk it replaced,
which evaluates every subset of every size and every (I, J) split of
each with a scalar measure of its own, so tests can require the batched
audit to give the same report.  It shares only the report records (and
the detail-list length) with the package.
"""

from __future__ import annotations

import itertools

import numpy as np

from mdepbounds import (Check, CheckBlock, VerificationReport,
                        pattern_distribution)
from mdepbounds.dependence import MAX_DETAILED_FAILURES


def _sum_out(law: np.ndarray, axes: list[int]) -> np.ndarray:
    """Sum `law` over the ascending `axes`, keeping dims, adding terms one
    at a time in pattern order so ties break as in a scalar loop."""
    keep = [a for a in range(law.ndim) if a not in axes]
    shape = [1 if a in axes else 2 for a in range(law.ndim)]
    return law.transpose(axes + keep).reshape(-1, *shape).cumsum(axis=0)[-1]


def worst_atom_violation(joint: np.ndarray, pos_i: tuple[int, ...],
                         pos_j: tuple[int, ...], u: int) -> float:
    """Largest signed P(a and b) - P(a)P(b) over atom pairs, by magnitude.

    `pos_i` and `pos_j` partition the u pattern bits.  Bit t is axis
    u-1-t of the (2,)*u law, so its C-order ravel is the pattern order
    and the first pattern of largest magnitude wins.
    """
    law = joint.reshape((2,) * u)
    marg_i = _sum_out(law, sorted(u - 1 - t for t in pos_j))
    marg_j = _sum_out(law, sorted(u - 1 - t for t in pos_i))
    diff = (law - marg_i * marg_j).ravel()
    return float(diff[np.abs(diff).argmax()])


def chains(subset: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Split sorted indices into runs whose consecutive gaps are <= m."""
    runs: list[list[int]] = [[subset[0]]]
    for a, b in itertools.pairwise(subset):
        if b - a > m:
            runs.append([b])
        else:
            runs[-1].append(b)
    return [tuple(run) for run in runs]


def subset_walk(family, m=None, *, max_subset=4, tol=1e-9) -> VerificationReport:
    """The report of ``check_m_dependence``, subset by subset."""
    m = family.m if m is None else m
    n = family.n_events
    checks: list[Check] = []
    worst_by_size: dict[int, float] = {}
    n_splits_by_size: dict[int, int] = {}
    failures: list[Check] = []
    for size in range(2, min(max_subset, n - m) + 1):  # no larger size has a split
        worst_by_size[size] = 0.0
        n_splits_by_size[size] = 0
        for subset in itertools.combinations(range(1, n + 1), size):
            runs = chains(subset, m)
            if len(runs) < 2:
                continue
            joint = pattern_distribution(family, subset)
            position = {k: t for t, k in enumerate(subset)}
            for mask in range(1 << (len(runs) - 1)):
                side_i = [runs[0]]
                side_j = []
                for c, run in enumerate(runs[1:]):
                    (side_i if mask >> c & 1 else side_j).append(run)
                if not side_j:
                    continue
                part_i = tuple(k for run in side_i for k in run)
                part_j = tuple(k for run in side_j for k in run)
                pos_i = tuple(position[k] for k in part_i)
                pos_j = tuple(position[k] for k in part_j)
                violation = worst_atom_violation(joint, pos_i, pos_j, size)
                n_splits_by_size[size] += 1
                if abs(violation) > abs(worst_by_size[size]):
                    worst_by_size[size] = violation
                if abs(violation) > tol and len(failures) < MAX_DETAILED_FAILURES:
                    failures.append(Check.eq(
                        f"atom_factorization[I={part_i},J={part_j}]",
                        violation, 0.0, tol))

    for size in sorted(worst_by_size):
        checks.append(Check.eq(
            f"factorization[subset_size={size},splits={n_splits_by_size[size]}]",
            worst_by_size[size], 0.0, tol))
    checks.extend(failures)
    return VerificationReport(tuple(map(CheckBlock.of, checks)))
