"""Exact validation of a claimed dependence range m.

m-dependence says: whenever two index sets I and J are separated by more
than m positions, the sigma-algebras generated by their events are
independent.  With finitely many events that is exactly factorization
over atoms: for every sign pattern a of the events in I and b of those
in J, P(a and b) = P(a) * P(b).  This module covers all index sets with
|I| + |J| <= max_subset and measures the worst factorization error.

A subset's violations depend only on its pattern law and on which of its
gaps exceed m, so the family hands the subsets over in groups that share
both (``Family.subset_groups``) and one representative per group is
evaluated.  On a window model the group of a subset is its gap tuple
clamped at c = max(m, model m) + 1: gaps of c or more give the same
pattern law and split alike.  A tuple with span S and j gaps equal to c
stands for C(N-1-S+j+1, j+1) subsets, so the audit costs the same at any
horizon N.  On an explicit family every subset is its own group.  The
cap ``MAX_SUBSETS`` counts groups, the representatives evaluated.

A family whose representation fixes a dependence range
(``structural_range``) gets a structural certificate as well, but the
numerical check still runs.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from typing import Iterator

import numpy as np

from .errors import CapExceededError
from .families import Family, _require_event_indices
from .reports import CheckBlock, VerificationReport

#: Evaluating more candidate index subsets (one per subset group) than
#: this raises instead of silently running for hours; lower max_subset
#: to stay under it.
MAX_SUBSETS = 200_000

#: At most this many failing (I, J) splits are itemized in the report
#: (summary checks always cover everything).
MAX_DETAILED_FAILURES = 50


def pattern_distribution(family: Family, indices: tuple[int, ...]) -> np.ndarray:
    """Exact joint law of the event indicators at `indices`.

    Entry p is the probability that exactly the events whose position t
    in `indices` has bit t set in p occur.  Length 2**len(indices), so
    the empty tuple gives [1.0].  Raises IndexError for an index outside
    1..N and ValueError unless the indices are strictly increasing.
    """
    indices = tuple(operator.index(k) for k in indices)
    if not indices:
        return np.ones(1)
    if any(a >= b for a, b in itertools.pairwise(indices)):
        raise ValueError(f"indices {indices} must be strictly increasing")
    _require_event_indices(family, indices)
    return family.pattern_law(indices).copy()  # memoized window laws are read-only


def _chains(indices: tuple[int, ...], m: int) -> list[list[int]]:
    """Split the positions of sorted `indices` into runs whose consecutive
    index gaps are <= m."""
    chains = [[0]]
    for t, (a, b) in enumerate(itertools.pairwise(indices), start=1):
        if b - a > m:
            chains.append([t])
        else:
            chains[-1].append(t)
    return chains


def _splits(chains: list[list[int]]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(I, J) position tuples for every bipartition of the chains; fixing
    chain 0 on the I side dedupes (I, J) against (J, I)."""
    for mask in range(1 << (len(chains) - 1)):
        side_i = [chains[0]]
        side_j = []
        for c, chain in enumerate(chains[1:]):
            (side_i if mask >> c & 1 else side_j).append(chain)
        if side_j:
            yield (tuple(t for chain in side_i for t in chain),
                   tuple(t for chain in side_j for t in chain))


def _at(subset: tuple[int, ...], positions: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(subset[t] for t in positions)


def _sum_out(law: np.ndarray, axes: list[int]) -> np.ndarray:
    """Sum `law` over the ascending `axes`, keeping dims, adding terms one
    at a time in pattern order so ties break as in a scalar loop."""
    keep = [a for a in range(law.ndim) if a not in axes]
    shape = [1 if a in axes else 2 for a in range(law.ndim)]
    return law.transpose(axes + keep).reshape(-1, *shape).cumsum(axis=0)[-1]


def _worst_atom_violation(joint: np.ndarray, pos_i: tuple[int, ...],
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


def check_m_dependence(family: Family, m: int | None = None, *,
                       max_subset: int = 4, tol: float = 1e-9,
                       max_subsets: int = MAX_SUBSETS) -> VerificationReport:
    """Test whether a family satisfies the claimed dependence range m.

    Covers every index set U of size 2..max_subset, splits it into all
    (I, J) bipartitions with separation > m, and checks that every atom
    probability factorizes within tol.  Reports one summary check per
    subset size (the worst signed violation, first in subset order among
    ties, and the number of splits) plus detail checks for the first
    MAX_DETAILED_FAILURES failing splits in subset order.  A family with
    no qualifying splits passes vacuously.

    The family groups the subsets (``subset_groups``): members of a
    group share the pattern law and every gap below m+1, so they give
    the same violations, and one representative per group is evaluated
    and weighted by the group's size.  On a window model a group is a gap
    tuple clamped at c = max(m, model m) + 1, so the work is the number
    of such tuples, at most c**(max_subset-1) per size at any N; an
    explicit family has one group per subset.

    Raises CapExceededError when the number of groups (the candidate
    index subsets evaluated) would exceed `max_subsets`; lowering
    max_subset (pairwise only: 2) restores feasibility.
    """
    m = family.m if m is None else operator.index(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    max_subset = operator.index(max_subset)
    if max_subset < 2:
        raise ValueError("max_subset must be >= 2")
    sizes = range(2, max_subset + 1)

    total = sum(family.subset_group_count(size, m + 1) for size in sizes)
    if total > max_subsets:
        raise CapExceededError(
            f"{total} candidate index subsets exceed the cap {max_subsets}; "
            f"lower max_subset (currently {max_subset}) or raise max_subsets")

    blocks: list[CheckBlock] = []
    if family.structural_range is not None and m >= family.structural_range:
        # Events further apart than m >= structural_range are independent.
        blocks.append(CheckBlock.eq(
            f"structural_window_independence[m={m}]", 0.0, 0.0, tol))

    failures: list[CheckBlock] = []
    for size in sizes:
        worst = 0.0
        n_splits = 0
        # Every member of a failing group fails, its first member first,
        # and groups come in order of their first members: the first k
        # failures in subset order lie in the first k failing groups.
        failing = []
        for group in family.subset_groups(size, m + 1):
            chains = _chains(group.first, m)
            if len(chains) < 2:
                continue
            joint = pattern_distribution(family, group.first)
            bad = []
            for pos_i, pos_j in _splits(chains):
                violation = _worst_atom_violation(joint, pos_i, pos_j, size)
                n_splits += group.count
                if abs(violation) > abs(worst):
                    worst = violation
                if abs(violation) > tol:
                    bad.append((pos_i, pos_j, violation))
            if bad and len(failing) < MAX_DETAILED_FAILURES - len(failures):
                failing.append(zip(group.members, itertools.repeat(bad)))
        blocks.append(CheckBlock.eq(
            f"factorization[subset_size={size},splits={n_splits}]",
            worst, 0.0, tol))
        details = (
            CheckBlock.eq(f"atom_factorization[I={_at(subset, pos_i)},"
                          f"J={_at(subset, pos_j)}]", violation, 0.0, tol)
            for subset, bad in heapq.merge(*failing)
            for pos_i, pos_j, violation in bad)
        failures.extend(itertools.islice(
            details, MAX_DETAILED_FAILURES - len(failures)))

    return VerificationReport.from_blocks(blocks + failures)
