"""Exact validation of a claimed dependence range m.

m-dependence says: whenever two index sets I and J are separated by more
than m positions, the sigma-algebras generated by their events are
independent.  With finitely many events that is exactly factorization
over atoms: for every sign pattern a of the events in I and b of those
in J, P(a and b) = P(a) * P(b).  This module enumerates all index sets
with |I| + |J| <= max_subset and measures the worst factorization error.

Window models get a structural certificate as well (windows further than
m apart read disjoint symbols), but the numerical check still runs.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import CapExceededError
from .families import Family, WindowModel, _require_event_indices
from .reports import Check, VerificationReport

#: Enumerating more candidate index subsets than this raises instead of
#: silently running for hours; lower max_subset to stay under it.
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


def _chains(sorted_indices: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """Split sorted indices into runs whose consecutive gaps are <= m."""
    chains: list[list[int]] = [[sorted_indices[0]]]
    for a, b in itertools.pairwise(sorted_indices):
        if b - a > m:
            chains.append([b])
        else:
            chains[-1].append(b)
    return [tuple(c) for c in chains]


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

    Enumerates every index set U of size 2..max_subset, splits it into
    all (I, J) bipartitions with separation > m, and checks that every
    atom probability factorizes within tol.  Reports one summary check
    per subset size (carrying the worst signed violation) plus detail
    checks for failing splits.  A family with no qualifying splits
    passes vacuously.

    Raises CapExceededError when the subset enumeration would exceed
    `max_subsets`; lowering max_subset (pairwise only: 2) restores
    feasibility for large horizons.
    """
    m = family.m if m is None else operator.index(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    max_subset = operator.index(max_subset)
    if max_subset < 2:
        raise ValueError("max_subset must be >= 2")
    n = family.n_events

    total = sum(math.comb(n, size) for size in range(2, max_subset + 1))
    if total > max_subsets:
        raise CapExceededError(
            f"{total} candidate index subsets exceed the cap {max_subsets}; "
            f"lower max_subset (currently {max_subset}) or raise max_subsets")

    checks: list[Check] = []
    if isinstance(family, WindowModel) and m >= family.m:
        # Windows at gap > m >= window length - 1 read disjoint symbols.
        checks.append(Check.eq(
            f"structural_window_independence[m={m}]", 0.0, 0.0, tol))

    worst_by_size: dict[int, float] = {}
    n_splits_by_size: dict[int, int] = {}
    failures: list[Check] = []

    for size in range(2, max_subset + 1):
        worst_by_size[size] = 0.0
        n_splits_by_size[size] = 0
        for subset in itertools.combinations(range(1, n + 1), size):
            chains = _chains(subset, m)
            if len(chains) < 2:
                continue
            joint = pattern_distribution(family, subset)
            position = {k: t for t, k in enumerate(subset)}
            # Bipartitions of the chains; fixing chain 0 on the I side
            # dedupes (I, J) against (J, I).
            for mask in range(1 << (len(chains) - 1)):
                side_i = [chains[0]]
                side_j = []
                for c, chain in enumerate(chains[1:]):
                    (side_i if mask >> c & 1 else side_j).append(chain)
                if not side_j:
                    continue
                part_i = tuple(k for chain in side_i for k in chain)
                part_j = tuple(k for chain in side_j for k in chain)
                pos_i = tuple(position[k] for k in part_i)
                pos_j = tuple(position[k] for k in part_j)
                violation = _worst_atom_violation(joint, pos_i, pos_j, size)
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
    return VerificationReport(tuple(checks))
