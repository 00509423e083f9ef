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

The representatives are evaluated in batches, not one by one.  A split
shape is one (I, J) bipartition of the positions 0..k-1 of a k-subset,
with position 0 in I; a subset admits it when I and J are unions of its
chains (the runs of positions whose gaps stay within m).  The groups of
one size come in chunks of at most ``BATCH_CELLS`` pattern-law cells;
the family answers a chunk's laws in one call (``pattern_laws``), and
each split shape that some row of the chunk admits is measured on all
those rows in one pass of array operations.  So the numpy calls per
chunk grow with the admitted split shapes, at most 2**(k-1) - 1, not
with the groups, and each number is the one a scalar walk over the
same subset gives.  Every row is measured from the family's queries:
no range that a representation declares is taken on trust.
"""

from __future__ import annotations

import heapq
import itertools
import operator

import numpy as np

from .errors import CapExceededError
from .families import Family, _require_event_indices
from .reports import CheckBlock, VerificationReport, require_tol

#: Evaluating more candidate index subsets (one per subset group) than
#: this raises instead of silently running for hours; lower max_subset
#: to stay under it.  Sizes above N - m have no split and are not
#: walked, so they count nothing.
MAX_SUBSETS = 200_000

#: Pattern-law cells per batch: the audit takes the subset groups of
#: size k in chunks of BATCH_CELLS >> k rows (at least one), so its
#: working memory does not grow with the number of groups.
BATCH_CELLS = 1 << 16

#: Widest pattern law, in events, that is built: a law of u events has
#: 2**u cells per kernel state, so one law of this width fills a whole
#: BATCH_CELLS chunk.
MAX_PATTERN_WIDTH = 16

#: At most this many failing (I, J) splits are itemized in the report
#: (summary checks always cover everything).
MAX_DETAILED_FAILURES = 50


def pattern_distribution(family: Family, indices: tuple[int, ...]) -> np.ndarray:
    """Exact joint law of the event indicators at `indices`.

    Entry p is the probability that exactly the events whose position t
    in `indices` has bit t set in p occur.  Length 2**len(indices), so
    the empty tuple gives [1.0].  Raises IndexError for an index outside
    1..N, ValueError unless the indices are strictly increasing, and
    CapExceededError for more than ``MAX_PATTERN_WIDTH`` indices.
    """
    indices = tuple(operator.index(k) for k in indices)
    if not indices:
        return np.ones(1)
    if any(a >= b for a, b in itertools.pairwise(indices)):
        raise ValueError(f"indices {indices} must be strictly increasing")
    _require_event_indices(family, indices)
    _require_width(len(indices))
    return family.pattern_laws(np.array([indices]))[0]


def _require_width(width: int) -> None:
    if width > MAX_PATTERN_WIDTH:
        raise CapExceededError(f"pattern laws of {width} events exceed the "
                               f"width cap {MAX_PATTERN_WIDTH}")


def _split(shape: int, size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The (I, J) positions of split shape `shape`: position t >= 1 is in
    I when bit t-1 is set, and position 0 always is."""
    side_i = [t for t in range(1, size) if shape >> (t - 1) & 1]
    return (0, *side_i), tuple(t for t in range(1, size) if t not in side_i)


def _at(subset: tuple[int, ...], positions: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(subset[t] for t in positions)


def _sum_out(laws: np.ndarray, axes: list[int]) -> np.ndarray:
    """Sum every law of a (K, 2, .., 2) batch over the ascending `axes`
    (never the batch axis 0), keeping dims, adding terms one at a time in
    pattern order so ties break as in a scalar loop."""
    keep = [a for a in range(1, laws.ndim) if a not in axes]
    shape = [1 if a in axes else 2 for a in range(1, laws.ndim)]
    terms = laws.transpose([0, *axes, *keep]).reshape(len(laws), -1, *shape)
    return terms.cumsum(axis=1)[:, -1]


def _worst_violations(laws: np.ndarray, pos_i: tuple[int, ...],
                      pos_j: tuple[int, ...]) -> np.ndarray:
    """Per row of a (K, 2**u) batch of pattern laws, the largest signed
    P(a and b) - P(a)P(b) over atom pairs, by magnitude.

    `pos_i` and `pos_j` partition the u pattern bits.  Bit t is axis u-t
    of the (K, 2, .., 2) batch, so each row's C-order ravel is the
    pattern order and the first pattern of largest magnitude wins.
    """
    k, u = len(laws), len(pos_i) + len(pos_j)
    law = laws.reshape(k, *(2,) * u)
    marg_i = _sum_out(law, sorted(u - t for t in pos_j))
    marg_j = _sum_out(law, sorted(u - t for t in pos_i))
    diff = (law - marg_i * marg_j).reshape(k, -1)
    return diff[np.arange(k), np.abs(diff).argmax(axis=1)]


def _require_audit_scale(family: Family, m: int | None, max_subset: int,
                         tol: float) -> tuple[int, int]:
    """Every refusal of ``check_m_dependence``, in order, before any of
    its work; returns m and the largest size walked, min(max_subset,
    N - m)."""
    require_tol(tol)
    m = family.m if m is None else operator.index(m)
    if m < 0:
        raise ValueError("m must be nonnegative")
    max_subset = operator.index(max_subset)
    if max_subset < 2:
        raise ValueError("max_subset must be >= 2")
    # A split needs a gap wider than m, so a k-subset with one spans
    # k + m - 1 or more: no size above N - m has a split.
    top = min(max_subset, family.n_events - m)
    _require_width(top)
    family.require_query_scale()
    total = sum(family.subset_group_count(size, m + 1) for size in range(2, top + 1))
    if total > MAX_SUBSETS:
        raise CapExceededError(f"{total} candidate index subsets exceed the cap "
                               f"{MAX_SUBSETS}; lower max_subset (currently {max_subset})")
    return m, top


def check_m_dependence(family: Family, m: int | None = None, *,
                       max_subset: int = 4, tol: float = 1e-9) -> VerificationReport:
    """Test whether a family satisfies the claimed dependence range m.

    Covers every index set U of size 2..min(max_subset, N - m), splits
    it into all (I, J) bipartitions with separation > m, and checks that
    every atom probability factorizes within tol.  Reports one summary
    check per subset size (the worst signed violation, first in subset
    order among ties, and the number of splits) plus detail checks for
    the first MAX_DETAILED_FAILURES failing splits in subset order.  A
    split needs a gap wider than m, which a k-subset of 1..N holds only
    when k + m - 1 <= N - 1, so every size walked has splits and no
    size above N - m is walked or reported: every max_subset >= N - m
    gives one report, and a claim m >= N - 1, which every family of N
    events meets, an empty one.

    The family groups the subsets (``subset_groups``): members of a
    group share the pattern law and every gap below m+1, so they give
    the same violations, and one representative per group is evaluated
    and weighted by the group's size.  On a window model a group is a gap
    tuple clamped at c = max(m, model m) + 1, so the work is the number
    of such tuples, at most c**(max_subset-1) per size at any N; an
    explicit family has one group per subset.  The representatives are
    measured in chunks, one batched pass per split shape (see the module
    docstring).

    Raises, before any work, ValueError for a negative or non-finite tol,
    and CapExceededError for a family whose single exact query is too
    large (``require_query_scale``), or when min(max_subset, N - m) exceeds
    ``MAX_PATTERN_WIDTH`` or the groups (subsets evaluated) exceed
    ``MAX_SUBSETS``: lower max_subset then.
    """
    m, top = _require_audit_scale(family, m, max_subset, tol)

    blocks: list[CheckBlock] = []
    failures: list[CheckBlock] = []
    for size in range(2, top + 1):
        worst = 0.0
        n_splits = 0
        # Every member of a failing group fails, its first member first,
        # and groups come in order of their first members: the first k
        # failures in subset order lie in the first k failing groups.
        failing = []
        # Split shape s puts position t on side I when bit t of 2s+1 is
        # set.  Bit t-1 of turns[s] marks a change of side between
        # positions t-1 and t, which only a gap wider than m allows.  A
        # subset's splits in increasing s are its splits in chain order.
        low = (1 << (size - 1)) - 1
        sides = np.arange(low) << 1 | 1
        turns = (sides ^ sides >> 1) & low
        splits = [_split(s, size) for s in range(low)]
        groups = family.subset_groups(size, m + 1)
        batch = max(1, BATCH_CELLS >> size)
        for chunk in iter(lambda: list(itertools.islice(groups, batch)), []):
            firsts = np.array([group.first for group in chunk])
            cuts = (np.diff(firsts, axis=1) > m) @ (1 << np.arange(size - 1))
            admits = (turns & ~cuts[:, None]) == 0
            rows = np.flatnonzero(admits.any(axis=1))
            if not rows.size:
                continue
            admits = admits[rows]
            laws = family.pattern_laws(firsts[rows])
            # violations[r, s]: row r's worst atom violation at shape s,
            # 0.0 where the row does not admit s.
            violations = np.zeros(admits.shape)
            for s in np.flatnonzero(admits.any(axis=0)).tolist():
                at = np.flatnonzero(admits[:, s])
                violations[at, s] = _worst_violations(laws[at], *splits[s])
            counts = [chunk[r].count for r in rows.tolist()]
            n_splits += sum(map(operator.mul, counts, admits.sum(axis=1).tolist()))
            # The first largest magnitude in (group, split) order.
            magnitude = np.abs(violations)
            peak = violations.flat[magnitude.argmax()]
            if abs(peak) > abs(worst):
                worst = float(peak)
            bad = (magnitude > tol) & admits
            room = MAX_DETAILED_FAILURES - len(failures) - len(failing)
            for r in np.flatnonzero(bad.any(axis=1))[:room].tolist():
                bad_splits = [(*splits[s], float(violations[r, s]))
                              for s in np.flatnonzero(bad[r]).tolist()]
                failing.append(zip(chunk[rows[r]].members,
                                   itertools.repeat(bad_splits)))
        blocks.append(CheckBlock.eq(
            f"factorization[subset_size={size},splits={n_splits}]",
            worst, 0.0, tol))
        details = (
            CheckBlock.eq(f"atom_factorization[I={_at(subset, pos_i)},"
                          f"J={_at(subset, pos_j)}]", violation, 0.0, tol)
            for subset, bad_splits in heapq.merge(*failing)
            for pos_i, pos_j, violation in bad_splits)
        failures.extend(itertools.islice(
            details, MAX_DETAILED_FAILURES - len(failures)))
    return VerificationReport(tuple(blocks + failures))
