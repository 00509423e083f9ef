"""Audits every inequality in the derivation of the union lower bounds.

For a family claiming dependence range m, the first-order bound rests on
residue-class independence, and the second-order bound on shifted block
partitions: 1-dependence of block events and the parity split of their
complements.  These links use m-dependence, so a false m can break
them, and each is measured here against the exact oracle and reported
with its signed slack.  The other links hold for any events and any m:
the product-to-exponential step 1 - x <= e**-x, the per-block
second-order Bonferroni bound, the parity average min(e**-x, e**-y) <=
e**(-(x+y)/2), and the shift count for local pairs, a counting lemma
about the layout alone (``pair_shift_count``).  No row of the report
checks them; tests pin the shift count.

A row is written only where some family with the same N and claimed m
could fail it.  Every family of N events is (N-1)-dependent, so a claim
m >= N - 1 gets an empty report.  Below that, a residue class of one
event has no product-chain row (its joint is its own product), and a
shift of at most two blocks has no row at all: it has no far block pair,
and with at most one block per parity both parity rows follow from
monotonicity for any events.  So the audit walks the classes r =
1..min(m+1, N-m-1), which hold two events or more, and the shifts
0..m-1 that hold three blocks or more.

Checks run in a fixed order so reports are deterministic and diffable.

Cost.  The report holds one check per residue-class pair and per block
pair at block distance >= 2, so it grows as N**2: about 0.75 N**2 checks
at m = 1, the worst m (``derivation_check_count`` gives the exact
number, and ``MAX_DERIVATION_CHECKS`` caps it).  As m < N - 1, the cap
binds on N alone.  The exact queries do not grow that way.  The audit
hands the family one array of equal-size index sets
(``complement_intersection_probs``) per row width: one for the pairs of
every residue class, one for their capped triples, one per class size
for the class joints (a class holds floor or ceil of N/(m+1) events),
and, across every shift, one per total width (2..2m) of the far block
pairs; that is at most 2m + 3 arrays at any N.  The family asks one
query per distinct set: on a window model one per row of gaps clamped at
m+1, so every class's pairs are one query and its triples another (every
gap in a class is at least m+1), and a width's block pairs at most one
per pair of block lengths.  Each block of a shift that writes rows is
measured once: no two rows of ``block_table`` share an interval.  So a
window model's audit makes about N + 5m + 3 queries (113 at N = 100,
m = 2); an explicit family still makes one per check.  Every shift step
reads the table's columns.
Checks are kept as blocks (``CheckBlock``): lhs, rhs, slack and passed
arrays under one name format over index rows, so the N**2 pair checks
run no Python per check.  The product chain is one block, and so is
each shift step over all shifts: r is an index column, and the parity
steps that interleave within a shift are a label column.  Only residue
pairs and triples (widths differ) stay one block per class with pairs,
so a report holds at most N + 5 blocks at any m, and none is empty.
The report's summary is array reductions, and ``verify`` writes each
block's rows straight from its arrays, one ``"".join`` of literal text
and column texts per slice of rows; a ``Check`` record per row is built
only when a caller asks for ``checks``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from .bounds import first_order_bound, second_order_bound
from .errors import CapExceededError
from .families import Family, partial_sum, t_local
from .oracle import block_event_prob, complement_intersection_probs, union_prob
from .oracle import complement_intersection_prob  # noqa: F401 (perfbench/tests/test_perfbench_harness.py reads it here)
from .partitions import block_position, block_table
from .reports import CheckBlock, VerificationReport, require_tol

#: Refuse a family whose audit would emit more checks than this.  The
#: count grows as N**2 (about 0.75 N**2 at m = 1, its worst m), so the
#: cap admits N = 800 at every m.
MAX_DERIVATION_CHECKS = 500_000

#: Residue-class independence checks every pair of a class and its first
#: MAX_TRIPLES_PER_CLASS index triples in lexicographic order.
MAX_TRIPLES_PER_CLASS = 200


def derivation_check_count(n: int, m: int) -> int:
    """Number of checks ``verify_derivation`` emits for N = n events and
    range m, in closed form and in its order: none for m >= N - 1;
    else residue-class pairs and capped triples and one product-chain
    check per class of two events or more, then for m >= 1 per shift
    0..m-1 of three blocks or more (block positions are consecutive) the
    block pairs at block distance >= 2, one parity check per parity of
    two blocks or more and the block-mass check; and the final bound
    checks.  O(m) time."""
    if m >= n - 1:
        return 0
    count = 0
    for r in range(1, min(m + 1, n - m - 1) + 1):
        size = len(range(r, n + 1, m + 1))
        count += (math.comb(size, 2)
                  + min(math.comb(size, 3), MAX_TRIPLES_PER_CLASS) + 1)
    for r in range(m):
        blocks = block_position(n, m, r) - block_position(1, m, r) + 1
        count += math.comb(blocks - 1, 2) + 2 * (blocks >= 3) + (blocks >= 4)
    return count + 1 + (m >= 1)


def _require_desk_scale(family: Family, tol: float) -> None:
    """Every refusal of ``verify_derivation``, before any of its work."""
    require_tol(tol)
    checks = derivation_check_count(family.n_events, family.m)
    if checks > MAX_DERIVATION_CHECKS:
        raise CapExceededError(
            f"the audit would emit {checks} checks, above the verifier cap "
            f"{MAX_DERIVATION_CHECKS}")
    family.require_query_scale()


def _pairs(values: np.ndarray) -> np.ndarray:
    """The 2-subsets of `values` in lexicographic order, as (K, 2) rows."""
    return values[np.stack(np.triu_indices(len(values), 1), axis=1)]


def _ask_each(family: Family, batches: list[np.ndarray]) -> list[np.ndarray]:
    """``complement_intersection_probs`` of each of one or more arrays
    of rows of one width, asked as one array."""
    answers = complement_intersection_probs(family, np.concatenate(batches))
    return np.split(answers, np.cumsum([len(rows) for rows in batches])[:-1])


def _joined(los: np.ndarray, lengths: np.ndarray, a: np.ndarray, b: np.ndarray,
            width: int) -> np.ndarray:
    """The rows of blocks a then b, for block pairs of `width` events in
    all: entry t is los[a] + t while t < lengths[a], then los[b] + t -
    lengths[a]."""
    t, len_a = np.arange(width), lengths[a, None]
    return np.where(t < len_a, los[a, None] + t, los[b, None] - len_a + t)


def verify_derivation(family: Family, *, tol: float = 1e-9) -> VerificationReport:
    """Check every step of the bound derivation on one family.

    Emits, in order: residue-class independence (pairs exhaustively,
    index triples up to MAX_TRIPLES_PER_CLASS per class); each class's
    joint complement against its product; block-event independence at
    block distance >= 2; the parity split; and finally the exact union
    against both closed-form bounds.  Every row compares numbers of the
    family's queries and carries `tol`, and every row kind fails on some
    family that misdeclares m.  No row checks a link that holds for any
    events and any m: 1 - x <= e**-x, the per-block second-order
    Bonferroni bound, the parity average min(e**-x, e**-y) <=
    e**(-(x+y)/2), and the proof's pair-shift count
    (``pair_shift_count``, which tests pin).  Nor is a row written that
    every family with the family's N and m passes: a claim m >= N - 1
    gets an empty report, a class of one event no product-chain row, a
    shift of at most two blocks no row, and a parity of one block no
    parity-product row.  Block checks are skipped for m = 0, which has
    no block partition.

    Factorization checks compare joint complement probabilities against
    products of marginals (pairs plus capped triples), not full
    sigma-algebra independence, which would cost exponential work.
    A negative or non-finite tol raises ValueError before any work.
    """
    _require_desk_scale(family, tol)
    n, m = family.n_events, family.m
    if m >= n - 1:  # every family of N events is (N-1)-dependent
        return VerificationReport(())
    blocks: list[CheckBlock] = []

    clear = 1 - family.pair_probs(0)  # clear[k - 1] = 1 - P(A_k)

    # Residue-class independence: complements of far-apart events factorize.
    # The pairs of every class go to the family as one array, and so do
    # the capped triples.  Only the classes r = 1..min(m+1, N-m-1) hold
    # two events or more; a class of one has nothing to factorize.
    classes = [tuple(range(r, n + 1, m + 1))
               for r in range(1, min(m + 1, n - m - 1) + 1)]
    pairs = [_pairs(np.array(cls, dtype=np.int64)) for cls in classes]
    triples = [np.fromiter(
        itertools.chain.from_iterable(itertools.islice(
            itertools.combinations(cls, 3), MAX_TRIPLES_PER_CLASS)),
        dtype=np.int64).reshape(-1, 3) for cls in classes]
    pair_lhs, triple_lhs = _ask_each(family, pairs), _ask_each(family, triples)
    for r, checks in enumerate(zip(zip(pairs, pair_lhs), zip(triples, triple_lhs)),
                               start=1):
        for rows, lhs in checks:
            if not len(rows):  # a class of two has no triple
                continue
            rhs = functools.reduce(operator.mul, (clear[col - 1] for col in rows.T))
            fmt = f"residue_independence[r={r},({','.join(['%d'] * rows.shape[1])})]"
            blocks.append(CheckBlock.eq(fmt, lhs, rhs, tol, rows))

    # Class joints against their products, one row per class.  A class
    # holds floor(N/(m+1)) or ceil(N/(m+1)) events, and the classes of
    # one size go to the family as one array.
    joints = [1.0] * len(classes)
    for size in set(map(len, classes)):
        which = [r for r, cls in enumerate(classes) if len(cls) == size]
        rows = np.array([classes[r] for r in which], dtype=np.int64)
        for r, joint in zip(which, complement_intersection_probs(family, rows).tolist()):
            joints[r] = joint
    blocks.append(CheckBlock.le(
        "product_chain[r=%d,joint<=product]", joints,
        [math.prod(clear[r::m + 1]) for r in range(len(classes))], tol,
        np.arange(1, len(classes) + 1)[:, None]))

    union_all = union_prob(family, 1, n)
    complement_all = 1.0 - union_all

    if m >= 1:
        # The blocks of the shifts that hold three or more, one table,
        # shift-major: row t is block js[t], the interval los[t]..his[t],
        # of shift rs[t], and its shift's rows end before stops[t].  A
        # shift of two blocks or one has no far pair, and at most one
        # block per parity, so it writes no row.
        table = block_table(n, m)
        table = table[np.bincount(table[:, 0])[table[:, 0]] >= 3]
        rs, js, los, his = table.T
        stops = np.searchsorted(rs, rs, side="right")
        lengths, spans = his - los + 1, table[:, 2:].tolist()
        bprobs = np.array([block_event_prob(family, lo, hi) for lo, hi in spans])

        # Block events at distance >= 2 are independent (1-dependence).
        # Row t's far partners are rows t+2 up to the last of its shift,
        # and a far pair (a, b) asks for block a then block b, so the far
        # pairs whose two blocks hold as many events in all form one
        # array of equal-length rows, whatever their shifts.
        reach = np.maximum(stops - np.arange(len(rs)) - 2, 0)
        a = np.repeat(np.arange(len(rs)), reach)
        b = a + 2 + np.arange(len(a)) - np.repeat(np.cumsum(reach) - reach, reach)
        widths = lengths[a] + lengths[b]
        lhs = np.empty(len(widths))
        for width in set(widths.tolist()):
            same = widths == width
            lhs[same] = complement_intersection_probs(
                family, _joined(los, lengths, a[same], b[same], width))
        blocks.append(CheckBlock.eq("block_independence[r=%d,j=(%d,%d)]", lhs,
                                    (1 - bprobs[a]) * (1 - bprobs[b]), tol,
                                    np.stack([rs[a], js[a], js[b]], axis=1)))

        # Parity split, per shift: the complement is bounded by the
        # product over the odd blocks and by that over the even blocks,
        # each for a parity of two blocks or more, and by the
        # exponential of half the block mass.
        names, rhs = [], []
        rows = zip(rs.tolist(), (js % 2).tolist(), bprobs.tolist())
        for r, shift in itertools.groupby(rows, key=operator.itemgetter(0)):
            shift = list(shift)
            odd = [p for _, parity, p in shift if parity]
            even = [p for _, parity, p in shift if not parity]
            for label, probs in ((",odd", odd), (",even", even)):
                if len(probs) >= 2:
                    names.append(("parity_product", r, label))
                    rhs.append(math.prod(1 - p for p in probs))
            names.append(("block_mass_exponential", r, ""))
            rhs.append(math.exp(-(sum(odd) + sum(even)) / 2))
        blocks.append(CheckBlock.le("%s[r=%d%s]", [complement_all] * len(rhs), rhs,
                                    tol, np.array(names, dtype=object)))

    # Final bounds against the exact union probability.
    s_n = partial_sum(family, n)
    blocks.append(CheckBlock.le("bound_vs_exact[first_order]",
                                first_order_bound(s_n, m), union_all, tol))
    if m >= 1:
        _, b2 = second_order_bound(s_n, t_local(family), m)
        blocks.append(CheckBlock.le("bound_vs_exact[second_order]",
                                    b2, union_all, tol))

    return VerificationReport(tuple(blocks))
