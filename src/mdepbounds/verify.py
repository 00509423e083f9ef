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

Checks run in a fixed order so reports are deterministic and diffable.

Cost.  The report holds one check per residue-class pair and per block
pair at block distance >= 2, so it grows as N**2: about 0.75 N**2 checks
at m = 1, the worst m (``derivation_check_count`` gives the exact
number, and ``MAX_DERIVATION_CHECKS`` caps it).  It does not grow with
m past N: every shift r >= N lays 1..N out as the one block j = 0,
which is shift 0's layout with its parities swapped, so such a shift
writes no row and ``block_table`` leaves it out.  Every loop of the
audit runs over the shifts 0..min(m, N)-1, and the cap binds on N
alone.  The exact queries do not grow that way.  The audit hands the
family one array of equal-size index sets
(``complement_intersection_probs``) per row width: one for the pairs of
every residue class, one for their capped triples, one per class size
for the class joints (a class holds floor or ceil of N/(m+1) events),
and, across every shift, one per total width (2..2m) of the far block
pairs; that is at most 2m + 3 arrays at any N.  The family asks one
query per distinct set: on a window model one per row of gaps clamped at
m+1, so every class's pairs are one query and its triples another (every
gap in a class is at least m+1), and a width's block pairs at most one
per pair of block lengths.  Each row of ``block_table`` is measured
once: no two rows share an interval.  So a window model's audit makes
about N + 5m + 3 queries (113 at N = 100, m = 2); an explicit family
still makes one per check.  Every shift step reads the table's columns.
Checks are kept as blocks (``CheckBlock``): lhs, rhs, slack and passed
arrays under one name format over index rows, so the N**2 pair checks
run no Python per check.  The product chain over the nonempty classes r = 1..min(m+1, N)
is one block, and so is each shift step over all shifts: r is an index
column, and the parity steps that interleave within a shift are a
label column.  Only residue pairs and triples (widths differ) stay one
block per class with pairs, so a report holds at most N + 5 blocks at
any m.  The report's summary is array reductions, and ``verify``
writes each block's rows straight from its arrays, one ``"".join`` of
literal text and column texts per slice of rows; a ``Check`` record per
row is built only when a caller asks for ``checks``.
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
    range m, in closed form and in its order: residue-class pairs and
    capped triples, one product-chain check per nonempty class, then
    for m >= 1 per shift 0..min(m, N)-1 of ``block_table`` the block
    pairs at block distance >= 2 (block positions are consecutive) and
    three parity checks; and the final bound checks.  O(min(m, N))
    time, and constant in m once m >= N."""
    count = 0
    for r in range(1, min(m + 1, n) + 1):  # classes past N are empty
        size = len(range(r, n + 1, m + 1))
        count += (math.comb(size, 2)
                  + min(math.comb(size, 3), MAX_TRIPLES_PER_CLASS) + 1)
    if m >= 1:
        for r in range(min(m, n)):
            blocks = block_position(n, m, r) - block_position(1, m, r) + 1
            count += math.comb(max(blocks - 1, 0), 2) + 3
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
    """``complement_intersection_probs`` of each of several arrays of
    rows of one width, asked as one array (none for no arrays)."""
    if not batches:
        return []
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
    index triples up to MAX_TRIPLES_PER_CLASS per class); each nonempty
    class's joint complement against its product; block-event
    independence at block distance >= 2; the parity split; and finally
    the exact union against both closed-form bounds.  Every row
    compares numbers of the family's queries and carries `tol`, and
    every row kind fails on some family that misdeclares m.  No row
    checks a link that holds for any events and any m: 1 - x <= e**-x,
    the per-block second-order Bonferroni bound, the parity average
    min(e**-x, e**-y) <= e**(-(x+y)/2), and the proof's pair-shift count
    (``pair_shift_count``, which tests pin).
    Block checks are skipped for m = 0, which has no block partition.
    The shift steps run over the layouts of ``block_table``, shifts
    0..min(m, N)-1: every shift r >= N holds the one block 1..N at
    j = 0, shift 0's rows with odd and even swapped, so it adds no row.

    Factorization checks compare joint complement probabilities against
    products of marginals (pairs plus capped triples), not full
    sigma-algebra independence, which would cost exponential work.
    A negative or non-finite tol raises ValueError before any work.
    """
    _require_desk_scale(family, tol)
    n, m = family.n_events, family.m
    blocks: list[CheckBlock] = []

    clear = 1 - family.pair_probs(0)  # clear[k - 1] = 1 - P(A_k)

    # Residue-class independence: complements of far-apart events factorize.
    # The pairs of every class go to the family as one array, and so do
    # the capped triples.  Only the classes r = 1..min(m+1, N) hold an
    # event: a class past N is empty, and its factor in the proof is 1.
    classes = [tuple(range(r, n + 1, m + 1)) for r in range(1, min(m + 1, n) + 1)]
    wide = [(r, cls) for r, cls in enumerate(classes, start=1) if len(cls) >= 2]
    pairs = [_pairs(np.array(cls, dtype=np.int64)) for _, cls in wide]
    triples = [np.fromiter(
        itertools.chain.from_iterable(itertools.islice(
            itertools.combinations(cls, 3), MAX_TRIPLES_PER_CLASS)),
        dtype=np.int64).reshape(-1, 3) for _, cls in wide]
    pair_lhs, triple_lhs = _ask_each(family, pairs), _ask_each(family, triples)
    for (r, _), *checks in zip(wide, zip(pairs, pair_lhs), zip(triples, triple_lhs)):
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
        # The distinct block layouts form one table, shift-major: row t
        # is block js[t], the interval los[t]..his[t], of shift rs[t], and
        # shift r's rows are starts[r]..starts[r+1]-1.  Every shift r >= N
        # repeats shift 0's rows with odd and even swapped, so the table
        # stops at shift min(m, N)-1.
        table = block_table(n, m)
        rs, js, los, his = table.T
        shifts = min(m, n)
        starts = np.searchsorted(rs, np.arange(shifts + 1))
        lengths, spans = his - los + 1, table[:, 2:].tolist()
        bprobs = np.array([block_event_prob(family, lo, hi) for lo, hi in spans])

        # Block events at distance >= 2 are independent (1-dependence).
        # Row t's far partners are rows t+2 up to the last of its shift,
        # and a far pair (a, b) asks for block a then block b, so the far
        # pairs whose two blocks hold as many events in all form one
        # array of equal-length rows, whatever their shifts.
        reach = np.maximum(starts[rs + 1] - np.arange(len(rs)) - 2, 0)
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

        # Parity split, three rows per shift: the complement is bounded
        # by the product over the odd blocks, by that over the even
        # blocks, and by the exponential of half the block mass.
        parities = list(zip((js % 2).tolist(), bprobs.tolist()))
        rhs = []
        for start, stop in itertools.pairwise(starts.tolist()):
            odd = [p for parity, p in parities[start:stop] if parity]
            even = [p for parity, p in parities[start:stop] if not parity]
            rhs += (math.prod(1 - p for p in odd), math.prod(1 - p for p in even),
                    math.exp(-(sum(odd) + sum(even)) / 2))
        blocks.append(CheckBlock.le(
            "%s[r=%d%s]", [complement_all] * len(rhs), rhs, tol,
            np.array([row for r in range(shifts) for row in (
                ("parity_product", r, ",odd"), ("parity_product", r, ",even"),
                ("block_mass_exponential", r, ""))], dtype=object)))

    # Final bounds against the exact union probability.
    s_n = partial_sum(family, n)
    blocks.append(CheckBlock.le("bound_vs_exact[first_order]",
                                first_order_bound(s_n, m), union_all, tol))
    if m >= 1:
        _, b2 = second_order_bound(s_n, t_local(family), m)
        blocks.append(CheckBlock.le("bound_vs_exact[second_order]",
                                    b2, union_all, tol))

    return VerificationReport(tuple(blocks))
