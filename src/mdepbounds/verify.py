"""Audits every inequality in the derivation of the union lower bounds.

For a family claiming dependence range m, the first-order bound rests on
residue-class independence plus the product-to-exponential inequality,
and the second-order bound on shifted block partitions: 1-dependence of
block events, a per-block second-order Bonferroni lower bound, the exact
shift count for local pairs, and a parity-split averaging step.  Each
link of that chain is measured here against the exact oracle and reported
with its signed slack.

Checks run in a fixed order so reports are deterministic and diffable.

Cost.  The report holds one check per residue-class pair and per block
pair at block distance >= 2, so it grows as N**2: about 0.75 N**2 checks
at m = 1, the worst m (``derivation_check_count`` gives the exact
number, and ``MAX_DERIVATION_CHECKS`` caps it).  The exact queries do
not grow that way.  The pairs and the capped triples of each class, and
the far block pairs of each shift with the same two block lengths, go to
the family as one array of equal-size index sets
(``complement_intersection_probs``), which asks one query per distinct
set: on a window model one per row of gaps clamped at m+1, which is one
per batch (every gap in a class is at least m+1, and so is the gap
between far blocks).  Add one query per class, per block and for the
whole range, and a window model's audit makes about N + 3(m+1) + 9m
queries; an explicit family still makes one per check.  Each batch's
answers stay one block of checks (``CheckBlock``): lhs, rhs, slack and
passed arrays under one name format over the batch's index rows, so the
N**2 pair checks run no Python per check.  The report's summary is
array reductions, and ``verify`` writes each block's rows straight from
its arrays; a ``Check`` record per row is built only when a caller asks
for ``checks``.
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
from .families import MAX_EXPLICIT_OUTCOMES, MAX_WINDOW_TABLE  # noqa: F401 (the verifier's caps)
from .oracle import block_event_prob, complement_intersection_prob, \
    complement_intersection_probs, union_prob
from .partitions import block_position, pair_shift_count, residue_classes, \
    shifted_blocks
from .reports import CheckBlock, VerificationReport

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
    capped triples, two product-chain checks per class, then for m >= 1
    per shift the block pairs at block distance >= 2 (block positions
    are consecutive), one Bonferroni check per block and four parity
    checks, plus the shift-cover check; and the final bound checks.
    Classes and shifts past N are counted in bulk: O(min(m, N)) time."""
    count = 2 * max(m + 1 - n, 0)  # classes past N are empty
    for r in range(1, min(m + 1, n) + 1):
        size = len(range(r, n + 1, m + 1))
        count += (math.comb(size, 2)
                  + min(math.comb(size, 3), MAX_TRIPLES_PER_CLASS) + 2)
    if m >= 1:
        count += (5 if n else 4) * max(m - n, 0)  # shifts r >= N: one block
        for r in range(min(m, n)):
            blocks = block_position(n, m, r) - block_position(1, m, r) + 1
            count += math.comb(max(blocks - 1, 0), 2) + blocks + 4
        count += 1
    return count + 1 + (m >= 1)


def _require_desk_scale(family: Family) -> None:
    checks = derivation_check_count(family.n_events, family.m)
    if checks > MAX_DERIVATION_CHECKS:
        raise CapExceededError(
            f"the audit would emit {checks} checks, above the verifier cap "
            f"{MAX_DERIVATION_CHECKS}")
    family.require_query_scale()


def _pairs(values: np.ndarray) -> np.ndarray:
    """The 2-subsets of `values` in lexicographic order, as (K, 2) rows."""
    return values[np.stack(np.triu_indices(len(values), 1), axis=1)]


def verify_derivation(family: Family, *, tol: float = 1e-9) -> VerificationReport:
    """Check every step of the bound derivation on one family.

    Emits, in order: residue-class independence (pairs exhaustively,
    index triples up to MAX_TRIPLES_PER_CLASS per class); the
    product-to-exponential chain per class; block-event independence at
    block distance >= 2; the per-block second-order Bonferroni lower
    bound; the exhaustive pair-shift count, checked against membership
    by ``block_position`` for i = 1..min(N, m) (one residue of i mod m
    each) and every later l within gap m-1; the parity-split averaging
    chain; and finally the exact union against both closed-form bounds.
    Block checks are skipped for m = 0, which has no block partition.

    Factorization checks compare joint complement probabilities against
    products of marginals (pairs plus capped triples), not full
    sigma-algebra independence, which would cost exponential work.
    """
    _require_desk_scale(family)
    n, m = family.n_events, family.m
    blocks: list[CheckBlock] = []

    probs = dict(enumerate(family.event_probs.tolist(), start=1))
    clear = 1 - family.event_probs  # clear[k - 1] = 1 - P(A_k)

    # Residue-class independence: complements of far-apart events factorize.
    classes = residue_classes(n, m).classes
    for r, cls in enumerate(classes, start=1):
        pairs = _pairs(np.array(cls, dtype=np.int64))
        triples = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(
                itertools.combinations(cls, 3), MAX_TRIPLES_PER_CLASS)),
            dtype=np.int64).reshape(-1, 3)
        for rows in (pairs, triples):
            lhs = complement_intersection_probs(family, rows)
            rhs = functools.reduce(operator.mul, (clear[col - 1] for col in rows.T))
            fmt = f"residue_independence[r={r},({','.join(['%d'] * rows.shape[1])})]"
            blocks.append(CheckBlock.eq(fmt, lhs, rhs, tol, rows))

    # Product-to-exponential chain per residue class.
    for r, cls in enumerate(classes, start=1):
        joint = complement_intersection_prob(family, cls)
        product = math.prod(1 - probs[k] for k in cls)
        exponential = math.exp(-sum(probs[k] for k in cls))
        blocks.append(CheckBlock.le(
            f"product_chain[r={r},joint<=product]", joint, product, tol))
        blocks.append(CheckBlock.le(
            f"product_chain[r={r},product<=exp]", product, exponential, tol))

    union_all = union_prob(family, 1, n)
    complement_all = 1.0 - union_all

    if m >= 1:
        partitions = [shifted_blocks(n, m, r) for r in range(m)]
        block_probs = [
            tuple(block_event_prob(family, lo, hi) for lo, hi in part.blocks)
            for part in partitions
        ]

        # Block events at distance >= 2 are independent (1-dependence).
        # A pair's index set is block a then block b, so pairs with the
        # same two block lengths form one array of equal-length rows.
        for part, bprobs in zip(partitions, block_probs):
            los, his = np.array(part.blocks, dtype=np.int64).reshape(-1, 2).T
            js = np.array(part.block_js, dtype=np.int64)
            a, b = _pairs(np.arange(len(js))).T
            far = js[b] - js[a] >= 2
            a, b = a[far], b[far]
            lengths = his - los + 1
            # Block lengths lie in 1..m, so la * (m + 1) + lb names a pair.
            kinds = lengths[a] * (m + 1) + lengths[b]
            lhs = np.empty(len(a))
            for kind in set(kinds.tolist()):
                len_a, len_b = divmod(kind, m + 1)
                same = kinds == kind
                rows = np.concatenate([los[a[same], None] + np.arange(len_a),
                                       los[b[same], None] + np.arange(len_b)], axis=1)
                lhs[same] = complement_intersection_probs(family, rows)
            bclear = 1 - np.array(bprobs)
            blocks.append(CheckBlock.eq(
                f"block_independence[r={part.shift},j=(%d,%d)]", lhs,
                bclear[a] * bclear[b], tol, np.stack([js[a], js[b]], axis=1)))

        # Second-order Bonferroni inside every block:
        # P(B) >= sum P(A_i) - sum_{pairs in B} P(A_i & A_l).  A block
        # spans at most m events, so its pairs sit at gaps 1..m-1.
        pair_masses = {d: family.pair_probs(d).tolist()
                       for d in range(1, min(m, n))}
        for part, bprobs in zip(partitions, block_probs):
            lower = []
            for lo, hi in part.blocks:
                members = range(lo, hi + 1)
                single = sum(probs[k] for k in members)
                pairsum = sum(pair_masses[l - i][i - 1]
                              for i, l in itertools.combinations(members, 2))
                lower.append(single - pairsum)
            blocks.append(CheckBlock.le(
                f"block_bonferroni[r={part.shift},j=%d]", lower, bprobs, tol,
                np.array(part.block_js, dtype=np.int64).reshape(-1, 1)))

        # The shift count for every local pair, against brute membership.
        # Block positions move by one when k moves by m, so membership
        # depends on i only through i mod m: i = 1..min(N, m) covers every
        # (i mod m, gap) case.
        worst_gap = 0
        shifts = np.arange(m)[:, None]
        for i in range(1, min(n, m) + 1):
            ls = np.arange(i + 1, min(i + m, n + 1))
            brute = (block_position(ls, m, shifts)
                     == block_position(i, m, shifts)).sum(axis=0)
            claimed = [pair_shift_count(i, l, m) for l in ls.tolist()]
            worst_gap = max(worst_gap, int(np.abs(claimed - brute).max(initial=0)))
        blocks.append(CheckBlock.eq("pair_shift_cover[exhaustive]",
                                    float(worst_gap), 0.0, 0.0))

        # Parity split and averaging: complements bounded by parity
        # products, then by exponentials of half the block mass.
        for part, bprobs in zip(partitions, block_probs):
            r = part.shift
            odd = [p for p, j in zip(bprobs, part.block_js) if j % 2 == 1]
            even = [p for p, j in zip(bprobs, part.block_js) if j % 2 == 0]
            prod_odd = math.prod(1 - p for p in odd)
            prod_even = math.prod(1 - p for p in even)
            x, y = sum(odd), sum(even)
            blocks.append(CheckBlock.le(
                f"parity_product[r={r},odd]", complement_all, prod_odd, tol))
            blocks.append(CheckBlock.le(
                f"parity_product[r={r},even]", complement_all, prod_even, tol))
            blocks.append(CheckBlock.le(
                f"parity_average[r={r}]",
                min(math.exp(-x), math.exp(-y)), math.exp(-(x + y) / 2), tol))
            blocks.append(CheckBlock.le(
                f"block_mass_exponential[r={r}]",
                complement_all, math.exp(-(x + y) / 2), tol))

    # Final bounds against the exact union probability.
    s_n = partial_sum(family, n)
    blocks.append(CheckBlock.le("bound_vs_exact[first_order]",
                                first_order_bound(s_n, m), union_all, tol))
    if m >= 1:
        _, b2 = second_order_bound(s_n, t_local(family), m)
        blocks.append(CheckBlock.le("bound_vs_exact[second_order]",
                                    b2, union_all, tol))

    return VerificationReport(tuple(blocks))
