"""Reference derivation audit: one oracle query per check.

``verify_derivation`` asks the family each distinct index-set question
once, in batches of equal-size sets.  This module keeps the per-check
loop it replaced, which calls ``complement_intersection_prob`` once per
residue-class pair and triple, per class and per far block pair, so
tests can require the batched audit to give the same report.  It shares
only the public oracles, partitions, bounds and report records with the
package, and it applies no size caps.

It walks every shift r = 0..m-1, laying out each one's blocks by a
plain loop over block positions, not by the package's block writer, and
applies the audit's rules as stated: no row at all for m >= N - 1, no
product-chain row for a class of one event, no row for a shift of at
most two blocks, and no parity-product row for a parity of one block.
"""

from __future__ import annotations

import itertools
import math

from mdepbounds import (Check, CheckBlock, VerificationReport,
                        block_event_prob, complement_intersection_prob, event_prob,
                        first_order_bound, partial_sum, residue_classes,
                        second_order_bound, t_local, union_prob)
from mdepbounds.verify import MAX_TRIPLES_PER_CLASS


def layout(n, m, shift):
    """The [j, lo, hi] rows of the nonempty blocks of 1..n under `shift`,
    where block j spans shift+(j-1)m+1 .. shift+jm, by a scan over every
    block position j from 0 until a block starts past n: the reference
    for ``block_table`` and ``shifted_blocks`` too."""
    rows, j = [], 0
    while shift + (j - 1) * m + 1 <= n:
        lo, hi = max(shift + (j - 1) * m + 1, 1), min(shift + j * m, n)
        if lo <= hi:
            rows.append([j, lo, hi])
        j += 1
    return rows


def derivation_walk(family, *, tol: float = 1e-9) -> VerificationReport:
    """The report of ``verify_derivation``, check by check."""
    n, m = family.n_events, family.m
    if m >= n - 1:  # every family of N events is (N-1)-dependent
        return VerificationReport(())
    checks: list[Check] = []

    probs = {k: event_prob(family, k) for k in range(1, n + 1)}

    classes = residue_classes(n, m)
    for r, cls in enumerate(classes, start=1):
        for i, j in itertools.combinations(cls, 2):
            lhs = complement_intersection_prob(family, (i, j))
            rhs = (1 - probs[i]) * (1 - probs[j])
            checks.append(Check.eq(
                f"residue_independence[r={r},({i},{j})]", lhs, rhs, tol))
        triples = itertools.islice(
            itertools.combinations(cls, 3), MAX_TRIPLES_PER_CLASS)
        for i, j, k in triples:
            lhs = complement_intersection_prob(family, (i, j, k))
            rhs = (1 - probs[i]) * (1 - probs[j]) * (1 - probs[k])
            checks.append(Check.eq(
                f"residue_independence[r={r},({i},{j},{k})]", lhs, rhs, tol))

    for r, cls in enumerate(classes, start=1):
        if len(cls) < 2:
            continue
        joint = complement_intersection_prob(family, cls)
        product = math.prod(1 - probs[k] for k in cls)
        checks.append(Check.le(
            f"product_chain[r={r},joint<=product]", joint, product, tol))

    union_all = union_prob(family, 1, n)
    complement_all = 1.0 - union_all

    if m >= 1:
        partitions = [layout(n, m, r) for r in range(m)]
        block_probs = [
            tuple(block_event_prob(family, lo, hi) for _, lo, hi in part)
            for part in partitions
        ]

        for r, (part, bprobs) in enumerate(zip(partitions, block_probs)):
            pairs = (
                (a, b)
                for a, b in itertools.combinations(range(len(part)), 2)
                if part[b][0] - part[a][0] >= 2
            )
            for a, b in pairs:
                j_a, lo_a, hi_a = part[a]
                j_b, lo_b, hi_b = part[b]
                indices = list(range(lo_a, hi_a + 1)) + list(range(lo_b, hi_b + 1))
                lhs = complement_intersection_prob(family, indices)
                rhs = (1 - bprobs[a]) * (1 - bprobs[b])
                checks.append(Check.eq(
                    f"block_independence[r={r},j=({j_a},{j_b})]",
                    lhs, rhs, tol))

        for r, (part, bprobs) in enumerate(zip(partitions, block_probs)):
            if len(part) < 3:
                continue
            odd = [p for p, (j, _, _) in zip(bprobs, part) if j % 2 == 1]
            even = [p for p, (j, _, _) in zip(bprobs, part) if j % 2 == 0]
            if len(odd) >= 2:
                checks.append(Check.le(f"parity_product[r={r},odd]", complement_all,
                                       math.prod(1 - p for p in odd), tol))
            if len(even) >= 2:
                checks.append(Check.le(f"parity_product[r={r},even]", complement_all,
                                       math.prod(1 - p for p in even), tol))
            checks.append(Check.le(f"block_mass_exponential[r={r}]", complement_all,
                                   math.exp(-(sum(odd) + sum(even)) / 2), tol))

    s_n = partial_sum(family, n)
    checks.append(Check.le("bound_vs_exact[first_order]",
                           first_order_bound(s_n, m), union_all, tol))
    if m >= 1:
        _, b2 = second_order_bound(s_n, t_local(family), m)
        checks.append(Check.le("bound_vs_exact[second_order]",
                               b2, union_all, tol))

    return VerificationReport(tuple(map(CheckBlock.of, checks)))
