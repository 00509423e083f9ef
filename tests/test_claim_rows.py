"""Every row the audits write can fail for some family with the same N
and claimed m.

A claim m >= N - 1 holds for every family of N events, so both audits
write nothing for it.  Below that, the dependence audit walks the subset
sizes 2..min(max_subset, N - m), each of which has a split; the
derivation audit writes a product-chain row per residue class of two
events or more, and per shift of three blocks or more its far block
pairs, a parity-product row per parity of two blocks or more and the
block-mass row.  The grid below checks these rules on the rows written,
against block layouts from ``tests/derivation_walk.py``.
"""

import math
import re

import numpy as np

from mdepbounds import (ExplicitEventFamily, check_m_dependence,
                        random_window_model, verify_derivation)
from mdepbounds.verify import derivation_check_count

from derivation_walk import layout

NS = (0, 1, 2, 3, 4, 5, 7, 8, 12, 17, 24, 40)
MS = (0, 1, 2, 3, 4, 5, 7, 11, 16, 23, 39, 45)

#: The step, the shift or class r, and the rest of a derivation row's name.
DERIVATION_ROW = re.compile(r"(\w+)\[r=(\d+)(.*)\]$")
FACTORIZATION_ROW = re.compile(r"factorization\[subset_size=(\d+),splits=(\d+)\]$")


def max_subset_for(n):
    """The largest size 2..6 whose subsets of 1..n number 3,000 or fewer,
    so an explicit family's audit stays small."""
    return max(k for k in range(2, 7) if math.comb(n, k) <= 3000)


def assert_derivation_rows(family):
    n, m = family.n_events, family.m
    report = verify_derivation(family)
    assert report.n_checks == derivation_check_count(n, m)
    assert all(len(block.passed) for block in report.blocks)
    if m >= n - 1:
        assert report.checks == ()
        return
    blocks = {r: [j for j, _, _ in layout(n, m, r)] for r in range(m)}
    chain, masses = [], []
    for check in report.checks:
        match = DERIVATION_ROW.match(check.name)
        if not match:
            continue
        step, r, rest = match[1], int(match[2]), match[3]
        if step == "product_chain":
            chain.append(r)
        elif step == "parity_product":
            parity = {",odd": 1, ",even": 0}[rest]
            assert sum(j % 2 == parity for j in blocks[r]) >= 2, check.name
        elif step in ("block_independence", "block_mass_exponential"):
            assert len(blocks[r]) >= 3, check.name
            if step == "block_mass_exponential":
                masses.append(r)
    assert chain == [r for r in range(1, m + 2) if r + m + 1 <= n]
    assert masses == [r for r in range(m) if len(blocks[r]) >= 3]


def assert_dependence_rows(family, m, max_subset):
    n = family.n_events
    report = check_m_dependence(family, m, max_subset=max_subset)
    sizes = []
    for check in report.checks:
        match = FACTORIZATION_ROW.match(check.name)
        if match:
            sizes.append(int(match[1]))
            assert int(match[2]) > 0, check.name
    assert sizes == list(range(2, min(max_subset, n - m) + 1))
    if m >= n - 1:
        assert report.checks == ()


def test_no_row_is_decided_by_n_and_m_alone():
    """On window and explicit families over a grid of N <= 40 and
    m <= 45, with max_subset up to 6: no row for m >= N - 1, no
    dependence row for a size without a split, no product-chain row for
    a class of one event, no row for a shift of at most two blocks, no
    parity-product row for a parity of one block, and as many rows as
    ``derivation_check_count`` counts.  A window model's claim is
    overridden for the dependence audit, whose rules read the claimed m."""
    rng = np.random.default_rng(38)
    for n in NS:
        max_subset = max_subset_for(n)
        for m in MS:
            explicit = ExplicitEventFamily(np.full(4, 0.25), rng.random((n, 4)) < 0.4, m)
            assert_derivation_rows(explicit)
            assert_dependence_rows(explicit, m, max_subset)
            window = random_window_model(rng, alphabet_sizes=(2,),
                                         dependence_ranges=(min(m, 4),),
                                         min_horizon=n, max_horizon=n)
            assert_derivation_rows(window)
            assert_dependence_rows(window, m, max_subset)
