"""Residue classes, shifted blocks, and the pair shift count."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdepbounds import pair_shift_count, residue_classes, shifted_blocks

from exhaustive import brute_shift_membership_count


class TestResidueClasses:
    def test_n5_m1(self):
        part = residue_classes(5, 1)
        assert part.classes == ((1, 3, 5), (2, 4))

    def test_n7_m2(self):
        part = residue_classes(7, 2)
        assert part.classes == ((1, 4, 7), (2, 5), (3, 6))

    def test_n0(self):
        part = residue_classes(0, 3)
        assert part.classes == ((), (), (), ())

    def test_m0_single_class(self):
        assert residue_classes(4, 0).classes == ((1, 2, 3, 4),)

    def test_partition_completeness_exhaustive(self):
        """Classes are disjoint, cover 1..n, and separate members by m+1,
        for every n <= 200 and m <= 10."""
        for n in range(0, 201):
            expected = list(range(1, n + 1))
            for m in range(0, 11):
                part = residue_classes(n, m)
                assert len(part.classes) == m + 1
                seen = sorted(k for cls in part.classes for k in cls)
                assert seen == expected
                assert all(b - a >= m + 1
                           for cls in part.classes
                           for a, b in zip(cls, cls[1:]))


class TestShiftedBlocks:
    def test_n7_m2_r0(self):
        part = shifted_blocks(7, 2, 0)
        assert part.blocks == ((1, 2), (3, 4), (5, 6), (7, 7))

    def test_n7_m2_r1(self):
        part = shifted_blocks(7, 2, 1)
        assert part.blocks == ((1, 1), (2, 3), (4, 5), (6, 7))
        assert part.block_js[0] == 0  # the clipped leading block

    def test_single_block(self):
        assert shifted_blocks(3, 3, 0).blocks == ((1, 3),)

    def test_shift_out_of_range(self):
        with pytest.raises(ValueError):
            shifted_blocks(5, 2, 2)
        with pytest.raises(ValueError):
            shifted_blocks(5, 2, -1)

    def test_rejects_m0(self):
        with pytest.raises(ValueError):
            shifted_blocks(5, 0, 0)

    def test_partition_completeness_exhaustive(self):
        """Blocks are disjoint intervals of length <= m covering 1..n,
        for every n <= 200 and m <= 10."""
        for n in range(0, 201):
            expected = list(range(1, n + 1))
            for m in range(1, 11):
                for r in range(m):
                    part = shifted_blocks(n, m, r)
                    assert all(1 <= lo <= hi <= n and hi - lo + 1 <= m
                               for lo, hi in part.blocks)
                    seen = [k for lo, hi in part.blocks
                            for k in range(lo, hi + 1)]
                    assert seen == expected  # ordered, disjoint, complete
                    # only the first and last blocks may be short
                    assert all(hi - lo + 1 == m
                               for lo, hi in part.blocks[1:-1])


def loop_blocks(n, m, shift):
    """Shifted blocks by a scan over every block position from 0 until a
    block starts past n: the reference for ``shifted_blocks``."""
    blocks, js, j = [], [], 0
    while shift + (j - 1) * m + 1 <= n:
        lo, hi = max(shift + (j - 1) * m + 1, 1), min(shift + j * m, n)
        if lo <= hi:
            blocks.append((lo, hi))
            js.append(j)
        j += 1
    return tuple(blocks), tuple(js)


def test_shifted_blocks_match_the_loop_reference():
    for n in range(0, 41):
        for m in range(1, 9):
            for r in range(m):
                part = shifted_blocks(n, m, r)
                assert (part.blocks, part.block_js) == loop_blocks(n, m, r)


class TestPairShiftCount:
    def test_examples(self):
        assert pair_shift_count(1, 2, 3) == 2   # gap 1, m=3
        assert pair_shift_count(1, 4, 3) == 0   # gap 3 = m
        assert pair_shift_count(2, 4, 5) == 3   # gap 2, m=5

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            pair_shift_count(4, 4, 3)
        with pytest.raises(ValueError):
            pair_shift_count(5, 3, 3)

    @given(i=st.integers(1, 80), gap=st.integers(1, 15), m=st.integers(1, 12))
    def test_matches_brute_membership(self, i, gap, m):
        l = i + gap
        assert pair_shift_count(i, l, m) == brute_shift_membership_count(i, l, m)

    def test_membership_equals_count_via_blocks(self):
        """Cross-check against actual block partitions, clipping included."""
        n, m = 30, 4
        parts = [shifted_blocks(n, m, r) for r in range(m)]
        for i in range(1, n):
            for l in range(i + 1, n + 1):
                together = 0
                for part in parts:
                    for lo, hi in part.blocks:
                        if lo <= i <= hi and lo <= l <= hi:
                            together += 1
                assert together == pair_shift_count(i, l, m)
