"""Residue classes, shifted blocks, and the pair shift count."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdepbounds import block_table, pair_shift_count, residue_classes, shifted_blocks

from derivation_walk import layout
from exhaustive import brute_shift_membership_count, shift_count_mismatches


class TestResidueClasses:
    def test_n5_m1(self):
        assert residue_classes(5, 1) == ((1, 3, 5), (2, 4))

    def test_n7_m2(self):
        assert residue_classes(7, 2) == ((1, 4, 7), (2, 5), (3, 6))

    def test_n0(self):
        assert residue_classes(0, 3) == ((), (), (), ())

    def test_m0_single_class(self):
        assert residue_classes(4, 0) == ((1, 2, 3, 4),)

    def test_partition_completeness_exhaustive(self):
        """Classes are disjoint, cover 1..n, and separate members by m+1,
        for every n <= 200 and m <= 10."""
        for n in range(0, 201):
            expected = list(range(1, n + 1))
            for m in range(0, 11):
                classes = residue_classes(n, m)
                assert len(classes) == m + 1
                seen = sorted(k for cls in classes for k in cls)
                assert seen == expected
                assert all(b - a >= m + 1
                           for cls in classes
                           for a, b in zip(cls, cls[1:]))


class TestShiftedBlocks:
    def test_n7_m2_r0(self):
        blocks = shifted_blocks(7, 2, 0)[:, 1:].tolist()
        assert blocks == [[1, 2], [3, 4], [5, 6], [7, 7]]

    def test_n7_m2_r1(self):
        rows = shifted_blocks(7, 2, 1).tolist()
        assert [row[1:] for row in rows] == [[1, 1], [2, 3], [4, 5], [6, 7]]
        assert rows[0][0] == 0  # the clipped leading block

    def test_single_block(self):
        assert shifted_blocks(3, 3, 0)[:, 1:].tolist() == [[1, 3]]

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
                    blocks = shifted_blocks(n, m, r)[:, 1:].tolist()
                    assert all(1 <= lo <= hi <= n and hi - lo + 1 <= m
                               for lo, hi in blocks)
                    seen = [k for lo, hi in blocks
                            for k in range(lo, hi + 1)]
                    assert seen == expected  # ordered, disjoint, complete
                    # only the first and last blocks may be short
                    assert all(hi - lo + 1 == m
                               for lo, hi in blocks[1:-1])


def test_shifted_blocks_match_the_loop_reference():
    """The scan over block positions in ``tests/derivation_walk.py`` is
    the reference.  ``block_table`` holds the shifts 0..min(m, n)-1:
    every shift r >= n lays 1..n out as the one block j = 0, which
    shift 0 holds as j = 1."""
    for n in range(0, 41):
        for m in range(1, 9):
            table = block_table(n, m)  # (shift, j, lo, hi), shift-major
            assert table.dtype == np.int64 and table.shape == (len(table), 4)
            assert not table.flags.writeable
            assert table.tolist() == [[r, *row] for r in range(min(m, n))
                                      for row in layout(n, m, r)]
            for r in range(m):
                assert shifted_blocks(n, m, r).tolist() == layout(n, m, r)
            for r in range(n, m):
                assert layout(n, m, r) == ([[0, 1, n]] if n else [])
                assert layout(n, m, 0) == ([[1, 1, n]] if n else [])


def test_block_table_rows_are_distinct_and_stop_at_n():
    """No two rows of ``block_table`` share an interval, and past m = n
    the table no longer changes: it is the same array for every m >= n."""
    for n in range(1, 31):
        for m in range(1, 34):
            table = block_table(n, m)
            intervals = set(map(tuple, table[:, 2:].tolist()))
            assert len(intervals) == len(table)
            if m >= n:
                assert np.array_equal(table, block_table(n, n))


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
        """Cross-check against actual block partitions: for every
        1 <= i < l <= N <= 30 and 1 <= m <= 33, the count is the number
        of shifts under which ``block_table`` puts i and l in one block,
        plus, for m > N, the m - N shifts N..m-1 that each hold 1..N as
        one block, so clipped blocks and shifts past N are included."""
        wrong = [(n, m, shift_count_mismatches(n, m, block_table(n, m).tolist(),
                                               pair_shift_count))
                 for n in range(1, 31) for m in range(1, 34)]
        assert [case for case in wrong if case[2]] == []
