"""Index partitions used by the union lower bounds.

Residue classes mod (m+1) collect indices that pairwise differ by at
least m+1, so their events are mutually independent under m-dependence.
Shifted block partitions cut 1..n into length-m intervals (the first and
last may be shorter); the resulting block events form a 1-dependent
sequence, which is what the second-order bound averages over.  One rule
lays the blocks out: ``block_position`` puts index k of shift r in block
j = (k - r - 1) // m + 1, which spans r+(j-1)m+1 .. r+jm.  The
partitions, the audit's check count and its shift-cover check all read it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


@dataclass(frozen=True)
class ResidueClassPartition:
    """classes[r-1] holds the indices k in 1..n with k = r (mod m+1)."""

    n: int
    m: int
    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ShiftedBlockPartition:
    """Length-m interval blocks of 1..n for one shift r in 0..m-1.

    blocks[i] is the inclusive interval (lo, hi); block_js[i] is its
    position j in the unclipped layout (``block_position``), which is
    what parity splits are taken over.  Empty blocks are omitted.
    """

    n: int
    m: int
    shift: int
    blocks: tuple[tuple[int, int], ...]
    block_js: tuple[int, ...]


def residue_classes(n: int, m: int) -> ResidueClassPartition:
    """Partition 1..n into the m+1 residue classes mod (m+1)."""
    n = operator.index(n)
    m = operator.index(m)
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    mod = m + 1
    classes = tuple(tuple(range(r, n + 1, mod)) for r in range(1, mod + 1))
    return ResidueClassPartition(n, m, classes)


def block_position(k, m: int, shift: int):
    """Position j of the block holding index k (an int or an integer
    array) in the length-m layout offset by `shift`, where block j spans
    shift+(j-1)m+1 .. shift+jm."""
    return (k - shift - 1) // m + 1


def shifted_blocks(n: int, m: int, shift: int) -> ShiftedBlockPartition:
    """Partition 1..n into length-m blocks offset by `shift` in 0..m-1."""
    n = operator.index(n)
    m = operator.index(m)
    shift = operator.index(shift)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("block partitions require m >= 1")
    if not 0 <= shift <= m - 1:
        raise ValueError(f"shift must lie in 0..{m - 1} (got {shift})")
    first = block_position(1, m, shift)
    js = range(first, block_position(n, m, shift) + 1 if n else first)
    blocks = tuple((max(shift + (j - 1) * m + 1, 1), min(shift + j * m, n))
                   for j in js)
    return ShiftedBlockPartition(n, m, shift, blocks, tuple(js))


def pair_shift_count(i: int, l: int, m: int) -> int:
    """Number of shifts r in 0..m-1 whose block partition puts i and l
    (i < l) into a common block: m - d for gap d = l - i <= m - 1, else 0.

    The count is exact even for pairs near the clipped boundary blocks:
    a pair is split exactly when some block boundary r + j*m lands in
    {i, .., l-1}, and those d consecutive integers cover exactly d of the
    m residues mod m.
    """
    i = operator.index(i)
    l = operator.index(l)
    m = operator.index(m)
    if m < 1:
        raise ValueError("pair_shift_count requires m >= 1")
    if i < 1 or i >= l:
        raise ValueError(f"need 1 <= i < l (got i={i}, l={l})")
    d = l - i
    return m - d if d <= m - 1 else 0
