"""Index partitions used by the union lower bounds.

Residue classes mod (m+1) collect indices that pairwise differ by at
least m+1, so their events are mutually independent under m-dependence.
Shifted block partitions cut 1..n into length-m intervals (the first and
last may be shorter); the resulting block events form a 1-dependent
sequence, which is what the second-order bound averages over.  One rule
lays the blocks out: ``block_position`` puts index k of shift r in block
j = (k - r - 1) // m + 1, which spans r+(j-1)m+1 .. r+jm; the audit's
check count reads it.  One writer clips it to rows (shift, j, lo, hi) of
nonempty blocks: ``block_table`` gives the rows of every distinct layout
as one array, and ``shifted_blocks`` one shift's rows.  Every shift
r >= n lays 1..n out as the one block j = 0, which shift 0 already
holds as j = 1, so ``block_table`` writes the shifts 0..min(m, n)-1
only: no two of its rows share an interval.
"""

from __future__ import annotations

import operator

import numpy as np


def residue_classes(n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """Partition 1..n into the m+1 residue classes mod (m+1): entry r-1
    holds the indices k in 1..n with k = r (mod m+1)."""
    n = operator.index(n)
    m = operator.index(m)
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    mod = m + 1
    return tuple(tuple(range(r, n + 1, mod)) for r in range(1, mod + 1))


def block_position(k, m: int, shift):
    """Position j of the block holding index k in the length-m layout
    offset by `shift`, where block j spans shift+(j-1)m+1 .. shift+jm
    (k and shift are ints or integer arrays)."""
    return (k - shift - 1) // m + 1


def _block_rows(n: int, m: int, shifts: np.ndarray) -> np.ndarray:
    """Read-only int64 rows (shift, j, lo, hi) of the nonempty blocks of
    1..n under each of `shifts` (ascending): the clipped layout's writer."""
    n = operator.index(n)
    m = operator.index(m)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if m < 1:
        raise ValueError("block partitions require m >= 1")
    shifts = shifts[:, None]
    # a shift holds at most n // m + 2 blocks, from the one holding index 1
    js = block_position(1, m, shifts) + np.arange(n // m + 2)
    keep = (js <= block_position(n, m, shifts)) & (n > 0)
    rs, js = np.broadcast_to(shifts, js.shape)[keep], js[keep]
    table = np.stack([rs, js, np.maximum(rs + (js - 1) * m + 1, 1),
                      np.minimum(rs + js * m, n)], axis=1)
    table.flags.writeable = False
    return table


def block_table(n: int, m: int) -> np.ndarray:
    """The nonempty blocks of 1..n under each distinct layout,
    shift-major: one read-only int64 row (shift, j, lo, hi) per block of
    the shifts 0..min(m, n)-1, where j is the block's position
    (``block_position``, which parity splits are taken over) and lo..hi
    its interval clipped to 1..n.  A shift r >= n adds no row: its one
    block 1..n at j = 0 is shift 0's block j = 1.  So no two rows share
    an interval, and the table is the same for every m >= n."""
    return _block_rows(n, m, np.arange(min(m, n)))


def shifted_blocks(n: int, m: int, shift: int) -> np.ndarray:
    """The (j, lo, hi) rows of one shift in 0..m-1, as ``block_table``
    writes them (a shift r >= n, which it leaves out, has the one block
    1..n at j = 0), built for that shift alone (O(n/m + 1))."""
    shift = operator.index(shift)
    rows = _block_rows(n, m, np.array([shift]))
    if not 0 <= shift <= m - 1:
        raise ValueError(f"shift must lie in 0..{m - 1} (got {shift})")
    return rows[:, 1:]


def pair_shift_count(i: int, l: int, m: int) -> int:
    """Number of shifts r in 0..m-1 whose block partition puts i and l
    (i < l) into a common block: m - d for gap d = l - i <= m - 1, else 0.

    This is the counting lemma of the second-order proof.  The count is
    exact even for pairs near the clipped boundary blocks: a pair is
    split exactly when some block boundary r + j*m lands in {i, .., l-1},
    and those d consecutive integers cover exactly d of the m residues
    mod m.  It reads no number of a family, so tests pin it against
    ``block_table`` membership and no audit row checks it.
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
