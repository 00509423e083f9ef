"""Brute-force oracles used to freeze expected values.

Everything here enumerates symbol strings with itertools and plain float
arithmetic, deliberately sharing no code with the package's vectorized
sweeps and dynamic programs, so the two routes stay independent.
"""

from __future__ import annotations

import collections
import itertools
import math

from mdepbounds import WindowModel


def window_index(model: WindowModel, string: tuple[int, ...], pos: int) -> int:
    """Predicate-table index of the window starting at 0-based `pos`."""
    s = model.alphabet_size
    return sum(string[pos + t] * s ** t for t in range(model.m + 1))


def string_weight(model: WindowModel, string: tuple[int, ...]) -> float:
    return math.prod(model.symbol_dist[x] for x in string)


def strings(model: WindowModel, length: int):
    return itertools.product(range(model.alphabet_size), repeat=length)


def brute_event_prob(model: WindowModel) -> float:
    return sum(string_weight(model, xs)
               for xs in strings(model, model.m + 1)
               if model.predicate_table[window_index(model, xs, 0)])


def brute_pair_prob(model: WindowModel, i: int, j: int) -> float:
    d = abs(j - i)
    length = d + model.m + 1
    return sum(string_weight(model, xs)
               for xs in strings(model, length)
               if model.predicate_table[window_index(model, xs, 0)]
               and model.predicate_table[window_index(model, xs, d)])


def brute_union_prob(model: WindowModel, first: int, last: int) -> float:
    if first > last:
        return 0.0
    length = last - first + 1 + model.m
    return sum(string_weight(model, xs)
               for xs in strings(model, length)
               if any(model.predicate_table[window_index(model, xs, t)]
                      for t in range(last - first + 1)))


def brute_complement_prob(model: WindowModel, indices) -> float:
    members = sorted(set(indices))
    if not members:
        return 1.0
    shift = members[0]
    length = members[-1] - shift + 1 + model.m
    return sum(string_weight(model, xs)
               for xs in strings(model, length)
               if not any(model.predicate_table[window_index(model, xs, k - shift)]
                          for k in members))


def brute_shift_membership_count(i: int, l: int, m: int) -> int:
    """How many shifts r in 0..m-1 place i and l in one length-m block,
    by direct membership over the unclipped block layout."""
    count = 0
    for r in range(m):
        if (i - r - 1) // m == (l - r - 1) // m:
            count += 1
    return count


def shift_count_mismatches(n: int, m: int, table, count) -> list[tuple[int, int]]:
    """The pairs 1 <= i < l <= n at which count(i, l, m) differs from the
    number of shifts in 0..m-1 whose blocks put i and l together, read
    from `table`'s rows (shift, j, lo, hi) as ``block_table`` writes
    them, plus, when m > n, the m - n shifts n..m-1 that the table
    leaves out, each of which holds 1..n as one block."""
    together = collections.Counter()
    for r, _, lo, hi in table:
        for i, l in itertools.combinations(range(lo, hi + 1), 2):
            together[i, l] += 1
    for i, l in itertools.combinations(range(1, n + 1), 2):
        together[i, l] += max(m - n, 0)
    return [(i, l) for i, l in itertools.combinations(range(1, n + 1), 2)
            if count(i, l, m) != together[i, l]]
