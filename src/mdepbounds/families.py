"""Finite families of events with a declared dependence range m.

Two representations are supported:

* :class:`ExplicitEventFamily` lists every atomic outcome with its weight
  and every event as a subset of outcomes.  Every query depends only on
  the joint law of the indicators, so the family lumps the outcomes once
  into the atoms of sigma(A_1, .., A_N), one per distinct event-membership
  column, and all queries are weighted sweeps over at most min(M, 2**N)
  atoms instead of the M outcomes.  Building and lumping still cost
  O(N * M) once, so the outcome cap ``MAX_EXPLICIT_OUTCOMES`` still
  guards them.
* :class:`WindowModel` draws an i.i.d. symbol stream and fires event k
  exactly when a fixed predicate holds on the window of symbols
  k..k+m.  Events whose indices differ by more than m read disjoint
  symbols, so the family is m-dependent by construction.  Its exact
  queries all run through one transfer-operator kernel,
  ``WindowModel._sweep``, which carries the joint law of the last m
  symbols forward one window at a time.  The kernel's only input is a
  row of gaps between marked windows: the symbols are i.i.d., so where
  a query starts plays no part, and a gap wider than m+1 acts like one
  of m+1.  ``WindowModel._laws`` clamps the gap rows of an index array
  at m+1 once and ``WindowModel._law`` memoizes one answer per clamped
  row.

Both classes answer one protocol, which the module-level query functions
and the audits read without checking the representation: ``event_probs``
(P(A_k) for k = 1..N), ``prefix_probs`` (P(A_1)+..+P(A_u) for u = 0..N),
``pair_probs(gap)`` (P(A_k and A_{k+gap}) for k = 1..N-gap),
``pair_mass(gap)`` (the correctly rounded sum of ``pair_probs(gap)``),
``union(first, last)``, ``survivals(rows)`` (for each row of a 2-D
index array, the probability that no listed event fires; a window model
answers once per distinct row of clamped gaps),
``pattern_laws(rows)`` (for each row of a 2-D index array, the joint
law of its indicators, as a fresh (K, 2**u) array: an explicit family
bins the rows together, a window model looks up each distinct row of
clamped gaps),
``require_query_scale()`` (refuses a family whose single exact query is
too large for an audit that makes thousands of them),
``structural_range`` (a range m' that the representation itself
guarantees, so events more than m' apart are independent, or None), and
``subset_groups(size, far)`` with its ``subset_group_count(size, far)``
(the index subsets of one size, grouped so that members of a group
have the same pattern law and the same gaps below ``far``; see
:class:`SubsetGroup`).  The methods trust their arguments (nonempty,
sorted, distinct, in range, 0 <= gap < N and size >= 1); the public
functions check them.

Event indices are 1-based throughout the public API (events A_1..A_N);
outcome and symbol indices are 0-based.  The dependence range stored on a
family is a *claim*: nothing here assumes it holds, and
:func:`mdepbounds.dependence.check_m_dependence` can test it.

All types are immutable after construction and all operations are pure
functions of their inputs, so concurrent readers need no locking: an
explicit family's atom table and a window model's kernel constants
and read-only answers per clamped gap row (``WindowModel._memo``) live
as long as the object, and a race only recomputes.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

import numpy as np

from .errors import CapExceededError

#: Allowed deviation of total input mass from 1.  Inputs inside this band
#: are renormalized to unit mass up to rounding so that complementary
#: queries agree to ~1e-15 instead of only to the input tolerance
#: (``_unit_divisor``).
MASS_TOL = 1e-9

#: Feasibility caps on one exact query, enforced by ``require_query_scale``:
#: a window model's predicate table sets the kernel's per-step cost, an
#: explicit family's outcome count the cost of lumping it into atoms and
#: the most atoms a query sweeps (and so caps the outcome space
#: ``expand_window_model`` builds).
MAX_WINDOW_TABLE = 1 << 16
MAX_EXPLICIT_OUTCOMES = 1 << 20

#: Atom cells (rows times atoms) per ``np.bincount`` of an explicit
#: family's ``pattern_laws``, so a batch's ids stay a few hundred KiB.
ATOM_BATCH_CELLS = 1 << 16


class SubsetGroup(NamedTuple):
    """Index subsets of one size that an audit at range far - 1 cannot
    tell apart: one pattern law, and the same gaps wherever a gap is
    below ``far`` (gaps of ``far`` or more split alike).

    ``first`` is the lexicographically least member, ``count`` the number
    of members and ``members`` a lazy iterator over all of them in
    lexicographic order.  ``subset_groups`` yields groups in the order
    of their ``first`` members.
    """

    first: tuple[int, ...]
    count: int
    members: Iterator[tuple[int, ...]]


@dataclass(frozen=True, eq=False)
class ExplicitEventFamily:
    """Events over an explicit finite outcome space.

    Attributes:
      outcome_weights: probability of each atomic outcome, shape (M,).
        Validated nonnegative and summing to 1 within MASS_TOL, then
        renormalized unless already unit mass up to rounding
        (``_unit_divisor``).
      event_masks: boolean matrix of shape (N, M); row k-1 marks the
        outcomes belonging to event A_k.
      m: claimed dependence range (not verified at construction).

    Queries read only :attr:`atoms`, the outcomes lumped once by event
    membership, so each costs O(N * A) for A <= min(M, 2**N) atoms; the
    lumping itself is O(N * M) and runs on the first query.
    Prefer :meth:`from_events` when events are given as index sets.
    """

    outcome_weights: np.ndarray
    event_masks: np.ndarray
    m: int

    #: Nothing in an outcome table bounds the dependence range.
    structural_range = None

    def __post_init__(self) -> None:
        weights = np.array(self.outcome_weights, dtype=float)
        masks = np.array(self.event_masks, dtype=bool)
        if weights.ndim != 1:
            raise ValueError("outcome_weights must be a one-dimensional sequence")
        if weights.size == 0:
            raise ValueError("outcome space must contain at least one outcome")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("outcome_weights must be finite and nonnegative")
        # numpy sums pairwise: a normalized law is off by a few ulps per level
        divisor = _unit_divisor("outcome_weights", float(weights.sum()),
                                (math.log2(weights.size) + 8) * 2.0 ** -52)
        if masks.ndim != 2 or masks.shape[1] != weights.size:
            raise ValueError("event_masks must have shape (n_events, n_outcomes)")
        m = operator.index(self.m)
        if m < 0:
            raise ValueError("m must be a nonnegative integer")
        weights /= divisor
        weights.flags.writeable = False
        masks.flags.writeable = False
        object.__setattr__(self, "outcome_weights", weights)
        object.__setattr__(self, "event_masks", masks)
        object.__setattr__(self, "m", m)

    @classmethod
    def from_events(cls, outcome_weights: Sequence[float],
                    events: Sequence[Iterable[int]], m: int) -> "ExplicitEventFamily":
        """Build a family from events given as iterables of outcome indices."""
        n_outcomes = len(outcome_weights)
        masks = np.zeros((len(events), n_outcomes), dtype=bool)
        for row, event in enumerate(events):
            masks[row, _outcome_indices(event, row, n_outcomes)] = True
        return cls(np.asarray(outcome_weights, dtype=float), masks, m)

    @property
    def n_events(self) -> int:
        return self.event_masks.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.outcome_weights.size

    @property
    def events(self) -> tuple[tuple[int, ...], ...]:
        """Events as sorted tuples of outcome indices (JSON-friendly view)."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.event_masks)

    @cached_property
    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The atoms of sigma(A_1, .., A_N), built once: the outcomes
        lumped by the set of events they belong to.

        Returns read-only ``(masks, weights)``.  ``masks`` has shape
        (N, A) and no two equal columns; column a marks the events that
        hold on atom a, and ``weights[a]`` is its mass.  Atoms come in the
        order of their packed columns, and an atom of zero-weight outcomes
        is kept.

        Each outcome's membership column is packed into 64-bit words,
        and one stable ``np.lexsort`` over the words brings the outcomes
        of each atom together in their original order.  Each atom's mass
        is then a pairwise sum of its outcome weights (``np.add.reduceat``),
        which keeps the digits a sequential sum would lose on atoms of
        many outcomes.
        """
        masks, weights = self.event_masks, self.outcome_weights
        # One word at least, so that N = 0 gives one atom.
        words = np.zeros((max(1, -(-self.n_events // 64)), self.n_outcomes),
                         dtype=np.uint64)
        for k, row in enumerate(masks):
            words[k // 64] |= row.astype(np.uint64) << np.uint64(k % 64)
        order = np.lexsort(words)
        ranked = words[:, order]
        starts = np.flatnonzero(np.concatenate(
            ([True], (ranked[:, 1:] != ranked[:, :-1]).any(axis=0))))
        masses = np.add.reduceat(weights[order], starts)
        atom_masks = masks[:, order[starts]]
        atom_masks.flags.writeable = False
        masses.flags.writeable = False
        return atom_masks, masses

    @cached_property
    def event_probs(self) -> np.ndarray:
        """P(A_k) for k = 1..N, as a read-only vector of length N."""
        masks, weights = self.atoms
        probs = masks @ weights
        probs.flags.writeable = False
        return probs

    @cached_property
    def prefix_probs(self) -> np.ndarray:
        """P(A_1)+..+P(A_u) for u = 0..N, as a read-only vector."""
        prefix = np.concatenate(([0.0], np.cumsum(self.event_probs)))
        prefix.flags.writeable = False
        return prefix

    def pair_probs(self, gap: int) -> np.ndarray:
        masks, weights = self.atoms
        return (masks[:self.n_events - gap] & masks[gap:]) @ weights

    def pair_mass(self, gap: int) -> float:
        return math.fsum(self.pair_probs(gap))

    def union(self, first: int, last: int) -> float:
        # The direct fired-atom sum, not 1 - survival: small unions keep
        # their digits.
        masks, weights = self.atoms
        return float(weights[masks[first - 1:last].any(axis=0)].sum())

    def survivals(self, rows: np.ndarray) -> np.ndarray:
        """One atom sweep per row: atoms carry no symmetry."""
        masks, weights = self.atoms
        return np.array([weights[~masks[row - 1].any(axis=0)].sum()
                         for row in rows])

    def require_query_scale(self) -> None:
        if self.n_outcomes > MAX_EXPLICIT_OUTCOMES:
            raise CapExceededError(
                f"{self.n_outcomes} outcomes exceed the verifier cap "
                f"{MAX_EXPLICIT_OUTCOMES}")

    def pattern_laws(self, rows: np.ndarray) -> np.ndarray:
        """One ``np.bincount`` over (row, pattern) ids per batch of rows
        that fits ``ATOM_BATCH_CELLS`` atom cells.  A bin adds its atoms
        in atom order, so a row's law does not depend on the batch."""
        masks, weights = self.atoms
        bits = masks.view(np.uint8)
        n_rows, u = rows.shape
        laws = np.empty((n_rows, 1 << u))
        step = max(1, min(n_rows, ATOM_BATCH_CELLS // weights.size))
        # Row r of a batch has pattern ids offset by r << u, in the
        # narrowest signed type that holds them (np.bincount refuses
        # uint64); every batch reuses one tiling of the weights.
        dtype = np.min_scalar_type(-(step << u))
        offsets = (np.arange(step, dtype=dtype) << u)[:, None]
        tiled = np.tile(weights, step)
        for lo in range(0, n_rows, step):
            block = rows[lo:lo + step] - 1
            k = len(block)
            ids = np.empty((k, weights.size), dtype)
            ids[:] = offsets[:k]
            for t in range(u):
                ids |= np.left_shift(bits[block[:, t]], t, dtype=dtype)
            laws[lo:lo + k] = np.bincount(
                ids.ravel(), weights=tiled[:ids.size],
                minlength=k << u).reshape(k, 1 << u)
        return laws

    def subset_group_count(self, size: int, far: int) -> int:
        return math.comb(self.n_events, size)

    def subset_groups(self, size: int, far: int) -> Iterator[SubsetGroup]:
        """Every subset is a group of its own: atoms carry no symmetry."""
        for subset in itertools.combinations(range(1, self.n_events + 1), size):
            yield SubsetGroup(subset, 1, iter((subset,)))

    def __repr__(self) -> str:  # keep reprs small; masks can be huge
        return (f"ExplicitEventFamily(n_events={self.n_events}, "
                f"n_outcomes={self.n_outcomes}, m={self.m})")


def _unit_divisor(name: str, total: float, band: float) -> float:
    """What a law of total mass ``total`` is divided by: 1.0 when the total
    lies within ``band`` of 1, the rounding band of a law that is already
    normalized, else the total.  So normalizing is idempotent, and a
    family rebuilt from its own fields is unchanged.  Raises ValueError
    outside MASS_TOL."""
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"{name} must sum to 1 within {MASS_TOL:g} (got {total!r})")
    return 1.0 if abs(total - 1.0) <= band else total


def _outcome_indices(event: Iterable[int], row: int, n_outcomes: int) -> np.ndarray:
    """The outcome indices of event ``row + 1`` as one int64 array, each
    converted by ``int`` and checked to lie in [0, n_outcomes)."""
    items = list(event)
    try:
        # numpy converts each item with int(), as the loop below does.
        idx = np.array(items, dtype=np.int64)
        if idx.ndim == 1 and (not idx.size
                              or 0 <= idx.min() <= idx.max() < n_outcomes):
            return idx
    except (TypeError, ValueError, OverflowError):
        pass
    # Element by element, so that the first bad index raises its own
    # exception or message.
    checked = []
    for v in items:
        v = int(v)
        if not 0 <= v < n_outcomes:
            raise ValueError(f"event {row + 1}: outcome index {v} "
                             f"outside [0, {n_outcomes})")
        checked.append(v)
    return np.array(checked, dtype=np.int64)


@dataclass(frozen=True)
class WindowModel:
    """Windowed predicate events over an i.i.d. symbol stream.

    Symbols X_1, X_2, ... are drawn i.i.d. from ``symbol_dist`` over the
    alphabet {0, .., s-1}.  Event A_k (k = 1..horizon) fires when the
    predicate holds on the window (X_k, ..., X_{k+m}).

    Predicate indexing is normative and bit-exact: the table entry for a
    window is sum(x_t * s**t for t in 0..m) where offset t = 0 is the
    leftmost (earliest) symbol, i.e. the earliest symbol is the
    least-significant digit.

    ``symbol_dist`` is validated to sum to 1 within MASS_TOL and stored
    renormalized unless already unit mass up to rounding
    (``_unit_divisor``).
    """

    alphabet_size: int
    symbol_dist: tuple[float, ...]
    m: int
    predicate_table: tuple[bool, ...]
    horizon: int

    def __post_init__(self) -> None:
        s = operator.index(self.alphabet_size)
        m = operator.index(self.m)
        horizon = operator.index(self.horizon)
        if s < 2:
            raise ValueError("alphabet_size must be an integer >= 2")
        if m < 0:
            raise ValueError("m must be a nonnegative integer")
        if horizon < 0:
            raise ValueError("horizon must be a nonnegative integer")
        dist = tuple(float(p) for p in self.symbol_dist)
        if len(dist) != s:
            raise ValueError(f"symbol_dist must have length {s} (got {len(dist)})")
        if any(p < 0 or not math.isfinite(p) for p in dist):
            raise ValueError("symbol_dist entries must be finite and nonnegative")
        # a sequential sum of s terms is off by under one ulp per term
        divisor = _unit_divisor("symbol_dist", sum(dist), len(dist) * 2.0 ** -52)
        dist = tuple(p / divisor for p in dist)
        table = tuple(bool(b) for b in self.predicate_table)
        # s >= 2: past the table's bit length no power matches; only name it
        expected = (f"{s}**{m + 1}" if m + 1 > len(table).bit_length()
                    else s ** (m + 1))
        if len(table) != expected:
            raise ValueError(f"predicate_table must have length {expected} "
                             f"= alphabet_size**(m+1) (got {len(table)})")
        object.__setattr__(self, "alphabet_size", s)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "symbol_dist", dist)
        object.__setattr__(self, "predicate_table", table)
        object.__setattr__(self, "_memo", {})  # (clamped gaps, branch) -> law

    @property
    def n_events(self) -> int:
        return self.horizon

    @cached_property
    def dist_array(self) -> np.ndarray:
        arr = np.array(self.symbol_dist, dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def table_array(self) -> np.ndarray:
        arr = np.array(self.predicate_table, dtype=bool)
        arr.flags.writeable = False
        return arr

    @cached_property
    def _kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The kernel's constants, built once: the joint law of m
        consecutive symbols as a [1, 1, s**m] state (the earliest symbol
        is the least significant base-s digit of the state index), and
        the carry, clear and fired step weights w[x, st] of the window
        whose earliest m symbols encode st and whose newest symbol is x."""
        s, m = self.alphabet_size, self.m
        law = np.ones(1)
        for _ in range(m):
            law = np.kron(self.dist_array, law)  # append the next (later) symbol
        fires = self.table_array.reshape(s, s ** m)
        carry = self.dist_array[:, None]
        return (law.reshape(1, 1, -1), carry, np.where(fires, 0.0, carry),
                np.where(fires, carry, 0.0))

    def _sweep(self, gaps: Sequence[int], branch: bool) -> np.ndarray:
        """Transfer-operator kernel (finite Markov chain imbedding).

        Steps a [pattern, 1, s**m] state, the joint law of the last m
        symbols per pattern, from window 1: it marks window 1, then one
        window per gap g (positive, clamped or not), with g - 1 pass steps
        before it.  The symbols are i.i.d., so only the gaps matter.  Each
        window appends one symbol x and takes one action: a pass step
        carries the mass forward; at a marked window the mass where the
        window fires is killed (``branch=False``) or split off into a
        fired copy appended along the pattern axis (``branch=True``), so
        pattern bit t stands for the t-th mark.  Returns the mass per
        pattern, clamped into [0, 1] once: the state is never clamped, so
        a stored law that sums a rounding step above 1 can carry mass
        above 1 until the end.
        """
        s, m = self.alphabet_size, self.m
        state, carry, clear, fired = self._kernel
        for g in (1, *gaps):
            for k in range(g):
                if k < g - 1:
                    mass = state * carry  # [pattern, x, st]
                elif branch:
                    mass = np.concatenate([state * clear, state * fired])
                else:
                    mass = state * clear
                # st = rest*s + oldest, so x*s**m + st = (x*s**(m-1) + rest)*s
                # + oldest: drop the oldest symbol, append x (m = 0 drops x).
                state = mass.reshape(-1, s ** m, s).sum(axis=2)[:, None, :]
        return state[:, 0, :].sum(axis=1).clip(0.0, 1.0)

    @cached_property
    def event_probs(self) -> np.ndarray:
        """P(A_k) for k = 1..N, as a read-only vector of length N."""
        probs = self.pair_probs(0)
        probs.flags.writeable = False
        return probs

    @cached_property
    def prefix_probs(self) -> np.ndarray:
        """u * P(A_1) for u = 0..N, each rounded once (read-only)."""
        prefix = np.arange(self.horizon + 1) * self._law((), branch=True)[1]
        prefix.flags.writeable = False
        return prefix

    def _pair_each(self, gap: int) -> float:
        """P(A_k and A_{k+gap}), the same for every k by stationarity;
        windows more than m apart share no symbol, so their pair mass is
        the exact product p**2."""
        if gap == 0:
            return self._law((), branch=True)[1]
        if gap > self.m:
            return float(self._law((), branch=True)[1]) ** 2
        return self._law((gap,), branch=True)[0b11]

    def pair_probs(self, gap: int) -> np.ndarray:
        return np.full(self.horizon - gap, self._pair_each(gap))

    def pair_mass(self, gap: int) -> float:
        """(N - gap) * q rounded once: fsum of N - gap equal terms."""
        return float((self.horizon - gap) * self._pair_each(gap))

    def _law(self, gaps: tuple[int, ...], branch: bool) -> np.ndarray:
        """``_sweep`` answered once per tuple of gaps, each at most m+1,
        read-only.  After m pass steps the state is the pattern mass times
        the law of m symbols, so a gap wider than m+1 acts like one of
        m+1: callers clamp (``_laws``) and the memo key is the clamped
        tuple itself."""
        law = self._memo.get((gaps, branch))
        if law is None:
            law = self._memo[gaps, branch] = self._sweep(gaps, branch)
            law.flags.writeable = False
        return law

    def _laws(self, rows: np.ndarray, branch: bool) -> np.ndarray:
        """``_law`` of each row of a (K, L) index array, as a fresh (K, P)
        array: one lookup per distinct row of gaps clamped at m+1, since
        rows with the same clamped gaps have the same law wherever they
        start."""
        gaps = np.minimum(np.diff(rows, axis=1, prepend=rows[:, :1]), self.m + 1)
        # One opaque item per row (the leading 0 keeps L = 1 rows
        # nonempty), so a 1-D unique finds the distinct rows.
        keys = gaps.view(np.dtype((np.void, gaps.itemsize * gaps.shape[1]))).ravel()
        _, first, where = np.unique(keys, return_index=True, return_inverse=True)
        laws = [self._law(tuple(row[1:]), branch) for row in gaps[first].tolist()]
        width = 1 << rows.shape[1] if branch else 1
        return np.array(laws).reshape(len(laws), width)[where]

    def union(self, first: int, last: int) -> float:
        return 1.0 - float(self._law((1,) * (last - first), branch=False)[0])

    def survivals(self, rows: np.ndarray) -> np.ndarray:
        return self._laws(rows, branch=False)[:, 0]

    @property
    def structural_range(self) -> int:
        """m: windows more than m apart read disjoint symbols."""
        return self.m

    def require_query_scale(self) -> None:
        table = len(self.predicate_table)
        if table > MAX_WINDOW_TABLE:
            raise CapExceededError(
                f"predicate table of size {table} exceeds the verifier cap "
                f"{MAX_WINDOW_TABLE}")

    def pattern_laws(self, rows: np.ndarray) -> np.ndarray:
        return self._laws(rows, branch=True)

    def _clamp(self, far: int) -> int:
        """Gaps of c or more are one class: the kernel reads gaps clamped at
        m+1 and the caller cannot tell gaps of ``far`` or more apart."""
        return max(far, self.m + 1)

    def subset_group_count(self, size: int, far: int) -> int:
        """Gap tuples in {1..c}**(size-1) whose sum fits in N-1: positive
        tuples with sum <= N-1, by inclusion-exclusion on gaps above c."""
        c, length, budget = self._clamp(far), size - 1, self.horizon - 1
        return sum((-1) ** i * math.comb(length, i)
                   * math.comb(budget - i * c, length)
                   for i in range(length + 1) if budget - i * c >= length)

    def subset_groups(self, size: int, far: int) -> Iterator[SubsetGroup]:
        """One group per gap tuple clamped at c, in lexicographic order,
        which is the order of the first members (1, 1+g_1, ...).  A tuple
        of span S with j gaps equal to c has C(N-1-S+j+1, j+1) members:
        the slack N-1-S is shared by the start and the j open gaps."""
        c, n = self._clamp(far), self.horizon
        # gap g_t = 1 + h_t with h_t <= c-1, and the gaps sum to <= N-1
        for excess in _compositions(size - 1, n - size, c - 1):
            gaps = tuple(h + 1 for h in excess)
            slack, open_gaps = n - 1 - sum(gaps), gaps.count(c) + 1
            yield SubsetGroup(tuple(itertools.accumulate(gaps, initial=1)),
                              math.comb(slack + open_gaps, open_gaps),
                              _members(gaps, c, slack))


def _compositions(length: int, total: int, top: int) -> Iterator[tuple[int, ...]]:
    """Tuples in {0..top}**length with sum <= total, in lexicographic order."""
    if length == 0:
        yield ()
        return
    for x in range(min(top, total) + 1):
        for rest in _compositions(length - 1, total - x, top):
            yield (x, *rest)


def _members(gaps: tuple[int, ...], c: int, slack: int) -> Iterator[tuple[int, ...]]:
    """Index tuples, in lexicographic order, with gaps ``gaps`` below c and
    gaps c widened: the start offset and the widenings share the slack."""
    for start, *widen in _compositions(gaps.count(c) + 1, slack, slack):
        extra = iter(widen)
        yield tuple(itertools.accumulate(
            (g + next(extra) if g == c else g for g in gaps), initial=1 + start))


Family = Union[ExplicitEventFamily, WindowModel]


def _require_event_index(family: Family, k: int, name: str = "k") -> int:
    k = operator.index(k)
    if not 1 <= k <= family.n_events:
        raise IndexError(f"{name}={k} outside the event range 1..{family.n_events}")
    return k


def _require_event_indices(family: Family, members: Sequence[int]) -> None:
    """Range check for a nonempty sorted index sequence."""
    if members[0] < 1 or members[-1] > family.n_events:
        raise IndexError(f"indices {members[0]}..{members[-1]} outside the "
                         f"event range 1..{family.n_events}")


def _nonempty_interval(family: Family, first: int, last: int) -> bool:
    """Whether the event interval first..last is nonempty (first <= last);
    a nonempty one must satisfy 1 <= first <= last <= N."""
    if first <= last and (first < 1 or last > family.n_events):
        raise IndexError(f"interval [{first}, {last}] outside the event "
                         f"range 1..{family.n_events}")
    return first <= last


def event_prob(family: Family, k: int) -> float:
    """Exact P(A_k) for 1 <= k <= N."""
    k = _require_event_index(family, k)
    return float(family.event_probs[k - 1])


def pair_prob(family: Family, i: int, j: int) -> float:
    """Exact P(A_i and A_j) for 1 <= i, j <= N."""
    i = _require_event_index(family, i, "i")
    j = _require_event_index(family, j, "j")
    return float(family.pair_probs(abs(j - i))[min(i, j) - 1])


def partial_sum(family: Family, upto: int) -> float:
    """Sum of P(A_k) for k = 1..upto; 0 for upto = 0."""
    upto = operator.index(upto)
    if not 0 <= upto <= family.n_events:
        raise ValueError(f"upto={upto} outside 0..{family.n_events}")
    return float(family.prefix_probs[upto])


def total_mass(family: Family) -> float:
    """Total event mass: sum of P(A_k) over all N events."""
    return partial_sum(family, family.n_events)


def t_local(family: Family) -> float:
    """Sum of P(A_i and A_j) over pairs i < j with j - i <= m - 1.

    Defined for m >= 1 only; the pair range is empty for m = 1, so the
    value is exactly 0 there.
    """
    if family.m == 0:
        raise ValueError("t_local requires a dependence range m >= 1")
    gaps = range(1, min(family.m, family.n_events))
    return float(sum(family.pair_mass(d) for d in gaps))


def expand_window_model(model: WindowModel) -> ExplicitEventFamily:
    """Expand a window model into an explicit family over all symbol strings.

    This is the cross-representation oracle used in tests: the outcome
    space is every string in {0..s-1}^(N+m) with its product weight, and
    event k collects the strings whose k-th window fires.  Guarded by the
    size cap s**(N+m) <= MAX_EXPLICIT_OUTCOMES.
    """
    s, m, n = model.alphabet_size, model.m, model.horizon
    length = n + m
    n_strings = s ** length
    if n_strings > MAX_EXPLICIT_OUTCOMES:
        raise CapExceededError(
            f"expansion needs {s}**{length} = {n_strings} outcomes, "
            f"above the cap of {MAX_EXPLICIT_OUTCOMES}")
    flat = np.arange(n_strings)
    weights = np.ones(n_strings)
    for t in range(length):
        weights *= model.dist_array[(flat // s ** t) % s]
    masks = np.zeros((n, n_strings), dtype=bool)
    for k in range(1, n + 1):
        widx = (flat // s ** (k - 1)) % s ** (m + 1)
        masks[k - 1] = model.table_array[widx]
    return ExplicitEventFamily(weights, masks, model.m)
