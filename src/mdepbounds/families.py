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
  symbols, so the family is m-dependent by construction.  Everything
  its horizon N does not enter lives in one :class:`WindowKernel`
  (``WindowModel.kernel``), whose transfer operator ``sweep`` carries
  the joint law of the last m symbols forward one window at a time.
  The kernel's only input is a row of gaps between marked windows: the
  symbols are i.i.d., so where a query starts plays no part, and a gap
  wider than m+1 acts like one of m+1.  ``WindowKernel.laws`` clamps
  the gap rows of an index array at m+1 once and sweeps each distinct
  clamped row.  The kernel keeps one store: the state after each mark
  swept, per gap prefix, within ``MARK_CELLS``.  A sweep resumes from
  its longest stored prefix, so a row swept before is one stored
  state's reduce.  A contiguous union needs no row:
  ``WindowKernel.survival`` reads P(no A_1..A_L) off a survival curve
  that the clear step extends to the longest L asked so far.
  ``WindowModel.with_horizon`` gives the same law at another horizon
  with the same kernel, so a horizon sweep computes one curve.

Both classes answer one protocol of nine members, which the module-level
query functions and the audits read without checking the representation:
``prefix_mass(upto)`` (P(A_1)+..+P(A_u) as float64, for one index u in
0..N or each entry of an integer index array; a window model keeps no
vector), ``pair_probs(gap)`` (P(A_k and A_{k+gap}) for k = 1..N-gap, so
gap 0 gives P(A_k); callers must not write into it, which a window
model returns as a read-only view of one stationary value),
``pair_mass(gap)`` (the correctly rounded sum of ``pair_probs(gap)``),
``union(first, last)``, ``survivals(rows)`` (for each row of a 2-D
index array, the probability that no listed event fires; a window model
answers once per distinct row of clamped gaps),
``pattern_laws(rows)`` (for each row of a 2-D index array, the joint
law of its indicators, as a fresh (K, 2**u) array: an explicit family
bins the rows together, a window model looks up each distinct row of
clamped gaps),
``require_query_scale()`` (refuses a family whose single exact query is
too large for an audit that makes thousands of them), and
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
explicit family's atom table and a window kernel's constants, read-only
states after each mark swept and survival curve live as long as the
object.  A stored state is written once, before it is published under
its gap prefix, and never again; each extension of the curve is
published as one tuple; and a race only recomputes, or lets the stored
states run a little past their cell budget.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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

#: Longest union ``WindowKernel.survival`` steps its curve to, and the
#: cap on the events of ``sweep --exact``: an event costs one clear step
#: (1.5-3 us at 27 kernel states, 2-vCPU Xeon) and 8 bytes, so minutes.
MAX_UNION_EVENTS = 50_005_000

#: Atom cells (rows times atoms) per ``np.bincount`` of an explicit
#: family's ``pattern_laws``, so a batch's ids stay a few hundred KiB.
ATOM_BATCH_CELLS = 1 << 16

#: State cells (clear steps times s**m states) per chunk of the buffer a
#: window kernel extends its survival curve in, so that buffer stays
#: 128 KiB.
CURVE_CELLS = 1 << 14

#: State cells (patterns times s**m states) that a window kernel keeps
#: of the states after each mark it swept, so a sweep can resume from
#: its longest stored gap prefix: 16 MiB.  Past it, new states are not
#: kept, which costs steps but no bits.
MARK_CELLS = 1 << 21

#: ``np.add.reduce`` adds fewer terms than this one at a time, in order,
#: and more pairwise in blocks; so does the kernel's fold
#: (``WindowKernel._fold``).
PAIRWISE_TERMS = 8


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
    def _prefix(self) -> np.ndarray:
        """P(A_1)+..+P(A_u) for u = 0..N, cumulated once."""
        return np.concatenate(([0.0], np.cumsum(self.pair_probs(0))))

    def prefix_mass(self, upto: int | np.ndarray) -> np.float64 | np.ndarray:
        return self._prefix[upto]

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


class WindowKernel:
    """The part of a window model that its horizon does not enter: finite
    Markov chain imbedding over the joint law of the last m symbols.

    Holds the read-only ``dist_array`` and ``table_array``, the
    ``start`` law of m consecutive symbols (the earliest symbol is the
    least significant base-s digit of a state index), the ``carry``,
    ``clear`` and ``fired`` step weights w[x, st] of the window whose
    earliest m symbols encode st and whose newest symbol is x, and its
    one store: the states after each mark swept so far per gap prefix
    (``sweep``), and the contiguous survival curve.
    Models that differ only in their horizon share one
    (:meth:`WindowModel.with_horizon`).
    """

    def __init__(self, dist: Sequence[float], m: int, table: Sequence[bool]) -> None:
        self.m = m
        self.dist_array = np.array(dist, dtype=float)
        self.table_array = np.array(table, dtype=bool)
        self.dist_array.flags.writeable = self.table_array.flags.writeable = False
        law = np.ones(1)
        for _ in range(m):
            # append the next (later) symbol: one product per entry, as np.kron
            law = np.multiply.outer(self.dist_array, law).ravel()
        fires = self.table_array.reshape(len(dist), law.size)
        self.start, self.carry = law, self.dist_array[:, None]
        marked = np.where(np.array([~fires, fires]), self.carry, 0.0)
        self.clear, self.fired = marked
        # [kept, 1, x, st]: both actions of a branching mark, for one product
        self._branch = marked[:, None]
        # (gaps swept, branch) -> read-only state after their last mark,
        # and the cells of those states (see ``sweep``)
        self._marks: dict = {}
        self._mark_cells = 0
        # (state after the last clear step, survivals for lengths 0..L,
        # the buffer those survivals are a prefix of), published as one
        # tuple so that a race only recomputes
        self._curve = (law, np.ones(1), np.ones(1))

    def sweep(self, gaps: Sequence[int], branch: bool) -> np.ndarray:
        """Transfer-operator kernel (finite Markov chain imbedding).

        Steps a [pattern, s**m] state, the joint law of the last m
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

        The state after each mark is stored read-only, keyed by the gaps
        swept up to it, while the stored states fit ``MARK_CELLS``.  A
        sweep resumes from the state of its longest stored prefix, so a
        gap tuple that shares leading gaps with one swept before pays
        only for the gaps after them, and one swept before whole pays
        only for the reduce.  Either way it gets the same bits: the same
        steps run from the same state.
        """
        gaps = tuple(gaps)
        for done in range(len(gaps), -1, -1):
            state = self._marks.get((gaps[:done], branch))
            if state is not None:
                break
        else:
            done, state = -1, self.start
        for t in range(done + 1, len(gaps) + 1):
            state = self._mark(state, gaps[t - 1] if t else 1, branch)
            if self._mark_cells + state.size <= MARK_CELLS:
                self._mark_cells += state.size
                self._marks[gaps[:t], branch] = state
        return state.reshape(-1, self.start.size).sum(axis=1).clip(0.0, 1.0)

    def _mark(self, state: np.ndarray, gap: int, branch: bool) -> np.ndarray:
        """The state ``gap - 1`` pass steps and one marked step after
        ``state`` (see ``sweep``; both flat, pattern-major), as a fresh
        read-only array.  The pass steps share one mass buffer and its
        fold."""
        rows = state.reshape(-1, 1, self.start.size)  # [pattern, 1, st]
        if gap > 1:
            mass = np.empty((len(rows), *self.clear.shape))
            fold = self._fold(mass)
            passed = np.empty(state.size)
            folded = passed.reshape(rows.shape)
            for _ in range(gap - 1):
                np.multiply(rows, self.carry, out=mass)  # [pattern, x, st]
                fold(passed)
                rows = folded
        # a branching mark is [kept, pattern, x, st]: clear copy, fired copy
        state = self._fold(rows * (self._branch if branch else self.clear))()
        state.flags.writeable = False
        return state

    def _fold(self, mass: np.ndarray) -> Callable[..., np.ndarray]:
        """The fold of one step over the buffer ``mass`` ([..., x, st],
        shape [..., s, s**m]): a function that returns the sum over the
        oldest symbol, flat ([... * s**m]), written into its argument if
        one is given.  Since st = rest*s + oldest, x*s**m + st =
        (x*s**(m-1) + rest)*s + oldest, so the sum drops the oldest
        symbol and appends x (m = 0 drops x).

        The sum is bit for bit ``np.add.reduce`` over a trailing axis of
        length s, which adds fewer than ``PAIRWISE_TERMS`` terms one at a
        time, in order: below that the fold makes s - 1 in-place adds over
        one-dimensional strided views of ``mass``, taken once here, and
        from there on it keeps the reduce.  The function reads ``mass``
        each time it is called, so a caller can refill the buffer and
        fold again."""
        s = self.dist_array.size
        terms = mass.reshape(-1, s)  # [..., x, rest] by the oldest symbol
        if s >= PAIRWISE_TERMS:
            return lambda out=None: np.add.reduce(terms, axis=1, out=out)
        first, second, *rest = terms.T

        def fold(out: np.ndarray | None = None) -> np.ndarray:
            out = np.add(first, second, out=out)
            for term in rest:
                np.add(out, term, out=out)
            return out
        return fold

    def laws(self, rows: np.ndarray, branch: bool) -> np.ndarray:
        """``sweep`` of each row of a (K, L) index array, as a fresh (K, P)
        array: one sweep per distinct row of gaps clamped at m+1, since
        rows with the same clamped gaps have the same law wherever they
        start.  After m pass steps the state is the pattern mass times
        the law of m symbols, so a gap wider than m+1 acts like one of
        m+1, and a row swept before is one stored state's reduce.  A
        batch whose clamped rows all equal its first, as a residue
        class's pairs or triples do, is one sweep with no sort; any
        other batch finds its distinct rows with one ``np.unique``."""
        gaps = np.minimum(np.diff(rows, axis=1, prepend=rows[:, :1]), self.m + 1)
        if len(gaps) and (gaps == gaps[0]).all():
            return np.tile(self.sweep(gaps[0, 1:].tolist(), branch), (len(gaps), 1))
        # One opaque item per row (the leading 0 keeps L = 1 rows
        # nonempty), so a 1-D unique finds the distinct rows.
        keys = gaps.view(np.dtype((np.void, gaps.itemsize * gaps.shape[1]))).ravel()
        _, first, where = np.unique(keys, return_index=True, return_inverse=True)
        laws = [self.sweep(row[1:], branch) for row in gaps[first].tolist()]
        width = 1 << rows.shape[1] if branch else 1
        return np.array(laws).reshape(len(laws), width)[where]

    def survival(self, length: int) -> float:
        """P(no A_1..A_length) for length >= 1, bit for bit
        ``sweep((1,) * (length - 1), False)[0]``: entry ``length`` of the
        curve, which the clear step extends to the longest length asked
        so far.  Each step folds (``_fold``, over one mass buffer whose
        views are taken once per extension) straight into one row of a
        buffer of at most ``CURVE_CELLS`` cells, and one row sum per chunk
        gives the chunk's survivals, each clamped into [0, 1] as ``sweep``
        clamps.

        The curve is a prefix of a buffer that at least doubles when it
        fills, so extending by one entry a call, as a horizon sweep
        does, copies the curve O(log L) times in all.  An extension
        writes only buffer entries past the curve it read, and every
        extension writes the same bits there, so a racing one that
        shares the buffer rewrites entries with their own value.
        Raises CapExceededError, before any step, for a length above
        ``MAX_UNION_EVENTS``."""
        if length > MAX_UNION_EVENTS:
            raise CapExceededError(f"the exact union would cover {length} events, "
                                   f"above the exact union cap {MAX_UNION_EVENTS}")
        state, curve, buffer = self._curve
        if length >= len(curve):
            start, stop, states = len(curve), length + 1, state.size
            rows = np.empty((min(stop - start, max(1, CURVE_CELLS // states)), states))
            mass = np.empty_like(self.clear)
            fold = self._fold(mass)
            if stop > len(buffer):
                buffer = np.empty(max(stop, 2 * len(buffer)))
                buffer[:start] = curve
            curve = buffer[:stop]
            for lo in range(start, stop, len(rows)):
                chunk = rows[:stop - lo]
                for row in chunk:
                    np.multiply(state, self.clear, out=mass)
                    state = fold(row)
                np.clip(chunk.sum(axis=1), 0.0, 1.0, out=curve[lo:lo + len(chunk)])
            self._curve = (state.copy(), curve, buffer)
        return float(curve[length])


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
    (``_unit_divisor``).  Every exact query reads :attr:`kernel`.
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

    @property
    def n_events(self) -> int:
        return self.horizon

    @cached_property
    def kernel(self) -> WindowKernel:
        """The horizon-free kernel, built on first use."""
        return WindowKernel(self.symbol_dist, self.m, self.predicate_table)

    def with_horizon(self, horizon: int) -> "WindowModel":
        """This model at another horizon, sharing its kernel: equal field
        by field to ``dataclasses.replace(self, horizon=horizon)``, which
        would validate the predicate table again and build a kernel of
        its own.  The other fields are this model's, already validated
        and a fixed point of construction, so only the horizon is
        checked."""
        horizon = operator.index(horizon)
        if horizon < 0:
            raise ValueError("horizon must be a nonnegative integer")
        model = object.__new__(type(self))
        # A frozen dataclass is written through its __dict__, as
        # cached_property writes it.
        model.__dict__.update({field.name: getattr(self, field.name)
                               for field in fields(self)},
                              horizon=horizon, kernel=self.kernel)
        return model

    def prefix_mass(self, upto: int | np.ndarray) -> np.float64 | np.ndarray:
        """upto * P(A_1), each entry rounded once."""
        return upto * self._pair_each(0)

    def _pair_each(self, gap: int) -> float:
        """P(A_k and A_{k+gap}), the same for every k by stationarity;
        windows more than m apart share no symbol, so their pair mass is
        the exact product p**2."""
        if gap == 0:
            return self.kernel.sweep((), branch=True)[1]
        if gap > self.m:
            return float(self.kernel.sweep((), branch=True)[1]) ** 2
        return self.kernel.sweep((gap,), branch=True)[0b11]

    def pair_probs(self, gap: int) -> np.ndarray:
        """One stationary value viewed N - gap times: read-only, O(1)."""
        return np.broadcast_to(self._pair_each(gap), (self.horizon - gap,))

    def pair_mass(self, gap: int) -> float:
        """(N - gap) * q rounded once: fsum of N - gap equal terms."""
        return float((self.horizon - gap) * self._pair_each(gap))

    def union(self, first: int, last: int) -> float:
        return 1.0 - self.kernel.survival(last - first + 1)

    def survivals(self, rows: np.ndarray) -> np.ndarray:
        return self.kernel.laws(rows, branch=False)[:, 0]

    def require_query_scale(self) -> None:
        table = len(self.predicate_table)
        if table > MAX_WINDOW_TABLE:
            raise CapExceededError(
                f"predicate table of size {table} exceeds the verifier cap "
                f"{MAX_WINDOW_TABLE}")

    def pattern_laws(self, rows: np.ndarray) -> np.ndarray:
        return self.kernel.laws(rows, branch=True)

    def _clamp(self, far: int) -> int:
        """Gaps of c or more are one class: the kernel reads gaps clamped at
        m+1 and the caller cannot tell gaps of ``far`` or more apart."""
        return max(far, self.m + 1)

    def subset_group_count(self, size: int, far: int) -> int:
        """Gap tuples in {1..c}**(size-1) whose sum fits in N-1: positive
        tuples with sum <= N-1, by inclusion-exclusion on gaps above c
        over its nonzero terms only (none for a size above N)."""
        c, length, budget = self._clamp(far), size - 1, self.horizon - 1
        return sum((-1) ** i * math.comb(length, i)
                   * math.comb(budget - i * c, length)
                   for i in range(min(length, (budget - length) // c) + 1))

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
    return float(family.pair_probs(0)[k - 1])


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
    return float(family.prefix_mass(upto))


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
        weights *= model.kernel.dist_array[(flat // s ** t) % s]
    masks = np.zeros((n, n_strings), dtype=bool)
    for k in range(1, n + 1):
        widx = (flat // s ** (k - 1)) % s ** (m + 1)
        masks[k - 1] = model.kernel.table_array[widx]
    return ExplicitEventFamily(weights, masks, model.m)
