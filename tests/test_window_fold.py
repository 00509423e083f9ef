"""The window kernel's step fold and its prefix-resumed sweeps, bit for bit.

Every window law comes from ``WindowKernel.sweep`` or the survival curve,
and both fold each step's mass over the oldest symbol with
``WindowKernel._fold``.  These tests hold the fold to ``np.add.reduce``
on both sides of numpy's 8-term switch to pairwise sums, hold ``sweep``
and ``survival`` to the plain ``reshape(...).sum`` formula, and check
that a sweep resumed from a stored gap prefix gives the bits of a fresh
one, runs only the steps of its new gaps (none for a law asked before),
and cannot write into the states it resumes from.
"""

import sys
import threading

import numpy as np
import pytest

from mdepbounds import families
from mdepbounds.families import WindowKernel


def kernel(s, m, seed=0, density=0.4):
    rng = np.random.default_rng([s, m, seed])
    return WindowKernel(rng.dirichlet(np.ones(s)), m,
                        rng.random(s ** (m + 1)) < density)


def formula_sweep(kernel, gaps, branch):
    """The sweep as one ``reshape(...).sum`` fold per step, from the start
    law every time."""
    s, states = kernel.dist_array.size, kernel.start.size
    state = kernel.start.reshape(1, 1, -1)
    for g in (1, *gaps):
        for k in range(g):
            if k < g - 1:
                mass = state * kernel.carry
            elif branch:
                mass = np.concatenate([state * kernel.clear, state * kernel.fired])
            else:
                mass = state * kernel.clear
            state = mass.reshape(-1, states, s).sum(axis=2)[:, None, :]
    return state[:, 0, :].sum(axis=1).clip(0.0, 1.0)


def gap_tuples(m, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(rng.integers(1, m + 4, size=rng.integers(0, 5)).tolist())
            for _ in range(count)]


#: Alphabet sizes on both sides of the fold's switch; m = 1 from 8 on.
SIZES = [(2, 0), (2, 3), (3, 2), (7, 1), (8, 1), (9, 1)]


@pytest.mark.parametrize("s", range(2, 10))
@pytest.mark.parametrize("lead", [(), (1,), (5,), (2, 3)])
def test_fold_is_add_reduce_bit_for_bit(s, lead):
    """Below ``PAIRWISE_TERMS`` the fold adds strided views one at a time;
    from there on it reduces.  Either way it is ``np.add.reduce`` over the
    trailing length-s axis, flat, into a given buffer or a fresh array."""
    rng = np.random.default_rng(s)
    k = kernel(s, 1)
    mass = np.empty((*lead, s, s))
    fold = k._fold(mass)
    for _ in range(5):
        mass[...] = rng.random(mass.shape) * rng.choice([1e-300, 1e-3, 1.0, 7.0],
                                                        size=mass.shape)
        want = np.add.reduce(mass.reshape(*lead, -1, s), axis=-1).ravel()
        out = np.empty(want.size)
        assert fold(out) is out
        assert out.tobytes() == want.tobytes()
        assert fold().tobytes() == want.tobytes()


@pytest.mark.parametrize("s, m", SIZES)
@pytest.mark.parametrize("branch", [False, True])
def test_sweep_is_the_sum_formula_bit_for_bit(s, m, branch):
    k = kernel(s, m)
    for gaps in gap_tuples(m, 40, s):
        assert k.sweep(gaps, branch).tobytes() == \
            formula_sweep(k, gaps, branch).tobytes(), gaps


@pytest.mark.parametrize("s, m", SIZES)
def test_survival_is_the_sum_formula_bit_for_bit(s, m):
    k = kernel(s, m, density=0.05)
    lengths = (1, 2, 9, 130, 40, 131)
    got = [k.survival(n) for n in lengths]
    assert got == [formula_sweep(k, (1,) * (n - 1), False)[0] for n in lengths]


@pytest.mark.parametrize("s, m", SIZES)
def test_shuffled_orders_give_the_same_laws(s, m):
    """A sweep resumes from whichever prefixes earlier sweeps stored, so
    the order of the tuples decides which steps run, never the bits."""
    tuples = gap_tuples(m, 30, s + 10)
    tuples += [t[:-1] for t in tuples if t]
    rng = np.random.default_rng(s)
    answers = []
    for _ in range(4):
        k = kernel(s, m)
        order = rng.permutation(len(tuples))
        laws = {}
        for i in order.tolist():
            for branch in (False, True):
                laws[tuples[i], branch] = k.sweep(tuples[i], branch).tobytes()
        answers.append(laws)
    assert all(laws == answers[0] for laws in answers)


def counted(monkeypatch, k):
    """Count the steps ``k`` folds from here on."""
    steps = []
    fold = k._fold

    def counting(mass):
        step = fold(mass)

        def run(*args):
            steps.append(1)
            return step(*args)
        return run

    monkeypatch.setattr(k, "_fold", counting)
    return steps


def test_a_resumed_sweep_runs_only_its_new_gaps(monkeypatch):
    k = kernel(3, 2)
    steps = counted(monkeypatch, k)
    runs = []
    for gaps in [(2, 3), (2, 3, 1), (2, 3, 3), (2, 1), (2, 3), (1,), ()]:
        want = formula_sweep(k, gaps, True).tobytes()
        steps.clear()
        assert k.sweep(gaps, True).tobytes() == want
        runs.append(len(steps))
    # (2, 3) from the start law: 1 + 2 + 3 steps; then one gap past a
    # stored prefix each, and nothing for prefixes already swept.
    assert runs == [6, 1, 3, 1, 0, 1, 0]
    steps.clear()
    k.sweep((2, 3, 1), False)
    assert len(steps) == 7  # the other branch stores states of its own


@pytest.mark.parametrize("s, m", SIZES)
@pytest.mark.parametrize("branch", [False, True])
def test_a_repeated_law_is_a_store_hit(monkeypatch, s, m, branch):
    """A ``laws`` row asked again, here translated, finds its whole gap
    tuple stored: the same bytes, and not one step run."""
    k = kernel(s, m)
    rows = np.array([[3, 4, 6 + m, 8 + m]])
    first = k.laws(rows, branch)
    steps = counted(monkeypatch, k)
    again = k.laws(rows + 5, branch)
    assert steps == []
    assert again.tobytes() == first.tobytes()
    clamped = np.minimum(np.diff(rows[0]), m + 1)
    assert again.tobytes() == kernel(s, m).sweep(clamped, branch).tobytes()


def test_stored_states_are_read_only():
    k = kernel(2, 3)
    k.sweep((1, 4, 2), True)
    k.sweep((4, 4), False)
    assert set(k._marks) == {((), True), ((1,), True), ((1, 4), True),
                             ((1, 4, 2), True), ((), False), ((4,), False),
                             ((4, 4), False)}
    for state in k._marks.values():
        assert not state.flags.writeable
        with pytest.raises(ValueError):
            state[0] = 1.0
    assert k._mark_cells == sum(state.size for state in k._marks.values())


def test_states_past_the_cell_budget_are_not_stored(monkeypatch):
    """A kernel keeps no more mark states than ``MARK_CELLS`` cells, and a
    sweep it cannot resume gives the same bits."""
    monkeypatch.setattr(families, "MARK_CELLS", 40)
    k = kernel(2, 2)  # 4 states: a mark state of P patterns has 4P cells
    k.sweep((1, 2, 3), True)  # 8 + 16 cells fit, the next 32 do not
    assert k._mark_cells == 24 and len(k._marks) == 2
    for gaps in [(1, 2, 3), (1, 2, 3, 1), (3, 3)]:
        assert k.sweep(gaps, True).tobytes() == \
            formula_sweep(k, gaps, True).tobytes()
    assert k._mark_cells <= 40


def test_threads_resuming_one_kernel_agree():
    """Eight threads sweep overlapping gap tuples on one kernel at once,
    with a short switch interval, each resuming from whatever prefixes
    the others stored.  Every law equals a fresh single-thread sweep."""
    tuples = [t for t in gap_tuples(3, 120, 7) if t]
    want = {t: formula_sweep(kernel(3, 3), t, True).tobytes() for t in tuples}
    interval = sys.getswitchinterval()
    for _ in range(3):
        k = kernel(3, 3)
        start = threading.Barrier(8)
        got = [{} for _ in range(8)]

        def run(i):
            start.wait(timeout=60)
            for t in tuples[i::2] + tuples[::-3]:
                got[i][t] = k.sweep(t, True).tobytes()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(8)]
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for answers in got:
            assert answers == {t: want[t] for t in answers}
        assert all(not state.flags.writeable for state in k._marks.values())
