"""The horizon-free window kernel: its survival curve and its sharing.

A window model keeps everything its horizon does not enter in one
``WindowKernel``.  The kernel's survival curve answers every contiguous
union, and models that differ only in horizon (``with_horizon``, and so
the rows of a horizon sweep) share one kernel.  These tests hold the
curve bit for bit against the raw sweep, check what may and may not
share a kernel, check that sharing leaves the sweep CSV as fresh models
give it, and count the clear steps a horizon sweep makes.  They also
cover the pattern-law width cap and the O(1) pair and event vectors.
"""

import csv
import dataclasses
import io
import itertools
import re
import sys
import threading
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdepbounds import (
    CapExceededError,
    WindowModel,
    build_report,
    build_threshold,
    check_m_dependence,
    consecutive_run_model,
    dump_model,
    event_prob,
    expand_window_model,
    model_to_dict,
    pair_prob,
    parse_model,
    pattern_distribution,
    random_window_model,
    union_prob,
)
from mdepbounds import cli, dependence, families
from mdepbounds.families import WindowKernel

from test_cli import run_cli

#: A stored law one rounding step above 1 (kept as given at construction).
ABOVE_ONE = (0.4189683938723038, 0.531802861202355, 0.049228744925341406)


@st.composite
def window_laws(draw):
    s = draw(st.integers(2, 3))
    m = draw(st.integers(0, 3))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=s, max_size=s))
    table = draw(st.lists(st.booleans(), min_size=s ** (m + 1),
                          max_size=s ** (m + 1)))
    return s, tuple(w / sum(weights) for w in weights), m, tuple(table)


@settings(max_examples=40, deadline=None)
@given(law=window_laws(), lengths=st.lists(st.integers(1, 300), min_size=1,
                                           max_size=12))
@example(law=(3, ABOVE_ONE, 0, (False, True, True)), lengths=[300, 1, 77])
@example(law=(3, ABOVE_ONE, 0, (False,) * 3), lengths=[5, 300])
def test_curve_equals_the_raw_sweep_bit_for_bit(law, lengths):
    """Lengths asked in any order, with chunks of one row, of seven rows
    and of the default ``CURVE_CELLS``: each union is 1 minus a raw clear
    sweep over the same range, bit for bit."""
    s, dist, m, table = law
    reference = WindowModel(s, dist, m, table, 1).kernel
    expected = {n: 1.0 - reference.sweep((1,) * (n - 1), False)[0]
                for n in lengths}
    for cells in (s ** m, 7 * s ** m, families.CURVE_CELLS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "CURVE_CELLS", cells)
            model = WindowModel(s, dist, m, table, 300)
            for n in lengths:
                assert model.union(1, n) == expected[n]
                assert union_prob(model, 301 - n, 300) == expected[n]


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.floats(0.0, 1.0) | st.floats(1e-300, 1e-3),
                        min_size=2, max_size=4).filter(lambda w: sum(w) > 0),
       m=st.integers(0, 6))
def test_start_law_is_the_kron_product_bit_for_bit(weights, m):
    """The law of m symbols, one product per entry, equals repeated
    ``np.kron`` bit for bit."""
    dist = [w / sum(weights) for w in weights]
    kernel = WindowKernel(dist, m, [False] * len(dist) ** (m + 1))
    expected = np.ones(1)
    for _ in range(m):
        expected = np.kron(kernel.dist_array, expected)
    assert kernel.start.tobytes() == expected.tobytes()


class _NumpyWith(types.ModuleType):
    """numpy as ``families`` sees it, with ``unique`` replaced."""

    def __init__(self, unique):
        super().__init__("numpy")
        self.unique = unique

    def __getattr__(self, name):
        return getattr(np, name)


def _refuse(*args, **kwargs):
    raise AssertionError("np.unique over a batch of one clamped row")


@settings(max_examples=60, deadline=None)
@given(law=window_laws(), size=st.integers(1, 3), data=st.data())
def test_a_batch_of_one_clamped_row_is_one_sweep(law, size, data):
    """The pairs or triples of a residue class share one row of gaps
    clamped at m+1, and their batch is answered with no ``np.unique``:
    its laws are the per-row sweep's, bit for bit, for both actions.
    The batch with one row of other gaps added still finds its distinct
    rows with ``np.unique``, and matches too."""
    s, dist, m, table = law
    first = data.draw(st.integers(1, m + 1))
    events = data.draw(st.integers(size, 8))
    members = range(first, first + events * (m + 1), m + 1)
    rows = np.array(list(itertools.combinations(members, size)), dtype=np.int64)
    mixed = np.concatenate([rows, np.arange(1, size + 1)[None]])
    reference = WindowKernel(dist, m, table)

    def swept(rows, branch):
        return np.array([reference.sweep(np.minimum(np.diff(row), m + 1).tolist(),
                                         branch) for row in rows])

    for branch in (False, True):
        with mock.patch.object(families, "np", _NumpyWith(_refuse)):
            laws = WindowKernel(dist, m, table).laws(rows, branch)
        expected = swept(rows, branch)
        assert laws.shape == expected.shape and laws.flags.writeable
        assert laws.tobytes() == expected.tobytes()
        if m and size > 1:  # gaps of 1 differ from the class's m+1
            calls = []

            def unique(*args, **kwargs):
                calls.append(args)
                return np.unique(*args, **kwargs)

            with mock.patch.object(families, "np", _NumpyWith(unique)):
                laws = WindowKernel(dist, m, table).laws(mixed, branch)
            assert len(calls) == 1
            assert laws.tobytes() == swept(mixed, branch).tobytes()


def test_curve_clamps_a_law_that_sums_above_one():
    model = WindowModel(3, ABOVE_ONE, 0, (False,) * 3, 500)
    assert sum(model.symbol_dist) > 1.0
    assert model.union(1, 500) == 0.0  # 1 - survival clamped at 1


class TestSharing:
    def model(self):
        return random_window_model(5, alphabet_sizes=(3,),
                                   dependence_ranges=(2,), max_horizon=30)

    @pytest.mark.parametrize("horizon", [0, 1, 17, 400])
    def test_with_horizon_shares_the_kernel(self, horizon):
        model = self.model()
        moved = model.with_horizon(horizon)
        assert moved.kernel is model.kernel
        fresh = parse_model({**model_to_dict(model), "horizon": horizon})
        assert fresh.kernel is not model.kernel
        assert moved == fresh and hash(moved) == hash(fresh)
        assert repr(moved) == repr(fresh)
        assert model_to_dict(moved) == model_to_dict(fresh)
        assert build_report(moved, exact=True) == build_report(fresh, exact=True)

    @pytest.mark.parametrize("horizon", [0, 1, 17, 400, np.int64(33)])
    def test_with_horizon_builds_no_field_again(self, monkeypatch, horizon):
        """With construction made to fail, ``with_horizon`` still gives
        the model ``dataclasses.replace`` gives, field by field, and
        carries no cached value over from a model at another horizon."""
        model = consecutive_run_model(60, m=3)
        model.prefix_mass(np.arange(61))  # asked at horizon 60
        expected = dataclasses.replace(model, horizon=horizon)

        def convert_again(self):
            raise AssertionError("the predicate table was converted again")

        monkeypatch.setattr(WindowModel, "__post_init__", convert_again)
        moved = model.with_horizon(horizon)
        monkeypatch.undo()
        assert type(moved) is WindowModel and moved == expected
        for field in dataclasses.fields(WindowModel):
            value = getattr(moved, field.name)
            assert type(value) is type(getattr(expected, field.name))
            assert value == getattr(expected, field.name)
        assert set(vars(moved)) == {field.name for field in
                                    dataclasses.fields(WindowModel)} | {"kernel"}
        upto = np.arange(horizon + 1)
        assert moved.prefix_mass(upto).tobytes() == expected.prefix_mass(upto).tobytes()

    @pytest.mark.parametrize("horizon", [-1, 2.0, "3", None])
    def test_with_horizon_refuses_what_replace_refuses(self, horizon):
        model = consecutive_run_model(10)
        with pytest.raises((TypeError, ValueError)) as refused:
            dataclasses.replace(model, horizon=horizon)
        with pytest.raises(refused.type, match=f"^{re.escape(str(refused.value))}$"):
            model.with_horizon(horizon)

    def test_replace_builds_its_own_kernel(self):
        model = self.model()
        model.kernel.survival(40)
        copy = dataclasses.replace(model, horizon=model.horizon)
        assert copy == model and copy.kernel is not model.kernel
        assert len(copy.kernel._curve[1]) == 1

    def test_different_laws_never_share_a_kernel(self, capsys, tmp_path,
                                                  monkeypatch):
        """A probability sweep builds one kernel per row, a horizon sweep
        one for all its rows."""
        built = []
        init = WindowKernel.__init__

        def counted(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(WindowKernel, "__init__", counted)
        path = tmp_path / "w.json"
        dump_model(consecutive_run_model(30, m=2), path)
        code, _, _ = run_cli(capsys, "sweep", str(path), "p1=0.2..0.5:0.1",
                             "--exact")
        assert code == 0
        assert len(built) == 4
        laws = {tuple(kernel.dist_array) for kernel in built}
        assert len(laws) == 4
        built.clear()
        code, _, _ = run_cli(capsys, "sweep", str(path), "horizon=10..40:10",
                             "--exact")
        assert code == 0
        assert len(built) == 1


@pytest.mark.parametrize("flags", [("--exact",), ("--mc", "300", "7"),
                                   ("--exact", "--mc", "300", "7")],
                         ids=["exact", "mc", "both"])
def test_horizon_sweep_equals_fresh_rows(capsys, tmp_path, flags):
    """Each row of a horizon sweep equals the row a fresh ``parse_model``
    and ``build_report`` give at its horizon."""
    model = random_window_model(3, alphabet_sizes=(2,), dependence_ranges=(3,),
                                max_horizon=10)
    path = tmp_path / "w.json"
    dump_model(model, path)
    code, out, _ = run_cli(capsys, "sweep", str(path), "horizon=0..60:3", *flags)
    assert code == 0
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(cli.CSV_COLUMNS)
    mc = (300, 7) if "--mc" in flags else None
    for horizon in range(0, 61, 3):
        fresh = parse_model({**model_to_dict(model), "horizon": horizon})
        report = build_report(fresh, exact="--exact" in flags, mc=mc)
        mc_union = report.mc_union._asdict() if report.mc_union else {}
        writer.writerow([horizon] + [
            cli._cell(mc_union.get(col[3:]) if col.startswith("mc_")
                      else getattr(report, col)) for col in cli.CSV_COLUMNS[1:]])
    assert out == buffer.getvalue()


def test_threads_extending_one_curve_agree():
    """Six threads extend one curve to different lengths at once, with a
    short switch interval.  Each reads its own entry right, the curve
    left published is a prefix of the single-thread curve whichever
    extension published last, and every entry read afterwards equals
    it."""
    law = random_window_model(9, alphabet_sizes=(3,), dependence_ranges=(2,))
    reference = law.with_horizon(3000).kernel
    want = [reference.survival(n) for n in range(1, 3001)]
    lengths = (3000, 1200, 700, 2900, 2999, 1)
    interval = sys.getswitchinterval()
    for _ in range(3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(families, "CURVE_CELLS", 9 * 5)
            kernel = WindowModel(law.alphabet_size, law.symbol_dist, law.m,
                                 law.predicate_table, 3000).kernel
            start = threading.Barrier(len(lengths))
            got = {}

            def extend(n):
                start.wait(timeout=60)
                got[n] = kernel.survival(n)

            threads = [threading.Thread(target=extend, args=(n,))
                       for n in lengths]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {n: want[n - 1] for n in lengths}
        curve = kernel._curve[1]
        assert curve[1:].tolist() == want[:len(curve) - 1]
        assert [kernel.survival(n) for n in range(1, 3001)] == want


def test_curve_grown_one_entry_a_call_keeps_its_bits():
    """Extending the curve by one entry a call, as a horizon sweep does,
    gives the bits of one long extension, and the buffer it grows in is
    replaced O(log L) times, not once a call."""
    law = random_window_model(4, alphabet_sizes=(3,), dependence_ranges=(2,))
    reference = law.kernel
    reference.survival(3000)
    kernel = WindowModel(law.alphabet_size, law.symbol_dist, law.m,
                         law.predicate_table, 3000).kernel
    got, buffers = [], [kernel._curve[2]]
    for n in range(1, 3001):
        got.append(kernel.survival(n))
        if kernel._curve[2] is not buffers[-1]:
            buffers.append(kernel._curve[2])
    assert got == [reference.survival(n) for n in range(1, 3001)]
    assert len(buffers) <= (3001).bit_length() + 1
    assert len(kernel._curve[1]) == 3001


def test_horizon_sweep_makes_one_curve(capsys, tmp_path, monkeypatch):
    """``sweep horizon=1..2000 --exact`` extends one curve by at most
    2,000 clear steps in all, and no union reaches the raw sweep."""
    model = dataclasses.replace(
        random_window_model(np.random.default_rng(5), alphabet_sizes=(3,),
                            dependence_ranges=(3,), max_horizon=50),
        horizon=2000)
    path = tmp_path / "s3.json"
    dump_model(model, path)
    steps, raw = [], []
    survival, sweep = WindowKernel.survival, WindowKernel.sweep

    def counted_survival(self, length):
        before = len(self._curve[1])
        value = survival(self, length)
        steps.append(len(self._curve[1]) - before)
        return value

    def counted_sweep(self, gaps, branch):
        raw.append(branch)
        return sweep(self, gaps, branch)

    monkeypatch.setattr(WindowKernel, "survival", counted_survival)
    monkeypatch.setattr(WindowKernel, "sweep", counted_sweep)
    code, out, _ = run_cli(capsys, "sweep", str(path), "horizon=1..2000", "--exact")
    assert code == 0 and len(out.splitlines()) == 2001
    assert len(steps) == 2000 and sum(steps) <= 2000
    assert False not in raw


class TestUnionCap:
    def test_survival_past_the_cap_takes_no_step(self, monkeypatch):
        """A union of exactly ``MAX_UNION_EVENTS`` events is answered, with
        the bits of an uncapped kernel; one event more is refused before
        the curve is extended, on a kernel that has a curve and on one
        that has none."""
        want = consecutive_run_model(50).kernel.survival(40)
        monkeypatch.setattr(families, "MAX_UNION_EVENTS", 40)
        kernel = consecutive_run_model(50).kernel
        fresh = consecutive_run_model(50).kernel
        assert kernel.survival(40) == want
        curve = kernel._curve
        for k in (kernel, fresh):
            with pytest.raises(CapExceededError, match=(
                    r"^the exact union would cover 41 events, above the "
                    r"exact union cap 40$")):
                k.survival(41)
        assert kernel._curve is curve and len(curve[1]) == 41
        assert len(fresh._curve[1]) == 1
        model = consecutive_run_model(50)
        assert union_prob(model, 11, 50) == union_prob(model, 1, 40)
        with pytest.raises(CapExceededError, match="cover 41 events"):
            union_prob(model, 10, 50)


class TestPatternWidthCap:
    @pytest.fixture
    def no_law(self, monkeypatch):
        """Call it with ``sweep=True`` to refuse every kernel sweep too;
        no pattern law may be built either way."""
        def refuse(*args, **kwargs):
            raise AssertionError("a pattern law was built")

        def route(sweep):
            for cls in (WindowModel, families.ExplicitEventFamily):
                monkeypatch.setattr(cls, "pattern_laws", refuse)
            if sweep:
                monkeypatch.setattr(WindowKernel, "sweep", refuse)
        return route

    def test_wide_pattern_law_is_refused(self, no_law):
        no_law(sweep=True)
        width = dependence.MAX_PATTERN_WIDTH + 1
        explicit = families.ExplicitEventFamily.from_events(
            [0.5, 0.5], [[0]] * 40, 1)
        for family in (consecutive_run_model(40, m=1), explicit):
            with pytest.raises(CapExceededError, match=(
                    f"pattern laws of {width} events exceed the width cap 16")):
                pattern_distribution(family, tuple(range(1, width + 1)))
            with pytest.raises(CapExceededError, match="of 40 events"):
                pattern_distribution(family, tuple(range(1, 41)))

    def test_wide_audit_is_refused_before_counting_groups(self, no_law,
                                                         monkeypatch):
        no_law(sweep=True)

        def no_count(*args):
            raise AssertionError("groups were counted")

        monkeypatch.setattr(WindowModel, "subset_group_count", no_count)
        with pytest.raises(CapExceededError, match=(
                "pattern laws of 17 events exceed the width cap 16")):
            check_m_dependence(consecutive_run_model(40, m=1), max_subset=17)
        # sizes up to N - m = 17 have a split
        with pytest.raises(CapExceededError, match="of 17 events"):
            check_m_dependence(consecutive_run_model(18, m=1), max_subset=20)

    def test_verify_past_the_width_cap_exits_2(self, capsys, tmp_path, no_law):
        """The derivation audit runs first and sweeps; the dependence
        audit then refuses before its first pattern law."""
        no_law(sweep=False)
        path = tmp_path / "w.json"
        dump_model(consecutive_run_model(40, m=1), path)
        assert run_cli(capsys, "verify", str(path), "--max-subset", "17") == (
            2, "", "error: pattern laws of 17 events exceed the width cap 16\n")

    def test_width_at_the_cap_answers(self):
        model = consecutive_run_model(20, m=1)
        law = pattern_distribution(model, tuple(range(1, 17)))
        assert law.shape == (1 << 16,) and abs(law.sum() - 1.0) < 1e-12
        explicit = expand_window_model(consecutive_run_model(16, m=1))
        np.testing.assert_allclose(
            pattern_distribution(explicit, tuple(range(1, 17))), law,
            rtol=0, atol=1e-14)


def _arrays(value):
    """The numpy arrays in ``value``, looking into dicts, tuples and lists."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_threshold_leaves_no_prefix_vector():
    """``build_threshold`` searches the prefix masses of every index
    0..N, which a window model computes as they are asked: afterwards
    neither the model nor its kernel holds an array of N + 1 entries."""
    n = 10 ** 5
    model = consecutive_run_model(n, m=2)
    threshold = build_threshold(model)
    assert threshold.max_n == 12_500 and threshold(12_500) == n
    held = [array.size for array in (*_arrays(vars(model)),
                                     *_arrays(vars(model.kernel)))]
    assert held and max(held) < n + 1


def test_pair_and_event_vectors_hold_no_n_floats():
    """One stationary value viewed N - gap times: at N = 10**7 a full
    vector would take 76 MiB."""
    model = consecutive_run_model(10 ** 7, m=2)
    model.kernel  # built before the trace: its arrays are not the point
    tracemalloc.start()
    try:
        assert pair_prob(model, 5, 6) == model.pair_probs(1)[0]
        assert event_prob(model, 10 ** 7) == model.pair_probs(0)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    for vector in (model.pair_probs(1), model.pair_probs(0)):
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 0.0
    assert model.pair_probs(3).shape == (10 ** 7 - 3,)
