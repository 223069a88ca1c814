"""Self-tests of the benchmark harness, on small copies of each workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that the oracles catch wrong results, that the traced run's
wrappers only observe (same results, originals restored), and that the
count metrics repeat exactly for a fixed seed.
"""

import inspect
import sys

import pytest

import layers
import run
import workloads
from repro.server import rowset_dump
from repro.sqlstore.rowset import Rowset


class SmallShort(workloads.ShortReadWrite):
    customers = 300
    warmup_ops = 20
    trace_ops = 200
    trace_block = 40


class SmallWire(workloads.WireHot):
    customers = 800
    warmup_ops = 20
    trace_ops = 200
    trace_block = 40
    compare_sample = 10


class SmallScan(workloads.ScanPaged):
    customers = 600
    buffer_pages = 4


class SmallMine(workloads.MineRefresh):
    customers = 200
    batch_customers = 10


SMALL = [SmallShort, SmallScan, SmallMine, SmallWire]
COUNT_METRICS = ["obs.plan_builds_per_stmt", "sqlstore.pages_read_per_stmt",
                 "sqlstore.rows_examined_per_row_out", "wire.bytes_per_row"]


@pytest.fixture
def make(tmp_path):
    opened = []

    def factory(cls, seed=5):
        workload = cls(seed, str(tmp_path / f"w{len(opened)}"))
        workload.setup()
        opened.append(workload)
        return workload
    yield factory
    for workload in opened:
        workload.close()


def _tampered(result):
    """The same rowset with one value of its first row changed."""
    rows = [tuple(row) for row in result.rows]
    first = list(rows[0])
    first[-1] = "tampered" if isinstance(first[-1], (int, float)) else -1
    return Rowset(result.columns, [tuple(first)] + rows[1:])


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_oracles_pass_real_results_and_flag_wrong_ones(make, cls):
    workload = make(cls)
    ops = workload.ops()
    flagged = 0
    for _ in range(40):
        op = next(ops)
        result = workload.run(op)
        if isinstance(result, Rowset):
            # Checking a wrong result first must not change oracle state.
            if result.rows:
                assert not run.verdict(op, _tampered(result)), op.label
                assert not run.verdict(op, Rowset(result.columns,
                                                  result.rows[1:])), op.label
                flagged += 1
        else:
            assert not run.verdict(op, result + 1), op.label
        assert run.verdict(op, result), op.label
    assert flagged > 0


def test_runner_counts_an_oracle_failure(make):
    workload = make(SmallShort)
    runner = run.Runner(workload)
    real = workload.run
    workload.run = lambda op: (Rowset(real(op).columns, [])
                               if op.label == "point_read" else real(op))
    samples = runner.run_ops(40)
    assert runner.attempted == len(samples)
    assert runner.failed == sum(s.label == "point_read" for s in samples) > 0


def test_a_round_runs_the_whole_statement_mix(make):
    runner = run.Runner(make(SmallScan))
    for _ in range(3):
        assert [s.label for s in runner.round()] == [
            "scan_filter", "group_by", "keyed_join", "range_fetch"]


def test_mine_rounds_train_on_the_same_number_of_customers(make):
    workload = make(SmallMine)
    ops = workload.ops()
    trained = []
    for _ in range(4 * 7):
        op = next(ops)
        result = workload.run(op)
        assert run.verdict(op, result), op.label
        if op.label == "train":
            trained.append(result)
    assert trained == [SmallMine.customers + SmallMine.batch_customers] * 4


def test_fast_end_needs_ten_samples_below_it():
    assert run.fast_end(list(range(99))) is None
    assert run.fast_end(list(range(1, 101))) == 10.9


def _functions():
    """Every function reachable as a repro module or class attribute."""
    found = {}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if inspect.isclass(value):
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_traced_results_equal_untraced_and_wrappers_are_restored(make, cls):
    plain, traced = make(cls), make(cls)
    before = _functions()
    tracer = layers.LayerTracer()
    plain_ops, traced_ops = plain.ops(), traced.ops()
    for _ in range(30):
        op = next(plain_ops)
        expected = plain.run(op)
        assert op.check(expected)
        op = next(traced_ops)
        tracer.install()
        try:
            got = traced.run(op)
        finally:
            tracer.uninstall()
        assert op.check(got)
        if isinstance(expected, Rowset):
            assert rowset_dump(got) == rowset_dump(expected), op.label
        else:
            assert got == expected, op.label
    assert sum(tracer.calls.values()) > 0
    assert tracer.restored()
    after = _functions()
    assert all(after.get(key) is value for key, value in before.items())


def _count_metrics(cls, tmp_path, tag):
    workload = cls(5, str(tmp_path / tag))
    runner = run.Runner(workload)
    try:
        metrics, extra = run.per_layer(workload, runner, 0.2)
    finally:
        workload.close()
    assert runner.failed == 0, runner.failure_notes
    found = {**metrics, **extra}
    return {name: found[name][0] for name in found
            if name in COUNT_METRICS or
            name.startswith("sqlstore.rows_examined_per_row_out.")}


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_count_metrics_repeat_exactly_for_a_fixed_seed(tmp_path, cls):
    first = _count_metrics(cls, tmp_path, "a")
    second = _count_metrics(cls, tmp_path, "b")
    assert first == second
    assert set(COUNT_METRICS[:3]) <= set(first)
    if cls is SmallWire:
        assert first["wire.bytes_per_row"] > 0
