"""Tests of the benchmark's span recorder and its tracing wrappers.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from pbench import layers, stats  # noqa: E402
from pbench.data import dense_bank_sigma, report_records  # noqa: E402
from pbench.trace import (  # noqa: E402
    Recorder,
    Span,
    Target,
    Tracer,
    self_times,
    surviving_wrappers,
)
from repro.api import connect  # noqa: E402
from repro.datasets.bank import scaled_bank_instance  # noqa: E402
from repro.sql.loader import create_database_file  # noqa: E402


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, op=1)


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([_span(1, 0.0, 2.5)]) == {1: 2.5}

    def test_nested_tree(self):
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 5.0, 6.0, parent=1),
            _span(4, 2.0, 3.0, parent=2),
        ]
        assert self_times(spans) == pytest.approx(
            {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})

    def test_overlapping_children_count_once(self):
        # Two children running in parallel cover [1, 5] together.
        spans = [
            _span(1, 0.0, 10.0),
            _span(2, 1.0, 4.0, parent=1),
            _span(3, 2.0, 5.0, parent=1),
        ]
        assert self_times(spans)[1] == pytest.approx(6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [_span(1, 0.0, 4.0), _span(2, 3.0, 9.0, parent=1)]
        assert self_times(spans)[1] == pytest.approx(3.0)


class TestStats:
    def test_no_tail_without_ten_samples_beyond(self):
        assert stats.tail([1.0] * 10) is None

    def test_no_tail_at_or_below_the_median(self):
        assert stats.tail([float(i) for i in range(20)]) is None

    def test_tail_keeps_ten_samples_beyond(self):
        samples = [float(i) for i in range(1, 31)]  # 1..30
        pct, value = stats.tail(samples)
        assert value == 20.0
        assert sum(s > value for s in samples) == 10
        assert pct == pytest.approx(200 / 3)


@pytest.fixture(scope="module")
def sigma():
    return dense_bank_sigma()


@pytest.fixture(scope="module")
def small_db():
    return scaled_bank_instance(300, error_rate=0.2, seed=5)


def _workload(db, sigma, path):
    """Cold checks on three backends and a 1-row DML re-check."""
    out = []
    with connect(db.copy(), sigma) as session:
        out.append(report_records(session.check()))
    with connect(str(path), sigma, backend="sqlfile") as session:
        out.append(report_records(session.check()))
    with connect(db.copy(), sigma, backend="incremental") as session:
        session.check()
        row = next(iter(db["saving"]))
        session.apply(deletes=[("saving", row.values)])
        out.append(report_records(session.check()))
        session.apply(inserts=[("saving", row.values)])
        out.append(report_records(session.check()))
    return out


class TestTracer:
    def test_every_target_resolves(self):
        tracer = Tracer(layers.TARGETS, Recorder())
        assert tracer.missing == []

    def test_traced_reports_equal_untraced(self, small_db, sigma, tmp_path):
        path = tmp_path / "small.db"
        create_database_file(path, small_db)
        untraced = _workload(small_db, sigma, path)
        recorder = Recorder()
        tracer = Tracer(layers.TARGETS, recorder)
        recorder.op = 1
        tracer.install()
        try:
            traced = _workload(small_db, sigma, path)
        finally:
            tracer.uninstall()
        assert traced == untraced
        names = {span.name for span in recorder.spans}
        assert {"api.session.check", "engine.execute", "sql.scan",
                "cleaning.incremental.update"} <= names
        assert all(span.op == 1 for span in recorder.spans)

    def test_spans_nest_under_the_session(self, small_db, sigma):
        recorder = Recorder()
        tracer = Tracer(layers.TARGETS, recorder)
        recorder.op = 7
        tracer.install()
        try:
            with connect(small_db.copy(), sigma) as session:
                session.check()
        finally:
            tracer.uninstall()
        by_id = {span.sid: span for span in recorder.spans}
        execute = [s for s in recorder.spans if s.name == "engine.execute"]
        assert execute
        assert by_id[execute[0].parent].name == "api.session.check"

    def test_no_wrapper_survives(self, small_db, sigma):
        import repro.api.session as session_module
        import repro.engine.executor as executor_module

        original_check = session_module.Session.__dict__["check"]
        original_execute = executor_module.execute_plan
        tracer = Tracer(layers.TARGETS, Recorder())
        tracer.install()
        assert surviving_wrappers()
        assert session_module.Session.__dict__["check"] is not original_check
        tracer.uninstall()
        assert surviving_wrappers() == []
        assert session_module.Session.__dict__["check"] is original_check
        assert executor_module.execute_plan is original_execute

    def test_nothing_is_recorded_outside_an_op(self, small_db, sigma):
        recorder = Recorder()
        tracer = Tracer(layers.TARGETS, recorder)
        tracer.install()
        try:
            with connect(small_db.copy(), sigma) as session:
                session.check()
        finally:
            tracer.uninstall()
        assert recorder.spans == [] and not recorder.counts

    def test_async_and_acquire_wrappers(self):
        from repro.serve.registry import ReadWriteLock

        recorder = Recorder()
        tracer = Tracer(
            [Target("lock", "repro.serve.registry",
                    "ReadWriteLock.writing", "acquire")],
            recorder,
        )

        async def main():
            lock = ReadWriteLock()
            async with lock.writing():
                pass

        recorder.op = 3
        tracer.install()
        try:
            asyncio.run(main())
        finally:
            tracer.uninstall()
        assert [span.name for span in recorder.spans] == ["lock"]

    def test_missing_targets_are_skipped(self):
        tracer = Tracer(
            [Target("gone", "repro.engine.executor", "no_such_function")],
            Recorder(),
        )
        assert tracer.missing == ["gone"]


def test_split_oracle_equals_check_database_naive(small_db, sigma):
    from repro.core.violations import check_database_naive

    from pbench.data import unordered_records
    from pbench.oracle import naive_records

    expected = unordered_records(check_database_naive(small_db, sigma))
    assert sum(expected.values()) > 0
    assert naive_records(small_db, sigma) == expected


def test_benchmark_json_lists_the_layer_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == layers.per_layer_entries()


def test_derive_reports_every_layer_metric():
    values = layers.derive(Recorder(), layers.TraceContext())
    assert set(values) == {m.name for m in layers.PER_LAYER}
