"""The session worker pool: reuse, drift, leaks, schedule invariance.

Four contracts:

* **reuse** — a warm parallel ``check()`` spawns zero new processes: the
  PID set is identical across calls, including after small DML (the
  drifted relation travels by shared memory, not by re-fork);
* **epoch re-fork** — drift past ``WorkerPool.shm_drift_rows`` retires
  the workers (disjoint PID set, epoch bump) instead of shipping a huge
  relation through ``/dev/shm``;
* **no leaks** — ``Session.close()`` returns the process to its baseline
  file-descriptor count and unlinks every published shm segment (checked
  by name under ``/dev/shm``);
* **schedule invariance** — reports are bit-identical, including list
  order, under any schedule: more shards than in-flight slots cross-
  checked against serial, plus a Hypothesis permutation of the
  scheduler's ready-deque pick via ``parallel._SCHEDULE_HOOK``.
"""

from __future__ import annotations

import gc
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
import repro.api.parallel as parallel
from repro.api.workerpool import ShmColumnStore, WorkerPool, fetch_payload
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import plan_detection
from repro.engine.executor import execute_plan

from tests.conformance import report_key

pytestmark = pytest.mark.skipif(
    not parallel.fork_available(),
    reason="persistent process pools need the fork start method",
)

NEW_ROW = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}


def persistent_session(db, sigma, **overrides):
    options = dict(workers=2, shards=2)
    options.update(overrides)
    return api.connect(db, sigma, **options)


# -- pool reuse and drift ------------------------------------------------------


class TestPoolReuse:
    def test_same_pids_across_checks(self):
        db = scaled_bank_instance(300, error_rate=0.05, seed=3)
        sigma = bank_constraints()
        serial = api.connect(db, sigma).check()
        session = persistent_session(db, sigma)
        assert session.effective_executor == "process"
        r1 = session.check()
        pool = session.backend._pool
        pids = pool.pids()
        assert pids and all(isinstance(p, int) for p in pids)
        # Cached warm re-check: no graph at all. Force cold re-checks by
        # reconnecting with a fresh cache over the same pool? No — the
        # contract is about the *session's* pool, so mutate to go cold.
        r2 = session.check()
        assert pool.pids() == pids
        assert report_key(r1) == report_key(serial)
        assert report_key(r2) == report_key(serial)
        session.close()

    def test_small_dml_keeps_pids_and_epoch(self, bank):
        db = bank.clean_db.copy()
        session = persistent_session(db, bank.constraints)
        assert session.check().is_clean
        pool = session.backend._pool
        pids, epoch = pool.pids(), pool.epoch
        session.insert("interest", dict(NEW_ROW))
        report = session.check()
        assert pool.pids() == pids
        assert pool.epoch == epoch
        # The drifted relation traveled by shared memory.
        assert len(pool.store) > 0
        oracle = api.connect(db, bank.constraints).check()
        assert report_key(report) == report_key(oracle)
        session.close()

    def test_large_drift_reforks_with_epoch_bump(self, bank, monkeypatch):
        monkeypatch.setattr(WorkerPool, "shm_drift_rows", 0)
        db = bank.clean_db.copy()
        session = persistent_session(db, bank.constraints)
        session.check()
        pool = session.backend._pool
        pids = pool.pids()
        assert pool.epoch == 0
        session.insert("interest", dict(NEW_ROW))
        report = session.check()
        assert pool.epoch == 1
        assert pool.pids().isdisjoint(pids)
        # Re-forked workers read the fresh copy-on-write data, so no
        # column segments survive; CIND witness sets are born after the
        # fork and still (correctly) travel by shared memory.
        assert all(key[0] == "witness" for key in pool.store._segments)
        oracle = api.connect(db, bank.constraints).check()
        assert report_key(report) == report_key(oracle)
        session.close()

    def test_closed_pool_refuses_submissions(self):
        pool = WorkerPool(2)
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.executor()
        pool.close()  # idempotent


# -- resource hygiene ----------------------------------------------------------


class TestNoLeaks:
    def test_close_releases_fds_and_shm_segments(self, bank):
        # Warm-up: the first fork pool lazily spawns the multiprocessing
        # resource-tracker process, whose pipe fd lives until interpreter
        # exit. Pay that cost before taking the baseline.
        warmup = persistent_session(bank.clean_db.copy(), bank.constraints)
        warmup.check()
        warmup.close()
        gc.collect()
        baseline = len(os.listdir("/proc/self/fd"))

        db = bank.clean_db.copy()
        session = persistent_session(db, bank.constraints)
        session.check()
        session.insert("interest", dict(NEW_ROW))
        session.check()  # drift -> published shm segments
        pool = session.backend._pool
        names = pool.store.segment_names()
        assert names, "drift should have published at least one segment"
        assert all(
            os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names
        )
        session.close()
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == baseline
        assert not any(
            os.path.exists(f"/dev/shm/{name.lstrip('/')}") for name in names
        )

    def test_finalizer_unlinks_segments_without_close(self):
        store = ShmColumnStore()
        ref = store.publish(("columns", "r", 0), lambda: [("a", "b")])
        assert os.path.exists(f"/dev/shm/{ref.name.lstrip('/')}")
        assert fetch_payload(ref) == [("a", "b")]
        store.close()
        assert not os.path.exists(f"/dev/shm/{ref.name.lstrip('/')}")

    def test_store_reuses_segments_by_key(self):
        store = ShmColumnStore()
        builds = []

        def build():
            builds.append(1)
            return [("x",)]

        ref1 = store.publish(("columns", "r", 7), build)
        ref2 = store.publish(("columns", "r", 7), build)
        assert ref1 == ref2
        assert len(builds) == 1
        store.release(("columns", "r", 7))
        store.release(("columns", "r", 7))
        # Idle segments survive until their keying version goes stale.
        assert len(store) == 1
        store.sweep(lambda key: key[2] != 8)
        assert len(store) == 0


# -- schedule invariance --------------------------------------------------------


class TestWorkStealing:
    """Shards queue in the scheduler's ready deque and go to the pool as
    in-flight slots free up, so whichever worker idles first takes the
    next one; the schedule must never show in the report."""

    def test_skewed_fine_shards_match_serial(self):
        db = scaled_bank_instance(120, error_rate=0.1, seed=11)
        sigma = bank_constraints()
        serial = api.connect(db, sigma).check()
        fine = persistent_session(db, sigma, shards=10)
        assert report_key(fine.check()) == report_key(serial)
        fine.close()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_reports_invariant_under_any_schedule(self, seed):
        """Permute the scheduler's ready-deque pick arbitrarily: the
        report must stay bit-identical, because states merge by shard
        index, never by completion or submission order."""
        db = scaled_bank_instance(90, error_rate=0.1, seed=7)
        sigma = bank_constraints()
        plan = plan_detection(sigma)
        serial = execute_plan(plan, db)
        rnd = random.Random(seed)
        assert parallel._SCHEDULE_HOOK is None
        parallel._SCHEDULE_HOOK = lambda n: rnd.randrange(n)
        try:
            permuted = parallel.execute_plan_parallel(
                plan, db, workers=1, shards=5
            )
        finally:
            parallel._SCHEDULE_HOOK = None
        assert report_key(permuted) == report_key(serial)
