"""The workloads. Each is a closed loop with one client.

Every workload implements the same small interface for
:func:`pbench.runner.execute`: ``setup(i)`` (timed, once per window),
``prepare(first)`` (untimed; oracle work on the first instance),
``cycle(n)`` (one op per configuration; ``True`` when every op
succeeded), ``finish(last)`` (the instance's correctness checks),
``teardown()``, ``close()`` and ``inputs()`` (tuple counts and |Σ| for
the result's provenance).
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import threading
from typing import Any

from repro.api import connect
from repro.cleaning.repair import repair, replay_edits
from repro.serve import DetectionServer, DetectionService
from repro.sql.loader import create_database_file

from pbench.data import (
    REPAIR_ERROR_RATE,
    bank_data,
    dense_bank_sigma,
    hot_rows,
    report_records,
    tuple_counts,
    unordered_records,
)
from pbench.oracle import naive_records
from pbench.runner import Run
from pbench.wire import Subscriber, WireClient, WireDropped, tuples

#: Seconds a subscriber may take to receive a commit's delta.
DELTA_TIMEOUT_S = 20.0


class Workload:
    name = ""
    #: The op configuration reported as ``memory.p50_rel``.
    memory_key = ""
    #: Traced and untraced cycles alternate in blocks of this many.
    trace_stride = 1

    def __init__(self, run: Run):
        self.run = run
        self.sigma = dense_bank_sigma()
        self.db: Any = None

    def path(self, label: str) -> str:
        return os.path.join(self.run.tmpdir, f"{self.name}-{label}.db")

    def prepare(self, first: bool) -> None:
        pass

    def before_traced_cycle(self) -> None:
        pass

    def after_traced_cycle(self) -> None:
        pass

    def finish(self, last: bool) -> None:
        pass

    def teardown(self) -> None:
        pass

    def close(self) -> None:
        """Release what outlives every set-up (after the last teardown)."""

    def inputs(self) -> dict[str, Any]:
        counts = tuple_counts(self.db) if self.db is not None else {}
        return {
            "tuple_counts": counts,
            "tuples": sum(counts.values()),
            "sigma_size": len(self.sigma),
        }

    def check_naive(self, db: Any, records: list[tuple], what: str) -> None:
        """Hold *records* to the naive oracle over *db*, ignoring order."""
        expected = naive_records(db, self.sigma)
        found = unordered_records(records)
        if found != expected:
            raise self.run.incorrect(
                f"{what} differs from the naive oracle "
                f"({sum(found.values())} vs {sum(expected.values())} "
                "violations)")


class ColdCheck(Workload):
    """A fresh session and one ``check()`` per op, on three configurations."""

    name = "cold-check"
    memory_key = "check.memory"

    def setup(self, i: int) -> None:
        self.db = bank_data(self.run.seed)
        self.file = self.path(f"setup{i}")
        create_database_file(self.file, self.db)

    def teardown(self) -> None:
        if self.db is not None and os.path.exists(self.file):
            os.remove(self.file)

    def prepare(self, first: bool) -> None:
        if first:  # every set-up builds the same data from the seed
            with connect(self.db.copy(), self.sigma) as session:
                self.reference = report_records(session.check())
            self.check_naive(self.db, self.reference, "the reference report")

    def _cold(self, key: str, db: Any, **options: Any) -> bool:
        session = None

        def op():
            nonlocal session
            session = connect(db, self.sigma, **options)
            return session.check()

        try:
            ok, report = self.run.op(key, op)
        finally:
            if session is not None:
                session.close()
        if ok and report_records(report) != self.reference:
            raise self.run.incorrect("report differs from the reference")
        return ok

    def cycle(self, n: int) -> bool:
        ok = self._cold("check.memory", self.db.copy())
        ok &= self._cold("check.sqlfile", self.file, backend="sqlfile")
        ok &= self._cold("check.par2", self.db.copy(), workers=2)
        return ok


class DMLRecheck(Workload):
    """A 1-row ``Session.apply`` plus ``check()`` per op on three long-lived
    sessions; the seeded stream deletes a random hot tuple, then
    re-inserts it."""

    name = "dml-recheck"
    memory_key = "dml_check.memory"
    trace_stride = 2  # trace whole delete + re-insert pairs
    backends = ("memory", "incremental", "sqlfile")

    def setup(self, i: int) -> None:
        self.sessions: dict[str, Any] = {}
        self.db = bank_data(self.run.seed)
        self.file = self.path(f"setup{i}")
        create_database_file(self.file, self.db)
        self.sessions["memory"] = connect(self.db.copy(), self.sigma)
        self.sessions["incremental"] = connect(
            self.db.copy(), self.sigma, backend="incremental")
        self.sessions["sqlfile"] = connect(
            self.file, self.sigma, backend="sqlfile")
        for session in self.sessions.values():
            session.check()
        # The incremental checker is built lazily on first use.
        self.sessions["incremental"].is_clean()

    def teardown(self) -> None:
        for session in getattr(self, "sessions", {}).values():
            session.close()
        self.sessions = {}
        if self.db is not None and os.path.exists(self.file):
            os.remove(self.file)

    def prepare(self, first: bool) -> None:
        if first:
            self.rng = random.Random(self.run.seed)
        self.rows = hot_rows(self.db)
        self.pending: tuple[str, Any] | None = None
        reports = {
            name: report_records(s.check()) for name, s in self.sessions.items()
        }
        self.last = reports["memory"]
        if any(r != self.last for r in reports.values()):
            raise self.run.incorrect("backends disagree after warm-up")

    def cycle(self, n: int) -> bool:
        if self.pending is None:
            relation, t = self.pending = self.rng.choice(self.rows)
            batch = {"deletes": [(relation, t.values)]}
        else:
            relation, t = self.pending
            self.pending = None
            batch = {"inserts": [(relation, t.values)]}
        ok = True
        reports = {}
        for name in self.backends:
            session = self.sessions[name]

            def op():
                applied = session.apply(**batch)
                return applied, session.check()

            done, value = self.run.op(f"dml_check.{name}", op)
            if not done:
                ok = False
                continue
            applied, report = value
            if applied.changed != 1:
                raise self.run.incorrect(
                    f"{name} applied {applied.changed} rows, expected 1")
            reports[name] = report_records(report)
        if len(set(map(tuple, reports.values()))) > 1:
            raise self.run.incorrect("backend reports differ after the op")
        if reports:
            self.last = next(iter(reports.values()))
        return ok

    def finish(self, last: bool) -> None:
        if last:
            self.check_naive(self.sessions["memory"].db, self.last,
                             "the final report")


class _ServerThread:
    """An asyncio loop in its own thread hosting the server."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-server", daemon=True)
        self.thread.start()

    def call(self, coro: Any, timeout: float = 120.0) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


class ServeWire(Workload):
    """Writes and reads over loopback TCP against two tenants.

    Per cycle and tenant: a 1-row delete, its re-insert and a ``check``;
    one subscriber per tenant consumes the delta stream.
    """

    name = "serve-wire"
    memory_key = "write_delta.memory"
    tenants = {"memory": "memory", "sqlfile": "sqlfile"}  # tenant -> backend

    def __init__(self, run: Run):
        super().__init__(run)
        self.client_loop = asyncio.new_event_loop()
        self.server_thread: _ServerThread | None = None
        self.file: str | None = None

    def _client(self, coro: Any) -> Any:
        return self.client_loop.run_until_complete(coro)

    def setup(self, i: int) -> None:
        self.db = bank_data(self.run.seed)
        sources: dict[str, Any] = {}
        for tenant, backend in self.tenants.items():
            if backend == "sqlfile":
                self.file = sources[tenant] = self.path(f"setup{i}")
                create_database_file(self.file, self.db)
            else:
                sources[tenant] = self.db.copy()
        self.server_thread = _ServerThread()
        self.service = DetectionService(max_workers=2)
        self.server = DetectionServer(self.service, self.sigma.schema, self.sigma)
        self.server_thread.call(self.server.start())
        # In-process tenant creation: a 50k-row ``create`` request line
        # exceeds the server's 64 KiB request-line limit.
        for tenant, backend in self.tenants.items():
            self.server_thread.call(self.service.create_tenant(
                tenant, sources[tenant], self.sigma, backend=backend))
        host, port = self.server.address
        self.client = WireClient(host, port)
        self.subscribers = {t: Subscriber(host, port, t) for t in self.tenants}
        self.mirror = self.db
        self._client(self._connect())

    async def _connect(self) -> None:
        """Connect, subscribe, and warm each tenant with one delete +
        re-insert and one ``check`` per pooled reader: the first write
        builds the sqlfile tenant's shadow incremental checker, which users
        pay once per tenant, not per write."""
        await self.client.connect()
        for subscriber in self.subscribers.values():
            await subscriber.start()
        relation = "saving"
        t = next(iter(self.mirror[relation]))
        for tenant in self.tenants:
            for kind in ("deletes", "inserts"):
                reply = await self.client.request({
                    "op": "apply", "tenant": tenant,
                    kind: [[relation, list(t.values)]]})
                if not reply.ok:
                    raise RuntimeError(f"warm-up write failed: {reply.error}")
                seq = reply.result["delta"]["seq"]
            for __ in range(self.service.reader_pool_size):
                reply = await self.client.request(
                    {"op": "check", "tenant": tenant})
                if not reply.ok:
                    raise RuntimeError(f"warm-up check failed: {reply.error}")
                await self._verify_read(tenant, seq, reply.result, "warm-up")
        self.mirror[relation].discard(t)
        self.mirror.add(relation, t)

    async def _verify_read(self, tenant: str, seq: int, result: Any,
                           what: str) -> None:
        """A ``check`` answer must equal the tenant's report as its delta
        stream reconstructs it after commit *seq*, list order included."""
        subscriber = self.subscribers[tenant]
        if not await subscriber.wait_for(seq, DELTA_TIMEOUT_S):
            raise self.run.incorrect(
                f"{what}: tenant {tenant}: delta seq {seq} not received "
                f"(at seq {subscriber.seq}: {subscriber.error})")
        if list(tuples(result["records"])) != subscriber.records:
            raise self.run.incorrect(
                f"{what}: tenant {tenant}: check differs from the report its "
                f"delta stream reconstructs at seq {seq}")

    def teardown(self) -> None:
        if self.server_thread is None:
            return

        async def close_client() -> None:
            await self.client.close()
            for subscriber in self.subscribers.values():
                await subscriber.close()

        self._client(close_client())
        self.server_thread.call(self.server.stop())
        self.server_thread.stop()
        self.server_thread = None
        if self.file is not None and os.path.exists(self.file):
            os.remove(self.file)
        self.file = None

    def close(self) -> None:
        self.client_loop.close()

    def prepare(self, first: bool) -> None:
        if first:
            self.rng = random.Random(self.run.seed)
        self.rows = hot_rows(self.mirror)
        self.seq = {
            tenant: self.service.registry.get(tenant).feed.seq
            for tenant in self.tenants
        }

    def finish(self, last: bool) -> None:
        self._client(self._finish(last))

    async def _finish(self, last: bool) -> None:
        """Every window: each tenant's final ``check`` equals its delta
        stream's report. Last window: both also equal a direct session
        over the mirror instance the client kept."""
        expected = None
        if last:
            with connect(self.mirror, self.sigma) as session:
                expected = list(tuples(json.loads(json.dumps(
                    report_records(session.check())))))
        for tenant in self.tenants:
            self.run.op_label = f"final check of tenant {tenant}"
            reply = await self.client.request({"op": "check", "tenant": tenant})
            if not reply.ok:
                raise self.run.incorrect(f"final check failed: {reply.error}")
            await self._verify_read(tenant, self.seq[tenant], reply.result,
                                    "final check")
            if expected is not None and list(
                    tuples(reply.result["records"])) != expected:
                raise self.run.incorrect(
                    f"tenant {tenant}: final check differs from a direct "
                    "session over the mirror instance")

    def before_traced_cycle(self) -> None:
        self._locks_before = self._lock_counts()

    def after_traced_cycle(self) -> None:
        after = self._lock_counts()
        for key, value in after.items():
            self.run.ctx.lock_counts[key] = (
                self.run.ctx.lock_counts.get(key, 0)
                + value - self._locks_before[key])

    def _lock_counts(self) -> dict[str, int]:
        totals = {"fast_reads": 0, "slow_reads": 0, "revocations": 0}
        for tenant in self.tenants:
            lock = self.service.registry.get(tenant).lock
            for key in totals:
                totals[key] += getattr(lock, key, 0)
        return totals

    def cycle(self, n: int) -> bool:
        return self._client(self._cycle())

    async def _request(self, key: str, payload: dict[str, Any]) -> Any:
        """One timed request; ``None`` when it failed (counted)."""
        try:
            op_id, elapsed, reply = await self.run.aop(
                key, lambda: self.client.request(payload))
        except WireDropped as exc:
            self.run.fail(f"connection lost: {exc}")
            return None
        if not reply.ok:
            self.run.fail(f"error envelope: {reply.error}")
            return None
        if payload["op"] == "apply" and self.run.traced:
            self.run.ctx.wire_writes[op_id] = elapsed
        return reply.result

    async def _cycle(self) -> bool:
        relation, t = self.rng.choice(self.rows)
        row = list(t.values)
        ok = True
        for tenant in self.tenants:
            for kind in ("deletes", "inserts"):
                result = await self._request(
                    f"write_delta.{tenant}",
                    {"op": "apply", "tenant": tenant, kind: [[relation, row]]})
                if result is None:
                    ok = False
                    continue
                changed = result["deleted"] + result["inserted"]
                if changed != 1:
                    raise self.run.incorrect(
                        f"apply changed {changed} rows, expected 1")
                self.seq[tenant] = result["delta"]["seq"]
            result = await self._request(
                f"read.{tenant}", {"op": "check", "tenant": tenant})
            if result is None:
                ok = False
            else:
                await self._verify_read(tenant, self.seq[tenant], result,
                                        "read")
        # The mirror follows the same two writes (net: the tuple moves to
        # the end of its relation's insertion order).
        self.mirror[relation].discard(t)
        self.mirror.add(relation, t)
        return ok


class ServeWireMemory(ServeWire):
    """:class:`ServeWire` on its memory tenant alone.

    The benchmark's gated serve workload. ``serve-wire`` itself fails its
    correctness gate on some seeds because pooled sqlfile readers serve a
    stale report order after a delete and re-insert of the same tuple (see
    the README); until the program fixes that, the sqlfile tenant runs
    only in ``serve-wire``, by name.
    """

    name = "serve-wire-memory"
    tenants = {"memory": "memory"}


class Repair(Workload):
    """``repair(copy, sigma)`` with default options per op."""

    name = "repair"
    memory_key = "repair"

    def setup(self, i: int) -> None:
        self.db = bank_data(self.run.seed, REPAIR_ERROR_RATE)

    def prepare(self, first: bool) -> None:
        if first:
            with connect(self.db.copy(), self.sigma) as session:
                self.run.ctx.repair_input_violations = session.check().total
            self.first: Any = None

    @staticmethod
    def _snapshot(db: Any) -> dict[str, list[tuple]]:
        return {name: [t.values for t in inst]
                for name, inst in db.relations().items()}

    @staticmethod
    def _edit_log(result: Any) -> list[tuple]:
        return [
            (e.kind, e.relation, e.before and e.before.values,
             e.after and e.after.values, e.constraint)
            for e in result.edits
        ]

    def cycle(self, n: int) -> bool:
        work = self.db.copy()
        ok, result = self.run.op("repair", lambda: repair(work, self.sigma))
        if not ok:
            return False
        if self.run.traced:
            self.run.ctx.repairs.append(result)
        if not result.clean:
            raise self.run.incorrect("repair result is not clean")
        log, snap = self._edit_log(result), self._snapshot(result.db)
        if self.first is None:
            with connect(result.db, self.sigma) as session:
                if session.check().total:
                    raise self.run.incorrect("repaired database violates Σ")
            if self._snapshot(replay_edits(self.db, result.edits)) != snap:
                raise self.run.incorrect("replay_edits does not reproduce result.db")
            self.first = (log, snap)
        elif (log, snap) != self.first:
            raise self.run.incorrect("edit log or result differs across ops")
        return True


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (ColdCheck, DMLRecheck, ServeWire, ServeWireMemory,
                        Repair)
}
