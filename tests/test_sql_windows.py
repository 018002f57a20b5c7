"""The sqlfile window pipeline: rowid geometry, partition laws, fallback.

:mod:`repro.sql.windows` carries two independent claims, each pinned
here the same way :mod:`tests.test_shards` pins the in-memory shard
algebra:

* **partition equivalence** — scanning *any* contiguous rowid partition
  of a relation and merging the per-window partial states in window
  order yields exactly the single-window (serial) result, for all three
  scan kinds (CFD group states, witness key sets, CIND probe buckets).
  Hypothesis draws the cut points.
* **one-pass = legacy** — the window-function CFD path returns the
  legacy executor's hits bit-identically, stays bit-identical across
  interleaved DML (differential test), keeps its single-scan /
  covering-index query plans (EXPLAIN QUERY PLAN regression), and falls
  back to the legacy SQL automatically when the sqlite library has no
  window functions — with ``window_functions="require"`` the same
  condition is a loud typed error instead.

The end-to-end bar — a windowed parallel ``check()`` satisfies the full
backend contract bit-identically — lives in
``test_conformance.py::TestWindowedSQLFileContract``.
"""

from __future__ import annotations

import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.options import ExecutionOptions
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import plan_detection
from repro.engine.cache import SQLScanCache
from repro.engine.shards import (
    cfd_finalize,
    cind_finalize,
    merge_cfd_states,
    merge_cind_states,
)
from repro.errors import SQLBackendError
from repro.sql.loader import connect_file, create_database_file, table_rowid_bounds
from repro.sql.windows import (
    MAX_REFINE_CANDIDATES,
    ReadonlyConnectionPool,
    RowidWindow,
    SeededWitnesses,
    cfd_candidate_sql,
    cfd_onepass_hits,
    cfd_window_state,
    cind_window_state,
    plan_rowid_windows,
    supports_window_functions,
    witness_window_set,
)


@pytest.fixture(scope="module")
def dirty_file(tmp_path_factory):
    """A dirty bank instance on disk plus its plan, shared per module.

    Every test here only *reads* the file (or patches module attributes),
    so module scope is safe and keeps the Hypothesis loops fast.
    """
    sigma = bank_constraints()
    db = scaled_bank_instance(12, error_rate=0.25, seed=11)
    path = create_database_file(
        tmp_path_factory.mktemp("windows") / "dirty.db", db
    )
    conn = connect_file(path, readonly=True)
    yield {
        "path": path,
        "sigma": sigma,
        "schema": sigma.schema,
        "plan": plan_detection(sigma),
        "conn": conn,
    }
    conn.close()


def _partition(relation, lo, hi, cuts):
    """Contiguous windows over [lo, hi] split at the (deduped) cut points."""
    windows = []
    start = lo
    for cut in sorted(set(cuts)):
        if start <= cut < hi:
            windows.append((start, cut))
            start = cut + 1
    windows.append((start, hi))
    return [
        RowidWindow(relation, i, a, b) for i, (a, b) in enumerate(windows)
    ]


# -- rowid window geometry ----------------------------------------------------


class TestPlanRowidWindows:
    def test_windows_cover_span_contiguously(self, dirty_file):
        conn = dirty_file["conn"]
        for rel in dirty_file["schema"].relation_names:
            lo, hi, n_rows = table_rowid_bounds(conn, rel)
            windows = plan_rowid_windows(conn, rel, workers=3, shards=3)
            assert windows[0].lo == lo and windows[-1].hi == hi
            for prev, nxt in zip(windows, windows[1:]):
                assert nxt.lo == prev.hi + 1          # contiguous, disjoint
            assert [w.index for w in windows] == list(range(len(windows)))
            if n_rows > 0:
                # Every rowid in exactly one window.
                counted = sum(
                    conn.execute(
                        f"SELECT COUNT(*) FROM {rel} t WHERE {w.predicate()}"
                    ).fetchone()[0]
                    for w in windows
                )
                assert counted == n_rows

    def test_explicit_shards_force_count(self, dirty_file):
        conn = dirty_file["conn"]
        rel = max(
            dirty_file["schema"].relation_names,
            key=lambda r: table_rowid_bounds(conn, r)[2],
        )
        __, __, n_rows = table_rowid_bounds(conn, rel)
        assert n_rows > 4
        windows = plan_rowid_windows(conn, rel, workers=2, shards=4)
        assert len(windows) == 4

    def test_small_tables_stay_single_window(self, dirty_file):
        conn = dirty_file["conn"]
        windows = plan_rowid_windows(conn, "interest", workers=8)
        assert len(windows) == 1

    def test_empty_table_single_empty_window(self, dirty_file, tmp_path):
        other = sqlite3.connect(tmp_path / "empty.db")
        other.execute("CREATE TABLE e (a)")
        other.commit()
        windows = plan_rowid_windows(other, "e", workers=4, shards=4)
        assert len(windows) == 1
        assert other.execute(
            f"SELECT COUNT(*) FROM e t WHERE {windows[0].predicate()}"
        ).fetchone()[0] == 0
        other.close()


# -- partition equivalence (Hypothesis) ---------------------------------------


class TestPartitionEquivalence:
    """Merging any contiguous rowid partition == the single-window scan."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cfd_states(self, dirty_file, data):
        conn = dirty_file["conn"]
        schema = dirty_file["schema"]
        groups = dirty_file["plan"].cfd_groups
        group = data.draw(st.sampled_from(groups))
        rel = schema.relation(group.relation)
        lo, hi, __ = table_rowid_bounds(conn, group.relation)
        cuts = data.draw(st.lists(st.integers(lo, max(lo, hi)), max_size=4))
        whole = RowidWindow(group.relation, 0, lo, hi)
        serial = cfd_window_state(conn, rel, group, whole)
        parts = [
            cfd_window_state(conn, rel, group, w)
            for w in _partition(group.relation, lo, hi, cuts)
        ]
        merged = merge_cfd_states(parts)
        # Finalize reads first-value maps (in first-occurrence order) and
        # disagree sets; hit-list equality is the currency that matters.
        assert cfd_finalize(group, merged) == cfd_finalize(group, serial)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_witness_sets(self, dirty_file, data):
        conn = dirty_file["conn"]
        schema = dirty_file["schema"]
        specs = [
            spec
            for spec_list in dirty_file["plan"].witness_specs.values()
            for spec in spec_list
        ]
        spec = data.draw(st.sampled_from(specs))
        rel = schema.relation(spec.rhs_relation)
        lo, hi, __ = table_rowid_bounds(conn, spec.rhs_relation)
        cuts = data.draw(st.lists(st.integers(lo, max(lo, hi)), max_size=4))
        whole = witness_window_set(
            conn, rel, spec, RowidWindow(spec.rhs_relation, 0, lo, hi)
        )
        union = set()
        for w in _partition(spec.rhs_relation, lo, hi, cuts):
            union |= witness_window_set(conn, rel, spec, w)
        assert union == whole

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_cind_states(self, dirty_file, data):
        schema = dirty_file["schema"]
        plan = dirty_file["plan"]
        relation = data.draw(st.sampled_from(sorted(plan.cind_scans)))
        tasks = plan.cind_scans[relation]
        rel = schema.relation(relation)
        # SeededWitnesses is per-run state (one instance per pool of
        # connections, both discarded together); a fresh connection per
        # example mirrors that lifetime.
        conn = connect_file(dirty_file["path"], readonly=True)
        try:
            merged_witnesses = {}
            for task in tasks:
                spec = task.witness
                if spec in merged_witnesses:
                    continue
                wrel = spec.rhs_relation
                wlo, whi, __ = table_rowid_bounds(conn, wrel)
                merged_witnesses[spec] = witness_window_set(
                    conn, schema.relation(wrel), spec,
                    RowidWindow(wrel, 0, wlo, whi),
                )
            tables = SeededWitnesses().ensure(conn, merged_witnesses)
            lo, hi, __ = table_rowid_bounds(conn, relation)
            cuts = data.draw(
                st.lists(st.integers(lo, max(lo, hi)), max_size=4)
            )
            whole = cind_window_state(
                conn, rel, tasks, RowidWindow(relation, 0, lo, hi), tables
            )
            parts = [
                cind_window_state(conn, rel, tasks, w, tables)
                for w in _partition(relation, lo, hi, cuts)
            ]
            merged = merge_cind_states(parts)

            def flat(state):
                return [
                    (id(task), payload.values)
                    for task, payload in cind_finalize(tasks, state)
                ]

            assert flat(merged) == flat(whole)
        finally:
            conn.close()


# -- one-pass window-function path vs legacy SQL ------------------------------


def _report_repr(path, sigma, **option_kwargs):
    with api.connect(path, sigma, backend="sqlfile", **option_kwargs) as s:
        return repr(s.check())


class TestOnePassVsLegacy:
    def test_reports_identical_on_dirty_file(self, dirty_file):
        path, sigma = dirty_file["path"], dirty_file["sigma"]
        assert _report_repr(path, sigma) == _report_repr(
            path, sigma, window_functions="off"
        )

    def test_onepass_hits_match_legacy_order(self, dirty_file):
        """Direct kernel comparison, group by group, against the legacy
        executor (window_functions='off') via its public hit API."""
        from repro.sql.violations import SQLPlanExecutor

        conn = connect_file(dirty_file["path"], readonly=True)
        try:
            plan = dirty_file["plan"]
            legacy = SQLPlanExecutor(conn, plan, window_functions="off")
            schema = dirty_file["schema"]
            for group in plan.cfd_groups:
                rel = schema.relation(group.relation)
                hits = cfd_onepass_hits(conn, rel, group)
                assert hits is not None
                assert hits == legacy.cfd_group_hits(group)
        finally:
            conn.close()

    def test_too_many_candidates_fall_back(self, dirty_file):
        """Past MAX_REFINE_CANDIDATES the kernel declines (None) and the
        executor must answer identically through the legacy SQL."""
        conn = dirty_file["conn"]
        schema = dirty_file["schema"]
        plan = dirty_file["plan"]
        declined = 0
        for group in plan.cfd_groups:
            rel = schema.relation(group.relation)
            full = cfd_onepass_hits(conn, rel, group)
            capped = cfd_onepass_hits(conn, rel, group, max_candidates=0)
            if capped is None:
                declined += 1
            else:
                # A group with zero candidates never reaches the cap.
                assert capped == full == []
        assert declined > 0  # the dirty fixture exercises the cap path
        assert MAX_REFINE_CANDIDATES > 0

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(min_value=0, max_value=10 ** 6),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_differential_under_interleaved_dml(self, seed, ops):
        """Two live sessions over twin files — one-pass vs legacy SQL —
        fed the same interleaved inserts/deletes agree bit-identically
        after every step (caches, invalidation, and SQL all in the loop).
        """
        sigma = bank_constraints()
        db = scaled_bank_instance(5, error_rate=0.2, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            self._differential(tmp, db, sigma, ops)

    @staticmethod
    def _differential(tmp, db, sigma, ops):
        base = Path(tmp)
        path_a = create_database_file(base / "win.db", db)
        path_b = create_database_file(base / "leg.db", db)
        relations = list(db.schema.relation_names)
        with api.connect(path_a, sigma, backend="sqlfile") as win, \
                api.connect(
                    path_b, sigma, backend="sqlfile", window_functions="off"
                ) as leg:
            assert repr(win.check()) == repr(leg.check())
            for op, op_seed in ops:
                relation = relations[op_seed % len(relations)]
                rel = db.schema.relation(relation)
                if op == "insert":
                    row = {}
                    for j, attr in enumerate(rel.attributes):
                        if attr.is_finite:
                            values = attr.domain.values
                            row[attr.name] = values[op_seed % len(values)]
                        else:
                            row[attr.name] = f"v{(op_seed + j) % 7}"
                    assert win.insert(relation, dict(row)) == leg.insert(
                        relation, dict(row)
                    )
                else:
                    tuples = db[relation].tuples
                    if not tuples:
                        continue
                    victim = tuples[op_seed % len(tuples)]
                    assert win.delete(relation, victim) == leg.delete(
                        relation, victim
                    )
                assert repr(win.check()) == repr(leg.check())


# -- EXPLAIN QUERY PLAN regressions -------------------------------------------


def _query_plan(conn, sql, params=()):
    return [
        row[-1]
        for row in conn.execute("EXPLAIN QUERY PLAN " + sql, params)
    ]


class TestQueryPlans:
    def test_candidate_prefilter_is_one_scan(self, dirty_file):
        """Stage 1's whole point is replacing N per-variant queries with
        one aggregate pass: its plan must touch the relation exactly once
        and never materialize a second scan of it."""
        conn = dirty_file["conn"]
        schema = dirty_file["schema"]
        checked = 0
        for group in dirty_file["plan"].cfd_groups:
            staged = cfd_candidate_sql(schema.relation(group.relation), group)
            if staged is None:
                continue
            details = _query_plan(conn, *staged)
            table_touches = [
                d for d in details if d.startswith(("SCAN", "SEARCH"))
            ]
            assert len(table_touches) == 1, details
            assert table_touches[0].startswith("SCAN"), details
            checked += 1
        assert checked > 0

    def test_witness_anti_join_keeps_covering_index(self, tmp_path):
        """The windowed CIND probe's NOT EXISTS must hit the seeded temp
        witness table through its covering index — losing it would turn
        every probed row into a full witness-table scan. Like
        ``test_sqlfile.TestWitnessProbePlan``, the witness is made wide
        (800 keys): on a two-row table sqlite *correctly* prefers a scan,
        which would say nothing about the index."""
        from repro.core.cind import CIND
        from repro.core.violations import ConstraintSet
        from repro.relational.instance import DatabaseInstance
        from repro.relational.schema import (
            Attribute,
            DatabaseSchema,
            RelationSchema,
        )
        from repro.relational.values import WILDCARD as _

        schema = DatabaseSchema(
            [
                RelationSchema("R1", [Attribute("a")]),
                RelationSchema("R2", [Attribute("b")]),
            ]
        )
        db = DatabaseInstance(schema)
        for i in range(800):
            db.add("R1", (f"v{i}",))
            db.add("R2", (f"v{i + 3}",))
        sigma = ConstraintSet(schema)
        sigma.add_cind(
            CIND(
                schema.relation("R1"), ("a",), (), schema.relation("R2"),
                ("b",), (), [((_,), (_,))], name="psi_big",
            )
        )
        path = create_database_file(tmp_path / "wide.db", db)
        plan = plan_detection(sigma)
        conn = connect_file(path, readonly=True)
        try:
            [task] = [
                t
                for tasks in plan.cind_scans.values()
                for t in tasks
                if t.x_positions
            ]
            spec = task.witness
            wlo, whi, __ = table_rowid_bounds(conn, spec.rhs_relation)
            merged = {
                spec: witness_window_set(
                    conn, schema.relation(spec.rhs_relation), spec,
                    RowidWindow(spec.rhs_relation, 0, wlo, whi),
                )
            }
            assert len(merged[spec]) == 800
            tables = SeededWitnesses().ensure(conn, merged)
            lo, hi, __ = table_rowid_bounds(conn, "R1")
            # A genuine sub-span window, as the parallel path issues them.
            window = RowidWindow("R1", 0, lo, (lo + hi) // 2)
            witness = tables[spec]
            sql = (
                'SELECT t1."a" FROM "R1" t1 '
                f"WHERE {window.predicate('t1')} AND NOT EXISTS "
                f'(SELECT 1 FROM "{witness}" w WHERE w."k0" = t1."a") '
                "ORDER BY t1.rowid"
            )
            details = " | ".join(_query_plan(conn, sql))
            assert "USING COVERING INDEX" in details, details
            assert "SCAN w" not in details, details
            # And the probe answers correctly through that plan: the
            # window's share of the 3 unmatched keys.
            rows = conn.execute(sql).fetchall()
            assert rows == [("v0",), ("v1",), ("v2",)]
        finally:
            conn.close()


# -- fallback and options -----------------------------------------------------


class TestFallback:
    def test_probe_detects_this_sqlite(self, dirty_file):
        # The dev/CI floor is sqlite >= 3.25; the probe must agree.
        assert supports_window_functions(dirty_file["conn"]) is True

    def test_auto_falls_back_identically(self, dirty_file, monkeypatch):
        """A library without window functions silently gets the legacy
        SQL — same report, no error."""
        reference = _report_repr(dirty_file["path"], dirty_file["sigma"])
        monkeypatch.setattr(
            "repro.sql.violations.supports_window_functions",
            lambda conn: False,
        )
        with api.connect(
            dirty_file["path"], dirty_file["sigma"], backend="sqlfile"
        ) as session:
            assert session.backend._executor.use_window_functions is False
            assert repr(session.check()) == reference

    def test_require_raises_without_support(self, dirty_file, monkeypatch):
        monkeypatch.setattr(
            "repro.sql.violations.supports_window_functions",
            lambda conn: False,
        )
        with pytest.raises(SQLBackendError, match="window_functions"):
            api.connect(
                dirty_file["path"], dirty_file["sigma"], backend="sqlfile",
                window_functions="require",
            )

    def test_off_disables_the_onepass_path(self, dirty_file):
        with api.connect(
            dirty_file["path"], dirty_file["sigma"], backend="sqlfile",
            window_functions="off",
        ) as session:
            assert session.backend._executor.use_window_functions is False

    def test_options_validation(self):
        assert ExecutionOptions(window_functions="auto").window_functions
        for bogus in ("on", "", "AUTO", None, True):
            with pytest.raises(ValueError):
                ExecutionOptions(window_functions=bogus)


class TestReadonlyPool:
    def test_bounded_borrow_and_close(self, dirty_file):
        pool = ReadonlyConnectionPool(dirty_file["path"], size=2)
        with pool.connection() as c1, pool.connection() as c2:
            assert c1 is not c2
            assert c1.execute("SELECT 1").fetchone() == (1,)
        with pool.connection() as c3:
            assert c3 in (c1, c2)              # recycled, not grown
        pool.close()

    def test_connections_are_readonly(self, dirty_file):
        pool = ReadonlyConnectionPool(dirty_file["path"], size=1)
        try:
            with pool.connection() as conn:
                with pytest.raises(sqlite3.OperationalError):
                    conn.execute("DELETE FROM interest")
        finally:
            pool.close()


class TestCachePeek:
    def test_peek_never_touches_counters(self):
        cache = SQLScanCache()
        cache.store("k", ("t",), [1, 2])
        hits, misses = cache.hits, cache.misses
        assert cache.peek("k") == [1, 2]
        assert cache.peek("nope") is None
        assert (cache.hits, cache.misses) == (hits, misses)
        # get() is the counted consumer path.
        assert cache.get("k") == [1, 2]
        assert cache.hits == hits + 1
