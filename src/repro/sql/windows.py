"""Rowid-window sharding and window-function SQL for the sqlfile backend.

Two independent accelerations of the pushed-down scan plan, sharing this
module because both reason about *how a sqlite file is scanned* rather
than what the scan means:

* **One-pass window-function CFD detection** (the serial fast path).
  The legacy executor runs one ``GROUP BY X HAVING COUNT(DISTINCT
  rhs) > 1`` query per RHS variant plus one tableau self-join per CFD —
  four to six sorts of the relation per scan group. The one-pass path
  replaces them with two stages:

  1. :func:`cfd_candidate_sql` — a single aggregate prefilter scan per
     group returning a *superset* of the violating group keys (a
     NULL-safe ``QUOTE``-encoding of the whole RHS projection detects any
     disagreement; bare first-row columns detect pattern-constant
     misses). On clean data this one scan replaces every legacy query
     and returns zero rows.
  2. :func:`cfd_refine_sql` — only when candidates exist: one
     window-function scan restricted to the candidate keys, computing the
     exact per-variant disagreements (``MIN(rhs) OVER (PARTITION BY X)
     IS NOT MAX(rhs) OVER ...`` — sqlite rejects ``COUNT(DISTINCT ...)
     OVER``, and min-vs-max over the partition is the same predicate with
     the same NULL treatment) and each key's first-occurrence row in the
     same pass, replacing the per-variant GROUP BYs *and* the tableau
     self-join. Python-side task evaluation then replays the in-memory
     engine's finalize semantics exactly, so hits are bit-identical
     including order.

  The superset argument makes stage 1 safe by construction: any key a
  legacy query would return differs somewhere in its RHS projection (or
  misses a constant on every row), and both conditions survive the
  encoding — sqlite quirks can only add false positives, which stage 2
  discards. :func:`supports_window_functions` probes the library once;
  executors fall back to the legacy SQL wholesale when the build is too
  old (< 3.25) or the caller forces ``window_functions="off"``.

* **Contiguous rowid windows** (the parallel path — the file-side twin
  of :class:`~repro.engine.shards.ShardSpec`). :func:`plan_rowid_windows`
  splits a relation's ``[MIN(rowid), MAX(rowid)]`` span into contiguous
  ``BETWEEN`` ranges; per-window scans (:func:`cfd_window_state`,
  :func:`witness_window_set`, :func:`cind_window_state`) produce exactly
  the engine's mergeable partial states
  (:class:`~repro.engine.shards.CFDGroupState` /
  :class:`~repro.engine.shards.WitnessState` /
  :class:`~repro.engine.shards.CINDScanState`), so the existing merge +
  finalize machinery reassembles bit-identical results no matter how the
  file was partitioned. Windows run concurrently on a session-owned
  :class:`ReadonlyConnectionPool` — sqlite releases the GIL inside
  queries, so its threads scale on real cores.
"""

from __future__ import annotations

import queue
import sqlite3
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.engine.planner import (
    CFDScanGroup,
    CINDRowTask,
    WitnessSpec,
    passes,
)
from repro.engine.shards import (
    CFDGroupState,
    CINDScanState,
    WitnessState,
    plan_shard_ranges,
    resolve_shard_count,
)
from repro.relational.instance import Tuple
from repro.relational.schema import RelationSchema
from repro.sql.ddl import distinct_count_expr
from repro.sql.ddl import quote_identifier as q
from repro.sql.loader import connect_file, table_rowid_bounds

#: Past this many candidate keys the one-pass path hands the group back to
#: the legacy SQL: the refinement scan's key-restriction list would grow
#: unwieldy, and a group this dirty pays the legacy queries anyway.
MAX_REFINE_CANDIDATES = 64


def supports_window_functions(conn: sqlite3.Connection) -> bool:
    """Does this connection's sqlite library support window functions?

    Probed by running one (sqlite >= 3.25, 2018); version comparison would
    miss builds compiled with ``SQLITE_OMIT_WINDOWFUNC``.
    """
    try:
        conn.execute("SELECT COUNT(*) OVER () FROM (SELECT 1)").fetchall()
    except sqlite3.OperationalError:
        return False
    return True


# -- rowid windows (the file-side ShardSpec) -----------------------------------


@dataclass(frozen=True)
class RowidWindow:
    """One contiguous rowid span of a relation scan (both bounds inclusive).

    The file-side twin of :class:`~repro.engine.shards.ShardSpec`: where a
    shard slices a column view by row index, a window restricts a SQL scan
    with ``rowid BETWEEN lo AND hi``. ``index`` is the window's position in
    scan order — partial states must merge in this order for first-value /
    bucket-order semantics to reproduce the serial scan.
    """

    relation: str
    index: int
    lo: int
    hi: int

    def predicate(self, alias: str = "t") -> str:
        # rowids are integers owned by sqlite — safe to inline, which keeps
        # the parameter list free for pattern constants.
        return f"{alias}.rowid BETWEEN {self.lo} AND {self.hi}"


def plan_rowid_windows(
    conn: sqlite3.Connection, relation: str, workers: int, shards: int = 0
) -> list[RowidWindow]:
    """Contiguous rowid windows covering *relation*, sized like shards.

    Reuses the engine's :func:`~repro.engine.shards.resolve_shard_count`
    policy (explicit *shards* wins; otherwise ``min(workers, rows //
    MIN_SHARD_ROWS)``), then splits the ``[min, max]`` rowid span into
    equal contiguous ranges. Files written by
    :func:`~repro.sql.loader.create_database_file` have dense sequential
    rowids, so equal spans carry equal row shares; sparse files merely
    skew the split — every rowid is still covered by exactly one window,
    which is all correctness needs.
    """
    lo, hi, n_rows = table_rowid_bounds(conn, relation)
    count = resolve_shard_count(n_rows, workers, shards)
    if n_rows == 0 or count <= 1:
        return [RowidWindow(relation, 0, lo, hi)]
    span = hi - lo + 1
    ranges = plan_shard_ranges(span, min(count, span))
    return [
        RowidWindow(relation, i, lo + start, lo + stop - 1)
        for i, (start, stop) in enumerate(ranges)
    ]


class ReadonlyConnectionPool:
    """A bounded pool of ``readonly=True`` connections to one database file,
    plus the threads that run window queries on them.

    Window tasks borrow a connection for the duration of one query batch
    (:meth:`connection` blocks when all are out), so ``size`` bounds the
    file descriptors and sqlite page caches a parallel scan can hold —
    and each connection is used by one thread at a time, which is all
    sqlite's default thread mode asks of us. :meth:`executor` is a
    ``size``-thread executor created on first use and kept until
    :meth:`close` (sqlite releases the GIL inside queries, so threads
    scale on real cores). Temp tables seeded on a pooled connection
    (CIND witness keys) die with :meth:`close`.
    """

    def __init__(self, path: str | Path, size: int):
        self.size = max(1, size)
        self._conns = [
            connect_file(path, readonly=True) for __ in range(self.size)
        ]
        self._queue: queue.Queue[sqlite3.Connection] = queue.Queue()
        for conn in self._conns:
            self._queue.put(conn)
        self._executor: ThreadPoolExecutor | None = None

    def executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.size)
        return self._executor

    @contextmanager
    def connection(self) -> Iterator[sqlite3.Connection]:
        conn = self._queue.get()
        try:
            yield conn
        finally:
            self._queue.put(conn)

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        for conn in self._conns:
            conn.close()
        self._conns = []


# -- one-pass CFD detection (prefilter + window-function refinement) -----------


def _key_columns(rel: RelationSchema, group: CFDScanGroup) -> list[str]:
    return [f't.{q(name)}' for name in group.lhs]


def _rhs_union(group: CFDScanGroup) -> list[int]:
    """Every RHS position any non-trivial variant of *group* projects."""
    return sorted(
        {
            p
            for variant in group.rhs_variants()
            if variant != group.lhs_positions
            for p in variant
        }
    )


def _single_signatures(
    group: CFDScanGroup,
) -> list[tuple[tuple[int, ...], tuple]]:
    """Deduplicated ``(rhs_positions, rhs_checks)`` of constant-bearing tasks."""
    return list(
        dict.fromkeys(
            (task.rhs_positions, task.rhs_checks)
            for task in group.tasks
            if task.rhs_checks
        )
    )


def _quote_encoding(rel: RelationSchema, positions: Sequence[int]) -> str:
    """A NULL-safe, injective text encoding of a row's projection.

    ``QUOTE`` never returns NULL (``QUOTE(NULL)`` is the string
    ``'NULL'``) and embeds both type and content, so two rows encode
    equal iff sqlite stores equal projections — any disagreement a
    per-variant query could detect survives this whole-projection
    encoding, which is what makes the prefilter's candidate set a
    superset of every variant's disagree set.
    """
    names = rel.attribute_names
    return " || ',' || ".join(f"QUOTE(t.{q(names[p])})" for p in positions)


def cfd_candidate_sql(
    rel: RelationSchema, group: CFDScanGroup
) -> tuple[str, list[Any]] | None:
    """Stage 1: the single-scan candidate prefilter for one CFD group.

    Returns ``(sql, params)`` — the query yields one row per *candidate*
    group key (key columns, then the key's first rowid), a superset of
    every key any task of the group can flag:

    * ``COUNT(DISTINCT <quote-encoded RHS union>) > 1`` catches every key
      whose tuples disagree on *any* RHS variant (pair violations);
    * one ``NOT (col IS ? AND ...)`` term per distinct RHS-constant
      signature catches every key whose shared RHS misses a pattern
      constant (single violations). The bare columns are evaluated on
      the ``MIN(rowid)`` row (sqlite's documented min/max quirk), but
      correctness never relies on that: a key whose rows differ is
      already a candidate via the encoding term, and a key whose rows
      all agree fails the check on every row alike.

    ``None`` when the group has no detectable violation shape (no
    non-trivial variant and no constant checks — nothing to scan for).
    Groups with an empty LHS get the aggregate form without ``GROUP BY``
    (one all-rows group); the caller treats the single returned row as
    the candidacy verdict for key ``()``.
    """
    names = rel.attribute_names
    rhs_union = _rhs_union(group)
    signatures = _single_signatures(group)
    having: list[str] = []
    params: list[Any] = []
    if rhs_union:
        having.append(
            f"COUNT(DISTINCT {_quote_encoding(rel, rhs_union)}) > 1"
        )
    for positions, checks in signatures:
        term = " AND ".join(
            f"t.{q(names[positions[i]])} IS ?" for i, __ in checks
        )
        having.append(f"NOT ({term})")
        params.extend(const for __, const in checks)
    if not having:
        return None
    predicate = " OR ".join(having)
    key_cols = _key_columns(rel, group)
    if key_cols:
        key_sel = ", ".join(key_cols)
        sql = (
            f"SELECT {key_sel}, MIN(t.rowid) AS fr "
            f"FROM {q(rel.name)} t "
            f"GROUP BY {key_sel} "
            f"HAVING {predicate}"
        )
        return sql, params
    sql = (
        f"SELECT MIN(t.rowid) AS fr, {predicate} "
        f"FROM {q(rel.name)} t"
    )
    return sql, params


def cfd_refine_sql(
    rel: RelationSchema,
    group: CFDScanGroup,
    candidates: Sequence[tuple[Any, ...]],
) -> tuple[str, list[Any], list[int], list[tuple[int, ...]]]:
    """Stage 2: the one-pass window-function refinement over candidates.

    Returns ``(sql, params, positions, variants)``. The query makes one
    scan of the relation restricted to the candidate keys and emits, per
    key, its first-occurrence row: the key columns, the values at
    ``positions`` (the RHS union, taken from the first row), ``rowid``,
    the partition-wide first rowid, then one disagree flag per
    non-trivial variant — ``MIN(enc) OVER w IS NOT MAX(enc) OVER w`` over
    the same NULL-ignoring encoding the legacy ``COUNT(DISTINCT enc) >
    1`` aggregates, so the flags match the legacy per-variant queries
    bit for bit. ``ORDER BY fr`` delivers keys in first-occurrence scan
    order, the engine's candidate order.

    Key restriction uses ``IN (VALUES ...)`` (sqlite builds an ephemeral
    index over the list) unless a candidate key contains NULL, where
    ``IN`` would silently drop it — those fall back to an ``EXISTS`` join
    with NULL-safe ``IS`` comparisons.
    """
    names = rel.attribute_names
    key_cols = _key_columns(rel, group)
    variants = [
        v for v in group.rhs_variants() if v != group.lhs_positions
    ]
    positions = list(
        dict.fromkeys(
            p
            for source in ([v for v in variants]
                           + [sig[0] for sig in _single_signatures(group)])
            for p in source
        )
    )
    sel_cols = [f"t.{q(names[p])}" for p in positions]
    flags = []
    for i, variant in enumerate(variants):
        enc = distinct_count_expr([names[p] for p in variant])
        flags.append(f"(MIN({enc}) OVER w IS NOT MAX({enc}) OVER w) AS d{i}")
    inner_select = ", ".join(
        key_cols
        + sel_cols
        + ["t.rowid AS rid", "MIN(t.rowid) OVER w AS fr"]
        + flags
    )
    params: list[Any] = []
    where = ""
    if key_cols:
        width = len(key_cols)
        placeholders = ", ".join(
            "(" + ", ".join("?" for __ in range(width)) + ")"
            for __ in candidates
        )
        params = [value for key in candidates for value in key]
        if any(value is None for value in params):
            # IN never matches a NULL component; spell the membership test
            # with NULL-safe IS comparisons instead.
            cte_cols = ", ".join(f"c{i}" for i in range(width))
            match = " AND ".join(
                f"__cand.c{i} IS {key_cols[i]}" for i in range(width)
            )
            where = (
                f" WHERE EXISTS (SELECT 1 FROM __cand WHERE {match})"
            )
            prefix = (
                f"WITH __cand({cte_cols}) AS (VALUES {placeholders}) "
            )
        else:
            key_tuple = (
                key_cols[0] if width == 1 else "(" + ", ".join(key_cols) + ")"
            )
            where = f" WHERE {key_tuple} IN (VALUES {placeholders})"
            prefix = ""
        partition = "PARTITION BY " + ", ".join(key_cols)
    else:
        prefix = ""
        partition = ""
    sql = (
        f"{prefix}"
        f"SELECT * FROM ("
        f"SELECT {inner_select} FROM {q(rel.name)} t{where} "
        f"WINDOW w AS ({partition})"
        f") WHERE rid = fr ORDER BY fr"
    )
    return sql, params, positions, variants


def cfd_onepass_hits(
    conn: sqlite3.Connection,
    rel: RelationSchema,
    group: CFDScanGroup,
    max_candidates: int = MAX_REFINE_CANDIDATES,
) -> list[tuple[Any, tuple[Any, ...], str]] | None:
    """The one-pass CFD scan of one group: prefilter, then refine.

    Returns the violating ``(task, key, kind)`` triples in exactly the
    legacy executor's (= the in-memory engine's) order, or ``None`` when
    the group is too dirty for the bounded refinement (the caller falls
    back to the legacy queries — same answer, different plan).
    """
    staged = cfd_candidate_sql(rel, group)
    if staged is None:
        return []
    sql, params = staged
    if group.lhs:
        candidates = [
            tuple(row[:-1]) for row in conn.execute(sql, params)
        ]
    else:
        [row] = conn.execute(sql, params).fetchall()
        candidates = [()] if row[0] is not None and any(row[1:]) else []
    if not candidates:
        return []
    if len(candidates) > max_candidates:
        return None

    sql, params, positions, variants = cfd_refine_sql(rel, group, candidates)
    position_index = {p: i for i, p in enumerate(positions)}
    nk = len(group.lhs)
    np_ = len(positions)
    disagree: dict[tuple[int, ...], dict[tuple[Any, ...], int]] = {
        variant: {} for variant in group.rhs_variants()
    }
    firsts: dict[tuple[Any, ...], tuple] = {}
    frs: dict[tuple[Any, ...], int] = {}
    for row in conn.execute(sql, params):
        key = tuple(row[:nk])
        values = row[nk:nk + np_]
        fr = row[nk + np_ + 1]
        firsts[key] = values
        frs[key] = fr
        for i, variant in enumerate(variants):
            if row[nk + np_ + 2 + i]:
                disagree[variant][key] = fr

    hits: list[tuple[Any, tuple[Any, ...], str]] = []
    for task in group.tasks:
        variant_disagree = disagree[task.rhs_positions]
        task_hits = [
            (fr, key, "pair")
            for key, fr in variant_disagree.items()
            if passes(key, task.key_checks)
        ]
        if task.rhs_checks:
            indices = [position_index[p] for p in task.rhs_positions]
            for key, values in firsts.items():
                if key in variant_disagree:
                    continue
                if not passes(key, task.key_checks):
                    continue
                projection = tuple(values[i] for i in indices)
                if not passes(projection, task.rhs_checks):
                    task_hits.append((frs[key], key, "single"))
        task_hits.sort(key=lambda hit: hit[0])
        hits.extend((task, key, kind) for __, key, kind in task_hits)
    return hits


# -- per-window mergeable partial states (the parallel path) -------------------


def cfd_window_state(
    conn: sqlite3.Connection,
    rel: RelationSchema,
    group: CFDScanGroup,
    window: RowidWindow,
) -> CFDGroupState:
    """One window's :class:`~repro.engine.shards.CFDGroupState` for *group*.

    One deduplicating ``GROUP BY (key, RHS union)`` over the window's
    rows — sqlite's GROUP BY equality matches the engine's Python value
    equality for everything the loader stores — ordered by first
    occurrence, then folded exactly like
    :func:`~repro.engine.shards.cfd_map_shard`: per variant, a first-value
    map in first-occurrence order plus the disagree set. Bare columns
    ride the ``MIN(rowid)`` quirk, so first values are the actual first
    row's (required for bit-identical report keys when sqlite coalesces
    numerically equal values of different types).
    """
    names = rel.attribute_names
    variants = group.rhs_variants()
    positions = list(
        dict.fromkeys(
            (*group.lhs_positions,
             *(p for v in variants if v != group.lhs_positions for p in v))
        )
    )
    empty: dict = {
        variant: ({}, set()) for variant in variants
    }
    if not positions:
        # No key and no non-trivial RHS: candidacy collapses to "any row".
        [(mr,)] = conn.execute(
            f"SELECT MIN(t.rowid) FROM {q(rel.name)} t "
            f"WHERE {window.predicate()}"
        ).fetchall()
        if mr is None:
            return CFDGroupState(empty)
        return CFDGroupState({variant: ({(): ()}, set()) for variant in variants})
    cols = ", ".join(f"t.{q(names[p])}" for p in positions)
    sql = (
        f"SELECT {cols}, MIN(t.rowid) AS mr "
        f"FROM {q(rel.name)} t "
        f"WHERE {window.predicate()} "
        f"GROUP BY {cols} ORDER BY mr"
    )
    rows = conn.execute(sql).fetchall()
    index = {p: i for i, p in enumerate(positions)}
    key_indices = [index[p] for p in group.lhs_positions]
    state: dict = {}
    for variant in variants:
        first: dict[tuple[Any, ...], tuple] = {}
        disagree: set = set()
        if variant == group.lhs_positions:
            for row in rows:
                key = tuple(row[i] for i in key_indices)
                first.setdefault(key, key)
        else:
            value_indices = [index[p] for p in variant]
            setdefault = first.setdefault
            add = disagree.add
            for row in rows:
                key = tuple(row[i] for i in key_indices)
                rkey = tuple(row[i] for i in value_indices)
                if setdefault(key, rkey) != rkey:
                    add(key)
        state[variant] = (first, disagree)
    return CFDGroupState(state)


def witness_window_set(
    conn: sqlite3.Connection,
    rel: RelationSchema,
    spec: WitnessSpec,
    window: RowidWindow,
) -> set:
    """One window's witness key set for *spec* (RHS relation scan)."""
    names = rel.attribute_names
    conds = [window.predicate("t2")]
    params: list[Any] = []
    for pos, const in spec.yp_checks:
        conds.append(f"t2.{q(names[pos])} = ?")
        params.append(const)
    where = " AND ".join(conds)
    if not spec.y_positions:
        rows = conn.execute(
            f"SELECT 1 FROM {q(rel.name)} t2 WHERE {where} LIMIT 1", params
        ).fetchall()
        return {()} if rows else set()
    select = ", ".join(f"t2.{q(names[p])}" for p in spec.y_positions)
    sql = f"SELECT DISTINCT {select} FROM {q(rel.name)} t2 WHERE {where}"
    return {tuple(row) for row in conn.execute(sql, params)}


def witness_states(
    specs: Sequence[WitnessSpec], sets: dict[WitnessSpec, set]
) -> WitnessState:
    """Bundle merged per-spec sets in plan spec order (engine currency)."""
    return WitnessState([sets[spec] for spec in specs])


class SeededWitnesses:
    """Merged witness key sets, materialized per pooled connection.

    CIND probe windows anti-join against indexed temp witness tables —
    but temp tables are per-connection, and the merged witness sets only
    exist after the witness-window merge barrier. Each probing
    connection therefore seeds its own copies lazily (executemany +
    covering index + ANALYZE, the serial executor's exact recipe) the
    first time it probes; a connection is held by one thread at a time,
    so per-connection state needs no locking.
    """

    def __init__(self):
        #: id(conn) -> {spec: temp table name (non-empty Y) | bool (empty Y)}
        self._tables: dict[int, dict[WitnessSpec, Any]] = {}
        self._counters: dict[int, int] = {}
        #: id(conn) -> the connection itself, so :meth:`drop_all` can
        #: reach every connection this instance seeded (persistent
        #: connection pools outlive one execution; the tables must not).
        self._conns: dict[int, sqlite3.Connection] = {}

    def ensure(
        self,
        conn: sqlite3.Connection,
        merged: dict[WitnessSpec, set],
    ) -> dict[WitnessSpec, Any]:
        self._conns[id(conn)] = conn
        tables = self._tables.setdefault(id(conn), {})
        for spec, keys in merged.items():
            if spec in tables:
                continue
            if not spec.y_positions:
                tables[spec] = bool(keys)
                continue
            count = self._counters.get(id(conn), 0) + 1
            self._counters[id(conn)] = count
            name = f"__winwitness_{count}"
            width = len(spec.y_positions)
            decl = ", ".join(q(f"k{i}") for i in range(width))
            cursor = conn.cursor()
            cursor.execute(f"CREATE TEMP TABLE {q(name)} ({decl})")
            cursor.executemany(
                f"INSERT INTO {q(name)} VALUES "
                f"({', '.join('?' for __ in range(width))})",
                list(keys),
            )
            cursor.execute(
                f"CREATE INDEX {q(name + '_idx')} ON {q(name)} ({decl})"
            )
            cursor.execute(f"ANALYZE {q(name)}")
            tables[spec] = name
        return tables

    def drop_all(self) -> None:
        """Drop every temp table this instance seeded, on every connection.

        Required when the connections come from a session-persistent pool:
        the pool (and its connections) outlive this execution, but the
        witness sets they were seeded with may not survive the next DML —
        and a fresh ``SeededWitnesses`` restarts its per-connection name
        counter, so stale tables would collide with the next execution's
        ``CREATE TEMP TABLE``. Per-call pools skip this: closing the
        connection drops its temp tables wholesale.
        """
        for conn_id, tables in self._tables.items():
            conn = self._conns.get(conn_id)
            if conn is None:
                continue
            for name in tables.values():
                if isinstance(name, str):
                    conn.execute(f"DROP TABLE IF EXISTS {q(name)}")
        self._tables.clear()
        self._counters.clear()
        self._conns.clear()


def cind_window_state(
    conn: sqlite3.Connection,
    rel: RelationSchema,
    tasks: Sequence[CINDRowTask],
    window: RowidWindow,
    witness_tables: dict[WitnessSpec, Any],
) -> CINDScanState:
    """One window's :class:`~repro.engine.shards.CINDScanState` for one
    LHS relation: per-task violation buckets in rowid order, probing the
    connection's seeded witness tables with the serial executor's
    anti-join shape (deduplicated per task signature)."""
    names = rel.attribute_names
    cols = ", ".join(f"t1.{q(n)}" for n in names)
    evaluated: dict[tuple, list[Tuple]] = {}
    buckets: list[list[Tuple]] = []
    for task in tasks:
        signature = (task.lhs_checks, task.x_positions, task.witness)
        rows = evaluated.get(signature)
        if rows is None:
            witness = witness_tables[task.witness]
            conds = [window.predicate("t1")]
            params: list[Any] = []
            for pos, const in task.lhs_checks:
                conds.append(f"t1.{q(names[pos])} = ?")
                params.append(const)
            if not task.x_positions:
                if witness:  # a witness exists for the shared empty key
                    rows = []
                    evaluated[signature] = rows
                    buckets.append(rows)
                    continue
                anti = ""
            else:
                probe = " AND ".join(
                    f"w.{q('k%d' % i)} = t1.{q(names[pos])}"
                    for i, pos in enumerate(task.x_positions)
                )
                anti = (
                    f" AND NOT EXISTS "
                    f"(SELECT 1 FROM {q(witness)} w WHERE {probe})"
                )
            sql = (
                f"SELECT {cols} FROM {q(rel.name)} t1 "
                f"WHERE {' AND '.join(conds)}{anti} "
                f"ORDER BY t1.rowid"
            )
            rows = [Tuple(rel, row) for row in conn.execute(sql, params)]
            evaluated[signature] = rows
        buckets.append(rows)
    return CINDScanState(buckets)
