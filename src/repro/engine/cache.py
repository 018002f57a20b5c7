"""Versioned scan caches: make the repeated-check read path nearly free.

BRAVO's lesson (PAPERS.md) is to bias a reader/writer protocol toward the
overwhelmingly common read path and push the bookkeeping onto the rare
write path. Detection has the same skew: a ``Session`` re-checks the same
database far more often than it mutates it (monitoring loops, repair
rounds where most relations are untouched, ``check`` followed by
``count``/``is_clean``). Every relation instance already pays the "write
path" cost — a monotonic :attr:`~repro.relational.instance.RelationInstance.version`
bump per mutation — so a scan result tagged with the version it was
computed at can be replayed for free while the version stands still.

:class:`ScanCache` memoizes, per plan scan unit:

* **projection key lists** keyed by ``(relation, positions, version)`` —
  the columnar per-tuple keys that group-bys, witness passes, and CIND
  probes all consume (each distinct projection is computed once per
  version, shared across scan units);
* **CFD group hits** keyed by ``(relation, X-positions, version)`` — the
  evaluated ``(task, group key, kind)`` list of one CFD scan group;
* **witness key sets** keyed by ``(spec, version)`` — one semijoin key
  set per :class:`~repro.engine.planner.WitnessSpec`;
* **CIND hit lists** keyed by ``(relation, version, witness-versions)`` —
  the violating ``(task, tuple)`` pairs of one LHS scan; the extra
  dependency vector tracks the *witness-side* relations, which move the
  hits even when the LHS relation did not.

The same bias carries over to small writes. CFD and CIND violations are
per-group and per-tuple properties, so a logged delta
(:meth:`~repro.relational.instance.RelationInstance.changes_since`) can
only change the groups and witness keys it touches. When a lookup misses
on version alone and the relation's mutation log still covers the gap,
the getter **patches** the entry instead of reporting a miss: it
re-evaluates the touched CFD group keys from their current members,
adds and drops witness keys (re-checking support on delete), and
re-tests the CIND LHS tuples that were written or whose witness key
flipped, placing every hit in scan order by insertion sequence. A patch
costs one C-speed search of a column per touched scan unit plus work
proportional to the delta, the groups it reads and the unit's hit list.
A ``replace_value``,
a gap longer than the log, an empty-``X`` witness flip or a delta that
re-tests more than :data:`MAX_PATCH_ROWS` LHS tuples still misses, and
the caller re-scans.

A cache is bound to one :class:`~repro.engine.planner.DetectionPlan`
(entries reference the plan's task/spec objects) and to one database;
the executor refuses a cache built for a different plan. Each scan unit
holds one entry, replaced (or patched in place) on every recompute.

The payoff is measured by ``benchmarks/bench_detection.py``: a warm
re-check of an unchanged database skips every relation scan and only
re-assembles the report from the cached hit lists (cost proportional to
the number of violations, not the number of tuples), and a re-check
after a one-row write patches instead of re-scanning (the ``dml`` row).
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Any, Iterable

from repro.engine.planner import passes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (executor <-> cache)
    from repro.engine.planner import CFDScanGroup, CINDRowTask, DetectionPlan, WitnessSpec
    from repro.relational.instance import (
        Change,
        DatabaseInstance,
        RelationInstance,
        Tuple,
    )

#: The most LHS tuples a CIND patch re-tests; a delta that reaches more
#: (a witness key shared by a large part of the relation flipped) is
#: cheaper to answer with a columnar re-scan.
MAX_PATCH_ROWS = 4096


def projection_column_keys(
    columns: tuple[tuple[Any, ...], ...], positions: tuple[int, ...], n: int
) -> list[tuple[Any, ...]]:
    """Per-tuple projection key tuples, built column-wise at C speed.

    Equivalent to ``[tuple(t.values[i] for i in positions) for t in rows]``
    but via ``zip`` over the columnar view; ``n`` is the tuple count (needed
    for the empty projection, whose key list is all-``()``).
    """
    if not positions:
        return [()] * n
    if len(positions) == 1:
        return list(zip(columns[positions[0]]))
    return list(zip(*(columns[p] for p in positions)))


class ScanCache:
    """Mutation-versioned memo of one plan's scan results.

    Owned by the session/backend that owns the plan; every getter checks
    the relation's current version (plus, for CIND hits, the witness-side
    versions). An entry at an older version is patched from the
    relations' mutation logs when they cover the gap, and is otherwise a
    miss, so callers never see stale data and mutations need no explicit
    invalidation hook.

    ``hits`` counts lookups answered as stored, ``patches`` lookups
    answered by patching an older entry, and ``misses`` lookups that left
    the caller to re-scan.
    """

    __slots__ = (
        "plan", "db", "_projections", "_cfd", "_witness", "_cind",
        "_task_order", "hits", "patches", "misses",
    )

    def __init__(self, plan: "DetectionPlan"):
        self.plan = plan
        #: The database the cache is valid for — bound on first use by the
        #: executor. Entries are keyed by relation *name* + version, so
        #: serving a different DatabaseInstance (where the same name/version
        #: means different data) must be refused, not silently answered.
        self.db: "DatabaseInstance | None" = None
        #: (relation, positions) -> (version, key list)
        self._projections: dict[tuple[str, tuple[int, ...]], tuple[int, list]] = {}
        #: (relation, X positions) -> (version, [(task, key, kind), ...])
        self._cfd: dict[tuple[str, tuple[int, ...]], tuple[int, list]] = {}
        #: spec -> (version, witness key set)
        self._witness: dict["WitnessSpec", tuple[int, set]] = {}
        #: LHS relation -> (version, witness-version vector, [(task, tuple), ...])
        self._cind: dict[str, tuple[int, tuple[int, ...], list]] = {}
        #: id(task) -> position in its scan group / CIND scan list
        self._task_order: dict[int, int] = {}
        #: Scan-unit lookup outcomes (projection-key memos not counted).
        self.hits = 0
        self.patches = 0
        self.misses = 0

    def clear(self) -> None:
        self._projections.clear()
        self._cfd.clear()
        self._witness.clear()
        self._cind.clear()

    def release_projections(self) -> None:
        """Drop the projection-key memo (scan-lifetime, O(tuples) each).

        Projection key lists exist to be shared *within* one plan
        execution; across calls at the same version the hit/witness caches
        short-circuit before reading them, and after a mutation they are
        stale — so the executor releases them when a plan finishes instead
        of holding per-tuple lists for the session lifetime.
        """
        self._projections.clear()

    def _logged(
        self, relation: str, version: int
    ) -> "tuple[RelationInstance, list[Change]] | None":
        """*relation* and its logged mutations since *version*, or ``None``
        when they cannot be patched in (no bound database, or the log no
        longer reaches back that far)."""
        if self.db is None:
            return None
        instance = self.db[relation]
        changes = instance.changes_since(version)
        return None if changes is None else (instance, changes)

    def _order(self, tasks: list) -> dict[int, int]:
        order = self._task_order
        if tasks and id(tasks[0]) not in order:
            order.update((id(task), i) for i, task in enumerate(tasks))
        return order

    # -- projection key lists ----------------------------------------------

    def projection_keys(
        self, instance: "RelationInstance", positions: tuple[int, ...]
    ) -> list[tuple[Any, ...]]:
        """The instance's per-tuple keys on *positions* (memoized)."""
        key = (instance.schema.name, positions)
        entry = self._projections.get(key)
        version = instance.version
        if entry is not None and entry[0] == version:
            return entry[1]
        keys = projection_column_keys(instance.columns(), positions, len(instance))
        self._projections[key] = (version, keys)
        return keys

    # -- CFD scan groups ---------------------------------------------------

    def cfd_hits(self, group: "CFDScanGroup", version: int) -> list | None:
        unit = (group.relation, group.lhs_positions)
        entry = self._cfd.get(unit)
        if entry is not None:
            if entry[0] == version:
                self.hits += 1
                return entry[1]
            logged = self._logged(group.relation, entry[0])
            if logged is not None:
                hits = self._patch_cfd(group, entry[1], *logged)
                self._cfd[unit] = (version, hits)
                self.patches += 1
                return hits
        self.misses += 1
        return None

    def store_cfd_hits(self, group: "CFDScanGroup", version: int, hits: list) -> None:
        self._cfd[(group.relation, group.lhs_positions)] = (version, hits)

    def _patch_cfd(
        self,
        group: "CFDScanGroup",
        hits: list,
        instance: "RelationInstance",
        changes: "list[Change]",
    ) -> list:
        """Re-evaluate the group keys *changes* touched, from their current
        members, and merge them into the hit list in scan order."""
        from repro.engine.shards import CFDGroupState, cfd_finalize

        positions = group.lhs_positions
        touched = {
            tuple(t.values[p] for p in positions) for t, __, __ in changes
        }
        # One column search finds the touched groups and the first members
        # of the kept hits' groups, which fix their places in scan order.
        members = instance.matching(
            positions, touched.union(hit[1] for hit in hits)
        )
        seq_of = instance.seq_of
        first_seq = {key: seq_of(rows[0]) for key, rows in members.items()}
        # The touched groups' partial state, keys in first-occurrence
        # order, finalized exactly like a scan of the whole relation.
        live = sorted(
            (key for key in touched if key in members),
            key=first_seq.__getitem__,
        )
        variants = {}
        for variant in group.rhs_variants():
            first: dict = {}
            disagree: set = set()
            for key in live:
                rkeys = {
                    tuple(t.values[p] for p in variant) for t in members[key]
                }
                first[key] = tuple(members[key][0].values[p] for p in variant)
                if len(rkeys) > 1:
                    disagree.add(key)
            variants[variant] = (first, disagree)
        patched = [hit for hit in hits if hit[1] not in touched]
        patched += cfd_finalize(group, CFDGroupState(variants))
        order = self._order(group.tasks)
        patched.sort(key=lambda hit: (order[id(hit[0])], first_seq[hit[1]]))
        return patched

    # -- CIND witness sets -------------------------------------------------

    def witness_set(self, spec: "WitnessSpec", version: int) -> set | None:
        entry = self._witness.get(spec)
        if entry is not None:
            if entry[0] == version:
                self.hits += 1
                return entry[1]
            logged = self._logged(spec.rhs_relation, entry[0])
            if logged is not None:
                keys = self._patch_witness(spec, entry[1], *logged)
                self._witness[spec] = (version, keys)
                self.patches += 1
                return keys
        self.misses += 1
        return None

    def store_witness_set(self, spec: "WitnessSpec", version: int, keys: set) -> None:
        self._witness[spec] = (version, keys)

    def _patch_witness(
        self,
        spec: "WitnessSpec",
        keys: set,
        instance: "RelationInstance",
        changes: "list[Change]",
    ) -> set:
        """Add the keys of matching inserted tuples; drop a deleted tuple's
        key only when no stored tuple supports it any more.

        In place, so a write costs O(delta), not a copy of the set: the
        only other users of the set are readers of the same version, and
        a patch racing this one (two concurrent checks) applies the same
        idempotent adds and discards."""
        positions = spec.y_positions
        checks = spec.yp_checks
        supported: set = set()
        doubtful: set = set()
        for t, __, __ in changes:
            if not passes(t.values, checks):
                continue
            key = tuple(t.values[p] for p in positions)
            (supported if t in instance else doubtful).add(key)
        keys |= supported
        doubtful -= supported
        if doubtful:
            members = instance.matching(positions, doubtful)
            for key in doubtful:
                if not any(
                    passes(t.values, checks) for t in members.get(key, ())
                ):
                    keys.discard(key)
        return keys

    # -- CIND LHS scans ----------------------------------------------------

    @staticmethod
    def cind_deps(
        tasks: Iterable["CINDRowTask"], db: "DatabaseInstance"
    ) -> tuple[int, ...]:
        """Witness-side version vector a CIND hit list depends on."""
        specs = dict.fromkeys(task.witness for task in tasks)
        return tuple(db[spec.rhs_relation].version for spec in specs)

    def cind_hits(
        self, relation: str, version: int, deps: tuple[int, ...]
    ) -> list | None:
        entry = self._cind.get(relation)
        if entry is not None:
            if entry[0] == version and entry[1] == deps:
                self.hits += 1
                return entry[2]
            hits = self._patch_cind(relation, entry, deps)
            if hits is not None:
                self._cind[relation] = (version, deps, hits)
                self.patches += 1
                return hits
        self.misses += 1
        return None

    def store_cind_hits(
        self,
        relation: str,
        version: int,
        deps: tuple[int, ...],
        hits: list,
    ) -> None:
        self._cind[relation] = (version, deps, hits)

    def _patch_cind(
        self, relation: str, entry: tuple, deps: tuple[int, ...]
    ) -> list | None:
        """Re-test the LHS tuples that were written, or whose witness key
        flipped, against the current witness sets; ``None`` when the
        entry cannot be patched (the caller re-scans)."""
        old_version, old_deps, hits = entry
        logged = self._logged(relation, old_version)
        if logged is None:
            return None
        lhs, changes = logged
        tasks = self.plan.cind_scans[relation]
        specs = list(dict.fromkeys(task.witness for task in tasks))
        witnesses: dict = {}
        flipped: dict = {}
        for spec, before, now in zip(specs, old_deps, deps):
            current = self._witness.get(spec)
            if current is None or current[0] != now:
                return None  # the witness set is not patched up to date yet
            witnesses[spec] = current[1]
            if before == now:
                continue
            rhs_logged = self._logged(spec.rhs_relation, before)
            if rhs_logged is None:
                return None
            keys = {
                tuple(t.values[p] for p in spec.y_positions)
                for t, __, __ in rhs_logged[1]
                if passes(t.values, spec.yp_checks)
            }
            if keys:
                flipped[spec] = keys
        # Newest first, so a re-inserted tuple is keyed by its stored object.
        retest = dict.fromkeys(t for t, __, __ in reversed(changes))
        by_x: dict[tuple[int, ...], set] = {}
        for task in tasks:
            keys = flipped.get(task.witness)
            if keys:
                if not task.x_positions:
                    return None  # every premise tuple shares the key ()
                by_x.setdefault(task.x_positions, set()).update(keys)
        for x_positions, keys in by_x.items():
            for group_rows in lhs.matching(x_positions, keys).values():
                retest.update(dict.fromkeys(group_rows))
        if not retest:
            return hits
        if len(retest) > MAX_PATCH_ROWS:
            return None
        kept = [hit for hit in hits if hit[1] not in retest]
        added = []
        for t in retest:
            if t not in lhs:
                continue
            values = t.values
            for task in tasks:
                if passes(values, task.lhs_checks) and tuple(
                    values[p] for p in task.x_positions
                ) not in witnesses[task.witness]:
                    added.append((task, t))
        # Scan order: tasks in list order, tuples by insertion sequence.
        order = self._order(tasks)
        seq_of = lhs.seq_of

        def rank(hit: tuple) -> tuple[int, int]:
            return order[id(hit[0])], seq_of(hit[1])

        for hit in added:
            insort(kept, hit, key=rank)
        return kept

    def __repr__(self) -> str:
        return (
            f"<ScanCache {len(self._cfd)} CFD, {len(self._witness)} witness, "
            f"{len(self._cind)} CIND entr(ies); {self.hits} hit(s), "
            f"{self.patches} patch(es), {self.misses} miss(es)>"
        )


class SQLScanCache:
    """Fingerprint-keyed result memo for the out-of-core ``sqlfile`` backend.

    The in-memory :class:`ScanCache` leans on each relation's mutation
    ``version`` counter; a sqlite *file* has no such counter, so this cache
    builds the same read-biased protocol out of what sqlite does offer:

    * ``PRAGMA data_version`` — moves whenever **another** connection
      commits to the file, so an unchanged value makes a warm re-check one
      PRAGMA away from skipping SQL entirely;
    * per-table ``(max rowid, row count)`` fingerprints — consulted only
      after a ``data_version`` bump, to invalidate just the tables that
      actually moved;
    * explicit :meth:`invalidate_table` calls from the owning backend's own
      DML (a connection's own writes never move its own ``data_version``).

    Entries are keyed by scan-unit tuples chosen by the backend; each
    records the set of tables it was computed from. The *fingerprint*
    callable is the backend's choice
    (``ExecutionOptions(fingerprint=...)``): the default ``(max rowid,
    row count)`` pair is heuristic by design — a foreign writer that
    restores both, i.e. delete-the-last-row-then-insert, slips through —
    while the ``"content"`` mode
    (:func:`repro.sql.loader.table_content_fingerprint`, a per-row CRC32
    sum computed inside SQL) closes that hole at the cost of one
    aggregate scan per table per foreign commit. The backend's own
    mutations always invalidate explicitly and exactly either way.
    """

    __slots__ = ("_entries", "_fingerprints", "_data_version", "hits", "misses")

    def __init__(self):
        #: key -> (frozenset of table names, value)
        self._entries: dict[Any, tuple[frozenset, Any]] = {}
        #: table -> (max rowid, count) as of the last sync/record
        self._fingerprints: dict[str, tuple] = {}
        self._data_version: int | None = None
        self.hits = 0
        self.misses = 0

    def begin(
        self,
        version: int,
        tables: Iterable[str],
        fingerprint,
    ) -> None:
        """Synchronize with the file before a read.

        *version* is the connection's current ``PRAGMA data_version``;
        *fingerprint* is a callable ``table -> (max rowid, count)`` invoked
        only when the version moved (i.e. some other connection committed):
        tables whose fingerprint changed lose their entries, the rest stay
        warm.
        """
        if self._data_version is None:
            self._data_version = version
            for table in tables:
                self._fingerprints[table] = fingerprint(table)
            return
        if version == self._data_version:
            return
        self._data_version = version
        for table in tables:
            current = fingerprint(table)
            known = self._fingerprints.get(table)
            if known is None or known != current:
                self.invalidate_table(table)
            self._fingerprints[table] = current

    def get(self, key: Any) -> Any | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def peek(self, key: Any) -> Any | None:
        """Like :meth:`get` but without touching the hit/miss counters.

        The parallel rowid-window prefetch uses it to decide which scan
        units still need computing; the decision is bookkeeping, not a
        read, and must not skew the cache statistics the benchmarks and
        tests assert on.
        """
        entry = self._entries.get(key)
        return None if entry is None else entry[1]

    def store(self, key: Any, tables: Iterable[str], value: Any) -> None:
        self._entries[key] = (frozenset(tables), value)

    def invalidate_table(self, table: str) -> None:
        """Drop every entry that was computed from *table*."""
        self.invalidate_tables((table,))

    def invalidate_tables(self, tables: Iterable[str]) -> None:
        """Drop every entry computed from *any* of *tables*, in one pass.

        Invalidation rebuilds the entry dict, so a batch mutation that
        touched N relations must not pay N rebuilds — the batch ``apply``
        path hands all touched tables over at once and the filter runs
        exactly once per batch.
        """
        touched = frozenset(tables)
        if not touched:
            return
        self._entries = {
            key: entry
            for key, entry in self._entries.items()
            if not (touched & entry[0])
        }

    def record_fingerprint(self, table: str, fp: tuple) -> None:
        """Refresh *table*'s fingerprint after the backend's own DML (which
        moves the fingerprint but not this connection's data_version)."""
        self._fingerprints[table] = fp

    def forget_fingerprint(self, table: str) -> None:
        """Drop *table*'s stored fingerprint (recorded as "unknown").

        For fingerprint modes whose computation is O(table) — the content
        CRC sum — re-fingerprinting after every own-DML statement would
        make mutations O(table size). Forgetting instead is always safe:
        :meth:`begin` treats a missing fingerprint as changed, so the
        table's entries are (re-)invalidated at the next foreign commit —
        a spurious extra invalidation there, in exchange for O(1) own
        writes (which already invalidated the table exactly).
        """
        self._fingerprints.pop(table, None)

    def clear(self) -> None:
        self._entries.clear()
        self._fingerprints.clear()
        self._data_version = None

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"<SQLScanCache {len(self._entries)} entr(ies); "
            f"{self.hits} hit(s), {self.misses} miss(es)>"
        )
