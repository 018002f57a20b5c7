"""Task-graph scan dispatch for the shared-scan detection engine.

A :class:`~repro.engine.planner.DetectionPlan` factors detection into
scan units — CFD ``(relation, X)`` scan groups, CIND witness passes per
RHS relation, and CIND LHS scans — and :mod:`repro.engine.shards` factors
each unit further into contiguous row-range *shards* with mergeable
partial states (CFD first-value/disagree joins, witness key-set unions,
per-task hit-bucket concatenation). This module schedules those shard
tasks as one dependency graph on one worker pool:

* **CFD shard tasks** are free-running — no dependencies;
* **witness shard tasks** are free-running too, but all of them feed a
  parent-side **merge barrier** (witness sets must be complete before any
  LHS tuple can be declared witness-less);
* **CIND probe shard tasks** depend on the barrier and receive the merged
  witness key sets as explicit arguments.

The scheduler (:func:`_run_graph`) is a plain Kahn topological walk with
a ready queue: every task whose dependencies are satisfied is submitted
to the session's pool, and parent-side nodes (merges, the barrier) run
inline the moment they unblock. Shards are sized from
``ExecutionOptions(workers, shards)`` by
:func:`~repro.engine.shards.make_shards`: relations under
:data:`~repro.engine.shards.MIN_SHARD_ROWS` rows stay one shard per unit
(the task graph degenerates to scan-group dispatch), and one giant scan
group — the common shape on bank/commerce — splits across cores instead
of pinning one.

The result is **identical, including order, to the serial executor**:
shard states merge in shard order (shard 0 holds the first rows), workers
return position-indexed plain-value payloads, and the parent routes the
merged hits through the same
:func:`~repro.engine.executor.assemble_from_hits` the serial path uses,
so neither completion order nor the shard split leaks into the output.

The pool is the session's :class:`~repro.api.workerpool.WorkerPool`, a
fork-based :class:`~concurrent.futures.ProcessPoolExecutor` that lives as
long as the session. The plan and database are published in module
globals *before* the first submission (workers fork lazily at that
point), so they are inherited copy-on-write: nothing data-sized is
pickled on the way in. On the way out workers return only plain values
(group keys, tuple values, kinds, shard-state payloads) — never
``Tuple``/constraint objects — and the parent rebinds them to its own
canonical tuples. The copy-on-write snapshot goes stale under DML, so
each execution brackets itself with ``pool.prepare()``/``pool.finish()``:
relations whose version counters drifted since the fork are published
into shared-memory segments (:class:`~repro.api.workerpool.ShmRef`
arguments the payload functions resolve worker-side), and a drift too
large to ship triggers an epoch re-fork. The merged witness key sets,
which only exist after the barrier, ride the same segments, keyed by the
RHS relations' versions so warm executions re-lease them without
re-pickling. Without a pool the graph runs inline in the calling thread
in topological order — the serial path in disguise, which tests use to
exercise the merge logic cheaply.

With a :class:`~repro.engine.cache.ScanCache`, the parent answers warm
scan units from the cache *before* building the graph — only cold units
grow nodes — and stores every cold unit's **merged, group-level** result
back keyed by relation version exactly as the serial path does: shards
are an execution detail the cache never sees, and a warm parallel
re-check spawns no workers at all.

Measure with ``benchmarks/bench_detection.py --workers N [--shards S]``
or ``perfbench/run.py --workload cold-check``.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, wait
from typing import Any, Callable

from repro.engine import DetectionPlan, DetectionSummary, ScanCache
from repro.engine.executor import (
    _check_cache,
    assemble_from_hits,
    cfd_group_hits,
    release_scan_memos,
)
from repro.engine.planner import WitnessSpec
from repro.engine.shards import (
    CFDGroupState,
    CINDScanState,
    ShardSpec,
    WitnessState,
    cfd_finalize,
    cfd_map_shard,
    cind_finalize,
    cind_map_shard,
    make_shards,
    merge_cfd_states,
    merge_cind_states,
    merge_witness_states,
    shard_columns,
    shard_key_fn,
    witness_map_shard,
)
from repro.api.workerpool import ShmRef, WorkerPool, fetch_payload
from repro.core.violations import ViolationReport
from repro.relational.instance import DatabaseInstance, Tuple
from repro.sql.windows import (
    ReadonlyConnectionPool,
    SeededWitnesses,
    cfd_window_state,
    cind_window_state,
    plan_rowid_windows,
    witness_window_set,
)

#: Worker-visible state. Published before the pool's first submission:
#: forked workers inherit it copy-on-write, and the inline walk reads it
#: in place. _EXECUTION_LOCK serializes parallel executions within this
#: process so two concurrent Sessions cannot race on the globals (and
#: guards WorkerPool state: prepare/finish run under it).
_STATE: tuple[DetectionPlan, DatabaseInstance] | None = None
_EXECUTION_LOCK = threading.Lock()

#: Test seam: when set, the scheduler picks the next ready node via
#: ``hook(len(ready)) -> index`` instead of popping the deque head. The
#: Hypothesis permutation suite drives it to prove reports are invariant
#: under every schedule. Never set in production.
_SCHEDULE_HOOK: Callable[[int], int] | None = None


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _relation_witness_specs(
    plan: DetectionPlan, relation: str
) -> list[WitnessSpec]:
    """The witness specs a relation's CIND tasks consume, in first-use
    order — the canonical order witness key sets travel in across the
    process boundary (spec object identity does not survive pickling)."""
    return list(dict.fromkeys(t.witness for t in plan.cind_scans[relation]))


def _shard_columns(instance, start: int, stop: int):
    """The shard's slice of the instance's columnar view (whole = shared)."""
    return shard_columns(instance.columns(), start, stop)


# -- worker-side payload functions --------------------------------------------
# Workers return plain values keyed by task/spec position, never live
# objects: process workers run in a forked copy of the parent, so object
# identity (and with it the plan's id(task) bucketing) does not survive
# the trip. Hit payloads are returned in both full and count mode — they
# are bounded by the violation count and let the parent cache them for
# either mode.
#
# A non-None ``ref`` (pool workers only) means the relation drifted
# since this worker forked: its copy-on-write snapshot is stale and the
# current columnar views are fetched from the named shared-memory
# segment instead. ``witness_ref`` carries the merged witness key sets
# the same way.


def _cfd_group_payload(
    group_index: int, ref: ShmRef | None = None
) -> list[tuple[int, Any, str]]:
    """Single-shard fast path: the whole group mapped *and* finalized in
    the worker, returning only violating ``(task position, key, kind)``
    triples (bounded by the violation count, not the key count)."""
    plan, db = _STATE
    group = plan.cfd_groups[group_index]
    task_pos = {id(task): pos for pos, task in enumerate(group.tasks)}
    if ref is not None:
        # Stale snapshot: map+finalize from the shared columns — exactly
        # what cfd_group_hits does over the live instance.
        columns = fetch_payload(ref)
        n_rows = len(columns[0]) if columns else 0
        hits = cfd_finalize(
            group, cfd_map_shard(group, shard_key_fn(columns, n_rows))
        )
    else:
        hits = cfd_group_hits(group, db[group.relation])
    return [(task_pos[id(task)], key, kind) for task, key, kind in hits]


def _cfd_shard_payload(
    group_index: int, start: int, stop: int, ref: ShmRef | None = None
) -> dict:
    """One shard's :class:`CFDGroupState` as plain data (value tuples
    only); the parent merges shard states in shard order and finalizes."""
    plan, db = _STATE
    group = plan.cfd_groups[group_index]
    if ref is not None:
        columns = shard_columns(fetch_payload(ref), start, stop)
    else:
        columns = _shard_columns(db[group.relation], start, stop)
    return cfd_map_shard(group, shard_key_fn(columns, stop - start)).payload()


def _witness_shard_payload(
    relation: str, start: int, stop: int, ref: ShmRef | None = None
) -> list[set[tuple[Any, ...]]]:
    """Witness key sets over one shard's rows, in spec-list order."""
    plan, db = _STATE
    specs = plan.witness_specs[relation]
    if ref is not None:
        columns = shard_columns(fetch_payload(ref), start, stop)
    else:
        columns = _shard_columns(db[relation], start, stop)
    return witness_map_shard(specs, columns, shard_key_fn(columns, stop - start)).sets


def _cind_shard_payload(
    relation: str,
    start: int,
    stop: int,
    witness_sets: list[set[tuple[Any, ...]]] | None,
    ref: ShmRef | None = None,
    witness_ref: ShmRef | None = None,
) -> list[list[tuple[Any, ...]]]:
    """Per-task violating tuple *values* over one shard's rows.

    ``witness_sets`` are the merged (whole-relation) witness key sets in
    :func:`_relation_witness_specs` order — the only data that cannot be
    inherited copy-on-write, because it exists only after the barrier.
    Pool workers receive them as *witness_ref* (one shared segment per
    relation, reused across shards and warm executions) instead of
    pickled per task; the inline walk passes them directly.
    """
    plan, db = _STATE
    tasks = plan.cind_scans[relation]
    if witness_ref is not None:
        witness_sets = fetch_payload(witness_ref)
    witnesses = dict(zip(_relation_witness_specs(plan, relation), witness_sets))
    if ref is not None:
        columns = shard_columns(fetch_payload(ref), start, stop)
        payload = list(zip(*columns)) if columns else [
            () for __ in range(stop - start)
        ]
    else:
        instance = db[relation]
        columns = _shard_columns(instance, start, stop)
        payload = [t.values for t in instance.rows()[start:stop]]
    state = cind_map_shard(
        tasks, columns, payload, witnesses, shard_key_fn(columns, stop - start)
    )
    return state.buckets


# -- the task-graph scheduler -------------------------------------------------


class _Node:
    """One vertex of the shard task graph.

    ``fn is None`` marks a parent-side node (merge, barrier) that runs
    inline the moment its dependencies finish; remote nodes are submitted
    to the pool with ``make_args()`` evaluated at submission time — which
    is how CIND probe shards pick up witness sets that did not exist when
    the graph was built.
    """

    __slots__ = ("fn", "make_args", "on_done", "deps", "label")

    def __init__(
        self,
        fn: Callable[..., Any] | None,
        make_args: Callable[[], tuple] | None = None,
        on_done: Callable[[Any], None] | None = None,
        deps: tuple[int, ...] = (),
        label: str = "",
    ):
        self.fn = fn
        self.make_args = make_args or (lambda: ())
        self.on_done = on_done or (lambda result: None)
        self.deps = deps
        self.label = label


def _run_graph(
    nodes: list[_Node], executor: Executor | None, workers: int
) -> None:
    """Execute *nodes* in topological order on *executor*.

    Kahn's algorithm with a ready deque: in-degrees come from each node's
    ``deps``, parent-side nodes run inline the moment they unblock, and
    every completion decrements its dependents. Without an *executor*
    the whole graph runs inline in topological order — the serial path
    in disguise, which is exactly the degenerate case the merge laws
    guarantee.

    At most ``2 * workers`` remote nodes are in flight at once; the rest
    wait in the ready deque and go to the pool as completions free
    slots, so witness-set arguments are built at submission time, not up
    front. ``_SCHEDULE_HOOK`` (tests only) permutes the pick to prove
    the schedule never shows in the output. The executor belongs to the
    caller and outlives this call.
    """
    indegree = [len(node.deps) for node in nodes]
    dependents: list[list[int]] = [[] for __ in nodes]
    for i, node in enumerate(nodes):
        for dep in node.deps:
            dependents[dep].append(i)
    ready = deque(i for i, deg in enumerate(indegree) if deg == 0)
    futures: dict[Any, int] = {}
    in_flight_limit = max(1, 2 * workers)

    def take() -> int:
        hook = _SCHEDULE_HOOK
        if hook is None:
            return ready.popleft()
        k = hook(len(ready))
        i = ready[k]
        del ready[k]
        return i

    def finish(index: int, result: Any) -> None:
        nodes[index].on_done(result)
        for j in dependents[index]:
            indegree[j] -= 1
            if indegree[j] == 0:
                ready.append(j)

    while ready or futures:
        deferred: list[int] = []
        while ready:
            i = take()
            node = nodes[i]
            if node.fn is None:
                finish(i, None)
            elif executor is None:
                finish(i, node.fn(*node.make_args()))
            elif len(futures) < in_flight_limit:
                futures[executor.submit(node.fn, *node.make_args())] = i
            else:
                deferred.append(i)
        ready.extendleft(reversed(deferred))
        if futures:
            done, __ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                finish(futures.pop(future), future.result())
    stuck = [n.label for n, deg in zip(nodes, indegree) if deg > 0]
    if stuck:
        raise RuntimeError(f"task graph has a dependency cycle: {stuck}")


# -- parent-side orchestration -------------------------------------------------


def execute_plan_parallel(
    plan: DetectionPlan,
    db: DatabaseInstance,
    workers: int,
    mode: str = "full",
    cache: ScanCache | None = None,
    shards: int = 0,
    pool: WorkerPool | None = None,
) -> ViolationReport | DetectionSummary:
    """Run *plan* with shard tasks dispatched across *workers* workers.

    Output is identical (including violation-list order) to
    ``execute_plan(plan, db, mode)``. ``mode`` is ``"full"`` or ``"count"``;
    early-exit stays serial (see :class:`~repro.api.backends.MemoryBackend`)
    because its whole point is to stop at the first hit, which a fan-out
    would race past. A *cache* (bound to *plan*) short-circuits warm scan
    units parent-side and absorbs every cold unit's merged result.
    ``workers``/``shards`` size the per-unit row split (see
    :func:`~repro.engine.shards.make_shards`).

    Shard tasks run on the session's *pool* (see
    :class:`~repro.api.workerpool.WorkerPool`), which outlives the call;
    without one the graph runs inline in this thread.
    """
    if mode not in ("full", "count"):
        raise ValueError(f"mode must be 'full' or 'count', got {mode!r}")
    _check_cache(plan, cache, db)
    try:
        return _execute_parallel(plan, db, workers, mode, cache, shards, pool)
    finally:
        release_scan_memos(db, cache)


def _unit_shards(
    db: DatabaseInstance, relation: str, workers: int, shards: int
) -> list[ShardSpec]:
    return make_shards(relation, len(db[relation]), workers, shards)


def _execute_parallel(
    plan: DetectionPlan,
    db: DatabaseInstance,
    workers: int,
    mode: str,
    cache: ScanCache | None,
    shards: int,
    pool: WorkerPool | None,
) -> ViolationReport | DetectionSummary:
    global _STATE

    # Resolve warm units from the cache before building any graph nodes.
    cfd_hit_lists: list[list | None] = []
    cold_groups: list[int] = []
    for i, group in enumerate(plan.cfd_groups):
        hits = (
            cache.cfd_hits(group, db[group.relation].version)
            if cache is not None
            else None
        )
        cfd_hit_lists.append(hits)
        if hits is None:
            cold_groups.append(i)

    witnesses: dict[WitnessSpec, set[tuple[Any, ...]]] = {}
    cold_witness_relations: list[str] = []
    for relation, specs in plan.witness_specs.items():
        version = db[relation].version
        cached = (
            {spec: cache.witness_set(spec, version) for spec in specs}
            if cache is not None
            else {}
        )
        if cached and all(v is not None for v in cached.values()):
            witnesses.update(cached)
        else:
            cold_witness_relations.append(relation)

    cind_hit_lists: dict[str, list] = {}
    cold_cind: list[str] = []
    for relation, tasks in plan.cind_scans.items():
        if cache is not None:
            hits = cache.cind_hits(
                relation,
                db[relation].version,
                cache.cind_deps(tasks, db),
            )
            if hits is not None:
                cind_hit_lists[relation] = hits
                continue
        cold_cind.append(relation)

    # Forked workers inherit the columnar views copy-on-write only if the
    # parent materialized them first; one transpose here saves one per
    # worker per relation. Everything must be warm before the *first*
    # submission — that is when the single pool forks.
    for i in cold_groups:
        db[plan.cfd_groups[i].relation].columns()
    for relation in cold_witness_relations:
        db[relation].columns()
    for relation in cold_cind:
        db[relation].columns()
        db[relation].rows()

    _EXECUTION_LOCK.acquire()
    _STATE = (plan, db)
    try:
        # Reconcile the pool workers' copy-on-write snapshot with the
        # live database. Relations that drifted since
        # the pool forked get shared-memory column refs (or, past the
        # drift threshold, the pool re-forks and the map comes back
        # empty). Must happen under the lock, before the first submit.
        shm_refs: dict[str, ShmRef] = {}
        if pool is not None:
            scan_relations = dict.fromkeys(
                [plan.cfd_groups[i].relation for i in cold_groups]
                + cold_witness_relations
                + cold_cind
            )
            shm_refs = pool.prepare(db, scan_relations)

        nodes: list[_Node] = []

        def add(node: _Node) -> int:
            nodes.append(node)
            return len(nodes) - 1

        # CFD scan groups: free-running. One remote node per shard; a
        # multi-shard group gets a parent-side merge+finalize node.
        for i in cold_groups:
            group = plan.cfd_groups[i]
            unit = _unit_shards(db, group.relation, workers, shards)
            ref = shm_refs.get(group.relation)
            if len(unit) == 1:

                def store_full(payload, i=i):
                    group = plan.cfd_groups[i]
                    hits = [
                        (group.tasks[pos], key, kind)
                        for pos, key, kind in payload
                    ]
                    cfd_hit_lists[i] = hits
                    if cache is not None:
                        cache.store_cfd_hits(
                            group, db[group.relation].version, hits
                        )

                add(_Node(
                    _cfd_group_payload,
                    make_args=lambda i=i, ref=ref: (i, ref),
                    on_done=store_full,
                    label=f"cfd:{group.relation}",
                ))
                continue
            states: list[CFDGroupState | None] = [None] * len(unit)
            shard_ids = tuple(
                add(_Node(
                    _cfd_shard_payload,
                    make_args=lambda i=i, s=s, ref=ref: (
                        i, s.start, s.stop, ref,
                    ),
                    on_done=lambda p, states=states, k=s.index: states.__setitem__(
                        k, CFDGroupState.from_payload(p)
                    ),
                    label=f"cfd:{group.relation}[{s.index}]",
                ))
                for s in unit
            )

            def merge_group(__, i=i, states=states):
                group = plan.cfd_groups[i]
                hits = cfd_finalize(group, merge_cfd_states(states))
                cfd_hit_lists[i] = hits
                if cache is not None:
                    cache.store_cfd_hits(group, db[group.relation].version, hits)

            add(_Node(
                None, on_done=merge_group, deps=shard_ids,
                label=f"cfd-merge:{group.relation}",
            ))

        # Witness passes: free-running shards, one parent-side merge per
        # relation, all merges feeding the barrier.
        witness_merge_ids: list[int] = []
        for relation in cold_witness_relations:
            unit = _unit_shards(db, relation, workers, shards)
            ref = shm_refs.get(relation)
            states: list[WitnessState | None] = [None] * len(unit)
            shard_ids = tuple(
                add(_Node(
                    _witness_shard_payload,
                    make_args=lambda relation=relation, s=s, ref=ref: (
                        relation, s.start, s.stop, ref,
                    ),
                    on_done=lambda sets, states=states, k=s.index: states.__setitem__(
                        k, WitnessState(sets)
                    ),
                    label=f"witness:{relation}[{s.index}]",
                ))
                for s in unit
            )

            def merge_witness(__, relation=relation, states=states):
                specs = plan.witness_specs[relation]
                merged = merge_witness_states(states)
                version = db[relation].version
                for spec, key_set in merged.as_dict(specs).items():
                    witnesses[spec] = key_set
                    if cache is not None:
                        cache.store_witness_set(spec, version, key_set)

            witness_merge_ids.append(add(_Node(
                None, on_done=merge_witness, deps=shard_ids,
                label=f"witness-merge:{relation}",
            )))

        # The merge barrier: CIND probes may only run once every witness
        # key set is complete (a shard-partial set would fake violations).
        barrier = add(_Node(
            None, deps=tuple(witness_merge_ids), label="witness-barrier",
        ))

        # CIND LHS probes: shards depend on the barrier; witness sets are
        # resolved at submission time (they exist by then).
        def make_cind_args(relation: str, s: ShardSpec, ref: ShmRef | None):
            # Evaluated at submission time, after the barrier: the merged
            # witness sets exist by then. The pool parks them in one
            # shared segment per relation, keyed by the RHS relations'
            # versions so warm executions re-lease it; the inline walk
            # passes them directly.
            specs = _relation_witness_specs(plan, relation)
            if pool is not None and specs:
                deps = tuple(dict.fromkeys(
                    (spec.rhs_relation, db[spec.rhs_relation].version)
                    for spec in specs
                ))
                witness_ref = pool.witness_ref(
                    relation, deps,
                    lambda: [witnesses[spec] for spec in specs],
                )
                return (relation, s.start, s.stop, None, ref, witness_ref)
            return (
                relation, s.start, s.stop,
                [witnesses[spec] for spec in specs], ref, None,
            )

        for relation in cold_cind:
            tasks = plan.cind_scans[relation]
            unit = _unit_shards(db, relation, workers, shards)
            ref = shm_refs.get(relation)
            buckets: list[list | None] = [None] * len(unit)
            shard_ids = tuple(
                add(_Node(
                    _cind_shard_payload,
                    make_args=lambda relation=relation, s=s, ref=ref: (
                        make_cind_args(relation, s, ref)
                    ),
                    on_done=lambda p, buckets=buckets, k=s.index: buckets.__setitem__(k, p),
                    deps=(barrier,),
                    label=f"cind:{relation}[{s.index}]",
                ))
                for s in unit
            )

            def merge_cind(__, relation=relation, buckets=buckets):
                tasks = plan.cind_scans[relation]
                merged = merge_cind_states(
                    [CINDScanState(b) for b in buckets]
                )
                if any(merged.buckets):
                    # Rebind worker values to the parent's canonical tuples.
                    by_values: dict[tuple[Any, ...], Tuple] = {
                        t.values: t for t in db[relation]
                    }
                    hits = [
                        (task, by_values[values])
                        for task, bucket in zip(tasks, merged.buckets)
                        for values in bucket
                    ]
                else:
                    hits = []
                cind_hit_lists[relation] = hits
                if cache is not None:
                    cache.store_cind_hits(
                        relation,
                        db[relation].version,
                        cache.cind_deps(tasks, db),
                        hits,
                    )

            add(_Node(
                None, on_done=merge_cind, deps=shard_ids,
                label=f"cind-merge:{relation}",
            ))

        # A fully-warm graph holds parent-side nodes only: it must not
        # create (and so arm) the pool's executor.
        remote = any(node.fn is not None for node in nodes)
        _run_graph(
            nodes, pool.executor() if pool is not None and remote else None,
            workers,
        )
    finally:
        if pool is not None:
            pool.finish()
        _STATE = None
        _EXECUTION_LOCK.release()

    return assemble_from_hits(
        plan,
        db,
        list(zip(plan.cfd_groups, cfd_hit_lists)),
        [(rel, cind_hit_lists[rel]) for rel in plan.cind_scans],
        mode,
    )

# -- rowid-window dispatch for the sqlfile backend ------------------------------


def execute_sqlfile_windows(
    plan: DetectionPlan,
    schema,
    pool: ReadonlyConnectionPool,
    cold_groups: list[int],
    cold_cind: list[str],
    workers: int,
    shards: int = 0,
) -> tuple[dict[int, list], dict[str, list]]:
    """Run the cold scan units of a ``sqlfile`` check as rowid windows.

    The file-side twin of :func:`execute_plan_parallel`: each cold scan
    unit's relation is split into contiguous rowid windows
    (:func:`~repro.sql.windows.plan_rowid_windows`), per-window queries
    run concurrently on the session's *pool* of read-only
    connections and its threads — sqlite releases the GIL inside a
    query — and the partial states merge in window order through the exact
    machinery the in-memory parallel path uses
    (:class:`~repro.engine.shards.CFDGroupState` /
    :class:`~repro.engine.shards.WitnessState` /
    :class:`~repro.engine.shards.CINDScanState`), so hit lists are
    bit-identical — including order — to the serial executor's.

    Same task-graph shape as the in-memory dispatcher: CFD window nodes
    are free-running; witness window nodes all feed a merge **barrier**
    (a window-partial witness set would fake violations); CIND probe
    window nodes depend on the barrier and seed the merged witness keys
    into per-connection indexed temp tables on first probe
    (:class:`~repro.sql.windows.SeededWitnesses`).

    Returns ``(cfd hits by group index, cind hits by relation)`` for the
    requested cold units — shaped exactly like the serial executor's
    ``cfd_group_hits`` / ``cind_relation_hits`` results, so the caller
    caches them under the same keys.

    *pool* (the backend's session-scoped
    :class:`~repro.sql.windows.ReadonlyConnectionPool`) is borrowed and
    left open — warm traffic pays no connect cost; the seeded witness
    temp tables are dropped from it before returning so the next
    execution can re-seed the same connections.
    """
    seeded = SeededWitnesses()
    try:
        window_plans: dict[str, list] = {}

        def windows_for(conn, relation: str):
            if relation not in window_plans:
                window_plans[relation] = plan_rowid_windows(
                    conn, relation, workers, shards
                )
            return window_plans[relation]

        #: Witness specs the cold CIND relations consume, by RHS relation
        #: (identity-keyed dicts double as ordered sets, like the plan's).
        specs_by_rhs: dict[str, dict[WitnessSpec, None]] = {}
        for relation in cold_cind:
            for task in plan.cind_scans[relation]:
                specs_by_rhs.setdefault(
                    task.witness.rhs_relation, {}
                )[task.witness] = None

        with pool.connection() as conn:
            for i in cold_groups:
                windows_for(conn, plan.cfd_groups[i].relation)
            for rhs_relation in specs_by_rhs:
                windows_for(conn, rhs_relation)
            for relation in cold_cind:
                windows_for(conn, relation)

        nodes: list[_Node] = []
        cfd_hits: dict[int, list] = {}
        cind_hits: dict[str, list] = {}
        witnesses: dict[WitnessSpec, set] = {}

        def add(node: _Node) -> int:
            nodes.append(node)
            return len(nodes) - 1

        # CFD windows: free-running; merge in window order, finalize.
        for i in cold_groups:
            group = plan.cfd_groups[i]
            rel = schema.relation(group.relation)
            windows = window_plans[group.relation]
            states: list[CFDGroupState | None] = [None] * len(windows)

            def cfd_window(rel=rel, group=group):
                def run(window):
                    with pool.connection() as conn:
                        return cfd_window_state(conn, rel, group, window)
                return run

            run_window = cfd_window()
            shard_ids = tuple(
                add(_Node(
                    run_window,
                    make_args=lambda w=window: (w,),
                    on_done=lambda s, states=states, k=window.index: (
                        states.__setitem__(k, s)
                    ),
                    label=f"cfd-window:{group.relation}[{window.index}]",
                ))
                for window in windows
            )

            def merge_group(__, i=i, group=group, states=states):
                cfd_hits[i] = cfd_finalize(group, merge_cfd_states(states))

            add(_Node(
                None, on_done=merge_group, deps=shard_ids,
                label=f"cfd-window-merge:{group.relation}",
            ))

        # Witness windows: free-running, per-RHS-relation merges feeding
        # the barrier (per-spec merge is set union, window order moot).
        witness_merge_ids: list[int] = []
        for rhs_relation, spec_set in specs_by_rhs.items():
            rel = schema.relation(rhs_relation)
            specs = list(spec_set)
            windows = window_plans[rhs_relation]
            partials: list[list[set] | None] = [None] * len(windows)

            def witness_window(rel=rel, specs=specs):
                def run(window):
                    with pool.connection() as conn:
                        return [
                            witness_window_set(conn, rel, spec, window)
                            for spec in specs
                        ]
                return run

            run_window = witness_window()
            shard_ids = tuple(
                add(_Node(
                    run_window,
                    make_args=lambda w=window: (w,),
                    on_done=lambda sets, partials=partials, k=window.index: (
                        partials.__setitem__(k, sets)
                    ),
                    label=f"witness-window:{rhs_relation}[{window.index}]",
                ))
                for window in windows
            )

            def merge_witness(__, specs=specs, partials=partials):
                for pos, spec in enumerate(specs):
                    merged: set = set()
                    for sets in partials:
                        merged |= sets[pos]
                    witnesses[spec] = merged

            witness_merge_ids.append(add(_Node(
                None, on_done=merge_witness, deps=shard_ids,
                label=f"witness-window-merge:{rhs_relation}",
            )))

        barrier = add(_Node(
            None, deps=tuple(witness_merge_ids), label="witness-barrier",
        ))

        # CIND probe windows: after the barrier, each borrows a pooled
        # connection, lazily seeds the merged witness keys on it, probes
        # its window; merge in window order, finalize task-major.
        for relation in cold_cind:
            rel = schema.relation(relation)
            tasks = plan.cind_scans[relation]
            relation_specs = list(dict.fromkeys(t.witness for t in tasks))
            windows = window_plans[relation]
            states: list[CINDScanState | None] = [None] * len(windows)

            def cind_window(rel=rel, tasks=tasks, relation_specs=relation_specs):
                def run(window):
                    with pool.connection() as conn:
                        tables = seeded.ensure(
                            conn,
                            {spec: witnesses[spec] for spec in relation_specs},
                        )
                        return cind_window_state(
                            conn, rel, tasks, window, tables
                        )
                return run

            run_window = cind_window()
            shard_ids = tuple(
                add(_Node(
                    run_window,
                    make_args=lambda w=window: (w,),
                    on_done=lambda s, states=states, k=window.index: (
                        states.__setitem__(k, s)
                    ),
                    deps=(barrier,),
                    label=f"cind-window:{relation}[{window.index}]",
                ))
                for window in windows
            )

            def merge_cind(__, relation=relation, tasks=tasks, states=states):
                merged = merge_cind_states(states)
                cind_hits[relation] = list(cind_finalize(tasks, merged))

            add(_Node(
                None, on_done=merge_cind, deps=shard_ids,
                label=f"cind-window-merge:{relation}",
            ))

        _run_graph(nodes, pool.executor(), workers)
    finally:
        # Borrowed connections go back with their witness temp tables
        # dropped: the next execution builds fresh ones (its witness sets
        # may differ) without temp-table name clashes.
        seeded.drop_all()
    return cfd_hits, cind_hits
