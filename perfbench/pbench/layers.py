"""The layers the traced run measures, and the metrics derived from them.

:data:`TARGETS` names the public entry points the traced run wraps, one
layer at a time. :data:`PER_LAYER` lists every per-layer metric with the
end-to-end metric and workload it should move (``moves``), written down
before any measurement. :func:`derive` turns one traced run's spans and
counters into those metrics.

Unless a metric says otherwise, a ``_s`` metric is the mean per traced
op of the *self* time of its spans (duration minus the time child spans
cover), and a count is the mean per traced op.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from pbench.trace import Recorder, Target, self_times

TARGETS: tuple[Target, ...] = (
    # relational
    Target("relational.columns", "repro.relational.instance",
           "RelationInstance.columns", "view"),
    Target("relational.columns", "repro.relational.instance",
           "RelationInstance.rows", "view"),
    # engine
    Target("engine.plan", "repro.engine.planner", "plan_detection"),
    Target("engine.execute", "repro.engine.executor", "execute_plan"),
    Target("engine.assemble", "repro.engine.executor", "assemble_report"),
    Target("engine.assemble", "repro.engine.executor", "assemble_from_hits"),
    Target("engine.cache", "repro.engine.cache", "ScanCache.cfd_hits",
           "lookup"),
    Target("engine.cache", "repro.engine.cache", "ScanCache.witness_set",
           "lookup"),
    Target("engine.cache", "repro.engine.cache", "ScanCache.cind_hits",
           "lookup"),
    # api
    Target("api.session.apply", "repro.api.session", "Session.apply"),
    Target("api.session.check", "repro.api.session", "Session.check"),
    Target("api.parallel.execute", "repro.api.parallel",
           "execute_plan_parallel"),
    Target("api.workerpool.prepare", "repro.api.workerpool",
           "WorkerPool.prepare"),
    Target("api.workerpool.forks", "repro.api.workerpool",
           "WorkerPool.finish", "pids"),
    Target("api.workerpool.shm_publishes", "repro.api.workerpool",
           "ShmColumnStore.publish", "publish"),
    # sql
    Target("sql.scan", "repro.sql.violations",
           "SQLPlanExecutor.cfd_group_hits"),
    Target("sql.scan", "repro.sql.violations",
           "SQLPlanExecutor.cfd_group_tuples"),
    Target("sql.scan", "repro.sql.violations",
           "SQLPlanExecutor.cind_relation_hits"),
    Target("sql.scan", "repro.sql.violations",
           "SQLPlanExecutor.cind_relation_clean"),
    Target("sql.scan", "repro.sql.windows", "cfd_onepass_hits"),
    Target("sql.scan", "repro.api.parallel", "execute_sqlfile_windows"),
    Target("sql.cache", "repro.engine.cache", "SQLScanCache.get", "lookup"),
    Target("sql.apply", "repro.api.backends", "SQLFileBackend.apply"),
    Target("sql.fingerprint", "repro.sql.loader", "table_fingerprint"),
    Target("sql.fingerprint", "repro.sql.loader",
           "table_content_fingerprint"),
    # cleaning
    Target("cleaning.incremental.update", "repro.cleaning.incremental",
           "IncrementalChecker.insert"),
    Target("cleaning.incremental.update", "repro.cleaning.incremental",
           "IncrementalChecker.delete"),
    Target("cleaning.incremental.check", "repro.api.backends",
           "IncrementalBackend.check"),
    Target("cleaning.planner.plan", "repro.cleaning.planner",
           "RepairPlanner.plan_round"),
    # serve
    Target("serve.lock.wait", "repro.serve.registry",
           "ReadWriteLock.reading", "acquire"),
    Target("serve.lock.wait", "repro.serve.registry",
           "ReadWriteLock.writing", "acquire"),
    Target("serve.service.apply", "repro.serve.service",
           "DetectionService.apply", "async"),
    Target("serve.feed.commit", "repro.serve.feed", "ViolationFeed.commit"),
    Target("serve.feed.diff", "repro.serve.feed", "diff_records", "diff"),
    Target("serve.protocol.encode", "repro.serve.protocol", "encode_report"),
    Target("serve.protocol.encode", "repro.serve.protocol", "encode_delta"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: The end-to-end metrics (named metrics, ``metric@workload``) this
    #: layer metric should move.
    moves: tuple[str, ...]
    note: str = ""


def _m(name: str, unit: str, better: str, *moves: str, note: str = ""):
    return LayerMetric(name, unit, better, tuple(moves), note)


PER_LAYER: tuple[LayerMetric, ...] = (
    _m("relational.columns_s", "s", "lower",
       "check.memory.p50_s@cold-check", "dml_check.memory.p50_s@dml-recheck",
       note="RelationInstance.columns()/rows(); ~0 for serve reads"),
    _m("relational.columns_calls", "count", "lower",
       "check.memory.p50_s@cold-check", "dml_check.memory.p50_s@dml-recheck",
       note="columns()/rows() calls that rebuilt a stale view"),
    _m("engine.plan_s", "s", "lower", "check.memory.p50_s@cold-check",
       note="plan_detection; 0 on dml-recheck"),
    _m("engine.execute_s", "s", "lower", "check.memory.p50_s@cold-check",
       "dml_check.memory.p50_s@dml-recheck", note="execute_plan self time"),
    _m("engine.assemble_s", "s", "lower", "check.memory.p50_s@cold-check",
       "dml_check.memory.p50_s@dml-recheck",
       note="assemble_report/assemble_from_hits"),
    _m("engine.cache_hit_ratio", "ratio", "higher",
       "dml_check.memory.p50_s@dml-recheck",
       "write_delta.memory.p50_s@serve-wire-memory",
       note="ScanCache hits / lookups"),
    _m("api.session.apply_s", "s", "lower",
       "dml_check.*.p50_s@dml-recheck",
       "write_delta.memory.p50_s@serve-wire-memory",
       "write_delta.*.p50_s@serve-wire",
       note="Session.apply, inclusive"),
    _m("api.session.check_s", "s", "lower", "check.*.p50_s@cold-check",
       "dml_check.*.p50_s@dml-recheck",
       "read.memory.p50_s@serve-wire-memory", "read.*.p50_s@serve-wire",
       note="Session.check, inclusive"),
    _m("api.session.glue_s", "s", "lower", "check.*.p50_s@cold-check",
       "dml_check.*.p50_s@dml-recheck",
       note="Session.apply/check self time: backend glue no child span covers"),
    _m("api.parallel.execute_s", "s", "lower", "check.par2.p50_s@cold-check",
       note="execute_plan_parallel self time"),
    _m("api.workerpool.prepare_s", "s", "lower",
       "check.par2.p50_s@cold-check"),
    _m("api.workerpool.forks", "count", "lower", "check.par2.p50_s@cold-check",
       note="distinct worker PIDs per op that ran a pool"),
    _m("api.workerpool.shm_publishes", "count", "lower",
       "check.par2.p50_s@cold-check",
       note="shared-memory segments created per op"),
    _m("sql.scan_s", "s", "lower", "check.sqlfile.p50_s@cold-check",
       "dml_check.sqlfile.p50_s@dml-recheck", "read.sqlfile.p50_s@serve-wire",
       note="SQLPlanExecutor hit methods, cfd_onepass_hits, "
            "execute_sqlfile_windows"),
    _m("sql.cache_hit_ratio", "ratio", "higher",
       "dml_check.sqlfile.p50_s@dml-recheck", "read.sqlfile.p50_s@serve-wire",
       note="SQLScanCache hits / lookups"),
    _m("sql.apply_s", "s", "lower", "write_delta.sqlfile.p50_s@serve-wire",
       "dml_check.sqlfile.p50_s@dml-recheck", note="SQLFileBackend.apply"),
    _m("sql.fingerprint_s", "s", "lower", "read.sqlfile.p50_s@serve-wire",
       "dml_check.sqlfile.p50_s@dml-recheck",
       note="table fingerprints taken to validate cached scans"),
    _m("cleaning.incremental.update_s", "s", "lower",
       "dml_check.incremental.p50_s@dml-recheck",
       "write_delta.sqlfile.p50_s@serve-wire",
       note="IncrementalChecker.insert/delete"),
    _m("cleaning.incremental.check_s", "s", "lower",
       "dml_check.incremental.p50_s@dml-recheck",
       "write_delta.sqlfile.p50_s@serve-wire",
       note="IncrementalBackend.check, inclusive (the shadow session's "
            "report on sqlfile tenants)"),
    _m("cleaning.repair.worklist_s", "s", "lower", "repair.p50_s@repair",
       note="sum of RoundStats.worklist_s per repair"),
    _m("cleaning.repair.apply_s", "s", "lower", "repair.p50_s@repair",
       note="sum of RoundStats.apply_s per repair"),
    _m("cleaning.repair.rounds", "count", "lower", "repair.p50_s@repair"),
    _m("cleaning.repair.edits", "count", "lower", "repair.p50_s@repair"),
    _m("cleaning.repair.fixed_per_edit", "ratio", "higher",
       "repair.p50_s@repair",
       note="violations in the input / edits applied"),
    _m("cleaning.planner.plan_s", "s", "lower", "repair.p50_s@repair",
       note="RepairPlanner.plan_round"),
    _m("serve.lock.wait_s", "s", "lower",
       "write_delta.memory.p50_s@serve-wire-memory",
       "read.memory.p50_s@serve-wire-memory", "write_delta.*@serve-wire",
       "read.*@serve-wire", note="ReadWriteLock acquire time"),
    _m("serve.lock.fast_reads", "count", "higher",
       "read.memory.p50_s@serve-wire-memory", "read.memory.p50_s@serve-wire"),
    _m("serve.lock.slow_reads", "count", "lower",
       "read.memory.p50_s@serve-wire-memory", "read.memory.p50_s@serve-wire"),
    _m("serve.lock.revocations", "count", "lower",
       "write_delta.memory.p50_s@serve-wire-memory", "write_delta.*@serve-wire"),
    _m("serve.service.apply_s", "s", "lower",
       "write_delta.memory.p50_s@serve-wire-memory", "write_delta.*@serve-wire",
       note="DetectionService.apply, inclusive"),
    _m("serve.wire_s", "s", "lower",
       "write_delta.memory.p50_s@serve-wire-memory", "write_delta.*@serve-wire",
       note="write latency on the wire minus DetectionService.apply"),
    _m("serve.feed.commit_s", "s", "lower",
       "write_delta.memory.p50_s@serve-wire-memory",
       "write_delta.memory.p50_s@serve-wire", note="ViolationFeed.commit"),
    _m("serve.feed.diff_s", "s", "lower",
       "write_delta.memory.p50_s@serve-wire-memory",
       "write_delta.memory.p50_s@serve-wire", note="diff_records"),
    _m("serve.feed.delta_ratio", "ratio", "higher",
       "write_delta.memory.p50_s@serve-wire-memory",
       "write_delta.memory.p50_s@serve-wire",
       note="delta records emitted / report records diffed"),
    _m("serve.protocol.encode_s", "s", "lower",
       "read.memory.p50_s@serve-wire-memory", "read.*.p50_s@serve-wire",
       note="encode_report/encode_delta"),
    _m("trace_overhead_ratio", "ratio", "lower",
       note="median traced / median untraced cycle, same run, both "
            "relative to the calibration kernel"),
)

#: Span names whose metric is inclusive time rather than self time.
_INCLUSIVE = {
    "api.session.apply", "api.session.check", "cleaning.incremental.check",
    "serve.service.apply",
}


@dataclass
class TraceContext:
    """What a workload knows beyond spans: filled in during the run."""

    ops: list[int] = field(default_factory=list)
    #: op id -> wire latency of a write request (the serve workloads)
    wire_writes: dict[int, float] = field(default_factory=dict)
    #: summed ReadWriteLock counter deltas over traced cycles
    lock_counts: dict[str, int] = field(default_factory=dict)
    #: RepairResult of every traced repair op
    repairs: list[Any] = field(default_factory=list)
    #: violations in the repair input (for fixed_per_edit)
    repair_input_violations: int = 0
    overhead_ratio: float = 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(recorder: Recorder, ctx: TraceContext) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run."""
    ops = set(ctx.ops)
    n = max(len(ops), 1)
    spans = [s for s in recorder.spans if s.op in ops]
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.name in _INCLUSIVE:
            totals[span.name] += span.duration
        else:
            totals[span.name] += selfs[span.sid]
    glue = sum(
        selfs[s.sid] for s in spans
        if s.name in ("api.session.apply", "api.session.check")
    )
    counts: dict[str, float] = defaultdict(float)
    for (op, name), value in recorder.counts.items():
        if op in ops:
            counts[name] += value

    service_by_op: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name == "serve.service.apply":
            service_by_op[span.op] += span.duration
    wire = [
        latency - service_by_op.get(op, 0.0)
        for op, latency in ctx.wire_writes.items() if op in ops
    ]
    pool_ops = [len(pids) for op, pids in recorder.pids.items() if op in ops]

    repairs = ctx.repairs
    n_repairs = max(len(repairs), 1)
    edits = sum(len(r.edits) for r in repairs)

    def per_op(name: str) -> float:
        return totals.get(name, 0.0) / n

    values = {
        "relational.columns_s": per_op("relational.columns"),
        "relational.columns_calls":
            counts["relational.columns.rebuilds"] / n,
        "engine.plan_s": per_op("engine.plan"),
        "engine.execute_s": per_op("engine.execute"),
        "engine.assemble_s": per_op("engine.assemble"),
        "engine.cache_hit_ratio": _ratio(
            counts["engine.cache.hit"],
            counts["engine.cache.hit"] + counts["engine.cache.miss"]),
        "api.session.apply_s": per_op("api.session.apply"),
        "api.session.check_s": per_op("api.session.check"),
        "api.session.glue_s": glue / n,
        "api.parallel.execute_s": per_op("api.parallel.execute"),
        "api.workerpool.prepare_s": per_op("api.workerpool.prepare"),
        "api.workerpool.forks":
            _ratio(sum(pool_ops), len(pool_ops)),
        "api.workerpool.shm_publishes":
            counts["api.workerpool.shm_publishes"] / n,
        "sql.scan_s": per_op("sql.scan"),
        "sql.cache_hit_ratio": _ratio(
            counts["sql.cache.hit"],
            counts["sql.cache.hit"] + counts["sql.cache.miss"]),
        "sql.apply_s": per_op("sql.apply"),
        "sql.fingerprint_s": per_op("sql.fingerprint"),
        "cleaning.incremental.update_s": per_op("cleaning.incremental.update"),
        "cleaning.incremental.check_s": per_op("cleaning.incremental.check"),
        "cleaning.repair.worklist_s": sum(
            s.worklist_s for r in repairs for s in r.round_stats) / n_repairs,
        "cleaning.repair.apply_s": sum(
            s.apply_s for r in repairs for s in r.round_stats) / n_repairs,
        "cleaning.repair.rounds": sum(r.rounds for r in repairs) / n_repairs,
        "cleaning.repair.edits": edits / n_repairs,
        "cleaning.repair.fixed_per_edit": _ratio(
            ctx.repair_input_violations * len(repairs), edits),
        "cleaning.planner.plan_s": per_op("cleaning.planner.plan"),
        "serve.lock.wait_s": per_op("serve.lock.wait"),
        "serve.lock.fast_reads": ctx.lock_counts.get("fast_reads", 0) / n,
        "serve.lock.slow_reads": ctx.lock_counts.get("slow_reads", 0) / n,
        "serve.lock.revocations": ctx.lock_counts.get("revocations", 0) / n,
        "serve.service.apply_s": per_op("serve.service.apply"),
        "serve.wire_s": _ratio(sum(wire), len(wire)),
        "serve.feed.commit_s": per_op("serve.feed.commit"),
        "serve.feed.diff_s": per_op("serve.feed.diff"),
        "serve.feed.delta_ratio": _ratio(
            counts["serve.feed.diff.emitted"],
            counts["serve.feed.diff.diffed"]),
        "serve.protocol.encode_s": per_op("serve.protocol.encode"),
        "trace_overhead_ratio": ctx.overhead_ratio,
    }
    if set(values) != {m.name for m in PER_LAYER}:
        raise RuntimeError("derive() and PER_LAYER disagree")
    return values


def tags() -> dict[str, dict[str, Any]]:
    """Per-layer metric -> the end-to-end metrics it should move."""
    return {
        m.name: {"moves": list(m.moves), "note": m.note} for m in PER_LAYER
    }


def per_layer_entries() -> list[dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    return [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER
    ]
