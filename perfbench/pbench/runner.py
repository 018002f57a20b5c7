"""One run of one workload: set-up, a timed closed loop, checks, result.

A run sets up :data:`SETUP_REPEATS` times and reports the median set-up
time (``setup_s``). After each set-up it measures one window of
``--seconds / SETUP_REPEATS`` seconds on that instance, so the measured
cycles spread over the whole run instead of one stretch of it.

A cycle is one op of each of the workload's configurations, so a cycle's
latency moves when any of them does. The calibration kernel
(:mod:`pbench.calibrate`) runs between cycles; each cycle's latency,
and each memory-backend op in it, is also taken relative to the mean of
the kernel times just before and just after the cycle. Those ratios are
the gated metrics (``cycle.p50_rel``, ``memory.p50_rel``); the raw
seconds are reported beside them.

With ``--trace 1`` the cycles alternate between untraced and traced, the
tracer is installed only around traced cycles, and the result carries
the per-layer metrics of :mod:`pbench.layers`.

An op that raises (or gets an error envelope, or loses its connection)
is counted as failed and reported, never dropped. An *incorrect* output
raises :class:`Incorrect` and ends the run: the result then says
``"correct": false`` and the process exits non-zero.
"""

from __future__ import annotations

import gc
import itertools
import resource
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

from pbench import hygiene, layers, stats
from pbench.calibrate import calibrate
from pbench.trace import Recorder, Tracer

SETUP_REPEATS = 3


class Incorrect(Exception):
    """A wrong output; names the workload and the op."""

    def __init__(self, workload: str, op: str, message: str):
        super().__init__(f"{workload}: op {op}: {message}")
        self.workload = workload
        self.op = op


@dataclass
class Measurements:
    #: untraced op latencies by configuration key
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: untraced cycle latencies; untraced and traced cycle latencies
    #: relative to the calibration kernel
    cycles: list[float] = field(default_factory=list)
    cycle_rel: list[float] = field(default_factory=list)
    traced_cycle_rel: list[float] = field(default_factory=list)
    #: untraced memory-backend op latencies relative to the kernel
    memory_rel: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


class Run:
    """The shared machinery a workload drives its ops through."""

    def __init__(self, workload: str, memory_key: str, seed: int,
                 tmpdir: str):
        self.workload = workload
        self.memory_key = memory_key
        self.seed = seed
        self.tmpdir = tmpdir
        self.m = Measurements()
        self.recorder = Recorder()
        self.ctx = layers.TraceContext()
        self.traced = False
        self._cycle: list[tuple[str, float]] = []
        self._op_ids = itertools.count(1)
        self.op_label = ""

    # -- ops -----------------------------------------------------------------

    def _begin(self, key: str) -> int:
        op_id = next(self._op_ids)
        self.op_label = f"#{op_id} {key}"
        self.m.attempted += 1
        if self.traced:
            self.ctx.ops.append(op_id)
            self.recorder.op = op_id
        return op_id

    def _end(self, key: str, elapsed: float) -> None:
        if not self.traced:
            self.m.samples.setdefault(key, []).append(elapsed)
        self._cycle.append((key, elapsed))

    def fail(self, message: str) -> None:
        self.m.failed += 1
        self.m.failures.append(f"{self.op_label}: {message}")

    def op(self, key: str, fn: Callable[[], Any]) -> tuple[bool, Any]:
        """Time ``fn()`` as one op under *key*; ``(ok, value)``."""
        self._begin(key)
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an op failure is reported, not raised
            self.fail(f"{type(exc).__name__}: {exc}")
            return False, None
        self._end(key, time.perf_counter() - start)
        return True, value

    async def aop(self, key: str,
                  coro_fn: Callable[[], Any]) -> tuple[int, float, Any]:
        """Time an awaited op; ``(op id, seconds, value)``. Exceptions are
        the caller's to classify (see the serve-wire workload)."""
        op_id = self._begin(key)
        start = time.perf_counter()
        value = await coro_fn()
        elapsed = time.perf_counter() - start
        self._end(key, elapsed)
        return op_id, elapsed, value

    def incorrect(self, message: str) -> Incorrect:
        return Incorrect(self.workload, self.op_label, message)

    # -- cycles --------------------------------------------------------------

    def start_cycle(self, traced: bool) -> None:
        self.traced = traced
        self._cycle = []

    def end_cycle(self, complete: bool, kernel_s: float) -> None:
        """Close a cycle; *kernel_s* is the calibration time around it."""
        self.recorder.op = None
        if complete:
            total = sum(elapsed for __, elapsed in self._cycle)
            if self.traced:
                self.m.traced_cycle_rel.append(total / kernel_s)
            else:
                self.m.cycles.append(total)
                self.m.cycle_rel.append(total / kernel_s)
                self.m.memory_rel.extend(
                    elapsed / kernel_s for key, elapsed in self._cycle
                    if key == self.memory_key)
        self.traced = False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure_window(run: Run, workload: Any, tracer: Tracer | None,
                    seconds: float, cycle_no: int) -> int:
    """Cycles until *seconds* have passed; returns the next cycle number."""
    before = calibrate()
    run.m.kernel_s.append(before)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        traced = (tracer is not None
                  and (cycle_no // workload.trace_stride) % 2 == 1)
        # A full collection of the heap set-up built takes ~0.3 s; run it
        # between cycles so it does not land on a random op.
        gc.collect()
        run.start_cycle(traced)
        if traced:
            workload.before_traced_cycle()
            tracer.install()
        complete = False
        try:
            complete = workload.cycle(cycle_no)
        finally:
            if traced:
                tracer.uninstall()
                workload.after_traced_cycle()
            after = calibrate()
            run.m.kernel_s.append(after)
            run.end_cycle(complete, (before + after) / 2)
            before = after
        cycle_no += 1
    return cycle_no


def execute(workload_cls: type, seed: int, seconds: float, trace: bool,
            tmpdir: str) -> dict[str, Any]:
    """Run one workload end to end; the result record (see run.py)."""
    before = hygiene.snapshot()
    run = Run(workload_cls.name, workload_cls.memory_key, seed, tmpdir)
    workload = workload_cls(run)
    setups: list[float] = []
    error: Incorrect | None = None
    tracer = Tracer(layers.TARGETS, run.recorder) if trace else None
    cycle_no = 0
    try:
        for window in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(window)
            setups.append(time.perf_counter() - start)
            workload.prepare(first=window == 0)
            cycle_no = _measure_window(
                run, workload, tracer, seconds / SETUP_REPEATS, cycle_no)
            workload.finish(last=window == SETUP_REPEATS - 1)
            if window < SETUP_REPEATS - 1:
                workload.teardown()
    except Incorrect as exc:
        error = exc
    finally:
        if tracer is not None:
            tracer.uninstall()
        try:
            workload.teardown()
            workload.close()
        except Exception:  # teardown must not hide the run's own outcome
            run.fail("teardown: " + traceback.format_exc(limit=3))
        hygiene.stop_resource_tracker()
    for leak in hygiene.leaks(before):
        run.fail(f"leaked {leak}")

    m = run.m
    result: dict[str, Any] = {
        "workload": workload_cls.name,
        "error": str(error) if error else None,
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": m.failures,
        "setup_times_s": setups,
        "setup_s": stats.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "cycle": stats.summarize(m.cycles),
        "cycle_p50_rel": stats.median(m.cycle_rel),
        "memory_p50_rel": stats.median(m.memory_rel),
        "kernel_p50_s": stats.median(m.kernel_s),
        "ops": {key: stats.summarize(v) for key, v in m.samples.items()},
        "samples_s": {"cycle": m.cycles, "kernel": m.kernel_s, **m.samples},
        "inputs": workload.inputs(),
    }
    if tracer is not None:
        untraced = stats.median(m.cycle_rel)
        traced = stats.median(m.traced_cycle_rel)
        run.ctx.overhead_ratio = traced / untraced if untraced and traced else 0.0
        result["cycle_rel"] = {"untraced": m.cycle_rel,
                               "traced": m.traced_cycle_rel}
        result["per_layer"] = layers.derive(run.recorder, run.ctx)
        result["missing_targets"] = tracer.missing
    return result
