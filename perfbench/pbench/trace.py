"""Span recorder for the traced run.

The traced run wraps public entry points of the program's layers (the
table in :mod:`pbench.layers`) with recording wrappers, from the
benchmark's own files. :class:`Tracer` installs the wrappers in every
loaded ``repro`` module that holds the original object, and
:meth:`Tracer.uninstall` puts the originals back, so no wrapper survives
the run. Spans live in memory until the run ends.

A span records its name, start, end, parent span and op id. The parent
is the innermost span open in the same thread or asyncio task (a
context variable), so work that a layer hands to another thread starts
a new root. :func:`self_times` gives each span's duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

#: Attribute every wrapper carries, pointing at the wrapped original.
WRAPPED_ATTR = "__perfbench_wrapped__"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One entry point to wrap: ``module`` + ``attr`` (``Class.method``
    or a module-level function), recorded under ``name`` as ``kind``."""

    name: str
    module: str
    attr: str
    kind: str = "span"


class Recorder:
    """Spans and counters of one traced run, keyed by op id.

    Nothing is recorded while ``op`` is ``None``. The runner sets it when
    a traced op starts and clears it when the cycle ends, so work a traced
    op leaves running (a subscriber's delta encoding) still counts for it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.pids: dict[int, set[int]] = defaultdict(set)
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._current: ContextVar[int | None] = ContextVar(
            "perfbench_span", default=None
        )

    def count(self, name: str, value: float = 1) -> None:
        op = self.op
        if op is not None:
            self.counts[op, name] += value

    def add_span(self, name: str, start: float, end: float) -> None:
        """A leaf span measured by the caller (no children possible)."""
        op = self.op
        if op is not None:
            self.spans.append(
                Span(next(self._ids), name, start, end,
                     self._current.get(), op)
            )

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        op = self.op
        if op is None:
            return fn(*args, **kwargs)
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, name, start, end, parent, op))

    async def acall(
        self, name: str, fn: Callable, args: tuple, kwargs: dict
    ) -> Any:
        op = self.op
        if op is None:
            return await fn(*args, **kwargs)
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(sid, name, start, end, parent, op))


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.sid] = span.duration - covered
    return result


# -- wrappers -----------------------------------------------------------------


class _TimedAcquire:
    """Async context manager proxy that records how long entering took."""

    def __init__(self, cm: Any, rec: Recorder, name: str):
        self._cm = cm
        self._rec = rec
        self._name = name

    async def __aenter__(self) -> Any:
        start = time.perf_counter()
        value = await self._cm.__aenter__()
        self._rec.add_span(self._name, start, time.perf_counter())
        return value

    async def __aexit__(self, *exc_info: Any) -> Any:
        return await self._cm.__aexit__(*exc_info)


def _make_wrapper(target: Target, fn: Callable, rec: Recorder) -> Callable:
    name = target.name
    kind = target.kind
    if kind == "span":
        def wrapper(*args, **kwargs):
            return rec.call(name, fn, args, kwargs)
    elif kind == "async":
        async def wrapper(*args, **kwargs):
            return await rec.acall(name, fn, args, kwargs)
    elif kind == "acquire":
        def wrapper(*args, **kwargs):
            return _TimedAcquire(fn(*args, **kwargs), rec, name)
    elif kind == "lookup":
        # A cache lookup: ``None`` is a miss, anything else a hit.
        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            rec.count(name + (".miss" if value is None else ".hit"))
            return value
    elif kind == "view":
        # RelationInstance.columns()/rows(): a span, plus a count of the
        # calls that found the cached view older than the relation's
        # mutation version and rebuilt it (nothing is counted once the
        # relation no longer keeps a versioned view).
        def wrapper(self, *args, **kwargs):
            cached = getattr(self, "_view_version", None)
            stale = cached is not None and cached != self.version
            value = rec.call(name, fn, (self, *args), kwargs)
            if stale:
                rec.count(name + ".rebuilds")
            return value
    elif kind == "publish":
        # ShmColumnStore.publish: count the calls that created a segment.
        def wrapper(self, *args, **kwargs):
            before = len(self)
            value = fn(self, *args, **kwargs)
            if len(self) > before:
                rec.count(name)
            return value
    elif kind == "pids":
        # WorkerPool.finish: remember which worker processes served the op.
        def wrapper(self, *args, **kwargs):
            op = rec.op
            if op is not None:
                rec.pids[op].update(self.pids())
            return fn(self, *args, **kwargs)
    elif kind == "diff":
        # diff_records(old, new): a span, plus records diffed and emitted.
        def wrapper(old, new, *args, **kwargs):
            removed, added = rec.call(name, fn, (old, new, *args), kwargs)
            rec.count(name + ".diffed", len(old) + len(new))
            rec.count(name + ".emitted", len(removed) + len(added))
            return removed, added
    else:
        raise ValueError(f"unknown target kind {kind!r}")
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, WRAPPED_ATTR, fn)
    return wrapper


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """Installs and removes the wrappers for a list of :class:`Target`.

    Targets that no longer exist in the program are skipped and listed in
    ``missing``; their metrics then read 0.
    """

    def __init__(self, targets: Iterable[Target], recorder: Recorder):
        self.recorder = recorder
        self.missing: list[str] = []
        #: (owner, attribute, original, wrapper)
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.installed = False
        for target in targets:
            self._resolve(target)

    def _resolve(self, target: Target) -> None:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(target.name)
            return
        owner_name, _, attr = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(target.name)
                return
            wrapper = _make_wrapper(target, original, self.recorder)
            self._patches.append((owner, attr, original, wrapper))
            return
        original = getattr(module, attr, None)
        if original is None or not callable(original):
            self.missing.append(target.name)
            return
        wrapper = _make_wrapper(target, original, self.recorder)
        # Callers that did ``from x import f`` hold their own reference:
        # patch every repro module whose namespace binds the original.
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original, wrapper))

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, __, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, original, __ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed = False


def surviving_wrappers() -> list[str]:
    """``module.attr`` of every wrapper still bound in a repro module or
    one of its classes (empty after a clean :meth:`Tracer.uninstall`)."""
    found: list[str] = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, WRAPPED_ATTR):
                found.append(f"{module.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPED_ATTR):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found
