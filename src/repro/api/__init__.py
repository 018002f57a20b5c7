"""repro.api — the unified Session/Backend facade over all detection paths.

The paper's pitch is *one* constraint language (CFDs + CINDs) checkable
uniformly; this package makes the implementation match: one ``connect()``
call, one report shape, five interchangeable engines, and a parallel
dispatch path that is an internal option rather than a different API.

    from repro import api

    session = api.connect(db, sigma)                  # shared-scan engine
    session = api.connect(db, sigma, backend="sql")   # plan pushed into sqlite
    session = api.connect(db, sigma, backend="incremental")
    session = api.connect(db, sigma, workers=4)       # parallel scan groups
    session = api.connect("accounts.db", sigma, backend="sqlfile")  # out-of-core

    report  = session.check()      # ViolationReport — identical everywhere
    summary = session.count()      # per-constraint totals
    verdict = session.is_clean()   # cheapest verdict the backend has

See :mod:`repro.api.session` for the facade, :mod:`repro.api.backends`
for the engine adapters, and :mod:`repro.api.parallel` for the
scan-group dispatcher.
"""

from __future__ import annotations

from repro.api.backends import (
    BACKENDS,
    ApplyResult,
    Backend,
    BaseBackend,
    IncrementalBackend,
    MemoryBackend,
    NaiveBackend,
    SQLBackend,
    SQLFileBackend,
    summarize,
)
from repro.api.options import ExecutionOptions
from repro.api.parallel import execute_plan_parallel
from repro.api.session import Session, connect

__all__ = [
    "BACKENDS",
    "ApplyResult",
    "Backend",
    "BaseBackend",
    "ExecutionOptions",
    "IncrementalBackend",
    "MemoryBackend",
    "NaiveBackend",
    "SQLBackend",
    "SQLFileBackend",
    "Session",
    "connect",
    "execute_plan_parallel",
    "summarize",
]
