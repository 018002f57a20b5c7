"""The naive oracle, evaluated in two processes.

``check_database_naive`` evaluates each constraint on its own through
``CFD.iter_violations`` / ``CIND.iter_violations``, the executable form of
the paper's satisfaction definitions. On the dense Σ at bank@50k that
takes about 12 s in one process. The constraints are independent, so
this runs the same per-constraint loop over two halves of Σ in two
forked processes and merges their records as a multiset (the naive
oracle's order is not the engines' order in any case). It runs outside
every timed span.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.core.cfd import CFD
from repro.core.violations import ConstraintSet, ViolationReport
from repro.relational.instance import DatabaseInstance

from pbench.data import unordered_records

#: (db, sigma) while an evaluation runs; forked workers inherit it.
_STATE: tuple[DatabaseInstance, ConstraintSet] | None = None


def _evaluate(part: int, parts: int) -> Counter:
    assert _STATE is not None
    db, sigma = _STATE
    constraints = list(sigma)
    cfd_violations: list[Any] = []
    cind_violations: list[Any] = []
    for constraint in constraints[part::parts]:
        if isinstance(constraint, CFD):
            cfd_violations.extend(constraint.iter_violations(db))
        else:
            cind_violations.extend(constraint.iter_violations(db))
    report = ViolationReport(cfd_violations, cind_violations,
                             constraints=constraints)
    return unordered_records(report)


def naive_records(db: DatabaseInstance, sigma: ConstraintSet,
                  parts: int = 2) -> Counter:
    """``unordered_records(check_database_naive(db, sigma))``, in *parts*
    forked processes."""
    global _STATE
    _STATE = (db, sigma)
    try:
        with ProcessPoolExecutor(
            max_workers=parts, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = [pool.submit(_evaluate, i, parts) for i in range(parts)]
            total: Counter = Counter()
            for future in futures:
                total += future.result()
    finally:
        _STATE = None
    return total
