"""Inputs of every workload: the bank data, the dense bank Σ and report keys.

The benchmark owns these settings. It does not import the scripts under
``benchmarks/``, so editing those scripts cannot move this benchmark's
baseline.
"""

from __future__ import annotations

from collections import Counter

from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, ViolationReport
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.relational.instance import DatabaseInstance, Tuple
from repro.relational.values import WILDCARD

#: ``scaled_bank_instance`` size: 99,266 tuples at seed 7.
N_ACCOUNTS = 50_000
#: Share of accounts with one injected error (detection workloads).
ERROR_RATE = 0.03
#: The repair workload's error rate: more to fix per op.
REPAIR_ERROR_RATE = 0.05
#: Extra CFDs and extra CINDs per hot relation on top of Σ_bank.
EXTRA_PER_RELATION = 12
#: The relations the DML streams touch (about 24.6k rows each).
HOT_RELATIONS = ("saving", "checking")


def bank_data(seed: int, error_rate: float = ERROR_RATE) -> DatabaseInstance:
    return scaled_bank_instance(N_ACCOUNTS, error_rate=error_rate, seed=seed)


def dense_bank_sigma(extra: int = EXTRA_PER_RELATION) -> ConstraintSet:
    """Σ_bank plus *extra* CFDs and *extra* CINDs on each hot relation.

    The CFDs share the ``(an, ab)`` LHS scan group and the CINDs share the
    witness buckets on ``interest``, the sharing the shared-scan engine is
    built for. With the default 12 this is the 59-constraint dense Σ.
    """
    sigma = bank_constraints()
    schema = sigma.schema
    interest = schema.relation("interest")
    branches = ("NYC", "EDI")
    rhs_attributes = ("cn", "ca", "cp")
    for name in HOT_RELATIONS:
        relation = schema.relation(name)
        for i in range(extra):
            branch = (*branches, WILDCARD)[i % 3]
            sigma.add_cfd(CFD(
                relation, ("an", "ab"), (rhs_attributes[i % 3],),
                [((WILDCARD, branch), (WILDCARD,))],
                name=f"x_{name}_cfd{i}",
            ))
        for i in range(extra):
            branch = branches[i % 2]
            account_type = ("saving", "checking")[(i // 2) % 2]
            sigma.add_cind(CIND(
                relation, (), ("ab",), interest, (), ("ab", "at"),
                [((branch,), (branch, account_type))],
                name=f"x_{name}_cind{i}",
            ))
    return sigma


def report_records(report: ViolationReport) -> list[tuple]:
    """Order-sensitive, identity-free key of a report.

    One record per violation, in report order, in the record shape the
    serve protocol documents: ``("cfd", label, pattern, lhs, tuples,
    kind)`` and ``("cind", label, pattern, tuple)``. Two reports are
    bit-identical, list order included, iff their records are equal.
    """
    cfds = [
        ("cfd", report.label_for(v.cfd), v.pattern_index, v.lhs_values,
         tuple(t.values for t in v.tuples), v.kind)
        for v in report.cfd_violations
    ]
    cinds = [
        ("cind", report.label_for(v.cind), v.pattern_index, v.tuple_.values)
        for v in report.cind_violations
    ]
    return cfds + cinds


def unordered_records(records: ViolationReport | list[tuple]) -> Counter:
    """Multiset of a report's records, blind to every list order.

    The naive oracle evaluates one constraint at a time, so it agrees
    with the engines on content, not on order.
    """
    if isinstance(records, ViolationReport):
        records = report_records(records)
    keys: Counter = Counter()
    for record in records:
        if record[0] == "cfd":
            tag, label, pattern, lhs, tuples, kind = record
            record = (tag, label, pattern, lhs,
                      tuple(sorted(tuples, key=repr)), kind)
        keys[record] += 1
    return keys


def tuple_counts(db: DatabaseInstance) -> dict[str, int]:
    return {name: len(instance) for name, instance in db.relations().items()}


def hot_rows(db: DatabaseInstance) -> list[tuple[str, Tuple]]:
    """Every ``(relation, tuple)`` of the hot relations, in scan order.

    The DML streams delete one of these and then re-insert it, so the
    live set at the start of every step is exactly this list.
    """
    return [(name, t) for name in HOT_RELATIONS for t in db[name]]
