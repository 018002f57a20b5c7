"""X3 (extension): violation-detection throughput, in-memory vs SQL.

The paper's Section 8 plans "SQL-based techniques for detecting CIND
violations in real-life data along the same lines as [9]". We built both
engines; this benchmark compares them on the scaled bank database at
growing sizes and verifies they flag the same constraints.
"""

import pytest

from repro.api import connect
from repro.datasets.bank import bank_constraints, scaled_bank_instance

from _workloads import record, scaled

EXPERIMENT = "x3: violation detection runtime (s) vs #accounts"

SIZES = [scaled(500), scaled(2000), scaled(8000)]
ERROR_RATE = 0.05


@pytest.fixture(scope="module")
def sigma():
    return bank_constraints()


def _database(n_accounts: int):
    return scaled_bank_instance(n_accounts, error_rate=ERROR_RATE, seed=42)


def detect_memory(db, sigma):
    return connect(db, sigma).detect()


def detect_sql(db, sigma):
    """Violation counts per violated constraint (plan pushed into sqlite)."""
    with connect(db, sigma, backend="sql") as session:
        return session.check().by_constraint()


@pytest.mark.parametrize("n_accounts", SIZES)
def test_x3_memory_engine(benchmark, series, sigma, n_accounts):
    db = _database(n_accounts)

    result = benchmark.pedantic(
        detect_memory, args=(db, sigma), rounds=3, iterations=1
    )
    assert result.report.total > 0  # the 5% error rate plants violations
    record(benchmark, engine="memory", n_accounts=n_accounts,
           violations=result.report.total)
    series.add(EXPERIMENT, "in-memory", n_accounts, benchmark.stats.stats.mean)


@pytest.mark.parametrize("n_accounts", SIZES)
def test_x3_sql_engine(benchmark, series, sigma, n_accounts):
    db = _database(n_accounts)

    report = benchmark.pedantic(
        detect_sql, args=(db, sigma), rounds=3, iterations=1
    )
    assert report  # some constraint violated
    memory = detect_memory(db, sigma)
    assert report == memory.report.by_constraint()
    record(benchmark, engine="sql", n_accounts=n_accounts)
    series.add(EXPERIMENT, "sqlite3", n_accounts, benchmark.stats.stats.mean)
    series.note(
        EXPERIMENT,
        "both engines report identical per-constraint counts "
        "(cross-validated); timing includes writing the sqlite image",
    )
