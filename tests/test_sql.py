"""Tests for the SQL backend, incl. cross-validation against the naive
oracle on the bank data and on random schemas/instances.

Detection runs through the session API (``connect(db, Σ,
backend="sql")``, the ``sqlfile`` backend over a private sqlite image),
and every report is compared order-sensitively with the oracle through
``report_key``. The tableau temp-table bookkeeping is tested on the
:class:`~repro.sql.violations.SQLPlanExecutor` that owns it.
"""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api import SQLBackend
from repro.core.cfd import CFD
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, check_database_naive
from repro.engine import plan_detection
from repro.errors import ReproError, SessionClosedError, SQLBackendError
from repro.relational.domains import INTEGER
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.relational.values import Variable
from repro.sql.ddl import create_table_sql, insert_sql, quote_identifier, sql_type
from repro.sql.loader import create_database_file, load_database
from repro.sql.violations import SQLPlanExecutor

from tests.conformance import report_key
from tests.strategies import cfds, cinds, database_schemas, instances


def _sql_report(db, sigma):
    with api.connect(db, sigma, backend="sql") as session:
        return session.check()


def _assert_matches_oracle(db, sigma):
    """The sql session's report equals the naive oracle's, in order."""
    assert report_key(_sql_report(db, sigma)) == report_key(
        check_database_naive(db, sigma)
    )


def _only(schema, *constraints):
    sigma = ConstraintSet(schema)
    for c in constraints:
        if isinstance(c, CFD):
            sigma.add_cfd(c)
        else:
            sigma.add_cind(c)
    return sigma


class TestDDL:
    def test_quote_identifier(self):
        assert quote_identifier("A") == '"A"'
        assert quote_identifier('we"ird') == '"we""ird"'

    def test_sql_types(self):
        assert sql_type(INTEGER) == "INTEGER"
        r = RelationSchema("R", ["A"])
        assert sql_type(r.attribute("A").domain) == "TEXT"

    def test_create_table(self):
        r = RelationSchema("R", ["A", Attribute("N", INTEGER)])
        sql = create_table_sql(r)
        assert sql == 'CREATE TABLE "R" ("A" TEXT, "N" INTEGER)'

    def test_insert_placeholders(self):
        r = RelationSchema("R", ["A", "B"])
        assert insert_sql(r) == 'INSERT INTO "R" VALUES (?, ?)'


class TestLoader:
    def test_round_trip(self, bank):
        conn = sqlite3.connect(":memory:")
        load_database(conn, bank.db)
        (count,) = conn.execute('SELECT COUNT(*) FROM "interest"').fetchone()
        assert count == 4
        rows = set(conn.execute('SELECT * FROM "saving"').fetchall())
        assert ("01", "J. Smith", "NYC, 19087", "212-5820844", "NYC") in rows
        conn.close()

    def test_template_rejected(self):
        schema = DatabaseSchema([RelationSchema("R", ["A"])])
        db = DatabaseInstance(schema, {"R": [(Variable("A", 0),)]})
        with pytest.raises(SQLBackendError):
            load_database(sqlite3.connect(":memory:"), db)
        with pytest.raises(SQLBackendError):
            api.connect(db, ConstraintSet(schema), backend="sql")


class TestBackendConstruction:
    def test_requires_an_instance(self, bank, tmp_path):
        path = create_database_file(tmp_path / "bank.db", bank.db)
        with pytest.raises(ReproError):
            api.connect(path, bank.constraints, backend="sql")
        with pytest.raises(SQLBackendError):
            SQLBackend(path, bank.constraints)

    def test_context_manager(self, bank):
        with api.connect(bank.db, bank.constraints, backend="sql") as session:
            assert session.backend.conn is not None
        assert session.closed


def _temp_table_count(conn) -> int:
    (n,) = conn.execute(
        "SELECT COUNT(*) FROM sqlite_temp_master "
        "WHERE name LIKE '__tableau%'"
    ).fetchall()[0]
    return n


def _legacy_executor(db, sigma):
    """A plan executor on a caller-owned connection, forced onto the
    GROUP-BY-then-join SQL that ships pattern tableaux as temp tables."""
    conn = sqlite3.connect(":memory:")
    load_database(conn, db)
    executor = SQLPlanExecutor(
        conn, plan_detection(sigma), window_functions="off"
    )
    return conn, executor


def _scan_cfd_groups(executor):
    for group in executor.plan.cfd_groups:
        executor.cfd_group_hits(group)


class TestConnectionOwnership:
    """close() must only close connections the backend created itself."""

    def test_owned_connection_closed(self, bank):
        session = api.connect(bank.db, bank.constraints, backend="sql")
        session.check()
        conn = session.backend.conn
        session.close()
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")

    def test_attached_connection_left_open(self, bank):
        conn, executor = _legacy_executor(bank.db, bank.constraints)
        _scan_cfd_groups(executor)
        assert _temp_table_count(conn) > 0
        executor.close()
        # The caller's connection survives close() and still works...
        (count,) = conn.execute('SELECT COUNT(*) FROM "interest"').fetchall()[0]
        assert count == 4
        # ...and the executor's temp tables were cleaned up behind it.
        assert _temp_table_count(conn) == 0
        conn.close()


class TestTableauTempTables:
    """Repeated scans must not leak one __tableau_N per CFD per call."""

    def test_repeated_checks_reuse_tableaux(self, bank):
        conn, executor = _legacy_executor(bank.db, bank.constraints)
        _scan_cfd_groups(executor)
        after_first = _temp_table_count(conn)
        # One table per CFD with a constant RHS pattern (the only ones the
        # single-violation query joins against).
        assert after_first == len(
            {id(task.cfd) for group in executor.plan.cfd_groups
             for task in group.tasks if task.rhs_checks}
        )
        for __ in range(3):
            _scan_cfd_groups(executor)
        assert _temp_table_count(conn) == after_first
        executor.close()
        conn.close()

    def test_equal_content_cfds_share_one_table(self, bank):
        rel = bank.schema.relation("interest")
        twin_a = CFD(rel, ("ct",), ("rt",), [(("UK",), ("1.5%",))], name="a")
        twin_b = CFD(rel, ("ct",), ("rt",), [(("UK",), ("1.5%",))], name="b")
        conn, executor = _legacy_executor(
            bank.db, _only(bank.schema, twin_a, twin_b)
        )
        _scan_cfd_groups(executor)
        assert _temp_table_count(conn) == 1
        executor.close()
        conn.close()


class TestBankCrossValidation:
    """The sql backend and the oracle agree tuple-for-tuple on Fig. 1."""

    def test_cfd_agreement(self, bank):
        for cfd in bank.cfds:
            _assert_matches_oracle(bank.db, _only(bank.schema, cfd))

    def test_cind_agreement(self, bank):
        for cind in bank.cinds:
            _assert_matches_oracle(bank.db, _only(bank.schema, cind))

    def test_check_summary(self, bank):
        counts = _sql_report(bank.db, bank.constraints).by_constraint()
        assert set(counts) == {"phi3", "psi6"}
        assert counts["psi6"] == 1

    def test_clean_instance_clean(self, bank):
        with api.connect(
            bank.clean_db, bank.constraints, backend="sql"
        ) as session:
            assert session.is_clean()

    def test_scaled_dirty_agreement(self):
        from repro.datasets.bank import bank_constraints, scaled_bank_instance

        db = scaled_bank_instance(150, error_rate=0.2, seed=13)
        sigma = bank_constraints()
        for cind in sigma.cinds:
            _assert_matches_oracle(db, _only(sigma.schema, cind))


class TestEdgeCases:
    def test_empty_lhs_cfd(self):
        schema = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        cfd = CFD(
            schema.relation("R"), (), ("B",), [((), ("only",))], name="c"
        )
        db = DatabaseInstance(schema, {"R": [("1", "only"), ("2", "nope")]})
        _assert_matches_oracle(db, _only(schema, cfd))

    def test_empty_x_cind(self):
        schema = DatabaseSchema(
            [RelationSchema("R", ["A"]), RelationSchema("S", ["B"])]
        )
        cind = CIND(
            schema.relation("R"), (), ("A",), schema.relation("S"), (), ("B",),
            [(("k",), ("w",))],
        )
        sigma = _only(schema, cind)
        db = DatabaseInstance(schema, {"R": [("k",)], "S": [("other",)]})
        assert len(_sql_report(db, sigma).cind_violations) == 1
        _assert_matches_oracle(db, sigma)
        db2 = DatabaseInstance(schema, {"R": [("k",)], "S": [("w",)]})
        assert _sql_report(db2, sigma).is_clean

    def test_quoted_identifier_robustness(self):
        # Attribute values containing quotes must survive parameter binding.
        schema = DatabaseSchema([RelationSchema("R", ["A", "B"])])
        cfd = CFD(
            schema.relation("R"), ("A",), ("B",), [(("o'brien",), ("x",))]
        )
        db = DatabaseInstance(schema, {"R": [("o'brien", "y")]})
        assert len(_sql_report(db, _only(schema, cfd)).cfd_violations) == 1
        _assert_matches_oracle(db, _only(schema, cfd))


class TestPrivateImage:
    """The sql backend is sqlfile over a private image of the instance."""

    def test_write_invalidates_only_the_touched_table(self, bank):
        db = bank.clean_db.copy()
        with api.connect(db, bank.constraints, backend="sql") as session:
            assert session.check().is_clean
            cache = session.backend.cache
            warm = dict(cache._entries)
            row = {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"}
            assert session.insert("interest", row)
            kept = {
                key for key, (tables, __) in warm.items()
                if "interest" not in tables
            }
            assert kept and kept != set(warm)
            assert set(cache._entries) == kept
            # The write reached the caller's instance too, at its end.
            assert list(db["interest"])[-1].values == tuple(row.values())
            assert report_key(session.check()) == report_key(
                check_database_naive(db, bank.constraints)
            )

    def test_values_sqlite_would_convert_are_refused(self):
        schema = DatabaseSchema(
            [RelationSchema("R", ["A", Attribute("N", INTEGER)])]
        )
        sigma = ConstraintSet(schema)
        with pytest.raises(SQLBackendError, match="R.A"):
            api.connect(
                DatabaseInstance(schema, {"R": [(5, 1)]}), sigma,
                backend="sql",
            )
        db = DatabaseInstance(schema, {"R": [("a", 1)]})
        with api.connect(db, sigma, backend="sql") as session:
            with pytest.raises(SQLBackendError, match="R.N"):
                session.insert("R", ("b", "2"))
            assert len(db["R"]) == 1
            # sqlite stores a non-numeric string in an INTEGER column as
            # text, so it round-trips and is accepted.
            assert session.insert("R", ("c", "repair#1"))
            assert session.insert("R", ("d", "0x10"))
            assert len(db["R"]) == 3
        api.connect(
            DatabaseInstance(schema, {"R": [("a", "abc")]}), sigma,
            backend="sql",
        ).close()

    def test_readonly_and_workers_apply_as_on_sqlfile(self, bank):
        with api.connect(
            bank.db, bank.constraints, backend="sql", readonly=True
        ) as session:
            with pytest.raises(SQLBackendError, match="read-only"):
                session.insert("interest", ("GLA", "UK", "checking", "9%"))
            assert len(session.db["interest"]) == len(bank.db["interest"])
        with api.connect(
            bank.db, bank.constraints, backend="sql", workers=2, shards=3
        ) as session:
            assert session.effective_executor == "thread"
            assert report_key(session.check()) == report_key(
                check_database_naive(bank.db, bank.constraints)
            )

    def test_close_removes_the_image(self, bank):
        session = api.connect(bank.db, bank.constraints, backend="sql")
        image = session.backend.path
        assert image.exists()
        session.check()
        session.close()
        assert not image.parent.exists()
        session.close()                        # idempotent
        with pytest.raises(SessionClosedError):
            session.backend.check()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sql_matches_memory_on_random_cfds(data):
    schema = data.draw(database_schemas(max_relations=1))
    rel = list(schema)[0]
    cfd = data.draw(cfds(rel))
    db = data.draw(instances(schema, max_tuples=10))
    _assert_matches_oracle(db, _only(schema, cfd))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sql_matches_memory_on_random_cinds(data):
    schema = data.draw(database_schemas(max_relations=2))
    rels = list(schema)
    cind = data.draw(cinds(rels[0], rels[-1]))
    db = data.draw(instances(schema, max_tuples=10))
    _assert_matches_oracle(db, _only(schema, cind))
