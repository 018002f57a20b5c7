"""sqlite3 support: DDL, loading and attaching files, and pushed-down
violation detection (:mod:`repro.sql.violations`)."""

from repro.sql.ddl import (
    create_schema_sql,
    create_table_sql,
    insert_sql,
    quote_identifier,
    sql_type,
)
from repro.sql.loader import (
    create_database_file,
    load_database,
    read_database_file,
)

__all__ = [
    "create_database_file",
    "create_schema_sql",
    "create_table_sql",
    "insert_sql",
    "load_database",
    "quote_identifier",
    "read_database_file",
    "sql_type",
]
