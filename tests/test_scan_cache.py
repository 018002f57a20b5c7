"""Columnar views + versioned ScanCache: consistency under mutation.

The columnar execution layer rests on two invariants:

1. ``RelationInstance.columns()``/``rows()`` always equal the transpose of
   the live tuple set (the ``version`` counter invalidates them on every
   ``add``/``discard``/``replace_value``);
2. a session's :class:`~repro.engine.cache.ScanCache` never serves a stale
   scan result — any interleaving of mutations and ``check``/``count``/
   ``is_clean`` must answer exactly like a cold naive run over the current
   data, on every backend.

The Hypothesis tests drive randomized ``insert``/``delete`` (all four
backends, persistent sessions so the caches live across mutations) and
``replace_value`` (memory backend — the chase's in-place rewrite, which the
incremental checker's bookkeeping deliberately does not model) against the
fresh-oracle answer after every observation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.violations import check_database_naive
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import ScanCache, execute_plan, plan_detection
from repro.relational.instance import RelationInstance, Tuple
from repro.relational.schema import RelationSchema

from tests.conformance import in_memory_backend_names, report_key

#: In-memory backends only: the file-backed ``sqlfile`` backend runs the
#: same interleavings against a real file in ``test_sqlfile.py``.
ALL_BACKENDS = in_memory_backend_names()


# -- columnar view unit behaviour ---------------------------------------------


class TestColumnarView:
    @pytest.fixture
    def inst(self):
        return RelationInstance(
            RelationSchema("R", ["A", "B"]),
            [("1", "x"), ("2", "y"), ("3", "x")],
        )

    def assert_consistent(self, inst):
        rows = inst.rows()
        assert rows == list(inst.tuples)
        columns = inst.columns()
        assert len(columns) == inst.schema.arity
        for i, t in enumerate(rows):
            assert tuple(col[i] for col in columns) == t.values

    def test_columns_transpose_in_insertion_order(self, inst):
        assert inst.columns() == (("1", "2", "3"), ("x", "y", "x"))
        self.assert_consistent(inst)

    def test_empty_instance_columns(self):
        inst = RelationInstance(RelationSchema("R", ["A", "B"]))
        assert inst.columns() == ((), ())
        assert inst.rows() == []

    def test_version_bumps_on_mutations_only(self, inst):
        v0 = inst.version
        assert inst.add(("4", "z")) is not None
        assert inst.version > v0
        v1 = inst.version
        assert inst.add(("4", "z")) is None  # duplicate: no-op
        assert inst.version == v1
        assert inst.discard(Tuple(inst.schema, ("9", "9"))) is False  # absent
        assert inst.version == v1
        assert inst.discard(Tuple(inst.schema, ("4", "z"))) is True
        assert inst.version > v1
        v2 = inst.version
        inst.replace_value("x", "w")
        assert inst.version > v2

    def test_views_track_mutations(self, inst):
        inst.columns()  # materialize, then invalidate
        inst.add(("4", "z"))
        self.assert_consistent(inst)
        inst.discard(Tuple(inst.schema, ("2", "y")))
        self.assert_consistent(inst)
        assert inst.columns() == (("1", "3", "4"), ("x", "x", "z"))
        inst.replace_value("x", "y")
        self.assert_consistent(inst)

    def test_views_memoized_while_unchanged(self, inst):
        assert inst.columns() is inst.columns()
        assert inst.rows() is inst.rows()

    def test_discard_keeps_index_order(self, inst):
        # Force an index, then remove from the middle of a bucket: the
        # dict-keyed bucket removal must keep the others in insertion order.
        assert [t["A"] for t in inst.lookup(["B"], ("x",))] == ["1", "3"]
        inst.discard(Tuple(inst.schema, ("1", "x")))
        assert [t["A"] for t in inst.lookup(["B"], ("x",))] == ["3"]
        inst.add(("5", "x"))
        assert [t["A"] for t in inst.lookup(["B"], ("x",))] == ["3", "5"]


# -- ScanCache unit behaviour -------------------------------------------------


class TestScanCache:
    def test_warm_check_serves_cached_hits(self):
        db = scaled_bank_instance(30, error_rate=0.2, seed=3)
        session = api.connect(db, bank_constraints())
        first = session.check()
        cache = session.backend.cache
        misses_after_cold = cache.misses
        assert report_key(session.check()) == report_key(first)
        assert cache.misses == misses_after_cold  # all scan units warm
        assert cache.hits > 0

    def test_mutation_invalidates_only_touched_relation(self):
        db = scaled_bank_instance(30, error_rate=0.0, seed=3)
        sigma = bank_constraints()
        session = api.connect(db, sigma)
        assert session.is_clean()
        t = next(iter(db["saving"]))
        session.delete("saving", t)
        session.insert("saving", t.replace(ab="nowhere"))
        report = session.check()
        assert report_key(report) == report_key(check_database_naive(db, sigma))

    def test_cache_rejected_for_foreign_plan(self):
        db = scaled_bank_instance(5, error_rate=0.0, seed=1)
        sigma = bank_constraints()
        plan = plan_detection(sigma)
        foreign = ScanCache(plan_detection(sigma))
        with pytest.raises(ValueError):
            execute_plan(plan, db, cache=foreign)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_dispatch_shares_the_cache(self, executor, tmp_path):
        """Both parallel paths — ``sqlfile`` rowid windows on the
        session's connection-pool threads, ``memory`` shards on its fork
        pool — store merged results in the session's scan cache, so a
        warm re-check misses nothing."""
        from repro.api.parallel import fork_available
        from repro.sql.loader import create_database_file

        if executor == "process" and not fork_available():
            pytest.skip("fork start method unavailable")
        db = scaled_bank_instance(40, error_rate=0.1, seed=2)
        sigma = bank_constraints()
        if executor == "thread":
            path = create_database_file(tmp_path / "bank.db", db)
            session = api.connect(
                path, sigma, backend="sqlfile", workers=2, shards=2
            )
        else:
            session = api.connect(db, sigma, workers=2)
        assert session.effective_executor == executor
        first = session.check()
        cache = session.backend.cache
        misses = cache.misses
        # Warm: every scan unit answers from the cache, nothing is dispatched.
        assert report_key(session.check()) == report_key(first)
        assert cache.misses == misses
        t = next(iter(db["saving"]))
        expected = db.copy()
        expected["saving"].discard(t)
        session.delete("saving", t)
        assert report_key(session.check()) == report_key(
            check_database_naive(expected, sigma)
        )
        session.close()

    def test_count_and_is_clean_share_check_entries(self):
        db = scaled_bank_instance(25, error_rate=0.1, seed=9)
        session = api.connect(db, bank_constraints())
        report = session.check()
        cache = session.backend.cache
        misses = cache.misses
        summary = session.count()
        assert session.is_clean() == report.is_clean
        assert cache.misses == misses
        assert summary.total == report.total
        assert summary.by_constraint() == report.by_constraint()


# -- randomized mutation/observation interleavings ----------------------------


OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "check", "count", "is_clean"]),
        st.integers(min_value=0, max_value=10 ** 9),
    ),
    min_size=1,
    max_size=14,
)


def _random_row(relation: RelationSchema, seed: int) -> dict:
    """A row from a small value pool, so mutations collide with groups."""
    pool = ["NYC", "EDI", "GLA", "a", "b", str(seed % 5)]
    values = {}
    for i, attr in enumerate(relation.attributes):
        if attr.is_finite:
            values[attr.name] = attr.domain.values[seed % len(attr.domain.values)]
        else:
            values[attr.name] = pool[(seed + i) % len(pool)]
    return values


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_accounts=st.integers(min_value=3, max_value=12),
    error_rate=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=10_000),
    ops=OPS,
)
def test_cache_consistent_under_mutations_all_backends(
    n_accounts, error_rate, seed, ops
):
    """Persistent sessions (live caches) answer like a fresh naive oracle
    after every mutation, on every backend."""
    sigma = bank_constraints()
    sessions = {
        name: api.connect(
            scaled_bank_instance(n_accounts, error_rate=error_rate, seed=seed),
            sigma,
            backend=name,
        )
        for name in ALL_BACKENDS
    }
    reference_db = scaled_bank_instance(
        n_accounts, error_rate=error_rate, seed=seed
    )
    relation_names = list(reference_db.schema.relation_names)

    for op, op_seed in ops:
        relation = relation_names[op_seed % len(relation_names)]
        if op == "insert":
            row = _random_row(reference_db.schema.relation(relation), op_seed)
            expected = reference_db[relation].add(dict(row)) is not None
            for name, session in sessions.items():
                assert session.insert(relation, dict(row)) == expected, name
        elif op == "delete":
            tuples = reference_db[relation].tuples
            if not tuples:
                continue
            victim = tuples[op_seed % len(tuples)]
            assert reference_db[relation].discard(victim)
            for name, session in sessions.items():
                mirror = Tuple(victim.schema, victim.values)
                assert session.delete(relation, mirror) is True, name
        else:
            oracle = check_database_naive(reference_db, sigma)
            expected_key = report_key(oracle)
            for name, session in sessions.items():
                if op == "check":
                    assert report_key(session.check()) == expected_key, name
                elif op == "count":
                    summary = session.count()
                    assert summary.total == oracle.total, name
                    assert summary.by_constraint() == oracle.by_constraint(), name
                else:
                    assert session.is_clean() == oracle.is_clean, name
    for session in sessions.values():
        session.close()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_accounts=st.integers(min_value=3, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["insert", "delete", "replace", "check", "count", "is_clean"]
            ),
            st.integers(min_value=0, max_value=10 ** 9),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_cache_consistent_under_replace_value(n_accounts, seed, ops):
    """replace_value (the chase's wholesale rewrite) also invalidates the
    columnar views and every dependent cache entry."""
    sigma = bank_constraints()
    db = scaled_bank_instance(n_accounts, error_rate=0.2, seed=seed)
    session = api.connect(db, sigma)
    for op, op_seed in ops:
        relation = db.schema.relation_names[op_seed % len(db.schema.relation_names)]
        instance = db[relation]
        if op == "insert":
            session.insert(
                relation, _random_row(instance.schema, op_seed)
            )
        elif op == "delete":
            if len(instance):
                session.delete(
                    relation, instance.tuples[op_seed % len(instance)]
                )
        elif op == "replace":
            values = sorted({v for t in instance for v in t.values})
            if len(values) >= 2:
                old = values[op_seed % len(values)]
                new = values[(op_seed // 7) % len(values)]
                instance.replace_value(old, new)
        elif op == "check":
            assert report_key(session.check()) == report_key(
                check_database_naive(db, sigma)
            )
        elif op == "count":
            oracle = check_database_naive(db, sigma)
            summary = session.count()
            assert summary.total == oracle.total
            assert summary.by_constraint() == oracle.by_constraint()
        else:
            assert session.is_clean() == check_database_naive(db, sigma).is_clean


# -- the patch path: small writes patch cached entries ------------------------


def _patch_sigma():
    """Σ_bank plus constraints shaped for the patch path: multi-member CFD
    groups (branch-keyed), a pattern-constant CFD, and CINDs with an
    empty embedded key whose witness flips with one ``interest`` row."""
    from repro.core.cfd import CFD
    from repro.core.cind import CIND
    from repro.relational.values import WILDCARD as _

    sigma = bank_constraints()
    schema = sigma.schema
    saving = schema.relation("saving")
    checking = schema.relation("checking")
    interest = schema.relation("interest")
    sigma.add_cfd(CFD(saving, ("ab",), ("cp",), [((_,), (_,))], name="grp"))
    sigma.add_cfd(CFD(
        checking, ("ab",), ("cn",), [(("NYC",), (_,)), ((_,), ("a",))],
        name="grp_const",
    ))
    for relation, account_type in ((saving, "saving"), (checking, "checking")):
        sigma.add_cind(CIND(
            relation, (), ("ab",), interest, (), ("ab", "at"),
            [(("NYC",), ("NYC", account_type))],
            name=f"empty_x_{account_type}",
        ))
    return sigma


#: (kind, seed) steps of the patch-path property test.
PATCH_STEPS = st.lists(
    st.tuples(
        st.sampled_from([
            "delete", "delete_first", "reinsert", "insert", "batch",
            "big_batch", "replace",
        ]),
        st.integers(min_value=0, max_value=10 ** 9),
    ),
    min_size=1,
    max_size=10,
)


def _fresh_answers(db, sigma):
    with api.connect(db.copy(), sigma) as fresh:
        return report_key(fresh.check()), fresh.count(), fresh.is_clean()


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n_accounts=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
    steps=PATCH_STEPS,
)
def test_patched_sessions_match_fresh_sessions(n_accounts, seed, steps):
    """Long-lived memory, incremental and ``workers=2`` sessions answer
    exactly like a fresh session after every write — reports compared
    order-sensitively — whether the write was patched into the scan
    cache or forced a re-scan (``replace_value``, batches longer than
    the mutation log)."""
    from repro.api.parallel import fork_available
    from repro.relational.instance import MUTATION_LOG_SIZE

    sigma = _patch_sigma()
    reference = scaled_bank_instance(n_accounts, error_rate=0.2, seed=seed)
    configs = {"memory": {}, "incremental": {"backend": "incremental"}}
    if fork_available():
        configs["workers=2"] = {"workers": 2}
    sessions = {
        name: api.connect(reference.copy(), sigma, **options)
        for name, options in configs.items()
    }
    deleted: list[tuple[str, Tuple]] = []
    names = list(reference.schema.relation_names)
    try:
        for session in sessions.values():
            session.check()
        for kind, step_seed in steps:
            relation = names[step_seed % len(names)]
            instance = reference[relation]
            inserts, deletes = [], []
            if kind in ("delete", "delete_first") and len(instance):
                # delete_first takes a group's first member; deleting an
                # interest row or a saving row drops a witness key's last
                # supporter.
                index = 0 if kind == "delete_first" else step_seed % len(instance)
                victim = instance.tuples[index]
                deletes.append((relation, victim.values))
                deleted.append((relation, victim))
            elif kind == "reinsert" and deleted:
                relation, victim = deleted.pop()
                inserts.append((relation, victim.values))
            elif kind == "insert":
                inserts.append(
                    (relation, _random_row(instance.schema, step_seed))
                )
            elif kind == "batch":
                tuples = instance.tuples
                deletes += [
                    (relation, t.values) for t in tuples[step_seed % 3::4]
                ]
                inserts += [
                    (relation, _random_row(instance.schema, step_seed + i))
                    for i in range(3)
                ]
                inserts += deletes[:1]  # a delete + re-insert in one batch
            elif kind == "big_batch":
                inserts += [
                    (relation, _random_row(instance.schema, step_seed + i)
                     | {instance.schema.attribute_names[0]: f"bulk{i}"})
                    for i in range(MUTATION_LOG_SIZE + 2)
                ]
            elif kind == "replace":
                values = sorted({v for t in instance for v in t.values})
                if len(values) >= 2:
                    old = values[step_seed % len(values)]
                    new = values[(step_seed // 7) % len(values)]
                    instance.replace_value(old, new)
                    # The incremental checker does not model replace_value.
                    incremental = sessions.pop("incremental", None)
                    if incremental is not None:
                        incremental.close()
                    for session in sessions.values():
                        session.db[relation].replace_value(old, new)
            if inserts or deletes:
                for rel, row in deletes:
                    reference[rel].discard(Tuple(reference[rel].schema, row))
                for rel, row in inserts:
                    reference[rel].add(row)
                for session in sessions.values():
                    session.apply(inserts=inserts, deletes=deletes)
            key, summary, clean = _fresh_answers(reference, sigma)
            for name, session in sessions.items():
                assert report_key(session.check()) == key, name
                got = session.count()
                assert got.by_constraint() == summary.by_constraint(), name
                assert got.total == summary.total, name
                assert session.is_clean() == clean, name
    finally:
        for session in sessions.values():
            session.close()


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_patched_session_matches_fresh_on_random_constraint_sets(data):
    """Random schemas and Σ (multi-row tableaux, empty LHS/X, self-CINDs)
    under random single-row and batch writes: a long-lived session's
    patched answers equal a fresh session's, order included."""
    from repro.core.violations import ConstraintSet

    from tests.strategies import cfds as cfd_strategy
    from tests.strategies import cinds as cind_strategy
    from tests.strategies import database_schemas, instances

    schema = data.draw(database_schemas(max_relations=2))
    relations = list(schema)
    sigma = ConstraintSet(schema)
    for __ in range(data.draw(st.integers(min_value=1, max_value=3))):
        sigma.add_cfd(data.draw(cfd_strategy(data.draw(st.sampled_from(relations)))))
    for __ in range(data.draw(st.integers(min_value=1, max_value=3))):
        lhs = data.draw(st.sampled_from(relations))
        rhs = data.draw(st.sampled_from(relations))
        sigma.add_cind(data.draw(cind_strategy(lhs, rhs)))
    db = data.draw(instances(schema, max_tuples=10))
    pool = data.draw(instances(schema, max_tuples=8))
    reference = db.copy()
    session = api.connect(db, sigma)
    session.check()
    steps = data.draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, 10 ** 6), st.integers(1, 3)),
        min_size=1, max_size=8,
    ))
    for insert, pick, size in steps:
        ops = []
        for k in range(size):
            relation = relations[(pick + k) % len(relations)].name
            source = pool if insert else reference
            tuples = source[relation].tuples
            if tuples:
                ops.append((relation, tuples[(pick + k) % len(tuples)]))
        batch = {"inserts" if insert else "deletes": ops}
        session.apply(**batch)
        for relation, t in ops:
            if insert:
                reference[relation].add(t)
            else:
                reference[relation].discard(t)
        key, summary, clean = _fresh_answers(reference, sigma)
        assert report_key(session.check()) == key
        assert session.count().by_constraint() == summary.by_constraint()
        assert session.is_clean() == clean
    session.close()


class TestPatchPath:
    """Unit behaviour of patched lookups and their counter."""

    def test_one_row_write_patches_instead_of_missing(self):
        db = scaled_bank_instance(40, error_rate=0.2, seed=5)
        sigma = _patch_sigma()
        session = api.connect(db, sigma)
        session.check()
        cache = session.backend.cache
        misses, hits = cache.misses, cache.hits
        t = db["saving"].tuples[0]
        session.apply(deletes=[("saving", t)])
        session.check()
        session.apply(inserts=[("saving", t)])
        report = session.check()
        assert cache.misses == misses  # no scan unit re-scanned
        assert cache.patches > 0
        assert cache.hits > hits  # units over untouched relations
        assert report_key(report) == _fresh_answers(db, sigma)[0]
        assert f"{cache.patches} patch(es)" in repr(cache)

    def test_replace_value_forces_a_rescan(self):
        db = scaled_bank_instance(20, error_rate=0.2, seed=5)
        sigma = _patch_sigma()
        session = api.connect(db, sigma)
        session.check()
        cache = session.backend.cache
        misses = cache.misses
        db["saving"].replace_value("NYC", "EDI")
        assert report_key(session.check()) == _fresh_answers(db, sigma)[0]
        assert cache.misses > misses

    def test_delta_longer_than_the_log_forces_a_rescan(self):
        from repro.relational.instance import MUTATION_LOG_SIZE

        db = scaled_bank_instance(20, error_rate=0.2, seed=5)
        session = api.connect(db, bank_constraints())
        session.check()
        cache = session.backend.cache
        patches, misses = cache.patches, cache.misses
        session.apply(inserts=[
            ("interest", ("b%d" % i, "UK", "saving", "1%"))
            for i in range(MUTATION_LOG_SIZE + 1)
        ])
        assert report_key(session.check()) == _fresh_answers(
            db, bank_constraints()
        )[0]
        assert cache.misses > misses
        assert cache.patches == patches

    def test_cind_delta_past_max_patch_rows_forces_a_rescan(self, monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "MAX_PATCH_ROWS", 1)
        db = scaled_bank_instance(20, error_rate=0.2, seed=5)
        sigma = _patch_sigma()
        session = api.connect(db, sigma)
        session.check()
        cache = session.backend.cache
        patches, misses = cache.patches, cache.misses
        written = list(db["saving"].tuples[:2])
        session.apply(deletes=[("saving", t) for t in written])
        session.apply(inserts=[("saving", t) for t in written])
        report = session.check()
        assert cache.misses > misses  # CIND scans re-testing 2+ tuples
        assert cache.patches > patches  # CFD groups and witness sets
        assert report_key(report) == _fresh_answers(db, sigma)[0]

    def test_views_follow_writes_without_a_transpose(self):
        inst = RelationInstance(
            RelationSchema("R", ["A", "B"]),
            [("1", "x"), ("2", "y"), ("3", "x")],
        )
        before = inst.columns()
        inst.discard(Tuple(inst.schema, ("1", "x")))
        inst.add(("1", "x"))
        assert inst.changes_since(inst.version - 2) is not None
        assert inst.columns() == (("2", "3", "1"), ("y", "x", "x"))
        assert inst.rows() == list(inst.tuples)
        assert before == (("1", "2", "3"), ("x", "y", "x"))  # not mutated
        assert inst.seq_of(inst.rows()[-1]) > inst.seq_of(inst.rows()[0])
        assert inst.matching((1,), {("x",)}) == {
            ("x",): [Tuple(inst.schema, ("3", "x")), Tuple(inst.schema, ("1", "x"))]
        }
