"""Tests for the delta-driven repair engine (planner + worklist sources).

Covers the three historical ``repair.py`` bugs (each test here fails on
the pre-engine seed code), the one-invalidation-per-round batching
contract, delta/full equivalence across all five backends, and the
Hypothesis property suite: oracle-verified cleanliness, edit-log replay,
and delta-vs-full final-database agreement.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import connect
from repro.api.backends import MemoryBackend
from repro.cleaning.planner import RepairPlanner
from repro.cleaning.repair import RoundStats, repair, replay_edits
from repro.core.cfd import CFD, standard_fd
from repro.core.cind import CIND
from repro.core.violations import ConstraintSet, check_database
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.relational.domains import INTEGER
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema
from repro.relational.values import WILDCARD as _

from tests.strategies import cfds as cfd_strategy
from tests.strategies import cinds as cind_strategy
from tests.strategies import database_schemas, instances

BACKENDS = ("memory", "naive", "sql", "incremental")


def snap(db):
    """Content *and* iteration order of every relation."""
    return {name: list(inst.rows()) for name, inst in db.relations().items()}


def dirty_bank(n=120, error_rate=0.25, seed=17):
    return scaled_bank_instance(n, error_rate=error_rate, seed=seed)


@pytest.fixture()
def kv_tie_db():
    """Two-tuple group with a 1-1 majority tie on the RHS."""
    r = RelationSchema("R", ["ID", "K", "V"])
    schema = DatabaseSchema([r])
    sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
    db = DatabaseInstance(
        schema, {"R": [("1", "k", "left"), ("2", "k", "right")]}
    )
    return db, sigma


class TestRoundsReporting:
    """Bug 1: ``rounds`` must be the number of rounds that executed."""

    def test_nonpositive_round_cap_reports_zero(self):
        # The seed loop returned rounds=max_rounds (-1) with zero rounds
        # executed.
        db = dirty_bank(50, 0.3, 2)
        sigma = bank_constraints()
        result = repair(db, sigma, max_rounds=-1)
        assert result.rounds == 0
        assert not result.clean
        assert result.cost == 0
        assert result.round_stats == []

    def test_zero_round_cap_reports_zero(self):
        result = repair(dirty_bank(), bank_constraints(), max_rounds=0)
        assert result.rounds == 0 and not result.clean

    def test_fixpoint_before_cap(self):
        # bank repairs in one round; a generous cap must not be reported.
        db = dirty_bank()
        sigma = bank_constraints()
        result = repair(db, sigma, max_rounds=50)
        assert result.clean
        assert result.rounds == len(result.round_stats)
        assert 0 < result.rounds < 50

    def test_cap_reached_reports_cap(self):
        # The self-feeding CIND never converges under the default fill.
        r = RelationSchema("R", ["A", "B"])
        schema = DatabaseSchema([r])
        cind = CIND(r, ("A",), (), r, ("B",), (), [((_,), (_,))], name="loop")
        sigma = ConstraintSet(schema, cinds=[cind])
        db = DatabaseInstance(schema, {"R": [("a0", "b0")]})
        result = repair(db, sigma, cind_policy="insert", max_rounds=4)
        assert result.rounds == 4
        assert not result.clean
        assert result.clean == check_database(result.db, sigma).is_clean


class TestTieBreaking:
    """Bug 2: majority-vote ties are explicit and ``rng`` is honoured."""

    def test_tie_repairs_identically_across_runs(self, kv_tie_db):
        db, sigma = kv_tie_db
        outcomes = {
            frozenset(t["V"] for t in repair(db.copy(), sigma).db["R"])
            for __ in range(5)
        }
        assert len(outcomes) == 1

    def test_default_first_matches_scan_order(self, kv_tie_db):
        db, sigma = kv_tie_db
        result = repair(db, sigma)  # tie_break="first"
        assert {t["V"] for t in result.db["R"]} == {"left"}

    def test_lexicographic_tie_break(self, kv_tie_db):
        db, sigma = kv_tie_db
        result = repair(db, sigma, tie_break="lexicographic")
        # ("left",) < ("right",) under the repr-based key.
        assert {t["V"] for t in result.db["R"]} == {"left"}

    def test_random_tie_break_uses_rng(self, kv_tie_db):
        db, sigma = kv_tie_db
        picks = {
            tuple(
                sorted(
                    t["V"]
                    for t in repair(
                        db.copy(),
                        sigma,
                        tie_break="random",
                        rng=random.Random(seed),
                    ).db["R"]
                )
            )
            for seed in range(12)
        }
        # Across seeds both tied values get picked; per seed it's stable.
        assert len(picks) == 2
        for seed in range(3):
            a = repair(db.copy(), sigma, tie_break="random", rng=random.Random(seed))
            b = repair(db.copy(), sigma, tie_break="random", rng=random.Random(seed))
            assert snap(a.db) == snap(b.db)

    def test_bad_tie_break_rejected(self, kv_tie_db):
        db, sigma = kv_tie_db
        with pytest.raises(ValueError):
            repair(db, sigma, tie_break="wat")

    def test_planner_validates_tie_break(self):
        r = RelationSchema("R", ["A"])
        db = DatabaseInstance(DatabaseSchema([r]))
        with pytest.raises(ValueError):
            RepairPlanner(db, tie_break="nope")


class TestMergeDetection:
    """Bug 3: rewrites whose target already exists are merges."""

    def test_colliding_rewrite_recorded_as_merge(self):
        # (k, bad) rewrites to (k, good), which already exists: under set
        # semantics the group shrinks by one — a merge, not a modify.
        r = RelationSchema("R", ["K", "V"])
        schema = DatabaseSchema([r])
        sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
        db = DatabaseInstance(schema, {"R": [("k", "good"), ("k", "bad")]})
        result = repair(db, sigma)
        assert result.clean
        assert [e.kind for e in result.edits] == ["merge"]
        assert len(list(result.db["R"])) == 1

    def test_merge_differential_vs_naive_oracle(self):
        r = RelationSchema("R", ["K", "V"])
        schema = DatabaseSchema([r])
        sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
        db = DatabaseInstance(
            schema,
            {"R": [("k", "x"), ("k", "x2"), ("k", "x3"), ("j", "y")]},
        )
        result = repair(db.copy(), sigma)
        assert result.clean == check_database(result.db, sigma).is_clean
        assert result.clean
        # Replaying the log (merges included) reproduces the final state.
        assert snap(replay_edits(db, result.edits)) == snap(result.db)
        # Majority "x" absorbs the two rewritten tuples: 4 - 2 merges.
        kinds = [e.kind for e in result.edits]
        assert kinds.count("merge") == 2
        assert len(list(result.db["R"])) == 2

    def test_merge_cost_counts_what_happened(self):
        r = RelationSchema("R", ["K", "V"])
        schema = DatabaseSchema([r])
        sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
        db = DatabaseInstance(schema, {"R": [("k", "good"), ("k", "bad")]})
        result = repair(db, sigma)
        assert result.cost == 1
        assert result.edits_by_kind() == {"merge": 1}


class TestBatching:
    def test_one_invalidation_per_round(self, bank, monkeypatch):
        # bank has two violations (phi3 CFD + psi6 CIND); the seed loop
        # paid one apply each. The engine batches: one invalidation per
        # executed round, none from single-row DML.
        calls = []
        original = MemoryBackend._invalidate

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(MemoryBackend, "_invalidate", counting)
        result = repair(bank.db, bank.constraints, backend="memory")
        assert result.clean
        # Both violations were on the round-1 worklist (the CFD rewrite
        # happens to create the CIND's witness, so one edit fixes both).
        assert result.round_stats[0].worklist_size == 2
        assert len(calls) == result.rounds

    def test_round_stats_observability(self):
        db = dirty_bank(200, 0.3, 5)
        sigma = bank_constraints()
        result = repair(db, sigma, backend="incremental", mode="delta")
        assert result.backend == "incremental" and result.mode == "delta"
        assert len(result.round_stats) == result.rounds
        total_edits = 0
        for stats in result.round_stats:
            assert isinstance(stats, RoundStats)
            assert stats.worklist_size == stats.cfd_items + stats.cind_items
            assert stats.batch_deletes + stats.batch_inserts > 0
            total_edits += sum(stats.edits.values())
            # Delta sizes are measured on the checker-fed path.
            assert stats.delta_removed >= 0 and stats.delta_added >= 0
        assert total_edits == len(result.edits)

    def test_auto_mode_resolution(self):
        db = dirty_bank(60, 0.2, 3)
        sigma = bank_constraints()
        assert repair(db.copy(), sigma, backend="memory").mode == "full"
        for backend in ("naive", "sql", "incremental"):
            assert repair(db.copy(), sigma, backend=backend).mode == "delta"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            repair(dirty_bank(), bank_constraints(), mode="wat")


class TestDeltaFullEquivalence:
    def test_bank_identical_across_backends_and_modes(self):
        db = dirty_bank(300, 0.25, 9)
        sigma = bank_constraints()
        reference = repair(db.copy(), sigma, backend="memory", mode="full")
        assert reference.clean
        ref_snap = snap(reference.db)
        ref_edits = [repr(e) for e in reference.edits]
        for backend in BACKENDS:
            for mode in ("full", "delta"):
                result = repair(db.copy(), sigma, backend=backend, mode=mode)
                assert snap(result.db) == ref_snap, (backend, mode)
                assert [repr(e) for e in result.edits] == ref_edits
                assert result.rounds == reference.rounds

    def test_sqlfile_identical(self, tmp_path):
        from repro.sql.loader import create_database_file, read_database_file

        db = dirty_bank(150, 0.25, 4)
        sigma = bank_constraints()
        reference = repair(db.copy(), sigma)
        for mode in ("full", "delta"):
            result = repair(db.copy(), sigma, backend="sqlfile", mode=mode)
            assert snap(result.db) == snap(reference.db), mode
        # Path input: the source file is loaded, never mutated.
        path = tmp_path / "dirty.sqlite"
        create_database_file(path, db)
        result = repair(path, sigma, backend="sqlfile", mode="delta")
        assert snap(result.db) == snap(reference.db)
        assert snap(read_database_file(path, sigma.schema)) == snap(db)

    def test_multi_round_cind_chain(self):
        # A CIND witness insertion violates a CFD on the RHS relation, so
        # round 2 must see (only) the delta the batch introduced.
        s = RelationSchema("S", ["K", "V"])
        t = RelationSchema("T", ["K", "V"])
        schema = DatabaseSchema([s, t])
        cind = CIND(s, ("K",), (), t, ("K",), (), [((_,), (_,))], name="s_in_t")
        cfd = CFD(t, ("K",), ("V",), [(("k1",), ("right",))], name="t_kv")
        sigma = ConstraintSet(schema, cfds=[cfd], cinds=[cind])
        db = DatabaseInstance(
            schema, {"S": [("k1", "x"), ("k2", "y")], "T": [("k2", "ok")]}
        )
        reference = repair(db.copy(), sigma, backend="memory", mode="full")
        assert reference.clean and reference.rounds == 2
        for backend in BACKENDS:
            result = repair(db.copy(), sigma, backend=backend, mode="delta")
            assert snap(result.db) == snap(reference.db), backend
            assert result.rounds == 2

    @pytest.mark.parametrize("backend", ("sql", "sqlfile"))
    def test_cind_insert_fills_an_integer_attribute(self, backend):
        # The inserted witness's unconstrained INTEGER column gets the
        # planner's string fill ('repair#1'), which sqlite stores as text.
        s = RelationSchema("S", ["K"])
        t = RelationSchema("T", ["K", Attribute("N", INTEGER)])
        schema = DatabaseSchema([s, t])
        cind = CIND(s, ("K",), (), t, ("K",), (), [((_,), (_,))], name="s_in_t")
        sigma = ConstraintSet(schema, cinds=[cind])
        db = DatabaseInstance(
            schema, {"S": [("k1",), ("k2",)], "T": [("k2", 7)]}
        )
        reference = repair(db.copy(), sigma, backend="memory")
        assert reference.clean
        assert ("k1", "repair#1") in {t.values for t in reference.db["T"]}
        for mode in ("full", "delta"):
            result = repair(db.copy(), sigma, backend=backend, mode=mode)
            assert result.clean, mode
            assert snap(result.db) == snap(reference.db), mode

    def test_session_repair_routes_backend(self):
        db = dirty_bank(80, 0.25, 6)
        sigma = bank_constraints()
        with connect(db, sigma, backend="incremental") as session:
            result = session.repair()
        assert result.backend == "incremental" and result.mode == "delta"
        assert result.clean
        assert snap(result.db) == snap(repair(db.copy(), sigma).db)
        # The session's own database is untouched.
        assert snap(db) == snap(dirty_bank(80, 0.25, 6))


def _draw_sigma_and_db(data):
    schema = data.draw(database_schemas(max_relations=2))
    rels = list(schema)
    sigma = ConstraintSet(schema)
    for __ in range(data.draw(st.integers(min_value=0, max_value=2))):
        sigma.add_cfd(data.draw(cfd_strategy(data.draw(st.sampled_from(rels)))))
    for __ in range(data.draw(st.integers(min_value=0, max_value=2))):
        src = data.draw(st.sampled_from(rels))
        dst = data.draw(st.sampled_from(rels))
        sigma.add_cind(data.draw(cind_strategy(src, dst, max_rows=2)))
    db = data.draw(instances(schema, max_tuples=8))
    return sigma, db


class TestRepairProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_clean_flag_matches_naive_oracle(self, data):
        sigma, db = _draw_sigma_and_db(data)
        result = repair(db, sigma, max_rounds=6)
        assert result.clean == check_database(result.db, sigma).is_clean

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_edit_replay_reproduces_result(self, data):
        sigma, db = _draw_sigma_and_db(data)
        result = repair(db.copy(), sigma, max_rounds=6)
        assert snap(replay_edits(db, result.edits)) == snap(result.db)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_delta_and_full_agree_on_all_backends(self, data):
        sigma, db = _draw_sigma_and_db(data)
        reference = repair(db.copy(), sigma, max_rounds=5, mode="full")
        ref_snap = snap(reference.db)
        for backend in BACKENDS:
            result = repair(
                db.copy(), sigma, max_rounds=5, backend=backend, mode="delta"
            )
            assert snap(result.db) == ref_snap, backend
            assert result.clean == reference.clean
