"""Tests for the data-cleaning layer (detection + repair)."""

import random

import pytest

from repro.api import connect
from repro.cleaning.detect import compare_with_traditional
from repro.cleaning.repair import repair
from repro.core.violations import ConstraintSet, check_database
from repro.datasets.bank import bank_constraints, scaled_bank_instance


class TestDetection:
    def test_bank_detection(self, bank):
        result = connect(bank.db, bank.constraints).detect()
        assert not result.is_clean
        assert result.report.total == 2
        # t10 and t12 are the dirty tuples of the paper's story.
        dirty_relations = {rel for (rel, __t) in result.dirty_tuples}
        assert dirty_relations == {"checking", "interest"}

    def test_dirty_tuple_attribution(self, bank):
        result = connect(bank.db, bank.constraints).detect()
        names = sorted(
            n for names in result.dirty_tuples.values() for n in names
        )
        assert names == ["phi3", "psi6"]

    def test_summary_readable(self, bank):
        text = connect(bank.db, bank.constraints).detect().summary()
        assert "psi6" in text and "dirty" in text

    def test_sql_detection_agrees(self, bank):
        mem = connect(bank.db, bank.constraints).detect()
        with connect(bank.db, bank.constraints, backend="sql") as session:
            sql = session.check().by_constraint()
        assert sql == mem.report.by_constraint()

    def test_clean_database(self, bank):
        result = connect(bank.clean_db, bank.constraints).detect()
        assert result.is_clean
        assert result.dirty_count == 0

    def test_traditional_comparison(self, bank):
        # Example 1.2's punchline: the traditional FDs/INDs see nothing
        # wrong with the dirty instance; the conditional versions do.
        comparison = compare_with_traditional(bank.db, bank.constraints)
        assert comparison["traditional"]["violations"] == 0
        assert comparison["conditional"]["violations"] == 2


class TestRepair:
    def test_bank_repair_insert_policy(self, bank):
        result = repair(bank.db, bank.constraints, cind_policy="insert")
        assert result.clean
        assert check_database(result.db, bank.constraints).is_clean
        # ϕ3's single-tuple violation is repaired to the pattern constant.
        rates = {
            (t["ct"], t["at"]): t["rt"] for t in result.db["interest"]
        }
        assert rates[("UK", "checking")] == "1.5%"

    def test_bank_repair_delete_policy(self, bank):
        result = repair(bank.db, bank.constraints, cind_policy="delete")
        assert result.clean
        # The delete policy may remove t10 instead of inserting interest.
        assert check_database(result.db, bank.constraints).is_clean

    def test_original_untouched(self, bank):
        before = {t.values for t in bank.db["interest"]}
        repair(bank.db, bank.constraints)
        after = {t.values for t in bank.db["interest"]}
        assert before == after

    def test_edit_log(self, bank):
        result = repair(bank.db, bank.constraints, cind_policy="insert")
        kinds = {e.kind for e in result.edits}
        assert "modify" in kinds  # the t12 fix
        constraints = {e.constraint for e in result.edits}
        assert "phi3" in constraints

    def test_clean_input_zero_cost(self, bank):
        result = repair(bank.clean_db, bank.constraints)
        assert result.clean
        assert result.cost == 0

    def test_scaled_dirty_repair(self):
        db = scaled_bank_instance(120, error_rate=0.25, seed=17)
        sigma = bank_constraints()
        assert not check_database(db, sigma).is_clean
        result = repair(db, sigma, cind_policy="insert", max_rounds=15)
        assert result.clean, check_database(result.db, sigma).summary()
        assert result.cost > 0

    def test_pair_violation_majority_vote(self):
        from repro.core.cfd import standard_fd
        from repro.relational.instance import DatabaseInstance
        from repro.relational.schema import DatabaseSchema, RelationSchema

        # An ID column keeps the three tuples distinct under set semantics.
        r = RelationSchema("R", ["ID", "K", "V"])
        schema = DatabaseSchema([r])
        sigma = ConstraintSet(schema, cfds=[standard_fd(r, ("K",), ("V",))])
        db = DatabaseInstance(
            schema,
            {"R": [("1", "k", "good"), ("2", "k", "good2"), ("3", "k", "good2")]},
        )
        result = repair(db, sigma)
        assert result.clean
        values = {t["V"] for t in result.db["R"]}
        assert values == {"good2"}  # majority wins

    def test_bad_policy_rejected(self, bank):
        with pytest.raises(ValueError):
            repair(bank.db, bank.constraints, cind_policy="wat")


class TestRepairConvergence:
    def test_rounds_capped(self):
        # A CIND whose inserted witness re-triggers itself forever with the
        # chosen fill: R[A] ⊆ R[B] with fresh fills. Rounds must cap.
        from repro.core.cind import CIND
        from repro.relational.instance import DatabaseInstance
        from repro.relational.schema import DatabaseSchema, RelationSchema
        from repro.relational.values import WILDCARD as _

        r = RelationSchema("R", ["A", "B"])
        schema = DatabaseSchema([r])
        cind = CIND(r, ("A",), (), r, ("B",), (), [((_,), (_,))], name="loop")
        sigma = ConstraintSet(schema, cinds=[cind])
        db = DatabaseInstance(schema, {"R": [("a0", "b0")]})
        result = repair(db, sigma, cind_policy="insert", max_rounds=3)
        assert result.rounds == 3
        # Not necessarily clean — and that must be reported truthfully.
        assert result.clean == check_database(result.db, sigma).is_clean
