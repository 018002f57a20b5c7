"""The shard pipeline: merge laws, partition equivalence, honest executors.

The sharded scan pipeline rests on three algebraic claims
(:mod:`repro.engine.shards`):

* every partial-state ``merge`` is **associative** over an ordered shard
  sequence (any parenthesization of ``s0..sn`` in order agrees);
* ``WitnessState`` is fully commutative, and ``CFDGroupState`` is
  *commutative-safe* — permuting merge order may reorder keys, but the
  disagree set and every non-disagreeing key's first value (all that
  violation detection reads) are invariant;
* mapping **any** contiguous partition of a relation and merging in shard
  order yields exactly the 1-shard (serial) result.

Hypothesis owns those laws here; the end-to-end guarantee — a sharded
parallel ``check()`` is bit-identical to serial, including list order —
is covered by the ``BackendContract`` registration in
``test_conformance.py`` plus the forced-shard cross-checks below. The
executor-honesty tests pin ``Session.effective_executor`` and the serial
fallback on platforms without ``fork``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.datasets.bank import bank_constraints, scaled_bank_instance
from repro.engine import plan_detection
from repro.engine.executor import cfd_group_hits, cind_scan_hits, witness_sets
import repro.engine.shards as shards_module
from repro.engine.shards import (
    MIN_SHARD_ROWS,
    CFDGroupState,
    CINDScanState,
    ShardSpec,
    WitnessState,
    cfd_finalize,
    cfd_map_shard,
    cind_finalize,
    cind_map_shard,
    make_shards,
    merge_cfd_states,
    merge_cind_states,
    merge_witness_states,
    plan_shard_ranges,
    resolve_shard_count,
    shard_key_fn,
    witness_map_shard,
)

from tests.conformance import report_key


# -- shard geometry ------------------------------------------------------------


class TestShardGeometry:
    def test_ranges_cover_contiguously(self):
        for n in (0, 1, 2, 7, 100):
            for count in (1, 2, 3, 8):
                ranges = plan_shard_ranges(n, count)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n
                for (__, stop), (start, __s) in zip(ranges, ranges[1:]):
                    assert stop == start
                # Balanced: sizes differ by at most one row.
                sizes = [stop - start for start, stop in ranges]
                assert max(sizes) - min(sizes) <= 1

    def test_never_more_shards_than_rows(self):
        assert len(plan_shard_ranges(3, 8)) == 3
        assert plan_shard_ranges(0, 4) == [(0, 0)]

    def test_min_shard_rows_keeps_small_relations_single_shard(self):
        floor = MIN_SHARD_ROWS
        assert resolve_shard_count(floor - 1, workers=4) == 1
        assert resolve_shard_count(4 * floor, workers=4) == 4
        assert resolve_shard_count(2 * floor + floor // 2, workers=4) == 2

    def test_explicit_shards_win(self):
        assert resolve_shard_count(100, 2, shards=5) == 5
        assert resolve_shard_count(3, 2, shards=5) == 3  # capped at rows

    def test_make_shards_specs(self):
        specs = make_shards("R", 3 * MIN_SHARD_ROWS, workers=3)
        assert [s.index for s in specs] == [0, 1, 2]
        assert all(s.count == 3 and s.relation == "R" for s in specs)
        assert specs[0].whole is False
        [whole] = make_shards("R", 10, workers=1)
        assert whole.whole and whole.rows == 10

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            ShardSpec("R", 5, 3)


# -- merge laws (Hypothesis) ---------------------------------------------------

#: Small value alphabet so shards genuinely collide on group keys.
values = st.integers(min_value=0, max_value=3)
rows2 = st.lists(st.tuples(values, values), max_size=24)


def _split(rows, cuts):
    """Contiguous partition of *rows* at relative cut points."""
    points = sorted({min(c, len(rows)) for c in cuts})
    bounds = [0, *points, len(rows)]
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


class _Group:
    """A stand-in CFD scan group: X = column 0, one RHS variant = column 1."""

    lhs_positions = (0,)

    def rhs_variants(self):
        return [(1,), (0,)]


def _columns(rows, arity=2):
    if not rows:
        return tuple(() for __ in range(arity))
    return tuple(zip(*rows))


def _cfd_state(rows):
    cols = _columns(rows)
    return cfd_map_shard(_Group(), shard_key_fn(cols, len(rows)))


def _content(state: CFDGroupState):
    """What finalize reads: per variant, the disagree set, the first value
    of every non-disagreeing key, and the full key set."""
    out = {}
    for variant, (first, disagree) in state.variants.items():
        out[variant] = (
            frozenset(disagree),
            frozenset(first),
            {k: v for k, v in first.items() if k not in disagree},
        )
    return out


def _ordered(state: CFDGroupState):
    return {
        variant: (list(first.items()), frozenset(disagree))
        for variant, (first, disagree) in state.variants.items()
    }


@settings(max_examples=60, deadline=None)
@given(rows=rows2, cuts=st.lists(st.integers(0, 24), max_size=3))
def test_cfd_state_partition_equals_single_shard(rows, cuts):
    parts = _split(rows, cuts)
    merged = merge_cfd_states([_cfd_state(p) for p in parts])
    assert _ordered(merged) == _ordered(_cfd_state(rows))


@settings(max_examples=60, deadline=None)
@given(rows=rows2, cut1=st.integers(0, 24), cut2=st.integers(0, 24))
def test_cfd_merge_associative(rows, cut1, cut2):
    parts = _split(rows, [cut1, cut2])
    while len(parts) < 3:
        parts.append([])
    # merge() mutates in place, so each grouping gets fresh states.
    left = _cfd_state(parts[0]).merge(_cfd_state(parts[1])).merge(_cfd_state(parts[2]))
    right = _cfd_state(parts[0]).merge(
        _cfd_state(parts[1]).merge(_cfd_state(parts[2]))
    )
    assert _ordered(left) == _ordered(right)


@settings(max_examples=60, deadline=None)
@given(
    rows=rows2,
    cut1=st.integers(0, 24),
    cut2=st.integers(0, 24),
    perm=st.permutations([0, 1, 2]),
)
def test_cfd_merge_commutative_safe(rows, cut1, cut2, perm):
    """Out-of-order merges may reorder keys but never change what
    violation detection reads: disagreements and agreed first values."""
    parts = _split(rows, [cut1, cut2])
    while len(parts) < 3:
        parts.append([])
    in_order = merge_cfd_states([_cfd_state(p) for p in parts])
    shuffled = merge_cfd_states([_cfd_state(parts[i]) for i in perm])
    assert _content(in_order) == _content(shuffled)


witness_sets_strategy = st.lists(
    st.frozensets(st.tuples(values), max_size=6), min_size=2, max_size=2
)


@settings(max_examples=60, deadline=None)
@given(a=witness_sets_strategy, b=witness_sets_strategy, c=witness_sets_strategy)
def test_witness_merge_associative_and_commutative(a, b, c):
    def state(sets):
        return WitnessState([set(s) for s in sets])

    left = state(a).merge(state(b)).merge(state(c))
    right = state(a).merge(state(b).merge(state(c)))
    assert left.sets == right.sets
    for perm in ((b, a, c), (c, b, a), (b, c, a)):
        shuffled = merge_witness_states([state(s) for s in perm])
        assert shuffled.sets == left.sets


@settings(max_examples=40, deadline=None)
@given(
    buckets=st.lists(
        st.lists(st.lists(values, max_size=4), min_size=2, max_size=2),
        min_size=3,
        max_size=3,
    )
)
def test_cind_merge_associative(buckets):
    def state(b):
        return CINDScanState([list(x) for x in b])

    a, b, c = buckets
    left = merge_cind_states([state(a), state(b)]).merge(state(c))
    right = merge_cind_states([state(a), merge_cind_states([state(b), state(c)])])
    assert left.buckets == right.buckets
    # And the flat partition equals the in-order concatenation.
    assert left.buckets == [x + y + z for x, y, z in zip(a, b, c)]


def test_cind_merge_copies_aliased_buckets():
    """Tasks sharing a signature alias one hit list inside a shard state;
    the merge must not let an extend on one bucket leak into the other."""
    shared = [1, 2]
    merged = merge_cind_states(
        [CINDScanState([shared, shared]), CINDScanState([[3], [3]])]
    )
    assert merged.buckets == [[1, 2, 3], [1, 2, 3]]
    assert shared == [1, 2]  # the input state was not mutated


# -- partition equivalence on the real engine ---------------------------------


@pytest.fixture(scope="module")
def dirty_bank():
    db = scaled_bank_instance(80, error_rate=0.2, seed=13)
    plan = plan_detection(bank_constraints())
    return db, plan


def _shard_states(instance, mapper, cuts):
    columns = instance.columns()
    n = len(instance)
    points = sorted({min(c, n) for c in cuts})
    bounds = [0, *points, n]
    states = []
    for start, stop in zip(bounds, bounds[1:]):
        cols = tuple(col[start:stop] for col in columns)
        states.append(mapper(cols, start, stop))
    return states


@settings(max_examples=25, deadline=None)
@given(cuts=st.lists(st.integers(0, 200), max_size=4))
def test_cfd_partition_matches_serial_hits(dirty_bank, cuts):
    db, plan = dirty_bank
    for group in plan.cfd_groups:
        instance = db[group.relation]
        serial = cfd_group_hits(group, instance)
        states = _shard_states(
            instance,
            lambda cols, a, b: cfd_map_shard(group, shard_key_fn(cols, b - a)),
            cuts,
        )
        assert cfd_finalize(group, merge_cfd_states(states)) == serial


@settings(max_examples=25, deadline=None)
@given(cuts=st.lists(st.integers(0, 200), max_size=4))
def test_witness_partition_matches_serial_sets(dirty_bank, cuts):
    db, plan = dirty_bank
    for relation, specs in plan.witness_specs.items():
        instance = db[relation]
        serial = witness_sets(instance, specs)
        states = _shard_states(
            instance,
            lambda cols, a, b: witness_map_shard(
                specs, cols, shard_key_fn(cols, b - a)
            ),
            cuts,
        )
        merged = merge_witness_states(states)
        assert merged.as_dict(specs) == serial


@settings(max_examples=25, deadline=None)
@given(cuts=st.lists(st.integers(0, 200), max_size=4))
def test_cind_partition_matches_serial_hits(dirty_bank, cuts):
    db, plan = dirty_bank
    witnesses = {}
    for relation, specs in plan.witness_specs.items():
        witnesses.update(witness_sets(db[relation], specs))
    for relation, tasks in plan.cind_scans.items():
        instance = db[relation]
        serial = list(cind_scan_hits(tasks, instance, witnesses))
        rows = instance.rows()
        states = _shard_states(
            instance,
            lambda cols, a, b: cind_map_shard(
                tasks, cols, rows[a:b], witnesses, shard_key_fn(cols, b - a)
            ),
            cuts,
        )
        merged = merge_cind_states(states)
        assert list(cind_finalize(tasks, merged)) == serial


# -- end-to-end: forced shards through the task-graph scheduler ---------------


class TestShardedDispatch:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_forced_shards_bit_identical(self, shards):
        db = scaled_bank_instance(120, error_rate=0.1, seed=3)
        sigma = bank_constraints()
        serial = api.connect(db, sigma).check()
        session = api.connect(db, sigma, workers=2, shards=shards)
        assert report_key(session.check()) == report_key(serial)
        assert session.count().by_constraint() == serial.by_constraint()
        # Warm re-check: the cache stores merged group-level results, so
        # a second call replays without dispatching anything.
        hits_before = session.backend.cache.hits
        assert report_key(session.check()) == report_key(serial)
        assert session.backend.cache.hits > hits_before

    def test_auto_sharding_respects_min_shard_rows(self, monkeypatch):
        db = scaled_bank_instance(60, error_rate=0.1, seed=9)
        sigma = bank_constraints()
        serial = api.connect(db, sigma).check()
        # Every relation under the floor: scan-group dispatch only.
        assert all(len(db[r]) < MIN_SHARD_ROWS for r in db.relations())
        coarse = api.connect(db, sigma, workers=2)
        assert report_key(coarse.check()) == report_key(serial)
        # A floor of one row: every unit splits into `workers` shards.
        monkeypatch.setattr(shards_module, "MIN_SHARD_ROWS", 1)
        assert len(make_shards("R", 60, workers=2)) == 2
        fine = api.connect(db, sigma, workers=2)
        assert report_key(fine.check()) == report_key(serial)

    def test_mutation_then_sharded_recheck(self, bank):
        db = bank.clean_db.copy()
        session = api.connect(db, bank.constraints, workers=2, shards=2)
        assert session.check().is_clean
        session.insert(
            "interest",
            {"ab": "GLA", "ct": "UK", "at": "checking", "rt": "9.9%"},
        )
        oracle = api.connect(db, bank.constraints).check()
        assert not oracle.is_clean
        assert report_key(session.check()) == report_key(oracle)


# -- executor honesty ----------------------------------------------------------


class TestEffectiveExecutor:
    def test_forkless_platform_runs_serial_engine(self, bank, monkeypatch):
        """Without ``fork``, ``workers=2`` on ``memory`` runs the serial
        engine: no pool, and the serial report, list order included."""
        import repro.api.backends as backends

        monkeypatch.setattr(backends, "fork_available", lambda: False)
        serial = api.connect(bank.db, bank.constraints).check()
        session = api.connect(bank.db, bank.constraints, workers=2)
        assert session.effective_executor is None
        assert session.backend._pool is None
        assert report_key(session.check()) == report_key(serial)
        assert session.count().by_constraint() == serial.by_constraint()

    def test_auto_downgrade_is_silent(self, bank, monkeypatch):
        import repro.api.backends as backends

        monkeypatch.setattr(backends, "fork_available", lambda: False)
        with warnings_as_errors():
            session = api.connect(bank.db, bank.constraints, workers=2)
            session.check()
        assert session.effective_executor is None

    def test_serial_sessions_report_none(self, bank):
        assert api.connect(bank.db, bank.constraints).effective_executor is None
        assert (
            api.connect(
                bank.db, bank.constraints, backend="naive"
            ).effective_executor
            is None
        )

    @pytest.mark.skipif(
        "fork" not in __import__("multiprocessing").get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_process_kept_when_fork_available(self, bank):
        session = api.connect(bank.db, bank.constraints, workers=2)
        assert session.effective_executor == "process"
        session.close()


class warnings_as_errors:
    def __enter__(self):
        import warnings

        self._ctx = warnings.catch_warnings()
        self._ctx.__enter__()
        warnings.simplefilter("error", RuntimeWarning)
        return self

    def __exit__(self, *exc_info):
        return self._ctx.__exit__(*exc_info)
