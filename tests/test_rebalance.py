"""Online shard rebalancing: plans, topology changes, and the storm.

Three layers:

* **planner** — :func:`~repro.shard.rebalance.plan_rebalance` is a
  pure function of the facade's gauges: it levels skewed fleets to
  the mean, honours the tolerance band and ``max_moves``, weights by
  scatter-latency EWMAs when asked, and never targets retired shards;
* **topology** — ``split_shard`` / ``merge_shard`` / ``move_records``
  preserve the single-table facade contract bit-for-bit (ids,
  iteration order, lookups), route around retired shards, emit
  ordinary stamped deltas (no new invalidation machinery) and feed
  the ``repro_rebalance_moves_total`` counter;
* **the storm** (the PR's acceptance bar) — a seeded random interleave
  of mutations, splits, merges and rebalances, answered mid-flight,
  stays bit-identical to an unsharded oracle receiving the same
  mutations, and never resurrects a deleted record from a stale cache.
"""

from __future__ import annotations

import random

import pytest

from repro.datagen.questions import make_generator
from repro.db.table import InsertDelta, RemoveDelta, Table
from repro.obs import get_default_registry
from repro.shard import ModuloPartitioner, ShardedTable, plan_rebalance
from repro.shard.rebalance import RebalancePlan, ShardMove
from repro.system import build_system

from tests.conftest import SMALL_CAR_ROWS, small_car_schema

SYSTEM_SCALE = dict(
    ads_per_domain=100,
    sessions_per_domain=100,
    corpus_documents=80,
    train_classifier=False,
)


class _PinnedPartitioner:
    """Routes every record to one shard: maximal skew on demand."""

    def __init__(self, shard: int = 0) -> None:
        self.shard = shard

    def shard_of(self, record_id: int, shard_count: int) -> int:
        return self.shard % shard_count


def _fill(table: ShardedTable, rows: int) -> None:
    table.insert_many(
        dict(SMALL_CAR_ROWS[i % len(SMALL_CAR_ROWS)]) for i in range(rows)
    )


# ----------------------------------------------------------------------
# the planner
# ----------------------------------------------------------------------
class TestPlanner:
    def test_balanced_fleet_plans_nothing(self):
        table = ShardedTable(small_car_schema(), 4, ModuloPartitioner())
        _fill(table, 40)
        plan = plan_rebalance(table)
        assert isinstance(plan, RebalancePlan)
        assert not plan and plan.move_count == 0
        assert plan.sizes_before == (10, 10, 10, 10)
        table.close()

    def test_skewed_fleet_levels_to_the_mean(self):
        table = ShardedTable(small_car_schema(), 4, _PinnedPartitioner(0))
        _fill(table, 40)
        plan = plan_rebalance(table)
        assert plan.sizes_before == (40, 0, 0, 0)
        assert plan.target_size == pytest.approx(10.0)
        # Donors shed their highest ids first, deterministically.
        moved_ids = [move.record_id for move in plan.moves]
        assert moved_ids == sorted(moved_ids, reverse=True)
        assert all(move.source == 0 for move in plan.moves)
        assert set(plan.moves_by_target()) <= {1, 2, 3}

        moved = table.rebalance(plan)
        assert moved == plan.move_count
        sizes = table.shard_sizes()
        assert max(sizes) - min(sizes) <= 2, sizes
        assert len(table) == 40

    def test_tolerance_band_suppresses_small_imbalance(self):
        table = ShardedTable(small_car_schema(), 2, ModuloPartitioner())
        _fill(table, 20)
        table.move_records([1], 0)  # sizes 11 / 9: inside a 30% band
        assert not plan_rebalance(table, tolerance=0.3)
        assert plan_rebalance(table, tolerance=0.0)
        table.close()

    def test_max_moves_truncates_the_plan(self):
        table = ShardedTable(small_car_schema(), 4, _PinnedPartitioner(0))
        _fill(table, 40)
        plan = plan_rebalance(table, max_moves=5)
        assert plan.move_count == 5
        table.close()

    def test_latency_weighting_drains_the_slow_shard(self):
        table = ShardedTable(small_car_schema(), 2, ModuloPartitioner())
        _fill(table, 20)
        table.observe_scatter(0, 0.2)
        table.observe_scatter(1, 0.05)
        assert not plan_rebalance(table)  # row counts are level
        plan = plan_rebalance(table, use_latency=True)
        assert plan and all(move.source == 0 for move in plan.moves)
        assert all(move.target == 1 for move in plan.moves)
        table.close()

    def test_retired_shards_never_receive(self):
        table = ShardedTable(small_car_schema(), 3, _PinnedPartitioner(0))
        _fill(table, 30)
        table.merge_shard(1, 2)
        plan = plan_rebalance(table)
        assert plan
        assert all(move.target != 1 for move in plan.moves)
        table.rebalance(plan)
        assert len(table.shards[1]) == 0
        table.close()


# ----------------------------------------------------------------------
# topology changes through the facade
# ----------------------------------------------------------------------
@pytest.fixture()
def oracle_pair():
    oracle = Table(small_car_schema())
    sharded = ShardedTable(small_car_schema(), 3, ModuloPartitioner())
    for row in SMALL_CAR_ROWS * 4:
        oracle.insert(dict(row))
        sharded.insert(dict(row))
    return oracle, sharded


def _facade_state(table):
    return [(record.record_id, dict(record)) for record in table]


class TestTopology:
    def test_split_preserves_the_facade_contract(self, oracle_pair):
        oracle, sharded = oracle_pair
        before = _facade_state(sharded)
        new_shard = sharded.split_shard(0)
        assert new_shard == 3 and sharded.shard_count == 4
        assert _facade_state(sharded) == _facade_state(oracle) == before
        assert len(sharded.shards[new_shard]) > 0
        # Routed point lookups still find every moved record.
        for record_id, values in before:
            assert dict(sharded.get(record_id)) == values
        assert sharded.lookup_equal("color", "blue") == oracle.lookup_equal(
            "color", "blue"
        )

    def test_merge_retires_source_and_redirects_inserts(self, oracle_pair):
        _oracle, sharded = oracle_pair
        moved = sharded.merge_shard(0, 1)
        assert moved > 0
        assert sharded.retired_shards == frozenset({0})
        assert len(sharded.shards[0]) == 0
        # A record whose base placement is the retired shard follows
        # the redirect; the retired shard never sees another insert.
        inserts = [
            sharded.insert(dict(SMALL_CAR_ROWS[0])) for _ in range(6)
        ]
        assert len(sharded.shards[0]) == 0
        assert all(sharded.get(record.record_id) for record in inserts)
        with pytest.raises(ValueError):
            sharded.move_records([inserts[0].record_id], 0)

    def test_add_shard_changes_nothing_until_rebalance(self, oracle_pair):
        oracle, sharded = oracle_pair
        before = _facade_state(sharded)
        new_shard = sharded.add_shard()
        assert len(sharded.shards[new_shard]) == 0
        # Placement is frozen: new inserts do not land on the new shard
        # until a rebalance moves records there.
        record = sharded.insert(dict(SMALL_CAR_ROWS[1]))
        assert sharded.shard_of(record.record_id) != new_shard
        oracle.insert(dict(SMALL_CAR_ROWS[1]))
        sharded.rebalance(tolerance=0.0)
        assert len(sharded.shards[new_shard]) > 0
        assert _facade_state(sharded) == _facade_state(oracle)
        assert before == _facade_state(oracle)[: len(before)]

    def test_moves_emit_ordinary_stamped_deltas(self, oracle_pair):
        _oracle, sharded = oracle_pair
        events = []
        sharded.add_listener(events.append)
        record_id = next(iter(sharded)).record_id
        source = sharded.shard_of(record_id)
        target = (source + 1) % 3
        assert sharded.move_records([record_id], target) == 1
        kinds = [type(event) for event in events]
        assert kinds == [RemoveDelta, InsertDelta]
        assert events[0].shard_index == source
        assert events[1].shard_index == target
        assert events[1].record_id == record_id
        assert sharded.shard_of(record_id) == target

    def test_move_counter_feeds_the_registry(self, oracle_pair):
        _oracle, sharded = oracle_pair
        registry = get_default_registry()
        before = registry.counter("repro_rebalance_moves_total",
                                  table=sharded.name).value
        record_id = next(iter(sharded)).record_id
        target = (sharded.shard_of(record_id) + 1) % 3
        sharded.move_records([record_id], target)
        after = registry.counter("repro_rebalance_moves_total",
                                 table=sharded.name).value
        assert after == before + 1


# ----------------------------------------------------------------------
# the rebalancing storm (acceptance bar)
# ----------------------------------------------------------------------
def test_randomized_rebalancing_storm_matches_oracle():
    """A seeded interleave of mutations, splits, merges and rebalances:
    answers stay bit-identical to an unsharded oracle fed the same
    mutations, and deleted records never resurrect from stale caches."""
    rng = random.Random(20260808)
    single = build_system(["cars"], **SYSTEM_SCALE)
    sharded = build_system(["cars"], shards=3, **SYSTEM_SCALE)
    oracle_table = single.database.table("car_ads")
    storm_table = sharded.database.table("car_ads")

    generator = make_generator(single.domain("cars").dataset, seed=61)
    questions = [generator.generate().text for _ in range(10)]

    def signature(build, question):
        result = build.cqads.answer(question, domain="cars")
        return [
            (a.record.record_id, a.exact, a.score, a.similarity_kind)
            for a in result.partial_answers
        ]

    def both_tables():
        return (oracle_table, storm_table)

    deleted: set[int] = set()
    live_ids = lambda: [r.record_id for r in storm_table]  # noqa: E731

    def op_update_numeric():
        record_id = rng.choice(live_ids())
        bump = float(rng.randint(1, 500))
        for table in both_tables():
            price = table.get(record_id).get("price") or 0
            table.update(record_id, {"price": float(price) + bump})

    def op_update_categorical():
        record_id = rng.choice(live_ids())
        color = rng.choice(["blue", "red", "green", "black"])
        for table in both_tables():
            table.update(record_id, {"color": color})

    def op_insert():
        donor = dict(storm_table.get(rng.choice(live_ids())))
        inserted = storm_table.insert(dict(donor))
        oracle_table.insert(dict(donor), record_id=inserted.record_id)

    def op_delete():
        record_id = rng.choice(live_ids())
        for table in both_tables():
            table.delete(record_id)
        deleted.add(record_id)

    def op_split():
        if storm_table.shard_count >= 6:
            return
        live = [
            index
            for index in range(storm_table.shard_count)
            if index not in storm_table.retired_shards
            and len(storm_table.shards[index]) >= 2
        ]
        if live:
            storm_table.split_shard(rng.choice(live))

    def op_merge():
        live = [
            index
            for index in range(storm_table.shard_count)
            if index not in storm_table.retired_shards
        ]
        if len(live) >= 3:  # always keep two live shards
            source, target = rng.sample(live, 2)
            storm_table.merge_shard(source, target)

    def op_rebalance():
        storm_table.rebalance(
            tolerance=rng.choice([0.0, 0.1]),
            use_latency=rng.random() < 0.3,
        )

    operations = [
        (op_update_numeric, 5),
        (op_update_categorical, 3),
        (op_insert, 3),
        (op_delete, 2),
        (op_split, 2),
        (op_merge, 2),
        (op_rebalance, 2),
    ]
    weighted = [op for op, weight in operations for _ in range(weight)]

    try:
        for round_index in range(12):
            for _ in range(5):
                rng.choice(weighted)()
            # The two stores themselves never drift.
            assert _facade_state(storm_table) == _facade_state(oracle_table)
            # Answers mid-storm: bit-identical, and no resurrection.
            for question in rng.sample(questions, 3):
                expected = signature(single, question)
                actual = signature(sharded, question)
                assert actual == expected, (
                    f"round {round_index} diverged on {question!r}"
                )
                assert not (
                    {record_id for record_id, *_rest in actual} & deleted
                ), f"deleted record resurrected in round {round_index}"

        live = [
            index
            for index in range(storm_table.shard_count)
            if index not in storm_table.retired_shards
        ]
        assert len(live) >= 2
        assert all(
            len(storm_table.shards[index]) == 0
            for index in storm_table.retired_shards
        )
    finally:
        sharded.close()
        single.close()
