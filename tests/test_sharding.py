"""Sharded scatter-gather execution: facade semantics and parity.

Four layers:

* **facade** — :class:`~repro.shard.table.ShardedTable` satisfies the
  single-table surface bit-for-bit (ids, iteration order, lookups,
  extremes, events, batched bulk notifications) against a plain-table
  oracle loaded with the same rows;
* **parity battery** (the PR's acceptance bar) — 100 generated
  questions per domain across all eight domains, answered through the
  full exact + N-1 relaxation + Rank_Sim path, bit-identical between
  the unsharded build and sharded builds at N in {1, 2, 4};
* **shard-aware caching** — a point mutation invalidates only the
  mutated shard's fragment-cache generation and column store; the
  answer cache still refreshes through the facade's relayed events;
* **concurrency** — scatter-gather answers survive concurrent
  mutation (consistent per-shard snapshots, no half-visible merges),
  and a shard-sized scatter issued from inside ``answer_batch``
  cannot deadlock the service pool (dedicated scatter executor).
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.api.builder import SystemBuilder
from repro.datagen.questions import make_generator
from repro.datagen.vocab import DOMAIN_NAMES
from repro.db.table import Table
from repro.errors import SchemaError
from repro.qa.sql_generation import evaluate_interpretation
from repro.shard import HashPartitioner, ModuloPartitioner, ShardedTable
from repro.system import build_system

from tests.conftest import SMALL_CAR_ROWS, small_car_schema

QUESTIONS_PER_DOMAIN = 100
PIPELINE_QUESTIONS_PER_DOMAIN = 10
SHARD_COUNTS = (1, 2, 4)

SYSTEM_SCALE = dict(
    ads_per_domain=100,
    sessions_per_domain=120,
    corpus_documents=120,
    train_classifier=False,
)


# ----------------------------------------------------------------------
# partitioners
# ----------------------------------------------------------------------
class TestPartitioners:
    def test_hash_partitioner_is_deterministic_and_total(self):
        partitioner = HashPartitioner()
        for shard_count in (1, 2, 4, 7):
            for record_id in range(1, 500):
                shard = partitioner.shard_of(record_id, shard_count)
                assert 0 <= shard < shard_count
                assert shard == partitioner.shard_of(record_id, shard_count)

    def test_hash_partitioner_spreads_sequential_ids(self):
        partitioner = HashPartitioner()
        counts = [0, 0, 0, 0]
        for record_id in range(1, 4001):
            counts[partitioner.shard_of(record_id, 4)] += 1
        # Every shard within 20% of the even split.
        assert all(800 <= count <= 1200 for count in counts), counts

    def test_modulo_partitioner_round_robins(self):
        partitioner = ModuloPartitioner()
        assert [partitioner.shard_of(i, 3) for i in range(6)] == [
            0, 1, 2, 0, 1, 2,
        ]


# ----------------------------------------------------------------------
# the facade vs a plain-table oracle
# ----------------------------------------------------------------------
@pytest.fixture()
def oracle_pair():
    """The same small rows in a plain table and a 3-shard facade."""
    plain = Table(small_car_schema())
    plain.insert_many(SMALL_CAR_ROWS)
    sharded = ShardedTable(small_car_schema(), 3)
    sharded.insert_many(SMALL_CAR_ROWS)
    return plain, sharded


class TestShardedTableFacade:
    def test_global_ids_and_iteration_order(self, oracle_pair):
        plain, sharded = oracle_pair
        assert len(sharded) == len(plain)
        assert [r.record_id for r in sharded] == [r.record_id for r in plain]
        assert sharded.all_ids() == plain.all_ids()
        assert [dict(r) for r in sharded.snapshot()] == [
            dict(r) for r in plain.snapshot()
        ]

    def test_records_actually_partition(self, oracle_pair):
        _plain, sharded = oracle_pair
        sizes = sharded.shard_sizes()
        assert sum(sizes) == len(SMALL_CAR_ROWS)
        assert sum(1 for size in sizes if size > 0) > 1
        for shard_index, shard in enumerate(sharded.shards):
            for record in shard:
                assert sharded.shard_of(record.record_id) == shard_index

    def test_lookups_match_plain_table(self, oracle_pair):
        plain, sharded = oracle_pair
        assert sharded.lookup_equal("make", "honda") == plain.lookup_equal(
            "make", "honda"
        )
        assert sharded.lookup_range(
            "price", 5000, 10000
        ) == plain.lookup_range("price", 5000, 10000)
        assert sharded.lookup_substring("color", "blu") == (
            plain.lookup_substring("color", "blu")
        )
        assert sharded.scan(lambda r: r.get("color") == "blue") == plain.scan(
            lambda r: r.get("color") == "blue"
        )

    def test_extremes_bounds_distinct(self, oracle_pair):
        plain, sharded = oracle_pair
        for maximum in (True, False):
            assert sharded.column_extreme("price", maximum) == (
                plain.column_extreme("price", maximum)
            )
        assert sharded.column_bounds("mileage") == plain.column_bounds("mileage")
        assert sharded.column_bounds("nope") is None
        assert sharded.distinct_values("make") == plain.distinct_values("make")
        with pytest.raises(SchemaError):
            sharded.column_extreme("color", True)

    def test_fetch_and_get_route_through_the_partitioner(self, oracle_pair):
        plain, sharded = oracle_pair
        wanted = [5, 3, 999, 7, 1]
        assert [r.record_id for r in sharded.fetch(wanted)] == [
            r.record_id for r in plain.fetch(wanted)
        ]
        assert sharded.get(4) is sharded.shard_for(4).get(4)
        assert sharded.get(999) is None

    def test_mutations_route_and_aggregate_epochs(self, oracle_pair):
        plain, sharded = oracle_pair
        assert sharded.epoch == plain.epoch == len(SMALL_CAR_ROWS)
        record = sharded.insert({"make": "kia", "model": "rio", "price": 4000})
        assert record.record_id == len(SMALL_CAR_ROWS) + 1
        owner = sharded.shard_for(record.record_id)
        assert owner.get(record.record_id) is record
        sharded.update(record.record_id, {"color": "green"})
        assert record["color"] == "green"
        sharded.delete(record.record_id)
        assert sharded.get(record.record_id) is None
        assert sharded.epoch == len(SMALL_CAR_ROWS) + 3

    def test_explicit_id_collision_raises(self, oracle_pair):
        _plain, sharded = oracle_pair
        with pytest.raises(SchemaError):
            sharded.insert({"make": "kia", "model": "rio"}, record_id=1)

    def test_events_relay_with_facade_table_and_aggregated_epoch(
        self, oracle_pair
    ):
        _plain, sharded = oracle_pair
        events = []
        sharded.add_listener(events.append)
        record = sharded.insert({"make": "kia", "model": "rio"})
        sharded.update(record.record_id, {"color": "gray"})
        sharded.delete(record.record_id)
        assert [e.kind for e in events] == ["insert", "update", "delete"]
        assert all(e.table is sharded for e in events)
        assert [e.epoch for e in events] == [
            len(SMALL_CAR_ROWS) + 1,
            len(SMALL_CAR_ROWS) + 2,
            len(SMALL_CAR_ROWS) + 3,
        ]
        sharded.remove_listener(events.append)

    def test_bulk_operations_notify_once(self, oracle_pair):
        _plain, sharded = oracle_pair
        events = []
        sharded.add_listener(events.append)
        inserted = sharded.insert_many(
            [{"make": "kia", "model": "rio"}, {"make": "kia", "model": "soul"}]
        )
        assert len(events) == 1 and events[0].kind == "insert"
        assert events[0].record_id == inserted[-1].record_id
        removed = sharded.remove_many([r.record_id for r in inserted])
        assert removed == 2
        assert len(events) == 2 and events[1].kind == "delete"

    def test_modulo_partitioner_is_honoured(self):
        sharded = ShardedTable(
            small_car_schema(), 2, partitioner=ModuloPartitioner()
        )
        sharded.insert_many(SMALL_CAR_ROWS)
        assert [len(shard) for shard in sharded.shards] == [4, 4]
        assert all(r.record_id % 2 == 0 for r in sharded.shards[0])

    def test_shard_count_validation(self):
        with pytest.raises(ValueError):
            ShardedTable(small_car_schema(), 0)


class TestScatterExecutor:
    def test_inline_when_single_worker(self):
        sharded = ShardedTable(small_car_schema(), 3, scatter_workers=1)
        caller = threading.current_thread().name
        names = sharded.map_shards(
            lambda _i, _s: threading.current_thread().name
        )
        assert names == [caller] * 3
        assert sharded._executor is None

    def test_dedicated_threads_when_enabled(self):
        with ShardedTable(small_car_schema(), 3, scatter_workers=3) as sharded:
            names = sharded.map_shards(
                lambda _i, _s: threading.current_thread().name
            )
            assert len(names) == 3
            assert all(name.startswith("shard-car_ads") for name in names)

    def test_close_is_idempotent_and_falls_back_inline(self):
        sharded = ShardedTable(small_car_schema(), 2, scatter_workers=2)
        sharded.map_shards(lambda i, _s: i)
        sharded.close()
        sharded.close()
        assert sharded.map_shards(lambda i, _s: i) == [0, 1]

    def test_built_system_close_releases_scatter_executors(self):
        with build_system(
            ["cars"],
            ads_per_domain=60,
            sessions_per_domain=80,
            corpus_documents=80,
            shards=2,
            scatter_workers=2,
        ) as system:
            table = system.database.table("car_ads")
            table.map_shards(lambda i, _s: i)
            assert table._executor is not None
        assert table._executor is None
        # Still answerable after close — scatters just run inline.
        service = AnswerService(system.cqads)
        result = service.answer(
            AnswerRequest(question="honda", domain="cars")
        )
        assert result.domain == "cars"


# ----------------------------------------------------------------------
# the parity battery (acceptance bar)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sharded_builds():
    """The same eight-domain recipe at N in {None, 1, 2, 4} shards."""
    builds = {None: build_system(**SYSTEM_SCALE)}
    for shard_count in SHARD_COUNTS:
        builds[shard_count] = build_system(shards=shard_count, **SYSTEM_SCALE)
    return builds


def _answer_signature(answers):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind, dict(a.record))
        for a in answers
    ]


def _result_signature(result):
    return (
        result.domain,
        result.sql,
        result.message,
        _answer_signature(result.answers),
        _answer_signature(result.ranked_pool),
    )


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_scatter_gather_parity_per_domain(sharded_builds, domain):
    """100 questions/domain: exact + relaxed + ranked answers identical
    between the unsharded build and every sharded build."""
    base = sharded_builds[None]
    # Determinism check: every build generated the same records.
    base_rows = [
        (r.record_id, dict(r)) for r in base.database.table(
            base.cqads.domain(domain).schema.table_name
        )
    ]
    for shard_count in SHARD_COUNTS:
        build = sharded_builds[shard_count]
        table = build.database.table(
            build.cqads.domain(domain).schema.table_name
        )
        assert isinstance(table, ShardedTable)
        assert table.shard_count == shard_count
        assert [(r.record_id, dict(r)) for r in table] == base_rows

    generator = make_generator(base.domain(domain).dataset, seed=4021)
    compared = 0
    relaxed = 0
    for _ in range(QUESTIONS_PER_DOMAIN):
        question = generator.generate()
        interpretation = question.interpretation
        reference = None
        for shard_count, build in sharded_builds.items():
            cqads = build.cqads
            exact = evaluate_interpretation(
                cqads.database, cqads.domain(domain), interpretation
            )
            exclude = {record.record_id for record in exact}
            units = cqads.relaxation_units(interpretation)
            partial = (
                cqads.partial_answers(domain, interpretation, exclude)
                if units
                else []
            )
            signature = (
                [(r.record_id, dict(r)) for r in exact],
                _answer_signature(partial),
            )
            if reference is None:
                reference = signature
            else:
                assert signature == reference, (
                    f"{shard_count} shards diverged on "
                    f"{question.kind!r}: {question.text!r}"
                )
        compared += 1
        relaxed += bool(reference[1])
    assert compared == QUESTIONS_PER_DOMAIN
    assert relaxed > 0  # the battery must exercise scatter-gather ranking


@pytest.mark.parametrize("domain", DOMAIN_NAMES)
def test_pipeline_parity_per_domain(sharded_builds, domain):
    """Full service answers (classify skipped via explicit domain)
    bit-identical across shard counts, noise included."""
    base = sharded_builds[None]
    generator = make_generator(
        base.domain(domain).dataset, noise_rate=0.3, seed=97
    )
    questions = [
        generator.generate().text
        for _ in range(PIPELINE_QUESTIONS_PER_DOMAIN)
    ]
    services = {
        count: AnswerService(build.cqads)
        for count, build in sharded_builds.items()
    }
    for text in questions:
        request = AnswerRequest(question=text, domain=domain)
        reference = _result_signature(services[None].answer(request))
        for shard_count in SHARD_COUNTS:
            assert _result_signature(services[shard_count].answer(request)) == (
                reference
            ), f"{shard_count} shards diverged on {text!r}"


# ----------------------------------------------------------------------
# shard-aware caching
# ----------------------------------------------------------------------
@pytest.fixture()
def mutable_sharded_system():
    """A small private 4-shard cars build the cache tests may mutate."""
    return build_system(
        ["cars"],
        ads_per_domain=80,
        sessions_per_domain=100,
        corpus_documents=100,
        shards=4,
    )


CARS_QUESTION = "honda accord blue less than 15000 dollars"


class TestShardAwareCaching:
    def test_point_mutation_keeps_every_shard_fragment_warm(
        self, mutable_sharded_system
    ):
        """Delta maintenance (PR 5): the mutated shard's fragments are
        patched forward, so the repeat question hits all four shards."""
        cqads = mutable_sharded_system.cqads
        fragments = cqads.fragment_cache
        service = mutable_sharded_system.service()
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        service.answer(request)
        warm = len(fragments)
        assert warm > 0 and warm % 4 == 0  # one entry per unit per shard
        table = cqads.database.table("car_ads")
        donor = next(iter(table))
        inserted = table.insert(dict(donor))
        assert len(fragments) == warm  # mutated shard patched, not dropped
        hits_before, misses_before = fragments.hits, fragments.misses
        service.answer(request)
        assert fragments.misses == misses_before
        assert fragments.hits == hits_before + warm  # every shard warm
        assert len(fragments) == warm
        table.delete(inserted.record_id)

    def test_point_mutation_keeps_sibling_shard_fragments_rebuild_mode(self):
        """The epoch-sweep oracle (cache_maintenance="rebuild"): only
        the mutated shard's generation dies; siblings stay warm."""
        system = build_system(
            ["cars"],
            ads_per_domain=80,
            sessions_per_domain=100,
            corpus_documents=100,
            shards=4,
            cache_maintenance="rebuild",
        )
        cqads = system.cqads
        fragments = cqads.fragment_cache
        service = system.service()
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        service.answer(request)
        warm = len(fragments)
        assert warm > 0 and warm % 4 == 0
        table = cqads.database.table("car_ads")
        donor = next(iter(table))
        table.insert(dict(donor))
        # Only the mutated shard's generation died.
        units = warm // 4
        assert len(fragments) == warm - units
        hits_before, misses_before = fragments.hits, fragments.misses
        service.answer(request)
        assert fragments.misses == misses_before + units  # mutated shard only
        assert fragments.hits == hits_before + 3 * units  # siblings stayed warm
        assert len(fragments) == warm

    def test_point_mutation_patches_one_column_store(
        self, mutable_sharded_system
    ):
        """Delta maintenance: the insert lands as an in-place append on
        the owning shard's store; siblings are untouched."""
        cqads = mutable_sharded_system.cqads
        resources = cqads.context("cars").resources
        table = cqads.database.table("car_ads")
        before = resources.shard_column_stores()
        assert before is not None and len(before) == 4
        donor = next(iter(table))
        inserted = table.insert(dict(donor))
        mutated = table.shard_of(inserted.record_id)
        after = resources.shard_column_stores()
        assert inserted.record_id in after[mutated].row_of
        assert after[mutated].epoch == table.shards[mutated].epoch
        for index in range(4):
            if index != mutated:
                assert after[index] is before[index]
                assert inserted.record_id not in after[index].row_of
        table.delete(inserted.record_id)

    def test_point_mutation_rebuilds_one_column_store_rebuild_mode(self):
        """The rebuild oracle: exactly the mutated shard's store is
        rebuilt from scratch; siblings are reused by identity."""
        system = build_system(
            ["cars"],
            ads_per_domain=80,
            sessions_per_domain=100,
            corpus_documents=100,
            shards=4,
            cache_maintenance="rebuild",
        )
        cqads = system.cqads
        resources = cqads.context("cars").resources
        table = cqads.database.table("car_ads")
        before = resources.shard_column_stores()
        assert before is not None and len(before) == 4
        donor = next(iter(table))
        inserted = table.insert(dict(donor))
        mutated = table.shard_of(inserted.record_id)
        after = resources.shard_column_stores()
        for index in range(4):
            if index == mutated:
                assert after[index] is not before[index]
                assert inserted.record_id in after[index].row_of
            else:
                assert after[index] is before[index]
        table.delete(inserted.record_id)

    def test_answer_cache_invalidates_through_relayed_events(
        self, mutable_sharded_system
    ):
        cqads = mutable_sharded_system.cqads
        service = mutable_sharded_system.service(cache=32)
        reference = AnswerService(cqads)  # cacheless oracle
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        table = cqads.database.table("car_ads")

        first = service.answer(request)
        assert _result_signature(service.answer(request)) == (
            _result_signature(first)
        )
        assert service.cache.hits == 1

        inserted = table.insert(
            {"make": "honda", "model": "accord", "color": "blue",
             "price": 14000}
        )
        assert len(service.cache) == 0  # relayed event swept the domain
        fresh = service.answer(request)
        assert inserted.record_id in [
            answer.record.record_id for answer in fresh.answers
        ]
        assert _result_signature(fresh) == _result_signature(
            reference.answer(request)
        )

        table.update(inserted.record_id, {"color": "red", "price": 99000})
        updated = service.answer(request)
        assert inserted.record_id not in [
            a.record.record_id for a in updated.answers if a.exact
        ]
        table.delete(inserted.record_id)
        deleted = service.answer(request)
        assert inserted.record_id not in [
            a.record.record_id for a in deleted.answers
        ]
        assert _result_signature(deleted) == _result_signature(
            reference.answer(request)
        )


# ----------------------------------------------------------------------
# concurrency: mutation storms and the dedicated scatter executor
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_scatter_gather_survives_concurrent_mutation(
        self, mutable_sharded_system
    ):
        """Mid-flight inserts/deletes can neither crash the merge nor
        leave a record half-visible (duplicated or torn) in a result."""
        cqads = mutable_sharded_system.cqads
        service = mutable_sharded_system.service()
        table = cqads.database.table("car_ads")
        donor = dict(next(iter(table)))
        request = AnswerRequest(question=CARS_QUESTION, domain="cars")
        stop = threading.Event()
        errors: list[BaseException] = []

        def churn():
            try:
                while not stop.is_set():
                    record = table.insert(dict(donor))
                    table.update(record.record_id, {"color": "green"})
                    table.delete(record.record_id)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        writers = [threading.Thread(target=churn) for _ in range(2)]
        for writer in writers:
            writer.start()
        try:
            for _ in range(40):
                result = service.answer(request)
                ids = [a.record.record_id for a in result.ranked_pool]
                assert len(ids) == len(set(ids))  # no double-merged record
                assert result.message is None or result.answers == []
        finally:
            stop.set()
            for writer in writers:
                writer.join(timeout=30)
        assert not errors
        assert not any(writer.is_alive() for writer in writers)

        # Post-quiesce, the scatter path agrees with the legacy oracles
        # over whatever state the storm left behind.
        interpretation = service.answer(request).interpretation
        assert interpretation is not None
        exact = evaluate_interpretation(
            cqads.database, cqads.domain("cars"), interpretation
        )
        exclude = {record.record_id for record in exact}
        scatter = cqads.partial_answers("cars", interpretation, exclude)
        legacy = cqads.partial_answers(
            "cars",
            interpretation,
            exclude,
            strategy="legacy",
            engine="legacy",
        )
        assert _answer_signature(scatter) == _answer_signature(legacy)

    def test_scatter_batch_inside_answer_batch_cannot_deadlock(self):
        """Regression for the shared-pool hazard: scatters run on each
        facade's dedicated executor, so a 4-shard scatter issued from
        every worker of a 2-worker ``answer_batch`` always completes."""
        system = build_system(
            ["cars"],
            ads_per_domain=60,
            sessions_per_domain=80,
            corpus_documents=80,
            shards=4,
            scatter_workers=4,  # force threaded scatters
        )
        table = system.database.table("car_ads")
        assert table.scatter_workers == 4
        generator = make_generator(system.domain("cars").dataset, seed=5)
        requests = [
            AnswerRequest(question=generator.generate().text, domain="cars")
            for _ in range(6)
        ]
        with AnswerService(system.cqads, max_workers=2) as service:
            outcome: list = []

            def run_batch():
                outcome.append(service.answer_batch(requests))

            worker = threading.Thread(target=run_batch, daemon=True)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive(), "answer_batch deadlocked"
        assert len(outcome) == 1 and len(outcome[0]) == len(requests)
        # The scatter executor really engaged (threads were created).
        assert table._executor is not None
        table.close()


# ----------------------------------------------------------------------
# wiring: builder and CLI
# ----------------------------------------------------------------------
class TestWiring:
    def test_system_builder_shards(self):
        system = (
            SystemBuilder()
            .with_domains("cars")
            .ads_per_domain(60)
            .sessions_per_domain(80)
            .corpus_documents(80)
            .shards(2)
            .build()
        )
        assert system.cqads.shards == 2
        table = system.database.table("car_ads")
        assert isinstance(table, ShardedTable)
        assert table.shard_count == 2

    def test_system_builder_shards_none_restores_single_tables(self):
        builder = SystemBuilder().with_domains("cars").ads_per_domain(60)
        builder.sessions_per_domain(80).corpus_documents(80)
        system = builder.shards(2).shards(None).build()
        assert system.cqads.shards is None
        assert isinstance(system.database.table("car_ads"), Table)

    def test_cqads_rejects_non_positive_shards(self):
        from repro.db.database import Database
        from repro.qa.pipeline import CQAds

        with pytest.raises(ValueError):
            CQAds(Database(), shards=0)

    def test_env_override_sizes_scatter_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCATTER_WORKERS", "3")
        table = ShardedTable(small_car_schema(), 8)
        assert table.scatter_workers == 3
        table.close()
        # Still capped by the shard count.
        table = ShardedTable(small_car_schema(), 2)
        assert table.scatter_workers == 2
        table.close()
        # An explicit argument wins over the environment.
        table = ShardedTable(small_car_schema(), 8, scatter_workers=5)
        assert table.scatter_workers == 5
        table.close()
        # Garbage values fall back to the cpu-count default.
        monkeypatch.setenv("REPRO_SCATTER_WORKERS", "banana")
        table = ShardedTable(small_car_schema(), 8)
        assert table.scatter_workers == min(8, os.cpu_count() or 1)
        table.close()

    def test_cli_parses_and_forwards_shards(self, monkeypatch):
        import repro.__main__ as cli

        args = cli.build_arg_parser().parse_args(
            ["--shards", "4", "--domain", "cars", "honda"]
        )
        assert args.shards == 4

        calls = {}

        class RecordingBuilder:
            def __getattr__(self, name):
                def record(*call_args, **_kwargs):
                    calls[name] = call_args
                    return self

                return record

        monkeypatch.setattr(cli, "SystemBuilder", RecordingBuilder)
        cli._provision_service(args)
        assert calls["shards"] == (4,)
