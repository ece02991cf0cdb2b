"""The lazy ranked pool: ordering parity, laziness and shared reads.

:class:`~repro.ranking.pool.RankedPool` replaces the eagerly sorted,
fully materialized partial pool.  Three layers of checks:

* **unit** — every read pattern (index, negative index, slices, steps,
  iteration, ``map``/``after``/``limit`` derivations) returns exactly
  the eager oracle's entries, an explicit ``sorted`` on the
  ``(-score, record_id)`` key; each position is built once;
* **laziness** — on an 8000-ad ``cars`` build, answering a single-unit
  superlative question (whose partial pool is the whole table) builds
  at most ``max_answers`` entries, a page builds only its window, and
  a second full read builds nothing;
* **shared reads** — threads paging and iterating one cached result
  all see the eager oracle's sequence.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.api.pagination import page_result
from repro.api.requests import AnswerRequest
from repro.api.service import AnswerService
from repro.perf import colrank
from repro.qa.pipeline import Answer
from repro.qa.sql_generation import evaluate_interpretation
from repro.ranking.pool import RankedPool, select
from repro.system import build_system


def _eager_order(scores, record_ids):
    return sorted(range(len(scores)), key=lambda i: (-scores[i], record_ids[i]))


def _random_backing(rng: random.Random, size: int):
    # Few distinct scores, so ties (broken by record id) are common.
    scores = [rng.choice((0.5, 1.0, 1.25, 2.0)) for _ in range(size)]
    record_ids = rng.sample(range(10 * size + 1), size)
    return scores, record_ids


class _Counting:
    """An emit callback that counts its calls."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0

    def __call__(self, index):
        self.calls += 1
        return self.fn(index)


def _run_threads(target, count: int) -> None:
    """Run ``target(slot)`` on *count* threads with a short switch
    interval (more interleavings), each joined under a timeout."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=target, args=(slot,)) for slot in range(count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# unit: ordering parity and memoization
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", [0, 1, 7, 64, 500])
@pytest.mark.parametrize("top_k", [None, 0, 1, 5, 31, 1000])
def test_select_equals_sorted_truncated(size, top_k):
    rng = random.Random(size * 31 + (top_k or 0))
    scores, record_ids = _random_backing(rng, size)
    expected = _eager_order(scores, record_ids)
    if top_k is not None:
        expected = expected[:top_k]
    assert select(scores, record_ids, top_k) == expected


@pytest.mark.parametrize("seed", range(6))
def test_every_read_pattern_matches_the_eager_oracle(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 300)
    scores, record_ids = _random_backing(rng, size)
    oracle = [record_ids[i] for i in _eager_order(scores, record_ids)]
    pool = RankedPool(record_ids.__getitem__, scores, record_ids)
    expected = list(oracle)
    for _ in range(40):
        start = rng.randrange(size)
        stop = rng.randrange(start, size + 1)
        if rng.random() < 0.5:
            assert pool[start:stop] == expected[start:stop]
        else:
            assert pool[start] == expected[start]
            assert pool[-1 - start] == expected[-1 - start]
    assert pool[::3] == expected[::3]
    assert pool[::-2] == expected[::-2]
    assert list(pool) == expected
    assert pool == expected and expected == pool
    assert len(pool) == size


def test_each_position_is_built_once():
    rng = random.Random(5)
    scores, record_ids = _random_backing(rng, 200)
    emit = _Counting(record_ids.__getitem__)
    pool = RankedPool(emit, scores, record_ids)
    assert emit.calls == 0  # construction builds nothing
    assert len(pool[:10]) == 10
    assert emit.calls == 10
    pool[50:60]
    pool[55]
    assert emit.calls == 20  # only the new window
    list(pool)
    assert emit.calls == 200
    list(pool)
    pool[:]
    assert emit.calls == 200  # a second walk builds nothing


def test_limit_map_after_and_of():
    rng = random.Random(9)
    scores, record_ids = _random_backing(rng, 120)
    oracle = [record_ids[i] for i in _eager_order(scores, record_ids)]
    base = RankedPool(record_ids.__getitem__, scores, record_ids)
    bounded = RankedPool(record_ids.__getitem__, scores, record_ids, limit=25)
    assert list(bounded) == oracle[:25]
    mapped = base.map(lambda record_id: -record_id, limit=40)
    assert list(mapped) == [-record_id for record_id in oracle[:40]]
    exacts = ["a", "b", "c"]
    combined = base.after(len(exacts), exacts.__getitem__)
    assert combined[:5] == exacts + oracle[:2]
    assert list(combined) == exacts + oracle
    fixed = RankedPool.of(["x", "y"]).after(1, lambda index: "w")
    assert list(fixed) == ["w", "x", "y"]
    assert list(fixed.map(str.upper)) == ["W", "X", "Y"]
    assert RankedPool.of([]) == []


def test_sequence_protocol_edges():
    pool = RankedPool.of([1, 2, 3])
    assert pool != (1, 2, 3)  # like a list, never equal to a tuple
    assert pool == RankedPool.of([1, 2, 3])
    assert pool != [1, 2]
    assert 2 in pool and pool.index(3) == 2
    assert list(reversed(pool)) == [3, 2, 1]
    assert pool[5:9] == []
    with pytest.raises(IndexError):
        pool[3]
    with pytest.raises(IndexError):
        pool[-4]
    with pytest.raises(TypeError):
        hash(pool)
    assert "3 entries" in repr(pool)


def test_concurrent_readers_build_each_entry_once():
    rng = random.Random(11)
    scores, record_ids = _random_backing(rng, 2000)
    oracle = [record_ids[i] for i in _eager_order(scores, record_ids)]
    emit = _Counting(record_ids.__getitem__)
    pool = RankedPool(emit, scores, record_ids)
    barrier = threading.Barrier(8, timeout=60)
    seen: list[list[int]] = [[] for _ in range(8)]

    def reader(slot: int) -> None:
        local = random.Random(slot)
        barrier.wait()
        for _ in range(30):
            start = local.randrange(len(pool))
            pool[start : start + local.randint(1, 50)]
        seen[slot] = list(pool)

    _run_threads(reader, 8)
    assert all(result == oracle for result in seen)
    assert emit.calls == len(oracle)  # no position built twice


# ----------------------------------------------------------------------
# laziness inside CQAds.answer (fails against an eager pool)
# ----------------------------------------------------------------------
#: A single-unit superlative question: one relaxation unit, so its
#: partial pool is the whole table.
SUPERLATIVE = "cheapest honda"


@pytest.fixture(scope="module")
def cars_8k():
    return build_system(
        ["cars"],
        ads_per_domain=8000,
        sessions_per_domain=150,
        corpus_documents=150,
        train_classifier=False,
    )


@pytest.fixture()
def built(monkeypatch):
    """Counts ``colrank._emit`` calls and ``Answer`` constructions."""
    counts = {"emit": 0, "answer": 0}
    original_emit = colrank._emit
    original_init = Answer.__init__

    def emit(*args, **kwargs):
        counts["emit"] += 1
        return original_emit(*args, **kwargs)

    def init(self, *args, **kwargs):
        counts["answer"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(colrank, "_emit", emit)
    monkeypatch.setattr(Answer, "__init__", init)
    return counts


def _eager_oracle(cqads, result):
    """The full ranking, eagerly: exact matches, then every partial
    candidate scored per record and fully sorted."""
    ranker = cqads.context(result.domain).ranker()
    units = cqads.relaxation_units(result.interpretation)
    exact = evaluate_interpretation(
        cqads.database, cqads.domain(result.domain), result.interpretation
    )
    exclude = {record.record_id for record in exact}
    pool = cqads.partial_candidates(result.domain, result.interpretation, exclude)
    scored = sorted(
        (ranker.score_units(record, units) for record in pool),
        key=lambda item: (-item.score, item.record.record_id),
    )
    return [
        (record.record_id, True, float("inf"), "exact") for record in exact
    ] + [
        (item.record.record_id, False, item.score, item.similarity_kind)
        for item in scored
    ]


def _signature(answers):
    return [
        (a.record.record_id, a.exact, a.score, a.similarity_kind) for a in answers
    ]


def test_answer_builds_only_the_presented_answers(cars_8k, built):
    cqads = cars_8k.cqads
    result = cqads.answer(SUPERLATIVE, domain="cars")
    assert len(cqads.relaxation_units(result.interpretation)) == 1
    assert len(result.ranked_pool) > 7000  # the whole table, minus exacts
    assert len(result.answers) == cqads.max_answers
    assert built["emit"] <= cqads.max_answers
    assert built["answer"] <= cqads.max_answers

    emitted, answered = built["emit"], built["answer"]
    offset, limit = 500, 20
    window = page_result(result, offset=offset, limit=limit)
    assert len(window) == limit
    assert built["emit"] - emitted == limit
    assert built["answer"] - answered == limit

    full = list(result.ranked_pool)
    total = built["answer"]
    assert total == len(full)  # every entry built exactly once
    assert list(result.ranked_pool) == full
    assert built["answer"] == total  # the second walk built nothing
    assert _signature(full) == _eager_oracle(cqads, result)
    assert _signature(window) == _signature(full[offset : offset + limit])


def test_shared_cached_result_reads_are_identical(cars_8k):
    """Threads paging and iterating one cached result all see the
    eager oracle's sequence."""
    cqads = cars_8k.cqads
    service = AnswerService(cqads, cache=8)
    request = AnswerRequest(question="newest toyota camry", domain="cars")
    first = service.answer(request)
    shared = service.answer(request)
    assert shared.timings["cache"] is True
    assert shared.ranked_pool is first.ranked_pool  # one pool, many readers
    oracle = _eager_oracle(cqads, first)
    workers = 6
    barrier = threading.Barrier(workers, timeout=60)
    seen: list[list] = [[] for _ in range(workers)]
    errors: list[Exception] = []

    def reader(slot: int) -> None:
        try:
            barrier.wait()
            result = service.answer(request)
            offset = slot * 611
            window = service.page(result, offset=offset, limit=50)
            assert _signature(window) == oracle[offset : offset + 50]
            pages = service.page_all(result, page_size=97 + slot * 13)
            walked = [answer for page in pages for answer in page]
            seen[slot] = _signature(walked)
            assert _signature(result.ranked_pool) == seen[slot]
        except Exception as error:  # surfaced in the main thread
            errors.append(error)

    _run_threads(reader, workers)
    service.close()
    assert not errors, errors
    assert all(walked == oracle for walked in seen)
