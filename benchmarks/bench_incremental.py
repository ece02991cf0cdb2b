"""Delta-patched cache maintenance vs epoch rebuilds under high churn.

Ads corpora churn constantly — postings, edits and expiries far
outnumber changes to the question mix — and the epoch-keyed cache
stack (PR 3/4) made every point mutation expensive on the *next*
question: a full :class:`~repro.perf.colrank.ColumnStore` rebuild
(re-stringify and re-parse every row) plus a from-scratch
``eval_where`` for every relaxation-unit id-set of the table.  Delta
maintenance (PR 5) patches instead: the typed
:class:`~repro.db.table.UpdateDelta` rewrites only the changed column
slots in the store, and :meth:`FragmentCache.absorb` re-evaluates the
touched record only against the cached units that read a changed
column, recording the membership flips that the next read folds into
a fresh id-set.

The measured stream is the worst churn shape the ROADMAP calls out —
**one point update per question** — on the candidate-pool + ranking
path (``partial_answers``: shared-subplan N-1 pools + columnar
top-30), six-unit questions over the cars domain at 2000- and
8000-record pools.  The two builds differ only in
``cache_maintenance`` ("delta" vs "rebuild") and hold bit-identical
data and answers (asserted before and after timing); the snapshot
lands in ``BENCH_incremental.json``.

Acceptance: >= 2x speedup at the 8000-record pool.

Quick mode (CI smoke): ``BENCH_INCREMENTAL_QUICK=1`` runs the 2000-ad
scale only with fewer rounds and asserts a >= 1.0x locality tripwire —
a broken patch path pays delta bookkeeping *plus* the rebuilds it was
supposed to avoid and measures below 1.0x, while a healthy one
measures well above — leaving the committed JSON snapshot untouched.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py -s
  or: PYTHONPATH=src python benchmarks/bench_incremental.py [--quick]
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import sys
import time

import pytest

try:
    from benchmarks.conftest import emit
except ModuleNotFoundError:  # direct `python benchmarks/bench_incremental.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import emit
from repro.db.schema import AttributeType
from repro.evaluation.reporting import format_seconds, format_table
from repro.qa.conditions import (
    BooleanOperator,
    Condition,
    ConditionGroup,
    ConditionOp,
    Interpretation,
)
from repro.qa.sql_generation import evaluate_interpretation
from repro.system import build_system

RESULT_PATH = pathlib.Path(__file__).parent / "BENCH_incremental.json"

QUICK = bool(os.environ.get("BENCH_INCREMENTAL_QUICK"))
SCALES = (2000,) if QUICK else (2000, 8000)
QUESTION_VARIETY = 10
#: One point update per question — the paper's churn regime, and the
#: workload the ROADMAP's "per-row patches instead of epoch rebuilds"
#: item targets.
QUESTIONS_PER_ROUND = 5
ROUNDS = 8 if QUICK else 15
REPEATS = 2
MIN_SPEEDUP_AT_8000 = 2.0
#: Quick mode is a regression tripwire, not a performance gate: with
#: the patch path broken, delta mode pays its bookkeeping on top of
#: the rebuilds it should have avoided and measures <= 1.0x, while a
#: healthy build measures several-fold higher — so the 1.0 floor
#: separates those states with headroom for noisy shared CI runners.
MIN_SPEEDUP_QUICK = 1.0


@pytest.fixture(scope="module", params=SCALES)
def system_pair(request):
    """The same cars recipe under delta and rebuild maintenance."""
    scale = request.param
    recipe = dict(
        ads_per_domain=scale, sessions_per_domain=300, corpus_documents=200
    )
    return (
        build_system(["cars"], cache_maintenance="delta", **recipe),
        build_system(["cars"], cache_maintenance="rebuild", **recipe),
        scale,
    )


def _question_interpretations(system, count: int) -> list[Interpretation]:
    """Six-unit conjunctions anchored on real records."""
    rng = random.Random(2718)
    dataset = system.domain("cars").dataset
    needed = ("make", "model", "color", "transmission", "price", "mileage", "year")
    complete = [
        record
        for record in dataset.records
        if all(record.get(column) is not None for column in needed)
    ]
    interpretations = []
    for _ in range(count):
        record = rng.choice(complete)
        conditions = [
            Condition("make", AttributeType.TYPE_I, ConditionOp.EQ,
                      str(record["make"])),
            Condition("model", AttributeType.TYPE_I, ConditionOp.EQ,
                      str(record["model"])),
            Condition("color", AttributeType.TYPE_II, ConditionOp.EQ,
                      str(record["color"])),
            Condition("transmission", AttributeType.TYPE_II, ConditionOp.EQ,
                      str(record["transmission"])),
            Condition("price", AttributeType.TYPE_III, ConditionOp.LT,
                      float(record["price"]) + 1000.0),
            Condition("mileage", AttributeType.TYPE_III, ConditionOp.LT,
                      float(record["mileage"]) + 5000.0),
            Condition("year", AttributeType.TYPE_III, ConditionOp.GE,
                      float(record["year"]) - 2.0),
        ]
        interpretations.append(
            Interpretation(tree=ConditionGroup(BooleanOperator.AND, conditions))
        )
    return interpretations


def _answer_signature(answers):
    return [
        (item.record.record_id, item.score, item.similarity_kind)
        for item in answers
    ]


def _assert_parity(delta, rebuild, interpretations, excludes) -> None:
    for interpretation, exclude in zip(interpretations, excludes):
        reference = None
        for system in (delta, rebuild):
            answers = system.cqads.partial_answers(
                "cars", interpretation, exclude, top_k=30
            )
            signature = _answer_signature(answers)
            if reference is None:
                reference = signature
            else:
                assert signature == reference, "delta/rebuild divergence"


def _churn_workload(
    system, interpretations, excludes, rounds: int, seed: int
) -> float:
    """Wall-clock of the candidate-pool + ranking stream with one point
    update per question.  The same *seed* drives the same victim
    sequence on every system (record ids are identical across builds),
    so the measured work — and the produced answers — stay
    bit-comparable."""
    cqads = system.cqads
    table = cqads.database.table("car_ads")
    rng = random.Random(seed)
    ids = sorted(table.all_ids())
    started = time.perf_counter()
    for round_index in range(rounds):
        for i in range(QUESTIONS_PER_ROUND):
            victim = rng.choice(ids)
            price = float(table.get(victim)["price"])
            table.update(victim, {"price": price + 1.0})
            k = (round_index * QUESTIONS_PER_ROUND + i) % len(interpretations)
            cqads.partial_answers(
                "cars", interpretations[k], excludes[k], top_k=30
            )
    return time.perf_counter() - started


def test_delta_maintenance_speedup_under_churn(system_pair):
    delta, rebuild, scale = system_pair
    assert delta.cqads.cache_maintenance == "delta"
    assert rebuild.cqads.cache_maintenance == "rebuild"
    interpretations = _question_interpretations(delta, QUESTION_VARIETY)
    excludes = [
        {
            record.record_id
            for record in evaluate_interpretation(
                delta.cqads.database, delta.cqads.domain("cars"), interpretation
            )
        }
        for interpretation in interpretations
    ]

    # Parity before timing (also warms stores, fragments and memos).
    _assert_parity(delta, rebuild, interpretations, excludes)

    rebuild_seconds = min(
        _churn_workload(rebuild, interpretations, excludes, ROUNDS, seed=run)
        for run in range(REPEATS)
    )
    delta_seconds = min(
        _churn_workload(delta, interpretations, excludes, ROUNDS, seed=run)
        for run in range(REPEATS)
    )
    speedup = rebuild_seconds / delta_seconds

    # Both builds saw the same mutation stream: still bit-identical.
    _assert_parity(delta, rebuild, interpretations, excludes)

    # The timed quantity is min-over-repeats of ONE workload pass, so
    # per-question latency divides by one pass's question count.
    questions = ROUNDS * QUESTIONS_PER_ROUND
    rows = [
        [
            "epoch rebuilds",
            format_seconds(rebuild_seconds / questions),
            "1.00x",
        ],
        [
            "delta patching",
            format_seconds(delta_seconds / questions),
            f"{speedup:.2f}x",
        ],
    ]
    emit(
        format_table(
            ["maintenance", "per-question latency", "speedup"],
            rows,
            title=(
                f"candidate pool + top-30 ranking, {scale}-record pool, "
                f"one point update per question"
                + (" [quick mode]" if QUICK else "")
            ),
        )
    )

    if not QUICK:
        snapshot = {}
        if RESULT_PATH.exists():
            snapshot = json.loads(RESULT_PATH.read_text())
        snapshot.setdefault("benchmark", "incremental_cache_maintenance")
        snapshot.setdefault("rounds", ROUNDS)
        snapshot.setdefault("questions_per_round", QUESTIONS_PER_ROUND)
        snapshot.setdefault("updates_per_question", 1)
        snapshot.setdefault("scales", {})
        snapshot["scales"][str(scale)] = {
            "pool_size": scale,
            "rebuild_ms_per_question": 1000 * rebuild_seconds / questions,
            "delta_ms_per_question": 1000 * delta_seconds / questions,
            "speedup": speedup,
        }
        RESULT_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")

    if QUICK:
        assert speedup >= MIN_SPEEDUP_QUICK, (
            f"delta maintenance must be >= {MIN_SPEEDUP_QUICK}x even in "
            f"quick mode at {scale} ads, measured {speedup:.2f}x"
        )
    elif scale == 8000:
        assert speedup >= MIN_SPEEDUP_AT_8000, (
            f"delta maintenance must be >= {MIN_SPEEDUP_AT_8000}x at 8000 "
            f"ads, measured {speedup:.2f}x"
        )


if __name__ == "__main__":
    if "--quick" in sys.argv[1:]:
        os.environ["BENCH_INCREMENTAL_QUICK"] = "1"
    sys.exit(pytest.main([__file__, "-s", "-q"]))
