"""Self-tests of the end-to-end benchmark (not part of the tier-1 suite).

Run from the repository root::

    python3 -m pytest e2ebench/test_e2ebench.py -q
"""

from __future__ import annotations

import collections
import dataclasses
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import hostspeed, run, tracer, workloads  # noqa: E402

#: A small catalogue workload: same code paths, seconds not minutes.
TINY = workloads.Workload(
    name="tiny-edit",
    domains=("cars",),
    ads_per_domain=300,
    popularity="rank",
    writes="edit",
    catalogue_size=40,
    max_steps_per_second=5000,
)
TINY_POST = workloads.Workload(
    name="tiny-post",
    domains=("cars", "furniture"),
    ads_per_domain=200,
    popularity="uniform",
    writes="post",
    catalogue_size=30,
    max_steps_per_second=5000,
)


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_system():
    system, client, inputs, _setup_s, _raw_setup_s, warm = run.setup(TINY, seed=5, seconds=1)
    assert not warm.errors
    return system, client, inputs


def original_attributes():
    return {
        (owner, attribute): vars(tracer.resolve(owner))[attribute]
        for owner, attribute, _name, _size in tracer.QUESTION_POINTS + tracer.WRITE_POINTS
    }


def test_tracer_restores_every_wrapped_entry_point(tiny_system):
    _system, client, inputs = tiny_system
    before = original_attributes()
    spans = tracer.Tracer()
    spans.install()
    try:
        assert all(
            vars(tracer.resolve(owner))[attribute] is not original
            for (owner, attribute), original in before.items()
        )
        phase = run.run_steps(client, inputs.timed, limit=20, tracer=spans)
    finally:
        spans.restore()
    assert not phase.errors
    assert original_attributes() == before
    assert all(
        vars(tracer.resolve(owner))[attribute] is original
        for (owner, attribute), original in before.items()
    )
    names = {span[0] for span in spans.spans}
    assert {"question", "write", "stage.relax", "execute", "table.update"} <= names


def test_self_times_add_up_to_the_root_span(tiny_system):
    _system, client, inputs = tiny_system
    spans = tracer.Tracer()
    spans.install()
    try:
        run.run_steps(client, inputs.timed, limit=10, tracer=spans)
    finally:
        spans.restore()
    self_times = spans.self_times()
    for op, (_name, seconds) in spans.roots().items():
        total = sum(value for (span_op, _n), value in self_times.items() if span_op == op)
        assert total == pytest.approx(seconds, rel=1e-9, abs=1e-12)


def test_inputs_depend_only_on_the_seed(tiny_system):
    system, _client, _inputs = tiny_system

    def texts(seed):
        made = workloads.make_inputs(system, TINY, seed, 0.1)
        return [s.question.text for s in made.warmup + made.timed], [
            s.writes for s in made.timed
        ]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_rank_popularity_holds_every_share_in_every_prefix(tiny_system):
    system, _client, _inputs = tiny_system
    made = workloads.make_inputs(system, TINY, 7, 0.4)
    catalogue = [step.question.text for step in made.warmup]
    weights = [1 / (rank + 1) for rank in range(len(catalogue))]
    total = sum(weights)
    for prefix in (100, 500, len(made.timed)):
        asked = collections.Counter(step.question.text for step in made.timed[:prefix])
        for text, weight in zip(catalogue, weights):
            assert abs(asked[text] - prefix * weight / total) < 2


def test_uniform_popularity_asks_each_question_once_per_pass(tiny_system):
    system, _client, _inputs = tiny_system
    uniform = dataclasses.replace(TINY, popularity="uniform")
    made = workloads.make_inputs(system, uniform, 7, 0.1)
    size = uniform.catalogue_size
    catalogue = sorted(step.question.text for step in made.warmup)
    passes = len(made.timed) // size
    assert passes >= 2
    for n in range(passes):
        asked = [step.question.text for step in made.timed[n * size : (n + 1) * size]]
        assert sorted(asked) == catalogue


def test_samples_are_scaled_by_the_host_speed(tiny_system, monkeypatch):
    _system, client, inputs = tiny_system
    # A host at half the reference speed: every time is halved.
    slow = 2 * hostspeed.REFERENCE_KERNEL_S
    monkeypatch.setattr(run, "kernel_seconds", lambda: slow)
    monkeypatch.setattr(run, "CALIBRATE_EVERY", 0.0)
    phase = run.run_steps(client, inputs.timed, limit=10, calibrate=True)
    assert phase.kernel_s and set(phase.kernel_s) == {slow}
    assert phase.question_adj == pytest.approx([s / 2 for s in phase.question_s])
    assert phase.write_adj == pytest.approx([s / 2 for s in phase.write_s])
    assert phase.adj_seconds == pytest.approx(phase.seconds / 2)


def test_sampler_scales_a_long_call_by_the_host_speed(monkeypatch):
    slow = 2 * hostspeed.REFERENCE_KERNEL_S
    monkeypatch.setattr(hostspeed, "kernel_seconds", lambda: slow)
    started = time.perf_counter()
    with hostspeed.Sampler(0.05) as sampler:
        while time.perf_counter() - started < 0.3:
            pass
    assert sampler.raw == pytest.approx(time.perf_counter() - started, rel=0.05)
    assert sampler.scaled == pytest.approx(sampler.raw / 2)


def test_pooled_phase_takes_every_round_together():
    rounds = [run.Phase(), run.Phase()]
    for n, phase in enumerate(rounds):
        phase.question_s = [0.1 * (n + 1)] * 3
        phase.write_s = [0.01] * (n + 1)
        phase.steps, phase.seconds = 3, 1.5
    pooled = run.Phase.pooled(rounds)
    assert pooled.question_s == [0.1] * 3 + [0.2] * 3
    assert len(pooled.write_s) == 3
    assert (pooled.steps, pooled.seconds, pooled.attempted) == (6, 3.0, 9)


def test_percentiles_need_ten_samples_beyond():
    few = [float(i) for i in range(150)]
    many = [float(i) for i in range(400)]
    assert run.beyond(few, run.p95(few)) < run.MIN_BEYOND
    assert run.beyond(many, run.p95(many)) >= run.MIN_BEYOND
    phase = run.Phase()
    phase.question_s, phase.write_s = few, many
    problems = run.percentile_problems(run.sample_counts(phase))
    assert len(problems) == 1 and "questions" in problems[0]


def test_steady_state_guard():
    start = {"fragment.entries": 100}
    phase = run.Phase()
    assert run.steady_state_problems(TINY, start, {"fragment.entries": 100}, phase) == []
    assert run.steady_state_problems(TINY, start, {"fragment.entries": 101}, phase)
    assert run.steady_state_problems(TINY, start, {"fragment.entries": 99}, phase)
    phase.new_units = 2
    assert run.steady_state_problems(TINY, start, {"fragment.entries": 102}, phase) == []


def test_kind_order_covers_every_question_kind():
    from repro.datagen.questions import QUESTION_KINDS

    assert sorted(workloads.KIND_ORDER) == sorted(QUESTION_KINDS)


def test_benchmark_json_lists_the_workloads():
    spec = bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["e2ebench"]
    assert spec["command"] == ["python3", "e2ebench/run.py"]


@pytest.mark.parametrize("workload", [TINY, TINY_POST], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_emitted_metric_is_in_benchmark_json(workload, trace, monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "1.5"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = bench_spec()
    listed = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    assert all(v["unit"] == units[name] for name, v in result["metrics"].items())
    record = json.loads((tmp_path / f"{workload.name}-s3-t{trace}.json").read_text())
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    samples = record["samples"]
    assert samples["questions_beyond_p95"] >= run.MIN_BEYOND
    assert samples["writes_beyond_p95"] >= run.MIN_BEYOND
    assert record["environment"]["knobs"]["cache_maintenance"] == "delta"
    if trace:
        assert result["metrics"]["layers.coverage"]["value"] == pytest.approx(1.0, abs=0.05)
        assert (tmp_path / f"{workload.name}-s3-spans.jsonl.gz").exists()
