"""Standing end-to-end CQAds benchmark.

Drives the default ``build_system(...)`` + ``CQAds.answer(question)``
path with one closed-loop client (one process, one thread, no think
time): each step applies its writes, then asks one question, with the
domain never named.  Run from the repository root::

    python3 e2ebench/run.py --workload cars-8k-edit --seed 1 --seconds 20 --trace 0

A run makes ROUNDS rounds, each with its own seed derived from
``--seed`` (see ``round_seeds``).  Each round builds the system from
its seed, generates its inputs, warms up, times the closed loop for
``--seconds / ROUNDS`` and closes the system.  ``setup_s`` is the
median of the rounds' set-ups; the latency and throughput metrics pool
the samples of all rounds, so they average over three datasets and
catalogues rather than follow one.  The end-to-end metrics are wall
times scaled by the host speed, measured between operations by the
fixed kernel of ``e2ebench/hostspeed.py``; the raw wall times are
printed and kept in the result file too.

After the last round's timed phase, correctness is checked outside the
timed region: the next VERIFY_STEPS steps of its stream are answered
by the default engine and by an oracle engine (legacy relaxation,
legacy ranking, rebuild maintenance) attached to the same database,
and every answer digest must match.  With ``--trace 1`` one more
system is built from the first round's seed and replays exactly that
round's timed operations under the span tracer of
``e2ebench/tracer.py``; its digests must equal the untraced ones.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  The full record (environment, effective engine knobs,
raw wall times, sample counts, steady-state counters including window
and column-store rebuilds, problems) is written to
``e2ebench/out/<workload>-s<seed>-t<trace>.json``, and the traced
run's spans to ``e2ebench/out/<workload>-s<seed>-spans.jsonl.gz``.

Seed 1000003 is held out: it is not used while tuning the benchmark or
a change, so that a claimed gain can be confirmed on it afterwards.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench.hostspeed import (  # noqa: E402
    REFERENCE_KERNEL_S,
    Sampler,
    kernel_seconds,
    scale,
)

OUT = HERE / "out"
HELD_OUT_SEED = 1000003

#: Rounds per run, each on its own dataset: one seed's catalogue moved
#: question_p50_ms by up to 15% against another's, and set-up is
#: measured once per round.
ROUNDS = 3
#: Seconds of timed operations between two host-speed measurements.
CALIBRATE_EVERY = 0.25
#: Steps after the timed phase that both engines answer and compare.
VERIFY_STEPS = 30
#: The traced replay compares every KEEP_EVERY-th timed answer.
KEEP_EVERY = 5
#: A percentile needs at least this many samples strictly above it.
MIN_BEYOND = 10
#: |layers.coverage - 1| above this fails the traced run.
COVERAGE_TOLERANCE = 0.05

ORACLE_KNOBS = {
    "relaxation_strategy": "legacy",
    "ranking_engine": "legacy",
    "cache_maintenance": "rebuild",
}


# ----------------------------------------------------------------------
# driving the engine
# ----------------------------------------------------------------------
class Client:
    """One closed-loop client bound to one built system."""

    def __init__(self, system) -> None:
        self.system = system
        self.cqads = system.cqads
        self.database = system.database
        #: Stream serial of a posted ad -> the record id the table gave it.
        self.posted: dict[int, int] = {}
        #: Questions whose answer has used the fragment cache.
        self.relaxed: set[str] = set()

    def resolve(self, ref: int) -> int:
        """The record id behind a row reference (see workloads.posted_ref)."""
        return ref if ref > 0 else self.posted[-ref - 1]

    def prepare(self, op: tuple):
        """(callable, args, serial of a posted ad) for one write, resolved untimed."""
        kind, table = op[0], self.database.table(op[1])
        if kind == "update":
            return table.update, (self.resolve(op[2]), op[3]), None
        if kind == "insert":
            return table.insert, (op[2],), op[3]
        if kind == "delete":
            return table.delete, (self.resolve(op[2]),), None
        raise ValueError(f"unknown write {kind!r}")

    def write(self, op: tuple, tracer=None, op_id: int = -1):
        """Apply one write; returns its wall time in seconds."""
        call, args, serial = self.prepare(op)
        started = time.perf_counter()
        if tracer is None:
            out = call(*args)
        else:
            out = tracer.root("write", op_id, call, *args)
        elapsed = time.perf_counter() - started
        if serial is not None:
            self.posted[serial] = out.record_id
        return elapsed

    def first_relax_units(self, result) -> int:
        """Relaxation units of *result*'s question if this is the first
        time its answer went through the fragment cache, else 0.

        A question relaxes only while its exact matches stay under the
        answer cap, and uses the fragment cache only with two or more
        relaxation units (one unit relaxes to the whole table).
        """
        if result.question in self.relaxed or result.interpretation is None:
            return 0
        exact = sum(answer.exact for answer in result.ranked_pool)
        if exact >= self.cqads.max_answers:
            return 0
        units = self.cqads.relaxation_units(result.interpretation)
        if len(units) < 2:
            return 0
        self.relaxed.add(result.question)
        return len(units)


class Phase:
    """Samples of one pass over a step stream."""

    def __init__(self) -> None:
        self.question_s: list[float] = []
        self.write_s: list[float] = []
        self.stage_s: list[float] = []  # sum of QuestionResult.timings
        self.kept: dict[int, tuple] = {}  # step index -> answer digest
        self.correct_domain = 0
        self.corrections = 0
        self.partial_built = 0
        self.partial_shown = 0
        self.new_units = 0
        self.errors: list[str] = []
        self.steps = 0
        self.seconds = 0.0
        # Host-speed scaled copies (see hostspeed.py), when calibrated.
        self.question_adj: list[float] = []
        self.write_adj: list[float] = []
        self.adj_seconds = 0.0
        self.kernel_s: list[float] = []

    def close_block(self, start: float, end: float, kernel_before: float) -> float:
        """Scale the samples taken since the last block by the host speed
        on either side of this one; returns the kernel time after it."""
        kernel_after = kernel_seconds()
        factor = scale((kernel_before + kernel_after) / 2)
        self.question_adj += [s * factor for s in self.question_s[len(self.question_adj) :]]
        self.write_adj += [s * factor for s in self.write_s[len(self.write_adj) :]]
        self.seconds += end - start
        self.adj_seconds += (end - start) * factor
        self.kernel_s.append(kernel_after)
        return kernel_after

    @property
    def attempted(self) -> int:
        return len(self.question_s) + len(self.write_s) + len(self.errors)

    @classmethod
    def pooled(cls, phases: list["Phase"]) -> "Phase":
        """The samples of *phases* taken together (digests are not kept)."""
        pooled = cls()
        for phase in phases:
            for name in (
                "question_s", "write_s", "stage_s", "errors",
                "question_adj", "write_adj", "kernel_s",
            ):
                getattr(pooled, name).extend(getattr(phase, name))
            for name in (
                "correct_domain", "corrections", "partial_built", "partial_shown",
                "new_units", "steps", "seconds", "adj_seconds",
            ):
                setattr(pooled, name, getattr(pooled, name) + getattr(phase, name))
        return pooled


def digest(result) -> tuple:
    """What must match across engines: domain, message, and the
    presented answers' record ids, exact flags and scores."""
    return (
        result.domain,
        result.message,
        tuple((a.record.record_id, a.exact, a.score) for a in result.answers),
    )


def run_steps(
    client: Client, steps, *, seconds=None, limit=None, keep=False, tracer=None,
    calibrate=False,
):
    """Apply *steps* in order until *seconds* elapse or *limit* steps ran.

    With *calibrate*, the host-speed kernel is timed every
    CALIBRATE_EVERY seconds, between steps, and the samples of each
    block are also kept scaled by the host speed around it.  Phase
    seconds then leave the kernel time out.
    """
    phase = Phase()
    answer = client.cqads.answer
    op_id = 0
    kernel = kernel_seconds() if calibrate else 0.0
    started = block = time.perf_counter()
    deadline = None if seconds is None else started + seconds
    for index, step in enumerate(steps):
        if limit is not None and index >= limit:
            break
        now = time.perf_counter()
        if deadline is not None and now >= deadline:
            break
        if calibrate and now - block >= CALIBRATE_EVERY:
            kernel = phase.close_block(block, now, kernel)
            block = time.perf_counter()
        phase.steps += 1
        for write in step.writes:
            op_id += 1
            try:
                elapsed = client.write(write, tracer, op_id)
            except Exception as error:  # counted and reported, never hidden
                phase.errors.append(f"step {index} {write[0]}: {error!r}")
                continue
            phase.write_s.append(elapsed)
        op_id += 1
        text = step.question.text
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = answer(text)
            else:
                result = tracer.root("question", op_id, answer, text)
            elapsed = time.perf_counter() - t0
        except Exception as error:
            phase.errors.append(f"step {index} question {text!r}: {error!r}")
            continue
        phase.question_s.append(elapsed)
        phase.stage_s.append(sum(result.timings.values()))
        phase.correct_domain += result.domain == step.question.domain
        phase.corrections += len(result.corrections)
        phase.partial_built += sum(not a.exact for a in result.ranked_pool)
        phase.partial_shown += sum(not a.exact for a in result.answers)
        phase.new_units += client.first_relax_units(result)
        if keep and index % KEEP_EVERY == 0:
            phase.kept[index] = digest(result)
    if calibrate:
        phase.close_block(block, time.perf_counter(), kernel)
    else:
        phase.seconds = time.perf_counter() - started
    return phase


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------
def attach_oracle(system):
    """A legacy/rebuild engine over *system*'s database and domains.

    It gets its own ranking resources (same matrices and ranges as the
    default engine's) and, with several domains, its own classifier
    trained on the same ad texts in the same order.
    """
    from repro.qa.pipeline import CQAds
    from repro.ranking.rank_sim import RankingResources

    oracle = CQAds(system.database, **ORACLE_KNOBS)
    several = len(system.requested_domains) > 1
    for name in system.requested_domains:
        built = system.domain(name)
        ranking = built.resources
        oracle.add_domain(
            built.domain,
            training_texts=built.dataset.ad_texts() if several else None,
            resources=RankingResources(
                ti_matrix=ranking.ti_matrix,
                ws_matrix=ranking.ws_matrix,
                value_ranges=dict(ranking.value_ranges),
                type_i_columns=list(ranking.type_i_columns),
                product_keys=list(ranking.product_keys),
            ),
        )
    if several:
        oracle.train_classifier()
    return oracle


def verify(client: Client, steps) -> tuple[int, list[str]]:
    """Apply *steps*; both engines answer each question.

    Returns (operations attempted, problems); a problem is a digest
    mismatch or an exception from either engine.
    """
    oracle = attach_oracle(client.system)
    problems: list[str] = []
    attempted = 0
    try:
        for step in steps:
            for write in step.writes:
                attempted += 1
                try:
                    client.write(write)
                except Exception as error:
                    problems.append(f"verify {write[0]}: {error!r}")
            attempted += 1
            text = step.question.text
            try:
                got = digest(client.cqads.answer(text))
                want = digest(oracle.answer(text))
            except Exception as error:
                problems.append(f"verify question {text!r}: {error!r}")
                continue
            if got != want:
                problems.append(
                    f"verify question {text!r}: engine {got[:2]} {len(got[2])} answers, "
                    f"oracle {want[:2]} {len(want[2])} answers"
                )
    finally:
        oracle.close()
    return attempted, problems


# ----------------------------------------------------------------------
# counters read from outside
# ----------------------------------------------------------------------
class StoreBuilds:
    """Counts full column-store builds: ``ColumnStore.__init__`` calls
    (delta patches clone through ``__new__`` and are not counted)."""

    def __init__(self) -> None:
        from e2ebench.tracer import Patches

        self.count = 0
        self._patches = Patches()

    def install(self) -> None:
        from repro.perf.colrank import ColumnStore

        def make(original):
            def counted(store, *args, **kwargs):
                self.count += 1
                return original(store, *args, **kwargs)

            return counted

        self._patches.replace(ColumnStore, "__init__", make)

    def restore(self) -> None:
        self._patches.restore()


def counters(system, store_builds: StoreBuilds) -> dict:
    from repro.perf.window import RECORD_ID, windows_for

    cache = system.cqads.fragment_cache
    rebuilds = 0
    for table in system.database:
        windows = windows_for(table)
        for column in [RECORD_ID, *table.schema.column_names()]:
            rebuilds += windows.rebuild_count(column)
    return {
        "fragment.entries": len(cache) if cache is not None else 0,
        "fragment.hits": cache.hits if cache is not None else 0,
        "fragment.misses": cache.misses if cache is not None else 0,
        "window.rebuilds": rebuilds,
        "colrank.rebuilds": store_builds.count,
    }


def environment(system, seed: int, workload) -> dict:
    cqads = system.cqads
    cache = cqads.fragment_cache
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "seed": seed,
        "workload": workload.name,
        "domains": list(workload.domains),
        "ads_per_domain": workload.ads_per_domain,
        "knobs": {
            "max_answers": cqads.max_answers,
            "ranking_top_k": cqads.ranking_top_k,
            "relaxation_strategy": cqads.relaxation_strategy,
            "ranking_engine": cqads.ranking_engine,
            "cache_maintenance": cqads.cache_maintenance,
            "fragment_cache_capacity": cache.capacity if cache is not None else None,
            "shards": cqads.shards,
        },
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[18]


def beyond(values: list[float], threshold: float) -> int:
    return sum(value > threshold for value in values)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def sample_counts(phase: Phase) -> dict:
    """Samples per latency metric and how many lie above its p95."""
    counts = {}
    for kind, values in (("questions", phase.question_s), ("writes", phase.write_s)):
        counts[kind] = len(values)
        counts[f"{kind}_beyond_p95"] = beyond(values, p95(values)) if len(values) > 1 else 0
    return counts


def percentile_problems(samples: dict) -> list[str]:
    return [
        f"only {samples[f'{kind}_beyond_p95']} {kind} beyond p95 (need {MIN_BEYOND})"
        for kind in ("questions", "writes")
        if samples[f"{kind}_beyond_p95"] < MIN_BEYOND
    ]


def end_to_end(phase: Phase, setup_s: float, rss: float, scaled: bool = True) -> dict:
    """The end-to-end metrics, from the host-speed scaled samples unless
    *scaled* is false (then from the raw wall times)."""
    questions, writes, seconds = (
        (phase.question_adj, phase.write_adj, phase.adj_seconds)
        if scaled
        else (phase.question_s, phase.write_s, phase.seconds)
    )
    q_ms = [s * 1e3 for s in questions]
    w_us = [s * 1e6 for s in writes]
    return {
        "setup_s": (setup_s, "s"),
        "question_p50_ms": (statistics.median(q_ms), "ms"),
        "question_p95_ms": (p95(q_ms), "ms"),
        "write_p50_us": (statistics.median(w_us), "us"),
        "write_p95_us": (p95(w_us), "us"),
        "ops_per_s": ((len(q_ms) + len(w_us)) / seconds, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def per_layer(
    tracer, phase: Phase, untraced: Phase, pooled: Phase, before: dict, after: dict
) -> dict:
    """Per-layer metrics of the traced replay *phase* (see tracer.py) of
    the *untraced* round; *pooled* holds the samples of every round."""
    from e2ebench.tracer import QUESTION_LAYERS, WRITE_LAYERS

    self_times = tracer.self_times()
    roots = tracer.roots()
    questions = [op for op, (name, _s) in roots.items() if name == "question"]
    writes = [op for op, (name, _s) in roots.items() if name == "write"]
    n_q, n_w = len(questions), max(1, len(writes))

    def mean_self(ops, names, scale, count):
        total = sum(self_times.get((op, name), 0.0) for op in ops for name in names)
        return total * scale / count

    metrics: dict[str, tuple[float, str]] = {}
    for metric, names in QUESTION_LAYERS.items():
        metrics[metric] = (mean_self(questions, names, 1e3, n_q), "ms")
    answer_ms = sum(roots[op][1] for op in questions) * 1e3 / n_q
    other_ms = answer_ms - sum(phase.stage_s) * 1e3 / n_q
    metrics["pipeline.other.ms"] = (other_ms, "ms")
    layers_ms = sum(metrics[m][0] for m in QUESTION_LAYERS)
    metrics["layers.coverage"] = ((layers_ms + other_ms) / answer_ms, "ratio")
    for metric, names in WRITE_LAYERS.items():
        metrics[metric] = (mean_self(writes, names, 1e6, n_w), "us")
    write_us = sum(roots[op][1] for op in writes) * 1e6 / n_w
    write_layers_us = sum(metrics[m][0] for m in WRITE_LAYERS)
    metrics["layers.write_coverage"] = (write_layers_us / write_us, "ratio")

    metrics["classify.accuracy"] = (phase.correct_domain / n_q, "ratio")
    metrics["tag.corrections"] = (phase.corrections / n_q, "count")
    rows = tracer.sizes("execute")
    metrics["execute.rows"] = (sum(rows) / max(1, len(rows)), "rows")
    pool = tracer.sizes("candidates")
    metrics["relax.pool"] = (sum(pool) / max(1, len(pool)), "rows")
    metrics["relax.emitted_ratio"] = (
        phase.partial_shown / phase.partial_built if phase.partial_built else 1.0,
        "ratio",
    )
    hits = after["fragment.hits"] - before["fragment.hits"]
    lookups = hits + after["fragment.misses"] - before["fragment.misses"]
    metrics["fragment.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["fragment.entries"] = (after["fragment.entries"], "count")
    traced_s = sum(phase.question_adj) + sum(phase.write_adj)
    untraced_s = sum(untraced.question_adj) + sum(untraced.write_adj)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["samples.questions"] = (len(pooled.question_s), "count")
    metrics["samples.writes"] = (len(pooled.write_s), "count")
    return metrics


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def round_seeds(seed: int) -> list[int]:
    """The build and input seeds of a run's rounds (distinct across runs)."""
    return [seed * ROUNDS + index for index in range(ROUNDS)]


def setup(workload, seed: int, seconds: float, inputs=None):
    """Build the default system from *seed*, make its inputs (unless
    given) and warm it up.

    Returns (system, client, inputs, scaled set-up seconds, raw set-up
    seconds, warm-up phase).  Set-up time is the build plus the warm-up,
    sampled for host speed throughout (see hostspeed.Sampler);
    generating the inputs is the benchmark's own work and is not
    counted.  The timed stream is made for *seconds* of timing.
    """
    from repro.system import build_system

    from e2ebench.workloads import make_inputs

    with Sampler(CALIBRATE_EVERY) as build:
        system = build_system(
            list(workload.domains), ads_per_domain=workload.ads_per_domain, seed=seed
        )
    if inputs is None:
        inputs = make_inputs(system, workload, seed, seconds, extra_steps=VERIFY_STEPS)
    client = Client(system)
    with Sampler(CALIBRATE_EVERY) as warm_up:
        warm = run_steps(client, inputs.warmup)
    return (
        system,
        client,
        inputs,
        build.scaled + warm_up.scaled,
        build.raw + warm_up.raw,
        warm,
    )


def steady_state_problems(workload, start: dict, end: dict, phase: Phase) -> list[str]:
    """A round must hold the fragment cache at its warmed size.

    The only allowed change is growth by the relaxation units of
    catalogue questions that relaxed for the first time during timing
    (their exact matches fell under the answer cap).
    """
    grew = end["fragment.entries"] - start["fragment.entries"]
    if 0 <= grew <= phase.new_units:
        return []
    return [
        f"not steady: fragment entries went from {start['fragment.entries']} to "
        f"{end['fragment.entries']} ({phase.new_units} units of newly relaxing questions)"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    from e2ebench.tracer import Tracer
    from e2ebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    per_round = args.seconds / ROUNDS
    clock: dict[str, float] = {"setup": 0.0, "timed": 0.0}
    started = time.perf_counter()
    problems: list[str] = []
    seeds = round_seeds(args.seed)
    setups: list[float] = []
    raw_setups: list[float] = []
    phases: list[Phase] = []
    steady: list[dict] = []

    store_builds = StoreBuilds()
    store_builds.install()
    try:
        for index, seed in enumerate(seeds):
            t0 = time.perf_counter()
            system, client, inputs, setup_s, raw_setup_s, warm = setup(
                workload, seed, per_round
            )
            clock["setup"] += time.perf_counter() - t0
            if index == 0:
                env = environment(system, args.seed, workload)
                env["round_seeds"] = seeds
                first_inputs = inputs
            gc.collect()
            start = counters(system, store_builds)
            phase = run_steps(
                client,
                inputs.timed,
                seconds=per_round,
                keep=bool(args.trace) and index == 0,
                calibrate=True,
            )
            end = counters(system, store_builds)
            if index == 0:
                # Later rounds build into memory the allocator kept from
                # earlier ones; the first round's peak is one system's.
                rss = peak_rss_mb()
            clock["timed"] += phase.seconds
            setups.append(setup_s)
            raw_setups.append(raw_setup_s)
            phases.append(phase)
            steady.append({"start": start, "end": end})
            problems += warm.errors + phase.errors
            problems += steady_state_problems(workload, start, end, phase)
            tail = inputs.timed[phase.steps : phase.steps + VERIFY_STEPS]
            if len(tail) < VERIFY_STEPS:
                problems.append(f"round {index}: the step stream ran out before the deadline")
            if index == ROUNDS - 1:
                t0 = time.perf_counter()
                verified, mismatches = verify(client, tail)
                clock["verify"] = time.perf_counter() - t0
            system.close()
            del system, client
            gc.collect()

        timed = Phase.pooled(phases)
        failed = len(timed.errors) + len(mismatches)
        problems += mismatches
        attempted = timed.attempted + verified
        samples = sample_counts(timed)
        samples.update(
            verified_steps=len(tail),
            distinct_questions=inputs.distinct_questions,
            steps=[phase.steps for phase in phases],
        )
        problems += percentile_problems(samples)
        metrics = end_to_end(timed, statistics.median(setups), rss)
        raw = end_to_end(timed, statistics.median(raw_setups), rss, scaled=False)
        record = {
            "environment": env,
            "seconds": args.seconds,
            "rounds": ROUNDS,
            "trace": args.trace,
            "setup_s": setups,
            "raw_setup_s": raw_setups,
            "raw_metrics": {name: {"value": v, "unit": u} for name, (v, u) in raw.items()},
            "host_speed": {
                "reference_kernel_s": REFERENCE_KERNEL_S,
                "kernel_s_quartiles": statistics.quantiles(timed.kernel_s, n=4),
            },
            "samples": samples,
            "counters": steady,
        }

        if args.trace:
            first = phases[0]
            gc.collect()
            t0 = time.perf_counter()
            system, client, _inputs, traced_setup_s, _raw, _warm = setup(
                workload, seeds[0], per_round, first_inputs
            )
            record["traced_setup_s"] = traced_setup_s
            tracer = Tracer()
            gc.collect()
            before = counters(system, store_builds)
            tracer.install()
            try:
                traced = run_steps(
                    client,
                    first_inputs.timed,
                    limit=first.steps,
                    keep=True,
                    tracer=tracer,
                    calibrate=True,
                )
            finally:
                tracer.restore()
            after = counters(system, store_builds)
            system.close()
            del system, client
            clock["traced"] = time.perf_counter() - t0
            problems += traced.errors
            attempted += traced.attempted
            failed += len(traced.errors)
            differing = [i for i in first.kept if traced.kept.get(i) != first.kept[i]]
            failed += len(differing)
            if differing:
                problems.append(f"traced answers differ at steps {differing[:10]}")
            metrics = per_layer(tracer, traced, first, timed, before, after)
            for key in ("layers.coverage", "layers.write_coverage"):
                if abs(metrics[key][0] - 1.0) > COVERAGE_TOLERANCE:
                    problems.append(
                        f"{key} {metrics[key][0]:.4f} is not 1 +/- {COVERAGE_TOLERANCE}"
                    )
            record["traced_counters"] = {"start": before, "end": after}
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"{workload.name}-s{args.seed}-spans.jsonl.gz")
    finally:
        store_builds.restore()

    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != expected:
        problems.append(f"metrics {sorted(set(metrics) ^ expected)} disagree with BENCHMARK.json")
    clock["total"] = time.perf_counter() - started
    record.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        clock_s=clock,
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        problems=problems,
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload.name}-s{args.seed}-t{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=2)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:28s} {value:14.4f} {unit}")
    if not args.trace:
        print("raw wall times (not scaled by host speed):")
        for name, (value, unit) in sorted(raw.items()):
            print(f"  {name:26s} {value:14.4f} {unit}")
    print(f"{'failed_frac':28s} {failed / attempted:14.4f} ({failed}/{attempted})")
    print(f"samples {json.dumps(samples)}")
    print(f"clock_s {json.dumps({k: round(v, 2) for k, v in clock.items()})}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
