"""Equivalence of the LET fast path and LET batch replay with the
general loop.

Under LET semantics jobs read at *release* and publish at their
*deadline* (release + period), so data flow is fully determined by the
schedule — exactly the structure the shared schedule core (which
``loop="auto"`` and the compiled batch engine run) exploits.  The
general event loop remains the untouched semantic reference: every
observable of a LET run — job
tables, stats counters, channel states, disparity/backward-time/
data-age metrics — must be identical between ``loop="auto"`` and
``loop="general"``, and ``run_batch(semantics="let")`` must be
byte-identical to N sequential ``simulate(semantics="let")`` calls
under the same generator (the ``AnalysisSession.observed_disparity``
discipline: per replication an execution-time seed is drawn first,
then one offset in ``[1, T]`` per task in graph order).
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisSession
from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import ModelError
from repro.sim.batch import CompiledScenario, run_batch
from repro.sim.engine import Simulator, randomize_offsets
from repro.sim.exec_time import bcet_policy, extremes_policy, wcet_policy
from repro.sim.metrics import (
    BackwardTimeMonitor,
    DataAgeMonitor,
    DisparityMonitor,
    JobTableMonitor,
)


def _random_system(seed: int, n_tasks: int) -> System:
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = randomize_offsets(scenario.system.graph, rng)
    return System(graph=graph, response_times=scenario.system.response_times)


def _zero_bcet_system(seed: int, n_tasks: int) -> System:
    """A random system where some CPU tasks can execute in zero time."""
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = randomize_offsets(scenario.system.graph, rng)
    zeroed = graph.copy()
    hit = False
    for task in graph.tasks:
        if task.is_instantaneous:
            continue
        if not hit or rng.random() < 0.5:
            zeroed.replace_task(replace(task, bcet=0))
            hit = True
    return System(
        graph=zeroed, response_times=scenario.system.response_times
    )


def _run(system, duration, seed, loop, policy=None):
    job_table = JobTableMonitor()
    disparity = DisparityMonitor(warmup=duration // 4)
    backward = BackwardTimeMonitor()
    age = DataAgeMonitor()
    kwargs = {} if policy is None else {"policy": policy}
    sim = Simulator(
        system,
        duration,
        seed=seed,
        observers=[job_table, disparity, backward, age],
        semantics="let",
        loop=loop,
        **kwargs,
    )
    result = sim.run()
    return sim, result, job_table, disparity, backward, age


def _assert_equivalent(system, duration, seed, policy=None):
    fast = _run(system, duration, seed, "auto", policy)
    general = _run(system, duration, seed, "general", policy)
    sim_f, res_f, jobs_f, disp_f, back_f, age_f = fast
    sim_g, res_g, jobs_g, disp_g, back_g, age_g = general
    assert sim_f._resolved_loop == "fast"

    # Stats counters.
    assert res_f.stats.jobs_released == res_g.stats.jobs_released
    assert res_f.stats.jobs_completed == res_g.stats.jobs_completed
    assert res_f.stats.events_processed == res_g.stats.events_processed
    assert res_f.stats.busy_time == res_g.stats.busy_time

    # Full job table, in notification order.
    assert jobs_f.jobs == jobs_g.jobs
    instantaneous = {
        task.name for task in system.graph.tasks if task.is_instantaneous
    }
    jobs_f.check_invariants(instantaneous)

    # Metrics.
    assert disp_f.max_disparity == disp_g.max_disparity
    assert disp_f.samples == disp_g.samples
    assert back_f.ranges.keys() == back_g.ranges.keys()
    for key in back_f.ranges:
        assert back_f.ranges[key] == back_g.ranges[key]
    for key in age_f.ranges:
        assert age_f.ranges[key] == age_g.ranges[key]

    # Channel states (reconstructed from the core's tables).
    for channel in system.graph.channels:
        state_f = sim_f.channel_state(channel.src, channel.dst)
        state_g = sim_g.channel_state(channel.src, channel.dst)
        assert state_f.writes == state_g.writes
        assert state_f.evictions == state_g.evictions
        snap_f, snap_g = state_f.snapshot(), state_g.snapshot()
        assert len(snap_f) == len(snap_g)
        for tok_f, tok_g in zip(snap_f, snap_g):
            assert tok_f.produced_at == tok_g.produced_at
            assert tok_f.producer == tok_g.producer
            assert tok_f.producer_release == tok_g.producer_release
            assert tok_f.provenance == tok_g.provenance
        state_f.validate_fifo_order()


# ----------------------------------------------------------------------
# fast path vs general loop
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
)
def test_let_fastpath_matches_general_uniform(seed, n_tasks):
    system = _random_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_equivalent(system, duration, seed)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_let_fastpath_matches_general_other_policies(seed):
    system = _random_system(seed, 8)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_equivalent(system, duration, seed, policy=wcet_policy)
    _assert_equivalent(system, duration, seed, policy=extremes_policy)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_let_fastpath_matches_general_zero_bcet(seed, n_tasks):
    """Zero-BCET cascades: LET visibility is deadline-driven, so even
    same-instant finish pileups must not perturb the reconstruction."""
    system = _zero_bcet_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_equivalent(system, duration, seed)
    _assert_equivalent(system, duration, seed, policy=bcet_policy)


def test_let_fastpath_matches_general_with_buffers():
    system = _random_system(321, 10)
    plan = {
        (c.src, c.dst): 1 + (i % 3)
        for i, c in enumerate(system.graph.channels)
    }
    buffered = system.with_buffer_plan(plan)
    duration = 4 * max(task.period for task in buffered.graph.tasks)
    _assert_equivalent(buffered, duration, 321)


def test_let_deadline_violation_parity():
    """Both loops raise the same ModelError when a job misses its LET
    deadline.

    The generator only produces schedulable systems, so the overload is
    built by surgery: analyze a light system, then inflate the
    high-priority task's WCET so the low-priority sibling's response
    time exceeds its period (the simulator never consults the table).
    """
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task
    from repro.units import ms

    graph = CauseEffectGraph()
    graph.add_task(source_task("src", ms(10), ecu="e", priority=0))
    graph.add_task(Task("hog", ms(10), ms(2), ms(2), ecu="e", priority=1))
    graph.add_task(Task("late", ms(10), ms(2), ms(2), ecu="e", priority=2))
    graph.add_channel("src", "hog")
    graph.add_channel("hog", "late")
    built = System.build(graph)
    overloaded_graph = built.graph.copy()
    overloaded_graph.replace_task(
        replace(overloaded_graph.task("hog"), wcet=ms(9), bcet=ms(9))
    )
    overloaded = System(
        graph=overloaded_graph, response_times=built.response_times
    )
    messages = []
    for loop in ("auto", "general"):
        with pytest.raises(ModelError) as err:
            Simulator(
                overloaded, ms(100), seed=9, semantics="let", loop=loop
            ).run()
        messages.append(str(err.value))
    assert "LET violation" in messages[0]
    assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# compiled batch replay vs sequential LET runs
# ----------------------------------------------------------------------

def _sequential_let(system, task, *, sims, duration, warmup, rng,
                    policy="uniform", loop="general"):
    """N independent LET simulator runs, shared generator."""
    from repro.sim.exec_time import named_policy

    if isinstance(policy, str):
        policy = named_policy(policy)
    out = []
    for _ in range(sims):
        monitor = DisparityMonitor([task], warmup=warmup)
        run_seed = rng.randrange(2**31)
        run_system = System(
            graph=randomize_offsets(system.graph, rng),
            response_times=system.response_times,
        )
        Simulator(
            run_system,
            duration,
            seed=run_seed,
            policy=policy,
            observers=[monitor],
            semantics="let",
            loop=loop,
        ).run()
        out.append(monitor.disparity(task))
    return tuple(out)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_let_batch_matches_sequential_general(seed, n_tasks):
    system, sink = (lambda s: (s.system, s.sink))(
        generate_random_scenario(n_tasks, random.Random(seed))
    )
    duration = 3 * max(task.period for task in system.graph.tasks)
    result = run_batch(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
        semantics="let",
    )
    expected = _sequential_let(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
    )
    assert result.engine in ("columnar", "compiled")
    assert result.semantics == "let"
    assert result.disparities == expected


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
)
def test_let_batch_matches_sequential_zero_bcet(seed, n_tasks):
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = scenario.system.graph.copy()
    hit = False
    for task in scenario.system.graph.tasks:
        if task.is_instantaneous:
            continue
        if not hit or rng.random() < 0.5:
            graph.replace_task(replace(task, bcet=0))
            hit = True
    system = System(
        graph=graph, response_times=scenario.system.response_times
    )
    sink = scenario.sink
    duration = 2 * max(task.period for task in graph.tasks)
    compiled = CompiledScenario(system, sink, semantics="let")
    assert compiled.eligible
    result = run_batch(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
        compiled=compiled,
        semantics="let",
    )
    expected = _sequential_let(
        system,
        sink,
        sims=3,
        duration=duration,
        warmup=duration // 4,
        rng=random.Random(seed),
    )
    assert result.engine in ("columnar", "compiled")
    assert result.disparities == expected


def test_let_batch_fallback_matches_sequential():
    """Ineligible scenarios (duplicate priorities) fall back to the
    per-replication simulator *with LET semantics*, never implicit."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task
    from repro.units import ms

    graph = CauseEffectGraph()
    graph.add_task(source_task("src", ms(10), ecu="e", priority=0))
    graph.add_task(Task("a", ms(10), ms(2), ms(1), ecu="e", priority=1))
    graph.add_task(Task("b", ms(20), ms(3), ms(1), ecu="e", priority=2))
    graph.add_channel("src", "a")
    graph.add_channel("a", "b")
    built = System.build(graph)
    collided = built.graph.copy()
    collided.replace_task(replace(collided.task("b"), priority=1))
    system = System(graph=collided, response_times=built.response_times)
    compiled = CompiledScenario(system, "b", semantics="let")
    assert not compiled.eligible
    result = run_batch(
        system,
        "b",
        sims=4,
        duration=ms(200),
        warmup=ms(20),
        rng=random.Random(11),
        compiled=compiled,
        semantics="let",
    )
    expected = _sequential_let(
        system,
        "b",
        sims=4,
        duration=ms(200),
        warmup=ms(20),
        rng=random.Random(11),
    )
    assert result.engine == "simulator"
    assert result.semantics == "let"
    assert result.reason is not None
    assert "duplicate priorities" in result.reason
    assert result.disparities == expected


def test_run_batch_rejects_semantics_mismatch():
    scenario = generate_random_scenario(6, random.Random(8))
    system, sink = scenario.system, scenario.sink
    implicit = CompiledScenario(system, sink)
    with pytest.raises(ModelError):
        run_batch(
            system, sink, sims=1, duration=10**9,
            compiled=implicit, semantics="let",
        )
    with pytest.raises(ModelError):
        CompiledScenario(system, sink, semantics="lett")


# ----------------------------------------------------------------------
# session routing (the observed_batch LET seam)
# ----------------------------------------------------------------------

def test_let_session_observed_batch_replays_let():
    """Regression: a LET session's observed disparities must equal N
    sequential ``simulate(semantics="let")`` calls — never implicit."""
    scenario = generate_random_scenario(9, random.Random(3))
    system, sink = scenario.system, scenario.sink
    duration = 3 * max(task.period for task in system.graph.tasks)
    warmup = duration // 4

    session = AnalysisSession(system, semantics="let")
    assert session.semantics == "let"
    result = session.observed_batch(
        sink, sims=5, duration=duration, warmup=warmup, seed=17
    )
    assert result.semantics == "let"
    expected = _sequential_let(
        system,
        sink,
        sims=5,
        duration=duration,
        warmup=warmup,
        rng=random.Random(17),
    )
    assert result.disparities == expected
    assert session.observed_disparity(
        sink, sims=5, duration=duration, warmup=warmup, seed=17
    ) == max(expected)

    # The compiled scenario is cached per (task, semantics): an explicit
    # implicit-semantics request on the same session compiles separately
    # and does not disturb the LET entry.
    implicit = session.observed_batch(
        sink, sims=5, duration=duration, warmup=warmup, seed=17,
        semantics="implicit",
    )
    assert implicit.semantics == "implicit"
    assert set(session._compiled) == {(sink, "let"), (sink, "implicit")}


def test_session_rejects_unknown_semantics():
    scenario = generate_random_scenario(5, random.Random(2))
    with pytest.raises(ValueError):
        AnalysisSession(scenario.system, semantics="explicit")
