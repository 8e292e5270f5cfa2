"""Equivalence of the shared schedule core with the general event loop.

``Simulator(loop="auto")`` replays a run on the NP-FP schedule core of
:class:`repro.sim.batch.CompiledScenario` and resolves its data flow
after the fact; ``loop="general"`` is the unoptimized semantic
reference.  Every observable of a run must be identical between them:
the full observer callback sequence (jobs, their reads, token
provenance), every :class:`SimulationStats` field, and the final state
of every channel — under implicit and LET semantics, zero-BCET
cascades, FIFO buffers, periodic/jittered/sporadic releases, fault
plans and offsets beyond the period.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gen import generate_random_scenario
from repro.model.graph import CauseEffectGraph
from repro.model.system import System
from repro.model.task import ModelError, ReleaseModel, Task
from repro.sim.engine import Observer, Simulator, randomize_offsets
from repro.sim.exec_time import (
    bcet_policy,
    extremes_policy,
    uniform_policy,
    wcet_policy,
)
from repro.sim.faults import FaultPlan
from repro.sim.metrics import (
    BackwardTimeMonitor,
    DataAgeMonitor,
    DisparityMonitor,
    JobTableMonitor,
)
from repro.units import ms


def _random_system(seed: int, n_tasks: int) -> System:
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    graph = randomize_offsets(scenario.system.graph, rng)
    return System(graph=graph, response_times=scenario.system.response_times)


def _zero_bcet_system(seed: int, n_tasks: int) -> System:
    """A random system where some CPU tasks can execute in zero time.

    Response times depend on WCETs only, so the analyzed table carries
    over unchanged when BCETs are lowered.
    """
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


def _token(token):
    return (
        token.produced_at,
        token.producer,
        token.producer_release,
        token.provenance,
    )


class _Recorder(Observer):
    """Every callback, with the job's reads and the token's provenance."""

    def __init__(self, tasks=None) -> None:
        self.tasks = tasks
        self.calls = []

    @property
    def interested_tasks(self):
        return self.tasks

    def on_job_complete(self, job, token) -> None:
        if self.tasks is not None and job.task.name not in self.tasks:
            return  # the general loop notifies every observer
        self.calls.append(
            (
                job.task.name,
                job.index,
                job.release,
                job.start,
                job.finish,
                job.exec_time,
                tuple(_token(read) for read in job.reads),
                _token(token),
            )
        )


def _run(system, duration, seed, loop, policy, semantics, faults):
    names = [task.name for task in system.graph.tasks]
    observers = [
        _Recorder(),
        # A filtering observer exercises the per-task pre-dispatch.
        _Recorder(frozenset(names[::2])),
        JobTableMonitor(),
        DisparityMonitor(warmup=duration // 4),
        BackwardTimeMonitor(),
        DataAgeMonitor(),
    ]
    sim = Simulator(
        system,
        duration,
        seed=seed,
        policy=policy,
        observers=observers,
        semantics=semantics,
        faults=faults,
        loop=loop,
    )
    try:
        result = sim.run()
    except ModelError as err:  # a LET deadline miss
        return sim, str(err), observers
    return sim, result, observers


def _assert_equivalent(
    system,
    duration,
    seed,
    policy=uniform_policy,
    *,
    semantics="implicit",
    faults=None,
):
    sim_f, res_f, obs_f = _run(
        system, duration, seed, "auto", policy, semantics, faults
    )
    sim_g, res_g, obs_g = _run(
        system, duration, seed, "general", policy, semantics, faults
    )
    assert sim_f._resolved_loop == "fast"
    assert sim_g._resolved_loop == "general"
    if isinstance(res_g, str) or isinstance(res_f, str):
        assert res_f == res_g  # the same LET violation message
        return
    rec_f, sub_f, jobs_f, disp_f, back_f, age_f = obs_f
    rec_g, sub_g, jobs_g, disp_g, back_g, age_g = obs_g

    assert asdict(res_f.stats) == asdict(res_g.stats)

    # The full callback sequence, filtered and unfiltered.
    assert rec_f.calls == rec_g.calls
    assert sub_f.calls == sub_g.calls
    assert jobs_f.jobs == jobs_g.jobs
    instantaneous = {
        task.name for task in system.graph.tasks if task.is_instantaneous
    }
    jobs_f.check_invariants(instantaneous)

    # Metrics.
    assert disp_f.max_disparity == disp_g.max_disparity
    assert disp_f.samples == disp_g.samples
    assert back_f.ranges == back_g.ranges
    assert age_f.ranges == age_g.ranges

    # Channel states (reconstructed from the core's tables).
    for channel in system.graph.channels:
        state_f = sim_f.channel_state(channel.src, channel.dst)
        state_g = sim_g.channel_state(channel.src, channel.dst)
        assert state_f.writes == state_g.writes
        assert state_f.evictions == state_g.evictions
        assert [_token(t) for t in state_f.snapshot()] == [
            _token(t) for t in state_g.snapshot()
        ]
        state_f.validate_fifo_order()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
)
def test_fastpath_matches_general_uniform(seed, n_tasks):
    system = _random_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_equivalent(system, duration, seed)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_fastpath_matches_general_other_policies(seed):
    system = _random_system(seed, 8)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_equivalent(system, duration, seed, policy=wcet_policy)
    _assert_equivalent(system, duration, seed, policy=extremes_policy)


def test_fastpath_matches_general_with_buffers():
    system = _random_system(123, 10)
    # Enlarge every channel into a small FIFO (Lemma 6 territory).
    plan = {
        (c.src, c.dst): 1 + (i % 3)
        for i, c in enumerate(system.graph.channels)
    }
    buffered = system.with_buffer_plan(plan)
    duration = 4 * max(task.period for task in buffered.graph.tasks)
    _assert_equivalent(buffered, duration, 123)


def _variant(system, rng, *, zero_bcet, releases, capacities, far_offsets):
    """``system`` with BCETs, release models, buffers and offsets varied.

    Response times stay those of ``system``: the simulator never
    consults the table.
    """
    graph = system.graph.copy()
    for task in system.graph.tasks:
        out = task
        if zero_bcet and not task.is_instantaneous and rng.random() < 0.5:
            out = replace(out, bcet=0)
        if releases and rng.random() < 2 / 3:
            if rng.random() < 0.5:
                jitter = max(1, task.period // rng.choice((3, 5, 8)))
                model = ReleaseModel.jittered(min(task.period - 1, jitter))
            else:
                model = ReleaseModel.sporadic(
                    max(1, task.period // 2), task.period + task.period // 2
                )
            out = out.with_release_model(model)
        if far_offsets and rng.random() < 0.5:
            # Beyond [0, T]: the release stream takes the heap merge.
            out = out.with_offset(
                task.period + rng.randint(1, 2 * task.period)
            )
        graph.replace_task(out)
    if capacities:
        for channel in system.graph.channels:
            graph.set_channel_capacity(
                channel.src, channel.dst, rng.randint(1, 4)
            )
    return System(graph=graph, response_times=system.response_times)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    semantics=st.sampled_from(["implicit", "let"]),
    zero_bcet=st.booleans(),
    releases=st.booleans(),
    capacities=st.booleans(),
    far_offsets=st.booleans(),
    faulted=st.booleans(),
    policy=st.sampled_from([uniform_policy, bcet_policy, wcet_policy]),
)
def test_auto_matches_general_everywhere(
    seed,
    n_tasks,
    semantics,
    zero_bcet,
    releases,
    capacities,
    far_offsets,
    faulted,
    policy,
):
    rng = random.Random(seed)
    system = _variant(
        _random_system(seed, n_tasks),
        rng,
        zero_bcet=zero_bcet,
        releases=releases,
        capacities=capacities,
        far_offsets=far_offsets,
    )
    duration = 3 * max(task.period for task in system.graph.tasks)
    faults = None
    if faulted:
        victim = rng.choice(system.graph.task_names)
        start = rng.randint(0, duration // 2)
        faults = FaultPlan().drop(victim, start, start + duration // 3)
    _assert_equivalent(
        system, duration, seed, policy, semantics=semantics, faults=faults
    )


def test_loop_validation_happens_at_construction():
    """The loop is resolved (and validated) in ``__init__``.

    ``"auto"`` replays every semantics, fault plan and release model
    on the shared core; the retired loop names are refused before
    ``.run()``.
    """
    system = _random_system(5, 6)
    assert Simulator(system, 10**9, semantics="let")._resolved_loop == "fast"
    assert Simulator(system, 10**9, loop="general")._resolved_loop == "general"
    for retired in ("fast", "classic"):
        with pytest.raises(ModelError):
            Simulator(system, 10**9, loop=retired)

    task = next(t.name for t in system.graph.tasks)
    plan = FaultPlan().drop(task, 0, 10**8)
    assert Simulator(system, 10**9, faults=plan)._resolved_loop == "fast"

    jittered = system.graph.copy()
    for t in system.graph.tasks:
        jittered.replace_task(
            t.with_release_model(ReleaseModel.jittered(max(1, t.period // 8)))
        )
    jsys = System(graph=jittered, response_times=system.response_times)
    assert Simulator(jsys, 10**9, seed=1)._resolved_loop == "fast"


def _two_task_system() -> System:
    graph = CauseEffectGraph()
    graph.add_task(Task("s", ms(10), 0, 0, ecu="e", priority=0))
    graph.add_task(Task("a", ms(10), ms(2), ms(1), ecu="e", priority=1))
    graph.add_task(Task("b", ms(20), ms(3), ms(1), ecu="e", priority=2))
    graph.add_channel("s", "a")
    graph.add_channel("a", "b")
    return System.build(graph)


def test_unmapped_cpu_task_resolves_to_general():
    built = _two_task_system()
    graph = built.graph.copy()
    graph.replace_task(replace(graph.task("b"), ecu=None))
    system = System(graph=graph, response_times=built.response_times)
    assert Simulator(system, ms(100))._resolved_loop == "general"


def test_duplicate_priorities_resolve_to_general():
    built = _two_task_system()
    graph = built.graph.copy()
    graph.replace_task(graph.task("b").with_priority(1))
    system = System(graph=graph, response_times=built.response_times)
    sim = Simulator(system, ms(100), observers=[JobTableMonitor()])
    assert sim._resolved_loop == "general"
    assert sim.run().stats.jobs_completed > 0


def test_auto_uses_fastpath_for_zero_bcet():
    graph = CauseEffectGraph()
    graph.add_task(
        Task("s", period=ms(10), wcet=0, bcet=0, offset=ms(1), ecu="e", priority=2)
    )
    graph.add_task(
        Task(
            "t",
            period=ms(10),
            wcet=ms(2),
            bcet=0,
            offset=ms(2),
            ecu="e",
            priority=1,
        )
    )
    graph.add_channel("s", "t")
    system = System.build(graph)
    sim = Simulator(system, ms(100))
    assert sim._select_loop() == "fast"
    _assert_equivalent(system, ms(100), 7)
    # All-zero execution times: every CPU finish cascades at its own
    # release instant — the worst case for sub-instant ordering.
    _assert_equivalent(system, ms(100), 7, policy=bcet_policy)
    # A horizon on a release instant: the writes at the horizon itself
    # (source emission, zero-time cascade) count and stay visible.
    _assert_equivalent(system, ms(101), 7, policy=bcet_policy)
    _assert_equivalent(system, ms(101), 7, semantics="let")


def test_fastpath_cascade_chain_on_one_unit():
    """A same-unit chain of zero-BCET tasks with identical offsets.

    Under ``bcet_policy`` every job executes in zero time, so each
    release instant processes the whole chain as a cascade of
    finish-triggered dispatches; the sub-instant visibility keys must
    replay the general loop's sub-batch order exactly.
    """
    graph = CauseEffectGraph()
    graph.add_task(
        Task(
            "src",
            period=ms(5),
            wcet=0,
            bcet=0,
            offset=ms(1),
            ecu="e",
            priority=5,
        )
    )
    names = ["src"]
    for i, prio in enumerate((4, 1, 3, 2)):
        name = f"t{i}"
        graph.add_task(
            Task(
                name,
                period=ms(5),
                wcet=ms(1),
                bcet=0,
                offset=ms(1),
                ecu="e",
                priority=prio,
            )
        )
        graph.add_channel(names[-1], name)
        names.append(name)
    system = System.build(graph)
    for seed in (0, 1, 2):
        _assert_equivalent(system, ms(60), seed, policy=bcet_policy)
        _assert_equivalent(system, ms(60), seed)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
)
def test_fastpath_matches_general_zero_bcet(seed, n_tasks):
    system = _zero_bcet_system(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    _assert_equivalent(system, duration, seed)
    # bcet_policy pins every draw to zero for the zeroed tasks,
    # maximizing same-instant cascades.
    _assert_equivalent(system, duration, seed, policy=bcet_policy)


def test_same_instant_zero_time_writes_across_units():
    """Zero-time writes stay invisible to same-sub-batch readers.

    ``w`` (unit ``e1``) and ``r`` (unit ``e2``) dispatch in the same
    sub-batch of every release instant; under ``bcet_policy`` ``w``
    finishes at that instant, but its write lands one sub-batch later,
    after ``r`` and the zero-WCET relay ``z`` have read.
    """
    graph = CauseEffectGraph()
    graph.add_task(
        Task("src", ms(5), 0, 0, offset=ms(1), ecu="e1", priority=0)
    )
    graph.add_task(
        Task("w", ms(5), ms(1), 0, offset=ms(1), ecu="e1", priority=1)
    )
    graph.add_task(
        Task("r", ms(5), ms(1), 0, offset=ms(1), ecu="e2", priority=1)
    )
    graph.add_task(Task("z", ms(5), 0, 0, offset=ms(1), ecu="e2", priority=2))
    graph.add_channel("src", "w")
    graph.add_channel("w", "r")
    graph.add_channel("w", "z")
    system = System.build(graph)
    for seed in (0, 1):
        _assert_equivalent(system, ms(40), seed, policy=bcet_policy)
        _assert_equivalent(system, ms(40), seed)
