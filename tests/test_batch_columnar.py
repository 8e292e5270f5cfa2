"""Differential suite for the columnar batch engine.

The columnar tier builds release streams, advances every replication's
NP-FP schedule and derives provenance/disparity in C, so its
correctness contract is strict equality with the tiers below it: for
any eligible scenario, ``run_batch(engine="columnar")`` must return the
same per-replication disparities as the compiled per-replication loop
(``engine="compiled"``), as ``sims`` independent ``Simulator`` runs, and
as the semantic reference, ``Simulator(loop="general")``.  The suite
pins that identity across implicit and LET semantics, all four
batchable policies, zero-BCET cascades, buffered FIFO channels,
warmups, release models and fault plans, and the fallback edges
(unbatchable policies, ineligible scenarios, numpy or C toolchain
absent) — plus the kernel's bounds checks, its build cache, and the
jobs-invariance of campaign CSVs with the columnar engine active
underneath.

Columnar-only tests skip when the engine cannot run here (no numpy or
no C toolchain); the fallback-parity tests still run, which is exactly
the coverage the forced no-numpy CI leg relies on.
"""

from __future__ import annotations

import random
import subprocess
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch_mod
from repro.api import AnalysisSession
from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.model.task import ModelError, ReleaseModel
from repro.sim.batch import ADV_CACHE_SIZE, CompiledScenario, run_batch
from repro.sim.engine import Simulator, randomize_offsets
from repro.sim.exec_time import named_policy, per_task_policy, wcet_policy
from repro.sim.faults import FaultPlan
from repro.sim.metrics import DisparityMonitor


def _columnar_available() -> bool:
    if batch_mod._np is None:
        return False
    from repro.sim import ckernel

    kernel, _why = ckernel.load_kernel()
    return kernel is not None


needs_columnar = pytest.mark.skipif(
    not _columnar_available(),
    reason="columnar engine unavailable (numpy or C toolchain missing)",
)


def _scenario(seed: int, n_tasks: int):
    scenario = generate_random_scenario(n_tasks, random.Random(seed))
    return scenario.system, scenario.sink


def _sequential(system, task, *, sims, duration, warmup, rng, policy,
                semantics="implicit"):
    """The ground truth: N independent simulator runs, shared generator."""
    session = AnalysisSession(system, semantics=semantics)
    out = []
    for _ in range(sims):
        monitor = DisparityMonitor([task], warmup=warmup)
        session.simulate(
            duration,
            seed=rng.randrange(2**31),
            policy=policy,
            observers=[monitor],
            offsets_rng=rng,
        )
        out.append(monitor.disparity(task))
    return tuple(out)


def _general(system, task, *, sims, duration, warmup, rng, policy,
             semantics="implicit", faults=None):
    """The semantic reference: per-replication general-loop runs.

    Seeds and offsets come from ``rng`` in :func:`run_batch`'s order
    (one seed, then one offset per task in graph order), so replication
    ``i`` here is replication ``i`` of a batch from the same generator.
    """
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
            policy=named_policy(policy),
            observers=[monitor],
            semantics=semantics,
            faults=faults,
            loop="general",
        ).run()
        out.append(monitor.disparity(task))
    return tuple(out)


def _outcome(fn):
    """``fn()``, or the message of the ModelError it raised."""
    try:
        return fn()
    except ModelError as exc:
        return str(exc)


def _run(system, task, *, sims, duration, warmup, seed, policy,
         semantics="implicit", engine="auto"):
    return run_batch(
        system,
        task,
        sims=sims,
        duration=duration,
        warmup=warmup,
        rng=random.Random(seed),
        policy=policy,
        semantics=semantics,
        engine=engine,
    )


@needs_columnar
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=12),
    policy=st.sampled_from(["uniform", "wcet", "bcet", "extremes"]),
)
def test_columnar_matches_compiled_and_simulator(seed, n_tasks, policy):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    shape = dict(
        sims=3, duration=duration, warmup=duration // 4, seed=seed,
        policy=policy,
    )
    columnar = _run(system, sink, engine="columnar", **shape)
    compiled = _run(system, sink, engine="compiled", **shape)
    simulator = _run(system, sink, engine="simulator", **shape)
    assert columnar.engine == "columnar"
    assert columnar.reason is None
    assert compiled.engine == "compiled"
    assert simulator.engine == "simulator"
    assert columnar.disparities == compiled.disparities
    assert columnar.disparities == simulator.disparities


@needs_columnar
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    policy=st.sampled_from(["uniform", "wcet", "extremes"]),
)
def test_columnar_let_matches_compiled_and_sequential(seed, n_tasks, policy):
    system, sink = _scenario(seed, n_tasks)
    duration = 3 * max(task.period for task in system.graph.tasks)
    shape = dict(
        sims=3, duration=duration, warmup=duration // 4, seed=seed,
        policy=policy, semantics="let",
    )
    columnar = _run(system, sink, engine="columnar", **shape)
    compiled = _run(system, sink, engine="compiled", **shape)
    assert columnar.engine == "columnar"
    assert compiled.engine == "compiled"
    assert columnar.disparities == compiled.disparities
    expected = _sequential(
        system, sink, sims=3, duration=duration, warmup=duration // 4,
        rng=random.Random(seed), policy=policy, semantics="let",
    )
    assert columnar.disparities == expected


@needs_columnar
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    semantics=st.sampled_from(["implicit", "let"]),
)
def test_columnar_zero_bcet_cascades(seed, n_tasks, semantics):
    """Instantaneous finish-cascades order identically in lockstep."""
    system, sink = _scenario(seed, n_tasks)
    graph = system.graph.copy()
    for task in graph.tasks:
        if not task.is_instantaneous:
            graph.replace_task(replace(task, bcet=0))
    lowered = System(graph=graph, response_times=system.response_times)
    duration = 2 * max(task.period for task in graph.tasks)
    for policy in ("uniform", "bcet"):
        shape = dict(
            sims=3, duration=duration, warmup=0, seed=seed, policy=policy,
            semantics=semantics,
        )
        columnar = _run(lowered, sink, engine="columnar", **shape)
        compiled = _run(lowered, sink, engine="compiled", **shape)
        assert columnar.disparities == compiled.disparities


def _variant(system, rng, *, zero_bcet, buffered, releases):
    """A generated system reshaped along the differential axes."""
    graph = system.graph.copy()
    for task in system.graph.tasks:
        out = task
        if zero_bcet and not task.is_instantaneous:
            out = replace(out, bcet=0)
        if releases == "jittered":
            jitter = max(1, task.period // rng.choice((3, 5, 8)))
            out = out.with_release_model(
                ReleaseModel.jittered(min(task.period - 1, jitter))
            )
        elif releases == "sporadic":
            out = out.with_release_model(
                ReleaseModel.sporadic(
                    max(1, task.period // 2), task.period + task.period // 2
                )
            )
        graph.replace_task(out)
    if buffered:
        # Sim-B shape: FIFO channels deeper than one token.
        for channel in system.graph.channels:
            graph.set_channel_capacity(
                channel.src, channel.dst, rng.randint(1, 4)
            )
    return System(graph=graph, response_times=system.response_times)


@needs_columnar
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=10),
    semantics=st.sampled_from(["implicit", "let"]),
    policy=st.sampled_from(["uniform", "wcet", "bcet", "extremes"]),
    zero_bcet=st.booleans(),
    buffered=st.booleans(),
    releases=st.sampled_from(["periodic", "jittered", "sporadic", "faulted"]),
)
def test_columnar_matches_general_loop(
    seed, n_tasks, semantics, policy, zero_bcet, buffered, releases
):
    """Columnar == the single reference loop, replication by replication.

    Covers both semantics, zero-BCET cascades, FIFO capacities > 1,
    a warmup that cuts into the run, and table mode (jittered or
    sporadic releases, a fault plan) next to the arithmetic path.
    """
    system, sink = _scenario(seed, n_tasks)
    rng = random.Random(seed ^ 0x5EED)
    system = _variant(
        system, rng, zero_bcet=zero_bcet, buffered=buffered,
        releases=releases,
    )
    duration = 2 * max(task.period for task in system.graph.tasks)
    faults = None
    if releases == "faulted":
        faults = FaultPlan()
        for name in rng.sample([t.name for t in system.graph.tasks], 2):
            start = rng.randrange(duration // 2)
            faults.drop(name, start, start + rng.randrange(1, duration // 3))
    shape = dict(
        sims=3, duration=duration, warmup=duration // 3, policy=policy,
        semantics=semantics,
    )

    def columnar():
        result = run_batch(
            system, sink, rng=random.Random(seed), faults=faults,
            engine="columnar", **shape,
        )
        assert result.engine == "columnar"
        return result.disparities

    expected = _outcome(
        lambda: _general(
            system, sink, rng=random.Random(seed), faults=faults, **shape
        )
    )
    assert _outcome(columnar) == expected


@needs_columnar
@pytest.mark.parametrize("semantics", ["implicit", "let"])
@pytest.mark.parametrize("horizon_ms", [120, 500])
def test_stream_build_with_and_without_hyperperiod_replay(
    semantics, horizon_ms
):
    """The in-kernel stream merge copies whole hyperperiods once two
    of them fit the horizon (lcm 7 * 11 = 77 ms: 500 ms replays, 120 ms
    does not); both ways match the general loop."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.task import Task, source_task
    from repro.units import ms

    graph = CauseEffectGraph()
    graph.add_task(source_task("cam", ms(7), ecu="e0", priority=0))
    graph.add_task(source_task("lidar", ms(11), ecu="e0", priority=1))
    graph.add_task(Task("a", ms(7), ms(2), ms(1), ecu="e0", priority=2))
    graph.add_task(Task("b", ms(11), ms(3), ms(1), ecu="e0", priority=3))
    graph.add_task(Task("fuse", ms(7), ms(1), ms(0), ecu="e1", priority=0))
    graph.add_channel("cam", "a")
    graph.add_channel("lidar", "b")
    graph.add_channel("a", "fuse")
    graph.add_channel("b", "fuse", capacity=2)
    system = System.build(graph)
    shape = dict(
        sims=4, duration=ms(horizon_ms), warmup=ms(30), policy="uniform",
        semantics=semantics,
    )
    result = run_batch(
        system, "fuse", rng=random.Random(11), engine="columnar", **shape
    )
    assert result.engine == "columnar"
    assert result.disparities == _general(
        system, "fuse", rng=random.Random(11), **shape
    )


@needs_columnar
def test_kernel_bounds_checks_raise_model_error(monkeypatch):
    """Undersized job caps reach the kernel, which refuses them with
    its ``-(sim + 1)`` code instead of writing or reading out of
    bounds — in the in-kernel stream build and the advance (the
    release stream and the job columns are sized from the caps) and in
    the derive (recorded dispatches exceed the doctored cap, or a
    table-mode release count exceeds its task's cap)."""
    import numpy as np

    from repro.sim import columnar as columnar_mod
    from repro.sim.exec_time import uniform_policy

    system, sink = _scenario(42, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    compiled = CompiledScenario(system, sink)
    offs = np.array([[1] * compiled.n, compiled.periods], dtype=np.int64)
    adv = columnar_mod._advance(compiled, [3, 4], offs, duration,
                                uniform_policy)
    starts, fins, casc, rec, job_base, job_cap, rels = adv
    shrunk = job_cap // 2
    with pytest.raises(ModelError, match="derive kernel failed"):
        columnar_mod._derive(
            compiled,
            (starts, fins, casc, rec, job_base, shrunk, rels),
            offs, duration, 0,
        )

    # Table mode: the monitored implicit compute task reads its kept
    # releases only for the warmup cut, so a release count beyond its
    # cap must be refused there too.
    jittered = _variant(
        system, random.Random(5), zero_bcet=False, buffered=False,
        releases="jittered",
    )
    compiled = CompiledScenario(jittered, sink)
    gid = compiled.m_gid
    assert compiled._needs_tables and not compiled.inst[gid]
    adv = columnar_mod._advance(compiled, [3, 4], offs, duration,
                                uniform_policy)
    starts, fins, casc, rec, job_base, job_cap, rels = adv
    rel_tab, rel_base, rel_len = rels
    overlong = rel_len.copy()
    overlong[:, gid] = job_cap[gid] + 1
    with pytest.raises(ModelError, match="derive kernel failed"):
        columnar_mod._derive(
            compiled,
            (starts, fins, casc, rec, job_base, job_cap,
             (rel_tab, rel_base, overlong)),
            offs, duration, duration + 1,
        )

    monkeypatch.setattr(columnar_mod, "_job_cap", lambda *_args: 1)
    with pytest.raises(ModelError, match="advance kernel failed"):
        run_batch(
            system, sink, sims=2, duration=duration, rng=random.Random(1),
            engine="columnar",
        )


def test_cflags_enter_the_kernel_object_name(monkeypatch, tmp_path):
    """A sanitized build never shares a cached object with a normal
    one: the compile flags are part of the object name's hash."""
    from repro.sim import ckernel

    targets = []

    def fake_build(source, target, cflags):
        targets.append((target.name, cflags))
        return "not built"

    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    monkeypatch.setenv("REPRO_CKERNEL_CACHE", str(tmp_path))
    monkeypatch.setattr(ckernel, "_build", fake_build)
    monkeypatch.delenv("REPRO_CKERNEL_CFLAGS", raising=False)
    assert ckernel._load_uncached() == (None, "not built")
    monkeypatch.setenv(
        "REPRO_CKERNEL_CFLAGS", "-O1 -g -fsanitize=address,undefined"
    )
    assert ckernel._load_uncached() == (None, "not built")
    (plain, plain_flags), (sanitized, sanitized_flags) = targets
    assert plain_flags == [ckernel.DEFAULT_CFLAGS]
    assert sanitized_flags == ["-O1", "-g", "-fsanitize=address,undefined"]
    assert plain != sanitized
    assert plain.startswith(f"ckernel-abi{ckernel.ABI_VERSION}-")


@pytest.mark.parametrize(
    "failure",
    [subprocess.TimeoutExpired("cc", 120), OSError("cc vanished")],
)
def test_build_removes_tmp_object_when_compiler_raises(
    monkeypatch, tmp_path, failure
):
    from repro.sim import ckernel

    def fake_run(cmd, **_kwargs):
        out = cmd[cmd.index("-o") + 1]
        with open(out, "wb") as handle:
            handle.write(b"partial object")
        raise failure

    monkeypatch.setattr(ckernel, "_compilers", lambda: ["cc"])
    monkeypatch.setattr(ckernel.subprocess, "run", fake_run)
    target = tmp_path / "ckernel.so"
    reason = ckernel._build(ckernel._SOURCE, target, ["-O2"])
    assert reason is not None and reason.startswith("cc: ")
    assert list(tmp_path.iterdir()) == []


def test_unbatchable_policy_falls_back_to_compiled():
    """Per-task policies (fault injection) keep the compiled tier."""
    system, sink = _scenario(31, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    hog = next(t.name for t in system.graph.tasks if not t.is_instantaneous)
    policy = per_task_policy({hog: wcet_policy})
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy=policy,
    )
    assert result.engine == "compiled"
    # With numpy gated off (REPRO_NO_NUMPY leg) that shortfall is
    # reported before the policy is even examined.
    if batch_mod._np is not None:
        assert "not a batchable named policy" in (result.reason or "")
    else:
        assert "numpy unavailable" in (result.reason or "")
    expected = _sequential(
        system, sink, sims=3, duration=duration, warmup=0,
        rng=random.Random(5), policy=policy,
    )
    assert result.disparities == expected
    with pytest.raises(ModelError) as err:
        _run(
            system, sink, sims=3, duration=duration, warmup=0, seed=5,
            policy=policy, engine="columnar",
        )
    assert "columnar engine unavailable" in str(err.value)


def test_duplicate_priorities_fall_back_to_simulator():
    """Compiled-ineligible scenarios reach the simulator on auto, with
    the same results, and a forced columnar run refuses with reasons."""
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
    auto = _run(
        system, "b", sims=3, duration=ms(200), warmup=ms(40), seed=3,
        policy="uniform",
    )
    assert auto.engine == "simulator"
    assert "duplicate priorities" in (auto.reason or "")
    expected = _sequential(
        system, "b", sims=3, duration=ms(200), warmup=ms(40),
        rng=random.Random(3), policy="uniform",
    )
    assert auto.disparities == expected
    with pytest.raises(ModelError) as err:
        _run(
            system, "b", sims=3, duration=ms(200), warmup=ms(40), seed=3,
            policy="uniform", engine="columnar",
        )
    assert "columnar engine unavailable" in str(err.value)
    assert "duplicate priorities" in str(err.value)


def test_unknown_engine_rejected():
    system, sink = _scenario(4, 6)
    with pytest.raises(ModelError):
        run_batch(system, sink, sims=1, duration=10**9, engine="warp")


@needs_columnar
def test_let_violation_parity_across_engines():
    """All three tiers raise the identical LET-violation ModelError."""
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
    for engine in ("columnar", "compiled", "simulator"):
        with pytest.raises(ModelError) as err:
            _run(
                overloaded, "late", sims=3, duration=ms(100), warmup=0,
                seed=9, policy="uniform", semantics="let", engine=engine,
            )
        messages.append(str(err.value))
    assert "LET violation" in messages[0]
    assert messages[0] == messages[1] == messages[2]


@needs_columnar
def test_adv_cache_aliasing_and_hits():
    """The columnar advance memo follows the ``_sched_cache`` rules:
    capacity-only siblings alias it, period edits start fresh, and a
    repeated batch at the same draws hits instead of re-advancing."""
    system, sink = _scenario(42, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    compiled = CompiledScenario(system, sink)
    assert compiled._adv_cache.maxsize == ADV_CACHE_SIZE
    first = run_batch(
        system, sink, sims=3, duration=duration, rng=random.Random(7),
        compiled=compiled, engine="columnar",
    )
    assert compiled._adv_cache.entries
    assert compiled._adv_cache.hits == 0
    again = run_batch(
        system, sink, sims=3, duration=duration, rng=random.Random(7),
        compiled=compiled, engine="columnar",
    )
    assert again.disparities == first.disparities
    assert compiled._adv_cache.hits == 1

    edge = next((c.src, c.dst) for c in system.graph.channels)
    capacity_view = compiled.edit(capacities={edge: 3})
    assert capacity_view.compiled._adv_cache is compiled._adv_cache
    victim = next(
        t for t in system.graph.tasks if not t.is_instantaneous
    )
    period_view = compiled.edit(periods={victim.name: victim.period * 2})
    assert period_view.compiled._adv_cache is not compiled._adv_cache


def test_no_numpy_falls_back_to_compiled(monkeypatch):
    system, sink = _scenario(77, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    reference = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy="uniform", engine="compiled",
    )
    monkeypatch.setattr(batch_mod, "_np", None)
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=5,
        policy="uniform",
    )
    assert result.engine == "compiled"
    assert "numpy unavailable" in (result.reason or "")
    assert result.disparities == reference.disparities
    with pytest.raises(ModelError) as err:
        _run(
            system, sink, sims=3, duration=duration, warmup=0, seed=5,
            policy="uniform", engine="columnar",
        )
    assert "numpy unavailable" in str(err.value)


@pytest.mark.skipif(
    batch_mod._np is None,
    reason="needs numpy so the kernel is the only missing piece",
)
def test_no_ckernel_falls_back_to_compiled(monkeypatch):
    from repro.sim import columnar as columnar_mod

    system, sink = _scenario(78, 8)
    duration = 2 * max(task.period for task in system.graph.tasks)
    reference = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=6,
        policy="uniform", engine="compiled",
    )
    monkeypatch.setattr(
        columnar_mod.ckernel, "load_kernel", lambda: (None, "cc missing")
    )
    result = _run(
        system, sink, sims=3, duration=duration, warmup=0, seed=6,
        policy="uniform",
    )
    assert result.engine == "compiled"
    assert "advance kernel unavailable" in (result.reason or "")
    assert result.disparities == reference.disparities


def test_campaign_csv_is_jobs_invariant():
    """Fig. 6 CSV bytes don't depend on the worker count with the
    columnar engine active underneath the campaign."""
    from repro.experiments.config import Fig6ABConfig
    from repro.experiments.fig6 import run_fig6_ab
    from repro.experiments.reporting import csv_ab
    from repro.units import seconds

    config = Fig6ABConfig(
        x_values=(5, 7),
        graphs_per_point=2,
        sims_per_graph=2,
        sim_duration=seconds(1),
        warmup=seconds(0.5),
        seed=7,
    )
    serial = csv_ab(run_fig6_ab(config))
    parallel = csv_ab(run_fig6_ab(config, jobs=2))
    assert serial == parallel
