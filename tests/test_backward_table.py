"""Property-based equivalence: BackwardBoundsTable == per-chain bounds.

The DAG-shared prefix DP (:class:`BackwardBoundsTable`) must reproduce
the per-chain Lemma 4/5 sums (:func:`backward_bounds`) exactly, for
every chain and sub-chain of randomly generated WATERS scenarios.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.backward import (
    BackwardBoundsCache,
    BackwardBoundsTable,
    backward_bounds,
)
from repro.core.disparity import worst_case_disparity
from repro.gen import generate_random_scenario
from repro.model.chain import Chain, enumerate_source_chains
from repro.model.task import ModelError


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=14),
)
def test_table_matches_per_chain_bounds(seed, n_tasks):
    """Every chain (and contiguous sub-chain) of a random WATERS graph."""
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system, sink = scenario.system, scenario.sink
    table = BackwardBoundsTable(system)
    for chain in enumerate_source_chains(system.graph, sink):
        tasks = chain.tasks
        for i in range(len(tasks)):
            for j in range(i, len(tasks)):
                sub = Chain(tasks[i : j + 1])
                reference = backward_bounds(sub, system)
                shared = table.bounds(sub)
                assert shared.wcbt == reference.wcbt
                assert shared.bcbt == reference.bcbt


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    method=st.sampled_from(["independent", "forkjoin", "best"]),
)
def test_disparity_identical_with_table(seed, method):
    """End-to-end: theorems fed by the table give identical bounds."""
    rng = random.Random(seed)
    scenario = generate_random_scenario(rng.randint(5, 12), rng)
    system, sink = scenario.system, scenario.sink
    via_cache = worst_case_disparity(
        system, sink, method=method, cache=BackwardBoundsCache(system)
    )
    via_table = worst_case_disparity(system, sink, method=method)
    assert via_table.bound == via_cache.bound
    assert [p.bound for p in via_table.pair_results] == [
        p.bound for p in via_cache.pair_results
    ]


def test_table_rejects_non_chain():
    rng = random.Random(7)
    scenario = generate_random_scenario(8, rng)
    system = scenario.system
    names = system.graph.task_names
    # Two tasks with no channel between them (a sink never feeds back).
    sink = scenario.sink
    other = next(n for n in names if n != sink)
    table = BackwardBoundsTable(system)
    with pytest.raises(ModelError):
        table.bounds(Chain((sink, other)))


def test_table_register_warms_every_prefix():
    rng = random.Random(11)
    scenario = generate_random_scenario(10, rng)
    system, sink = scenario.system, scenario.sink
    table = BackwardBoundsTable(system)
    chains = enumerate_source_chains(system.graph, sink)
    table.register(chains)
    assert len(table) >= len(chains)


class TestRegimeCheckedOnce:
    """The table classifies the release regime once, at construction."""

    def test_periodic_lookups_skip_the_check(self, monkeypatch):
        from repro.analysis_regime import AnalysisRegime

        rng = random.Random(3)
        scenario = generate_random_scenario(10, rng)
        system, sink = scenario.system, scenario.sink
        table = BackwardBoundsTable(system)
        calls = []
        original = AnalysisRegime.require_analytical

        def counted(regime, analysis):
            calls.append(analysis)
            return original(regime, analysis)

        monkeypatch.setattr(AnalysisRegime, "require_analytical", counted)
        chains = enumerate_source_chains(system.graph, sink)
        for _ in range(3):
            for chain in chains:
                table.bounds(chain)
                table.profile(chain)
        assert calls == []

    @pytest.mark.parametrize("kind", ["jitter", "sporadic"])
    def test_nonperiodic_refused_on_every_query(self, kind):
        from repro.analysis_regime import RegimeError
        from repro.api import AnalysisSession
        from repro.units import ms

        system = _nonperiodic_fusion(kind)
        table = BackwardBoundsTable(system)
        chain = Chain(("cam", "fuse"))
        for _ in range(3):  # first and repeated queries
            with pytest.raises(RegimeError):
                table.bounds(chain)
            with pytest.raises(RegimeError):
                table.profile(chain)
        session = AnalysisSession(system)
        for _ in range(2):
            with pytest.raises(RegimeError):
                session.backward(chain)
        assert session.observed_disparity(
            "fuse", sims=2, duration=ms(300), seed=4
        ) >= 0

    @pytest.mark.parametrize("kind", ["jitter", "sporadic"])
    def test_let_table_matches_let_bounds_off_the_periodic_regime(self, kind):
        from repro.let import backward_bounds_let

        system = _nonperiodic_fusion(kind).with_buffer_plan({("cam", "fuse"): 3})
        table = BackwardBoundsTable(system, strategy=backward_bounds_let)
        for tasks in (("cam", "fuse"), ("lidar", "fuse"), ("cam",)):
            chain = Chain(tasks)
            assert table.bounds(chain) == backward_bounds_let(chain, system)


def _nonperiodic_fusion(kind: str):
    """``cam -> fuse <- lidar`` with one jittered or sporadic source."""
    from repro.model.graph import CauseEffectGraph
    from repro.model.system import System
    from repro.model.task import ReleaseModel, Task, source_task
    from repro.units import ms

    if kind == "jitter":
        cam = source_task("cam", ms(10), ecu="e", priority=0).with_release_model(
            ReleaseModel.jittered(ms(2))
        )
    else:
        cam = source_task("cam", ms(10), ecu="e", priority=0).with_release_model(
            ReleaseModel.sporadic(ms(8), ms(15))
        )
    graph = CauseEffectGraph()
    graph.add_task(cam)
    graph.add_task(source_task("lidar", ms(30), ecu="e", priority=1))
    graph.add_task(Task("fuse", ms(30), ms(2), ms(1), ecu="e", priority=2))
    graph.add_channel("cam", "fuse")
    graph.add_channel("lidar", "fuse")
    return System.build(graph)
