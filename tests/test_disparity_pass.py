"""Differential test: the all-pairs integer pass vs the per-pair theorems.

:func:`repro.core.disparity.pair_bounds` computes every pair bound of a
task in one pass over per-chain prefix arrays.  Each bound must equal
what the per-pair functions (:func:`disparity_bound_independent`,
:func:`disparity_bound_forkjoin`, their minimum for ``"best"``) return
for the same pair over a plain per-chain cache, for every method, with
and without suffix truncation, on random WATERS DAGs and the
hand-built fixtures, with FIFO capacities 1-4, under the implicit and
LET bounds and under a strategy that is not edge-additive.

:func:`worst_case_disparity` keeps the evidence of the eager loop it
replaced: ``worst_pair`` is the first pair with the largest bound, and
the lazily built ``pair_results`` equal the per-pair results in
``combinations`` order.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.backward import (
    BackwardBounds,
    BackwardBoundsCache,
    BackwardBoundsTable,
    backward_bounds,
)
from repro.core.disparity import pair_bounds, worst_case_disparity
from repro.core.pairwise import (
    disparity_bound_forkjoin,
    disparity_bound_independent,
)
from repro.gen import generate_random_scenario
from repro.let import backward_bounds_let
from repro.model.chain import Chain, enumerate_source_chains
from repro.model.system import System
from repro.units import ms
from tests.conftest import (
    build_diamond_graph,
    build_merged_chains_graph,
    build_two_source_graph,
)

METHODS = ("independent", "forkjoin", "best")


def lengthened(chain: Chain, system: System) -> BackwardBounds:
    """Not edge-additive: ``W`` grows with the square of the length."""
    base = backward_bounds(chain, system)
    return BackwardBounds(
        chain=chain,
        wcbt=base.wcbt + len(chain) ** 2 * ms(1),
        bcbt=base.bcbt,
    )


def wrapped_let(chain: Chain, system: System) -> BackwardBounds:
    """The LET bounds behind a wrapper the table cannot recognize."""
    return backward_bounds_let(chain, system)


STRATEGIES = {
    "implicit": None,
    "let": backward_bounds_let,
    "lengthened": lengthened,
    "wrapped-let": wrapped_let,
}


def reference(lam, nu, cache, method, truncate_suffix):
    """The per-pair result the eager loop produced."""
    if method == "independent":
        return disparity_bound_independent(lam, nu, cache)
    forkjoin = disparity_bound_forkjoin(
        lam, nu, cache, truncate_suffix=truncate_suffix
    )
    if method == "forkjoin":
        return forkjoin
    independent = disparity_bound_independent(lam, nu, cache)
    return forkjoin if forkjoin.bound <= independent.bound else independent


def with_capacities(system: System, rng: random.Random) -> System:
    """``system`` with FIFO capacities 1-4 on a random subset of channels."""
    plan = {
        (channel.src, channel.dst): rng.randint(1, 4)
        for channel in system.graph.channels
        if rng.random() < 0.5
    }
    return system.with_buffer_plan(plan) if plan else system


def assert_pass_matches(system, task, strategy, *, duplicate=False, chains=None):
    """Every method and truncation flag on ``task``'s chains."""
    if chains is None:
        chains = enumerate_source_chains(system.graph, task)
    if duplicate and chains:
        # A repeated chain gives pairs that are identical after
        # truncation, and ties for the worst pair.
        chains = chains + (chains[0],)
    for method in METHODS:
        for truncate_suffix in (True, False):
            per_pair = BackwardBoundsCache(system, strategy=strategy)
            expected = [
                reference(lam, nu, per_pair, method, truncate_suffix)
                for lam, nu in combinations(chains, 2)
            ]
            table = BackwardBoundsTable(system, strategy=strategy)
            got = pair_bounds(chains, table, method, truncate_suffix)
            assert got == [r.bound for r in expected], (method, truncate_suffix)

            result = worst_case_disparity(
                system,
                task,
                method=method,
                truncate_suffix=truncate_suffix,
                cache=BackwardBoundsTable(system, strategy=strategy),
                chains=chains,
            )
            worst = None
            for pair in expected:
                if worst is None or pair.bound > worst.bound:
                    worst = pair
            assert result.bound == (worst.bound if worst else 0)
            assert result.worst_pair == worst
            assert result.n_pairs == len(expected)
            assert result.pair_results == tuple(expected)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_tasks=st.integers(min_value=5, max_value=16),
    strategy=st.sampled_from(sorted(STRATEGIES)),
    buffered=st.booleans(),
    duplicate=st.booleans(),
)
def test_pass_matches_per_pair_on_waters(seed, n_tasks, strategy, buffered, duplicate):
    rng = random.Random(seed)
    scenario = generate_random_scenario(n_tasks, rng)
    system = scenario.system
    if buffered:
        system = with_capacities(system, rng)
    assert_pass_matches(
        system, scenario.sink, STRATEGIES[strategy], duplicate=duplicate
    )


FIXTURES = {
    "diamond": (build_diamond_graph, ("sink", "m", "x")),
    "two-source": (build_two_source_graph, ("fuse",)),
    "merged": (build_merged_chains_graph, ("sink",)),
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_pass_matches_per_pair_on_fixtures(fixture, strategy):
    build, tasks = FIXTURES[fixture]
    system = System.build(build())
    rng = random.Random(5)
    for candidate in (system, with_capacities(system, rng)):
        for task in tasks:
            for duplicate in (False, True):
                assert_pass_matches(
                    candidate, task, STRATEGIES[strategy], duplicate=duplicate
                )


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_pass_matches_per_pair_on_chains_from_inner_tasks(strategy):
    """Chains need not start at a source: a shared non-source head is a
    joint, so the first fork-join span is a single task."""
    system = System.build(build_diamond_graph())
    chains = tuple(
        Chain(tasks)
        for tasks in (
            ("m", "x", "sink"),
            ("m", "y", "sink"),
            ("a", "m", "x", "sink"),
            ("x", "sink"),
            ("sink",),
        )
    )
    assert_pass_matches(system, "sink", STRATEGIES[strategy], chains=chains)


def test_diamond_covers_shared_sources_identical_pairs_and_ties():
    """The fixture cases above exercise what the pass special-cases."""
    system = System.build(build_diamond_graph())
    chains = enumerate_source_chains(system.graph, "sink")
    chains = chains + (chains[0],)
    assert all(chain.head == "s" for chain in chains)  # shared source
    table = BackwardBoundsTable(system)
    bounds = pair_bounds(chains, table, "forkjoin")
    pairs = list(combinations(chains, 2))
    identical = [k for k, (lam, nu) in enumerate(pairs) if lam == nu]
    assert identical and all(bounds[k] == 0 for k in identical)
    assert bounds.count(max(bounds)) > 1  # the worst pair is a tie
    result = worst_case_disparity(system, "sink", chains=chains)
    first = bounds.index(max(bounds))
    assert (result.worst_pair.lam, result.worst_pair.nu) == pairs[first]


def test_pair_results_built_on_first_access_only():
    system = System.build(build_diamond_graph())
    result = worst_case_disparity(system, "sink", method="best")
    assert "pair_results" not in vars(result)
    assert result.n_pairs == 6
    assert "pair_results" not in vars(result)
    assert result.pair_results is result.pair_results
    assert result.worst_pair in result.pair_results


def test_evidence_only_for_the_worst_pair(monkeypatch):
    """The pass decomposes no pair; the evidence decomposes one."""
    import repro.core.pairwise as pairwise

    calls = []
    original = pairwise.decompose_pair

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pairwise, "decompose_pair", counted)
    system = System.build(build_diamond_graph())
    result = worst_case_disparity(system, "sink")
    assert result.n_pairs == 6
    assert len(calls) == 1
