"""The benchmark's workloads: what each runs, and how big its input is.

Every workload is a Fig. 6 campaign driven through the public harness
(``repro.experiments.runner.run_ab`` / ``run_cd``), built from the
implicit-periodic WATERS generators and one root seed.  The program
only ever receives the :class:`Fig6ABConfig` / :class:`Fig6CDConfig`
built here.

The cost of a Fig. 6 campaign depends strongly on its seed: over
seeds 1-10 the chain pairs of ``bounds-xl`` have an interquartile
spread of 0.375 of their median, and the simulated jobs of the other
two 0.06-0.11.  Raw wall-clock times therefore differ between seeds
by more than any regression bound.  :func:`input_size` measures each graph's input size
straight from the generated system (simulated jobs, and chain-pair
hops after suffix truncation) without calling the analysis or the
simulator, and :func:`reference_seconds` weighs those counts
with a fixed per-workload cost model.  The end-to-end metrics divide
measured time by that reference, so they compare code, not seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: The seed the golden digests were recorded for.
DEFAULT_SEED = 2023
#: Held out while the benchmark was built; used once to confirm that
#: ``failed`` stays 0 on a seed nobody tuned against.
HELD_OUT_SEED = 8191


@dataclass(frozen=True)
class Workload:
    name: str
    part: str  # "ab" or "cd"
    jobs: int
    #: Reference-cost coefficients (seconds): per graph, per simulated
    #: job and per chain-pair hop.
    cost: Tuple[float, float, float]

    def config(self, seed: int):
        from repro.experiments.config import DEFAULT_AB, DEFAULT_CD
        from repro.gen.scenario import ScenarioConfig

        if self.name == "fig6-cd":
            return DEFAULT_CD.scaled(seed=seed)
        if self.name == "bounds-xl":
            # max_paths=128 caps one DAG at 8,128 chain pairs, so a
            # single 256-path DAG (32,640 pairs, ~10 s alone) cannot
            # make up most of a campaign.
            return DEFAULT_AB.scaled(
                x_values=(35, 40, 45, 50),
                graphs_per_point=8,
                sims_per_graph=1,
                seed=seed,
                scenario=ScenarioConfig(max_paths=128),
            )
        # Three times DEFAULT_AB's graphs: at --jobs 2 the preset
        # itself is over in ~2.5 s, too short to measure steadily.
        return DEFAULT_AB.scaled(
            graphs_per_point=15, semantics="let", seed=seed
        )


#: Cost coefficients were fitted by non-negative least squares to
#: per-graph busy times of seeds 1-5, on the code the benchmark was
#: introduced on.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig6-cd", part="cd", jobs=1, cost=(0.0, 2.4e-7, 0.0)),
        Workload("bounds-xl", part="ab", jobs=1, cost=(2.0e-3, 3.2e-7, 4.8e-6)),
        Workload(
            "fig6-ab-let-pool", part="ab", jobs=2, cost=(3.2e-3, 2.3e-7, 4.9e-6)
        ),
    )
}


@dataclass(frozen=True)
class GraphSize:
    """Input size of one generated graph (independent of the code)."""

    jobs: int
    hops: int


def _paths_to(graph, sink: str) -> List[Tuple[str, ...]]:
    """Every source-to-``sink`` path, as tuples of task names."""
    out: List[Tuple[str, ...]] = []
    stack = [(sink,)]
    while stack:
        path = stack.pop()
        preds = graph.predecessors(path[0])
        if not preds:
            out.append(path)
        for pred in preds:
            stack.append((pred,) + path)
    return out


def _pair_hops(a: Tuple[str, ...], b: Tuple[str, ...]) -> int:
    """Tasks left in a chain pair after dropping its shared suffix
    (keeping the first shared task, as Theorem 2 does)."""
    k = 0
    while k < min(len(a), len(b)) and a[-1 - k] == b[-1 - k]:
        k += 1
    return len(a) + len(b) - 2 * k + 2


def input_size(workload: Workload, config) -> List[GraphSize]:
    """Per-graph input size of the campaign, in campaign-task order.

    Regenerates each graph exactly as the harness does (same generator,
    same per-graph seed) and counts what the evaluation must process.
    """
    from repro.experiments.fig6 import graph_tasks
    from repro.gen.scenario import (
        generate_merged_pair_scenario,
        generate_random_scenario,
    )

    generate = (
        generate_merged_pair_scenario
        if workload.part == "cd"
        else generate_random_scenario
    )
    # (c)/(d) simulates each graph twice: plain and buffered.
    passes = 2 if workload.part == "cd" else 1
    sizes = []
    for task in graph_tasks(config):
        scenario = generate(task.x, random.Random(task.seed), config.scenario)
        graph = scenario.system.graph
        jobs = sum(
            config.sim_duration // t.period + 1 for t in graph.tasks
        )
        paths = _paths_to(graph, scenario.sink)
        hops = sum(
            _pair_hops(a, b) for i, a in enumerate(paths) for b in paths[i + 1 :]
        )
        sizes.append(
            GraphSize(jobs=passes * config.sims_per_graph * jobs, hops=hops)
        )
    return sizes


def reference_seconds(workload: Workload, size: GraphSize) -> float:
    """The graph's modeled busy time under the workload's cost model."""
    per_graph, per_job, per_hop = workload.cost
    return per_graph + per_job * size.jobs + per_hop * size.hops
