"""Kernel-throughput benchmarks and the committed-baseline gate.

The hot-path work (the shared schedule core behind
``Simulator(loop="auto")``, DAG-shared backward bounds) is guarded by
two kinds of assertion:

* **Structural** — properties of the current run alone, machine
  independent: the shared core must beat the general loop (the
  unoptimized reference) on the same scenario, the per-chain analysis cost must fall as the chain
  count grows (prefix sharing + fixed-cost amortization), and the
  all-pairs integer pass must beat the per-pair S-diff loop it
  replaced, with the same bound.
* **Regression gate** — the quick benchmark document compared against
  the committed ``BENCH_kernel.json`` via
  :func:`repro.profile.compare_to_baseline`.  Timing on shared CI
  runners is noisy, so a regression only *warns* by default
  (``::warning::`` annotation); set ``BENCH_STRICT=1`` (e.g. on a
  quiet dedicated box) to turn it into a failure.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import pytest

from repro.gen import generate_random_scenario
from repro.model.system import System
from repro.profile import (
    bench_analysis_pairs,
    bench_analysis_scaling,
    bench_sim_kernel,
    compare_to_baseline,
    load_baseline,
    run_benchmarks,
)
from repro.sim.engine import Simulator, randomize_offsets
from repro.sim.metrics import DisparityMonitor
from repro.units import seconds

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"


@pytest.mark.benchmark(group="kernel")
def test_sim_kernel_throughput(benchmark):
    result = benchmark.pedantic(bench_sim_kernel, rounds=1, iterations=1)
    print()
    print(
        f"kernel: {result['jobs']} jobs in {result['wall_s']:.2f}s "
        f"-> {result['jobs_per_s']:,.0f} jobs/s"
    )
    assert result["jobs"] > 0


@pytest.mark.benchmark(group="kernel")
def test_fastpath_beats_general_loop(benchmark):
    """The shared core must outrun the reference loop (same run)."""
    rng = random.Random(2023)
    scenario = generate_random_scenario(30, rng)
    graph = randomize_offsets(scenario.system.graph, rng)
    system = System(
        graph=graph, response_times=scenario.system.response_times
    )
    duration = seconds(2)

    def run(loop: str) -> float:
        best = None
        for _ in range(3):
            monitor = DisparityMonitor([scenario.sink], warmup=duration // 4)
            started = time.perf_counter()
            Simulator(
                system, duration, seed=7, observers=[monitor], loop=loop
            ).run()
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        return best

    times = benchmark.pedantic(
        lambda: {"fast": run("auto"), "reference": run("general")},
        rounds=1,
        iterations=1,
    )
    print()
    print(
        f"fast {times['fast']*1000:.1f} ms vs "
        f"general {times['reference']*1000:.1f} ms "
        f"({times['reference']/times['fast']:.2f}x)"
    )
    assert times["fast"] < times["reference"]


@pytest.mark.benchmark(group="kernel")
def test_analysis_per_chain_cost_falls(benchmark):
    """Prefix sharing: per-chain cost at 15625 chains < cost at 1."""
    rows = benchmark.pedantic(bench_analysis_scaling, rounds=1, iterations=1)
    print()
    for row in rows:
        print(
            f"{row['chains']:>7} chains: {row['per_chain_us']:.1f} us/chain"
        )
    assert rows[-1]["chains"] > rows[0]["chains"]
    assert rows[-1]["per_chain_us"] < rows[0]["per_chain_us"]


@pytest.mark.benchmark(group="kernel")
def test_all_pairs_pass_beats_per_pair_loop(benchmark):
    """Same S-diff bound from the integer pass, in less time."""
    row = benchmark.pedantic(
        bench_analysis_pairs, kwargs={"repeats": 1}, rounds=1, iterations=1
    )
    print()
    print(
        f"{row['pairs']} pairs: per-pair {row['reference_s']*1000:.0f} ms vs "
        f"pass {row['pass_s']*1000:.0f} ms ({row['speedup']:.2f}x)"
    )
    assert row["pairs"] > 1000
    assert row["pass_s"] < row["reference_s"]


@pytest.mark.benchmark(group="kernel")
def test_committed_baseline_gate(benchmark):
    """Quick run vs BENCH_kernel.json; soft warning unless BENCH_STRICT."""
    baseline = load_baseline(BASELINE_PATH)
    assert baseline is not None, f"missing {BASELINE_PATH}"
    current = benchmark.pedantic(
        run_benchmarks, kwargs={"quick": True}, rounds=1, iterations=1
    )
    regressions = compare_to_baseline(current, baseline)
    for message in regressions:
        print(f"::warning::benchmark regression: {message}")
    if os.environ.get("BENCH_STRICT", "") not in ("", "0"):
        assert not regressions, "; ".join(regressions)
