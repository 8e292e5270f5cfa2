"""Measure the Fig. 6 harness speedup over the seed-equivalent baseline.

Usage::

    python -m benchmarks.parallel_speedup --preset default --jobs 4

Runs the (a)/(b) sweep twice on the same preset — once as the seed ran
it (every replication an independent general-loop
``Simulator(loop="general")`` run, no worker pool), once as shipped
(the batched replication tiers and ``--jobs`` workers) — and writes
the wall times, speedup, and worker utilization to
``benchmarks/out/parallel_speedup_<preset>_ab.json``.

Both runs cover the same workload (same preset, same pre-derived
per-graph seeds) and produce the same series.  The speedup multiplies
the single-core gain of batched replication over per-replication
simulation with the process-level parallel gain; on a single-CPU host
the latter is ~1x and the report's ``cpus`` field says so.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Optional, Sequence
from unittest import mock

import repro.experiments.fig6 as fig6
import repro.sim.batch as batch
import repro.sim.columnar as columnar
from repro.experiments.fig6 import run_fig6_ab_timed
from repro.sim.engine import simulate


def baseline_seconds(config) -> float:
    """Wall seconds of the seed's configuration of the (a)/(b) sweep.

    Every replication runs as its own general-loop simulation
    (``observed_disparity(engine="simulator")`` with the simulator
    pinned to ``loop="general"``), serially.  Asserts that the
    general loop ran and the columnar tier did not.
    """
    calls = {"general": 0, "columnar": 0}

    def observed(session, task, *, policy_name, **kwargs):
        return session.observed_disparity(
            task, policy=policy_name, engine="simulator", **kwargs
        )

    def general(*args, **kwargs):
        calls["general"] += 1
        return simulate(*args, loop="general", **kwargs)

    def counted(*args, **kwargs):
        calls["columnar"] += 1
        return columnar.run_columnar(*args, **kwargs)

    with mock.patch.object(
        fig6, "_max_observed_disparity", observed
    ), mock.patch.object(batch, "simulate", general), mock.patch.object(
        columnar, "run_columnar", counted
    ):
        started = time.perf_counter()
        run_fig6_ab_timed(config, jobs=1)
        elapsed = time.perf_counter() - started
    assert calls["general"] > 0 and calls["columnar"] == 0, calls
    return elapsed


def measure_speedup(config, *, jobs: int = 4) -> dict:
    """Baseline (seed-equivalent serial) vs optimized (batched + pool)."""
    baseline_s = baseline_seconds(config)

    started = time.perf_counter()
    _, timing = run_fig6_ab_timed(config, jobs=jobs)
    optimized_s = time.perf_counter() - started

    return {
        "workload": repr(config),
        "jobs": jobs,
        "cpus": os.cpu_count(),
        "baseline_s": round(baseline_s, 3),
        "optimized_s": round(optimized_s, 3),
        "speedup": round(baseline_s / optimized_s, 3),
        "utilization": timing.utilization,
        "stage_totals": timing.stage_totals(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--preset", choices=("paper", "default", "smoke"), default="default"
    )
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--out", help="output JSON path (default: out/)")
    args = parser.parse_args(argv)

    from repro.experiments.runner import preset_ab

    config = preset_ab(args.preset)
    report = measure_speedup(config, jobs=args.jobs)
    report["preset"] = args.preset

    out = Path(
        args.out
        or Path(__file__).parent / "out" / f"parallel_speedup_{args.preset}_ab.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"baseline {report['baseline_s']:.2f}s -> optimized "
        f"{report['optimized_s']:.2f}s = {report['speedup']:.2f}x "
        f"({args.jobs} workers, {report['cpus']} CPU(s))"
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
