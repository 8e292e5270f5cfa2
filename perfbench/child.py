"""One measured process of the benchmark (started by ``run.py``).

Modes:

* ``warm`` — load the C kernel (building it into the benchmark-owned
  cache on first use) and print the environment fingerprint;
* ``campaign`` — run one workload campaign through the public
  harness (``repro.experiments.runner``), untraced or traced, time a
  fixed calibration loop right before and after it, and write
  per-graph results and timings to ``<out>/result.json``.  The result
  carries the instant the first graph was dispatched and the length of
  the calibration window before it, so the parent can time set-up
  from its own launch instant (both on ``time.monotonic``).  With
  ``--setup-only`` the campaign skips calibration and stops at that
  first dispatch, so it yields a set-up time and nothing else.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import multiprocessing
import multiprocessing.util
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from workloads import WORKLOADS


def fingerprint() -> dict:
    import numpy

    from repro.sim import ckernel

    kernel, why = ckernel.load_kernel()
    compiler = None
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            compiler = shutil.which(name)
            break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": compiler,
        "nproc": os.cpu_count(),
        "kernel": str(kernel.path) if kernel is not None else None,
        "kernel_error": why,
    }


def _calibration_once() -> float:
    """One pass of a fixed loop mixing CPython dict updates with numpy
    gathers and folds, the two kinds of work a campaign does."""
    import numpy

    started = time.perf_counter()
    counts: dict = {}
    for i in range(200_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    grid = numpy.arange(2_000_000, dtype=numpy.int64).reshape(1000, 2000)
    rows = grid * 7 % 2000
    for _ in range(3):
        numpy.minimum(
            grid, numpy.take_along_axis(grid, rows, axis=1), out=grid
        )
    return time.perf_counter() - started


def _calibration_median(samples: int) -> float:
    return statistics.median(_calibration_once() for _ in range(samples))


def calibration(jobs: int, samples: int = 5) -> float:
    """Median seconds of the calibration loop, now: on this core, or
    for a pooled campaign on ``jobs`` cores at once (their mean)."""
    if jobs == 1:
        return _calibration_median(samples)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(jobs, mp_context=spawn) as pool:
        return statistics.mean(pool.map(_calibration_median, [samples] * jobs))


def _peak_rss_kb() -> int:
    """This process's peak resident set since the last reset (VmHWM)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _graph_values(result) -> dict:
    values = dataclasses.asdict(result)
    timing = values.pop("timing")
    return {"values": values, "timing": timing}


class Dispatched(Exception):
    """Ends a set-up-only campaign at its first dispatch."""


def campaign(
    workload, seed: int, jobs: int, out: Path, trace: bool, setup_only: bool
) -> dict:
    import repro.api as api
    import repro.experiments.runner as runner
    from repro.experiments.fig6 import graph_tasks
    from repro.parallel.aggregate import CampaignAccumulator
    from repro.parallel.engine import PoolRunner

    config = workload.config(seed)
    ordinals = {
        (t.x, t.graph_index): i for i, t in enumerate(graph_tasks(config))
    }

    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer, ordinals)

    # Installed over the traced ``add``, so keeping a reference to each
    # result stays outside the ``parallel.aggregate`` span; results are
    # serialized after the campaign.
    graphs: dict = {}
    add = CampaignAccumulator.add

    def record(acc, x, result, **kwargs):
        graphs[ordinals[(x, result.graph_index)]] = result
        return add(acc, x, result, **kwargs)

    CampaignAccumulator.add = record

    # Tier guard: every replication batch reports the engine that ran
    # it.  Pool workers inherit this wrapper and their own copy of the
    # counts, which they write to a file when they exit.
    run_batch = api.run_batch
    tiers: Counter = Counter()
    parent = os.getpid()
    worker_flush: list = []

    def flush_tiers():
        (out / f"tier-{os.getpid()}.json").write_text(json.dumps(tiers))

    def run_batch_counted(*args, **kwargs):
        batch = run_batch(*args, **kwargs)
        if os.getpid() != parent and not worker_flush:
            tiers.clear()
            worker_flush.append(
                multiprocessing.util.Finalize(None, flush_tiers, exitpriority=0)
            )
        tiers[batch.engine] += len(batch.disparities)
        return batch

    api.run_batch = run_batch_counted

    dispatched = []
    map_consume = PoolRunner.map_consume

    def map_consume_timed(pool, *args, **kwargs):
        dispatched.append(time.monotonic())
        if setup_only:
            raise Dispatched
        return map_consume(pool, *args, **kwargs)

    PoolRunner.map_consume = map_consume_timed

    run = runner.run_cd if workload.part == "cd" else runner.run_ab
    csv_path = out / "rows.csv"

    def run_harness():
        run(config, out_csv=csv_path, stream=io.StringIO(), verbose=False, jobs=jobs)

    if setup_only:
        try:
            run_harness()
        except Dispatched:
            return {"dispatched_at": dispatched[0], "calibration_window_s": 0.0}
        raise RuntimeError("the campaign never dispatched a graph")
    window_started = time.monotonic()
    calib_before = calibration(jobs)
    # Restart the peak-RSS mark so the calibration's arrays are not it.
    Path("/proc/self/clear_refs").write_text("5")
    window_s = time.monotonic() - window_started
    run_harness()
    done = time.monotonic()
    rss_kb = max(
        _peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    calib_after = calibration(jobs)

    for path in out.glob("tier-*.json"):
        tiers.update(json.loads(path.read_text()))
    result = {
        "wall_s": done - dispatched[0],
        "dispatched_at": dispatched[0],
        "calibration_window_s": window_s,
        "calibration_s": [calib_before, calib_after],
        "graphs": [_graph_values(graphs[i]) for i in range(len(ordinals))],
        "rows_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        "peak_rss_mb": rss_kb / 1024.0,
        "tiers": dict(tiers),
        "timing": json.loads(runner.timing_path(csv_path).read_text()),
    }
    if tracer is not None:
        result["self_s"] = tracer.self_times()
        result["inclusive_s"] = tracer.inclusive_times()
        result["calls"] = dict(tracer.span_counts())
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.start)
        tracer.write(out)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("warm", "campaign"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--jobs", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.mode == "warm":
        print(json.dumps(fingerprint()))
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    for stale in args.out.glob("tier-*.json"):
        stale.unlink()
    try:
        result = campaign(
            WORKLOADS[args.workload],
            args.seed,
            args.jobs,
            args.out,
            bool(args.trace),
            args.setup_only,
        )
    except Exception:  # reported to the parent, which counts it failed
        result = {"error": traceback.format_exc()}
    (args.out / "result.json").write_text(json.dumps(result))
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
