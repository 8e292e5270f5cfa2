"""End-to-end benchmark of the Fig. 6 evaluation (see README.md).

    python3 perfbench/run.py --workload fig6-cd --seed 2023 --seconds 20 --trace 0

Runs one workload as a batch campaign — a closed loop in which each
graph is one unit of work — through the public harness, each campaign
in a fresh process.  ``--trace 0`` times set-up in a few set-up-only
campaigns, then repeats the untraced campaign until ``--seconds`` have
been measured and reports the end-to-end metrics;
``--trace 1`` runs it once untraced and once with spans on every layer
boundary and reports the per-layer metrics.  Outputs are checked
either way.  Human-readable lines go first; the last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, input_size, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

#: Untraced campaigns per ``--trace 0`` run: at least / at most.
MIN_REPS = 2
MAX_REPS = 12
#: Set-up-only campaigns per ``--trace 0`` run.  Every campaign times
#: its own set-up, full or set-up-only; the median is reported.
SETUP_ONLY_REPS = 3
#: Seconds the calibration loop takes on the reference host (2-vCPU
#: 2.1 GHz Xeon VM) in its usual state.
CALIBRATION_NOMINAL_S = 0.13
#: Every child process is killed once the run is this old.
DEADLINE_S = 170
STARTED = time.monotonic()

END_TO_END = {
    "wall_per_ref": "s/ref_s",
    "graph_p50_per_ref": "s/ref_s",
    "graph_tail_per_ref": "s/ref_s",
    "setup_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def child(args, env) -> tuple:
    """Run ``child.py`` with ``args``; return the instant it was
    launched (``time.monotonic``), its exit code, stdout and stderr."""
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - STARTED))
    launched = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {args[0]} killed at the {DEADLINE_S}s deadline")
    finally:
        # Reap anything the child left behind (e.g. pool workers).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return launched, proc.returncode, out, err


def run_campaign(workload, seed, jobs, trace, env, setup_only=False) -> dict:
    """One campaign in a fresh process; ``{"error": ...}`` if it raised,
    died or ran out of time."""
    out = WORK / workload.name / ("traced" if trace else f"jobs{jobs}")
    result_path = out / "result.json"
    result_path.unlink(missing_ok=True)
    args = [
        "campaign",
        "--workload", workload.name,
        "--seed", str(seed),
        "--jobs", str(jobs),
        "--out", str(out),
        "--trace", str(int(trace)),
    ]
    if setup_only:
        args.append("--setup-only")
    try:
        launched, code, _out, err = child(args, env)
    except ChildFailed as exc:
        return {"error": str(exc)}
    if not result_path.is_file():
        return {"error": f"campaign exited {code} without a result\n{err}"}
    result = json.loads(result_path.read_text())
    if "error" in result:
        return result
    if code != 0:
        return {"error": f"campaign exited {code}\n{err}"}
    # Process start -> first graph dispatched, less the calibration
    # loop the campaign process runs in between.
    result["setup_s"] = (
        result["dispatched_at"] - launched - result["calibration_window_s"]
    )
    return result


def graph_digest(values: dict) -> str:
    text = json.dumps(values, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def violations(part: str, v: dict) -> list:
    """Soundness of one graph's bounds against its simulation."""
    found = []
    if not v["sim_ms"] <= v["s_diff_ms"]:
        found.append("Sim > S-diff")
    if part == "ab" and not v["s_diff_ms"] <= v["p_diff_ms"]:
        found.append("S-diff > P-diff")
    if part == "cd" and not v["sim_b_ms"] <= v["s_diff_b_ms"]:
        found.append("Sim-B > S-diff-B")
    return found


def check(part, golden, campaigns, n_graphs, log) -> tuple:
    """Count failed graphs over every campaign run; return
    ``(attempted, failed, consistent)``."""
    attempted = failed = 0
    reference = None
    consistent = True
    if golden is not None and len(golden["graphs"]) != n_graphs:
        log(f"golden digests cover {len(golden['graphs'])} graphs, not {n_graphs}")
        return len(campaigns) * n_graphs, len(campaigns) * n_graphs, False
    for res in campaigns:
        attempted += n_graphs
        if "error" in res:
            failed += n_graphs
            consistent = False
            log(f"campaign failed: {res['error'].strip().splitlines()[-1]}")
            continue
        digests = [graph_digest(g["values"]) for g in res["graphs"]]
        if reference is None:
            reference = (res["rows_sha256"], digests)
        elif res["rows_sha256"] != reference[0]:
            consistent = False
            log("rows differ between runs of the same seed")
        for i, g in enumerate(res["graphs"]):
            bad = violations(part, g["values"])
            if digests[i] != reference[1][i]:
                bad.append("differs from the first run")
            if golden is not None and digests[i] != golden["graphs"][i]:
                bad.append("differs from the golden digest")
            if bad:
                failed += 1
                log(f"graph {i}: {', '.join(bad)}")
        if golden is not None and res["rows_sha256"] != golden["rows_sha256"]:
            consistent = False
            log("rows differ from the golden digest")
    return attempted, failed, consistent


def tail(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def tier_ratio(res: dict) -> float:
    tiers = res.get("tiers") or {}
    total = sum(tiers.values())
    return tiers.get("columnar", 0) / total if total else 0.0


def end_to_end(workload, reps, setup_only, refs, log) -> dict:
    ok = [r for r in reps if "error" not in r]
    n = len(refs)

    def graph_busy(r, i):
        return sum(r["graphs"][i]["timing"].values())

    busy = [statistics.median(graph_busy(r, i) for r in ok) for i in range(n)]
    wall = statistics.median(r["wall_s"] for r in ok)
    tail_ms, pct = tail(busy)
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in ok)
    log(f"wall_s {wall:.4f} s (median of {len(ok)} campaigns: {walls})")
    log(f"graph_p50_ms {1000 * statistics.median(busy):.3f} ms")
    log(f"graph_tail_ms {1000 * tail_ms:.3f} ms (p{pct:.1f} over {n} graphs)")
    log(f"reference work {sum(refs):.4f} ref_s over {n} graphs")
    # Host speed drifts by up to ±20% over minutes: scale this run's
    # times, set-up included, by its calibration loop's speed against
    # nominal.
    calibration = [c for r in ok for c in r["calibration_s"]]
    speed = CALIBRATION_NOMINAL_S / statistics.median(calibration)
    log(
        "calibration "
        + ", ".join(f"{c:.4f}" for c in calibration)
        + f" s (speed factor {speed:.4f})"
    )
    per_ref = [b * speed / ref for b, ref in zip(busy, refs)]
    tail_ref, _ = tail(per_ref)
    rss = statistics.median(r["peak_rss_mb"] for r in ok)
    log(f"peak_rss_mb {rss:.1f} MB (median of {len(ok)} campaigns)")
    setups = [r["setup_s"] for r in ok + setup_only]
    log(
        "setup "
        + ", ".join(f"{x:.4f}" for x in setups)
        + f" s (full campaigns first, then {len(setup_only)} set-up-only;"
        + f" median {statistics.median(setups):.4f} s before calibration)"
    )
    return {
        "wall_per_ref": wall * speed / sum(refs),
        "graph_p50_per_ref": statistics.median(per_ref),
        "graph_tail_per_ref": tail_ref,
        "setup_s": statistics.median(setups) * speed,
    }


PER_LAYER = {
    "gen.generate_s": "s",
    "sched.rta_s": "s",
    "api.session_s": "s",
    "core.pdiff_s": "s",
    "core.sdiff_s": "s",
    "model.decompose_pair_s": "s",
    "model.decompose_pair_calls": "count",
    "chains.backward_s": "s",
    "let.backward_s": "s",
    "buffers.design_s": "s",
    "sim.observed_s": "s",
    "sim.compile_s": "s",
    "sim.columnar_s": "s",
    "sim.draw_s": "s",
    "sim.advance_s": "s",
    "sim.merge_read_s": "s",
    "sim.columnar_self_s": "s",
    "sim.replications": "count",
    "sim.kernel_calls": "count",
    "sim.merge_read_calls": "count",
    "sim.columnar_ratio": "ratio",
    "sim.compiled_cache_hit_ratio": "ratio",
    "parallel.utilization": "ratio",
    "parallel.busy_s": "s",
    "parallel.idle_s": "s",
    "parallel.chunks": "count",
    "parallel.aggregate_s": "s",
    "io.csv_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.sim_share": "ratio",
    "trace.core_model_share": "ratio",
}

#: Span name -> per-layer metric reporting its self time.
SELF_TIMES = {
    "gen.generate": "gen.generate_s",
    "sched.rta": "sched.rta_s",
    "api.session": "api.session_s",
    "core.pdiff": "core.pdiff_s",
    "core.sdiff": "core.sdiff_s",
    "model.decompose_pair": "model.decompose_pair_s",
    "chains.backward": "chains.backward_s",
    "let.backward": "let.backward_s",
    "buffers.design": "buffers.design_s",
    "sim.observed": "sim.observed_s",
    "sim.compile": "sim.compile_s",
    "sim.draw": "sim.draw_s",
    "sim.advance": "sim.advance_s",
    "sim.merge_read": "sim.merge_read_s",
    "sim.columnar": "sim.columnar_self_s",
    "parallel.aggregate": "parallel.aggregate_s",
    "io.csv": "io.csv_s",
}


def per_layer(workload, pooled, untraced, traced, log) -> dict:
    self_s = traced["self_s"]
    calls = traced["calls"]
    counts = traced["counts"]
    metrics = {key: self_s.get(span, 0.0) for span, key in SELF_TIMES.items()}
    metrics["sim.columnar_s"] = traced["inclusive_s"].get("sim.columnar", 0.0)
    metrics["model.decompose_pair_calls"] = calls.get("model.decompose_pair", 0)
    metrics["sim.kernel_calls"] = calls.get("sim.advance", 0)
    metrics["sim.merge_read_calls"] = calls.get("sim.merge_read", 0)
    metrics["sim.replications"] = sum(traced["tiers"].values())
    metrics["sim.columnar_ratio"] = tier_ratio(traced)
    lookups = counts.get("compiled_lookups", 0)
    metrics["sim.compiled_cache_hit_ratio"] = (
        counts.get("compiled_hits", 0) / lookups if lookups else 0.0
    )
    timing = pooled["timing"]
    map_stats = timing.get("map") or {}
    metrics["parallel.utilization"] = timing["utilization"]
    metrics["parallel.busy_s"] = timing["busy_s"]
    metrics["parallel.idle_s"] = (
        timing["jobs"] * map_stats.get("wall_s", 0.0) - timing["busy_s"]
    )
    metrics["parallel.chunks"] = map_stats.get("n_chunks", 0)
    # A "graph" span frames one graph; its self time is harness glue
    # (seeding, unit conversion), not a layer.
    layers = sum(v for k, v in self_s.items() if k != "graph")
    metrics["trace.coverage"] = layers / traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    busy = traced["inclusive_s"].get("graph", 0.0)

    def share(*prefixes):
        return sum(v for k, v in self_s.items() if k.startswith(prefixes)) / busy

    metrics["trace.sim_share"] = share("sim.")
    metrics["trace.core_model_share"] = share("core.", "model.")
    log(
        f"traced wall {traced['wall_s']:.4f} s vs untraced "
        f"{untraced['wall_s']:.4f} s at --jobs 1; {traced['spans']} spans "
        f"written to {WORK / workload.name / 'traced' / 'spans.bin'}"
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help="store this run's output digests as the golden ones "
        "(default seed only)",
    )
    args = parser.parse_args()
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error(f"--record-golden needs --seed {DEFAULT_SEED}")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.experiments.fig6 import graph_tasks

    workload = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        REPRO_CKERNEL_CACHE=str(WORK / "ckernel"),
        PYTHONHASHSEED="0",
    )
    def log(text):
        print(f"[{workload.name}] {text}", flush=True)

    # Build (first run only) and load the kernel before anything is
    # timed, so set-up measures a warm on-disk cache.
    _launched, code, out, err = child(["warm"], env)
    if code != 0:
        print(f"error: kernel warm-up exited {code}: {err[-2000:]}", file=sys.stderr)
        return 1
    env_info = json.loads(out.strip().splitlines()[-1])
    log("environment " + json.dumps(env_info, sort_keys=True))

    config = workload.config(args.seed)
    n_graphs = len(graph_tasks(config))
    if args.trace:
        pooled = run_campaign(workload, args.seed, workload.jobs, False, env)
        untraced = pooled
        if workload.jobs != 1:
            untraced = run_campaign(workload, args.seed, 1, False, env)
        traced = run_campaign(workload, args.seed, 1, True, env)
        campaigns = [pooled, traced]
        if untraced is not pooled:
            campaigns.insert(1, untraced)
    else:
        refs = [
            reference_seconds(workload, size)
            for size in input_size(workload, config)
        ]
        setup_only = [
            run_campaign(workload, args.seed, workload.jobs, False, env, True)
            for _ in range(SETUP_ONLY_REPS)
        ]
        for res in setup_only:
            if "error" in res:
                error = res["error"].strip().splitlines()[-1]
                log(f"set-up-only campaign failed: {error}")
        campaigns = []
        started = time.monotonic()
        while len(campaigns) < MAX_REPS and (
            len(campaigns) < MIN_REPS or time.monotonic() - started < args.seconds
        ):
            campaigns.append(
                run_campaign(workload, args.seed, workload.jobs, False, env)
            )

    goldens = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = None
    if args.seed == DEFAULT_SEED and not args.record_golden:
        golden = goldens.get(workload.name)
        if golden is None:
            log("FLAG: no golden digest recorded for this workload")
    attempted, failed, consistent = check(
        workload.part, golden, campaigns, n_graphs, log
    )
    if args.record_golden and failed == 0 and consistent:
        first = campaigns[0]
        goldens[workload.name] = {
            "seed": DEFAULT_SEED,
            "rows_sha256": first["rows_sha256"],
            "graphs": [graph_digest(g["values"]) for g in first["graphs"]],
        }
        GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
        log(f"recorded golden digests in {GOLDEN}")
    ratios = {tier_ratio(r) for r in campaigns if "error" not in r}
    fell_back = any(r < 1.0 for r in ratios)
    log(
        f"tier sim.columnar_ratio {sorted(ratios)}"
        + (" FLAG: columnar tier fell back; not comparable" if fell_back else "")
    )
    log(f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted} graphs)")
    setup_failed = not args.trace and any("error" in r for r in setup_only)
    correct = (
        failed == 0
        and not setup_failed
        and consistent
        and not fell_back
        and (golden is not None or args.seed != DEFAULT_SEED or args.record_golden)
    )

    metrics = {}
    units = {}
    if all("error" not in r for r in campaigns) and not setup_failed:
        if args.trace:
            measured = per_layer(workload, pooled, untraced, traced, log)
            metrics = {name: measured[name] for name in PER_LAYER}
            units = PER_LAYER
        else:
            metrics = end_to_end(workload, campaigns, setup_only, refs, log)
            units = END_TO_END
    for name, value in metrics.items():
        log(f"{name} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
