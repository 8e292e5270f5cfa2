"""Columnar batch replay: a whole batch in three steps.

The third engine tier behind :func:`repro.sim.batch.run_batch`.  Where
the compiled loop replays replications one at a time (python event
loop per sim), this module processes the batch as struct-of-arrays:

* **draw** (numpy) — every replication's execution-time variates come
  from one :func:`repro.sim.exec_time.draw_batch` call, bit-for-bit
  the streams ``random.Random(seed)`` would produce;
* **advance** (C) — one ``columnar_advance`` call into the
  runtime-compiled kernel (``_ckernel.c`` via :mod:`repro.sim.ckernel`,
  ABI 4) builds each sim's release stream and advances all NP-FP
  schedules, writing ``(sims, slots)`` start/finish/cascade columns.
  On the arithmetic path (strictly periodic, fault-free) the kernel
  merges the per-task periodic sequences itself; table mode (fault
  plans, jittered or sporadic releases) is the only Python-built
  stream — :meth:`CompiledScenario._release_tables` rows plus the
  per-task kept-release tables both kernel calls read;
* **derive** (C) — one ``columnar_derive`` call folds each kept task's
  per-source ``(lo, hi)`` provenance stamps in topological order and
  returns every sim's windowed maximum disparity.

Every step reproduces the scalar reference exactly: the variate
streams are bit-identical, the advance is a transliteration of
``CompiledScenario._schedule`` and the derive of ``_prov_resolver``
(same FIFO-head / cascade-visibility / LET-publication rules) —
enforced by the differential suite in ``tests/test_batch_columnar.py``
against the compiled loop and the general-loop reference simulator.

Job columns are sized to the per-task release bound
(:func:`repro.sim.release.max_jobs`); slots a replication never
filled are left unwritten and never read — the derive walks only the
recorded dispatches and in-horizon releases, and the kernel checks
every slot, job-cap and producer-row index it touches.
"""

from __future__ import annotations

import ctypes
import os
import time as _time
from collections import deque
from typing import Dict, List, Sequence, Tuple

if os.environ.get("REPRO_NO_NUMPY"):  # pragma: no cover - CI leg
    _np = None
else:
    try:  # pragma: no cover - exercised via both branches in CI images
        import numpy as _np
    except ImportError:  # pragma: no cover
        _np = None

from repro.model.task import ModelError
from repro.sim import batch as _batch
from repro.sim import ckernel
from repro.sim.exec_time import BATCH_POLICY_MODES, draw_batch
from repro.sim.release import max_jobs
from repro.units import Time

#: The C kernel's ready masks are one ``uint64`` per unit.
MAX_RANKS = 64

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_U64 = ctypes.POINTER(ctypes.c_uint64)
_P_F64 = ctypes.POINTER(ctypes.c_double)


def _p64(a):
    return a.ctypes.data_as(_P_I64)


def _p32(a):
    return a.ctypes.data_as(_P_I32)


def _pu64(a):
    return a.ctypes.data_as(_P_U64)


def _pf64(a):
    return a.ctypes.data_as(_P_F64)


def ineligibility_reasons(compiled, policy) -> List[str]:
    """Why the columnar tier cannot replay ``compiled`` (empty = can).

    Collected on top of ``compiled.ineligible_reasons`` (the compiled
    loop's own rules, which the columnar tier inherits): the policy
    must be one of the named batchable singletons, per-unit rank
    counts must fit the kernel's 64-bit ready masks, and the advance
    kernel must load (first call compiles it; see
    :func:`repro.sim.ckernel.load_kernel`).
    """
    reasons: List[str] = []
    if _np is None:
        reasons.append("numpy unavailable")
    if BATCH_POLICY_MODES.get(policy) is None:
        reasons.append(
            "policy is not a batchable named policy "
            "(uniform/wcet/bcet/extremes)"
        )
    if any(len(members) > MAX_RANKS for members in compiled.rank_tid):
        reasons.append(
            f"a unit hosts more than {MAX_RANKS} compute tasks "
            f"(kernel ready masks are 64-bit)"
        )
    kernel, why = ckernel.load_kernel()
    if kernel is None:
        reasons.append(f"advance kernel unavailable: {why}")
    return reasons


def run_columnar(
    compiled,
    draws: Sequence[Tuple[int, Tuple[Time, ...]]],
    duration: Time,
    warmup: Time,
    policy,
) -> List[Time]:
    """Per-replication disparities for ``draws`` ((seed, offsets) pairs).

    The columnar equivalent of evaluating
    ``compiled.with_offsets(offsets).disparity(seed, ...)`` per pair —
    same values, one variate draw plus one advance and one derive
    kernel call for the whole batch.  Offsets
    must lie in ``[0, T]`` (callers draw them in ``[1, T]``).
    """
    if _np is None:
        raise ModelError("columnar engine requires numpy")
    if not draws:
        return []
    seeds = [seed for seed, _offs in draws]
    offs = _np.array([offsets for _seed, offsets in draws], dtype=_np.int64)
    adv = _advance(compiled, seeds, offs, duration, policy)
    return _derive(compiled, adv, offs, duration, warmup)


# ----------------------------------------------------------------------
# steps 1-2: variate draw and schedule advance
# ----------------------------------------------------------------------


def _job_cap(compiled, tid: int, duration: Time) -> int:
    """Job-slot bound of one task: the most releases any sim can see.

    ``duration // T + 1`` (the offset-0 release count) for periodic and
    jittered models, ``duration // min_gap + 1`` for sporadic ones —
    :func:`repro.sim.release.max_jobs`, which the job columns, release
    streams and tables, and variate budgets must all agree on.
    """
    return max_jobs(compiled.tasks[tid], duration)


def _draw_budget(compiled, duration: Time, mode: int) -> int:
    """Offset-independent upper bound on the variates one sim consumes.

    Uniform draws once per dispatch of a ``span > 1`` task, extremes
    once per dispatch of any compute task, WCET/BCET never; dispatches
    per task are bounded by the release-count bound :func:`_job_cap`
    (fault masks only shrink it).  The kernel's cursor errors out if a
    sim ever outruns this budget (an invariant, not an input
    condition).
    """
    if mode in (1, 2):
        return 0
    total = 0
    for tid in range(compiled.n):
        if compiled.inst[tid]:
            continue
        if mode == 0 and compiled.spans[tid] <= 1:
            continue
        total += _job_cap(compiled, tid, duration)
    return total


def _release_tables(compiled, seeds, offs, duration: Time):
    """Table-mode release streams and kept-release tables, per sim.

    Row ``i`` of ``(rel_times, rel_tids)`` is sim ``i``'s
    :meth:`CompiledScenario._release_tables` stream — drawn per
    ``(seed, task)``, fault-masked, padded to the widest row with the
    ``duration + 1`` sentinel the kernel's event loop terminates on.
    ``rel_tab[i, rel_base[g] : rel_base[g] + rel_len[i, g]]`` holds
    task ``g``'s kept releases in sim ``i`` (``rel_base`` gives every
    task ``max_jobs`` columns): the job ``k`` -> release mapping of LET
    deadlines and of the derive.
    """
    sims, n = offs.shape
    rows = [
        compiled._release_tables(
            tuple(int(x) for x in offs[i]), seeds[i], duration
        )
        for i in range(sims)
    ]
    width = max((len(r[0]) for r in rows), default=0) + 1
    rel_times = _np.full((sims, width), duration + 1, dtype=_np.int64)
    rel_tids = _np.full((sims, width), -1, dtype=_np.int32)
    caps = [_job_cap(compiled, tid, duration) for tid in range(n)]
    rel_base = _np.zeros(n, dtype=_np.int64)
    rel_base[1:] = _np.cumsum(caps[:-1])
    rel_tab = _np.zeros((sims, max(sum(caps), 1)), dtype=_np.int64)
    rel_len = _np.zeros((sims, n), dtype=_np.int64)
    for i, (times, tids, rels) in enumerate(rows):
        if times:
            rel_times[i, : len(times)] = times
            rel_tids[i, : len(times)] = tids
        for tid, row in enumerate(rels):
            base = int(rel_base[tid])
            rel_tab[i, base : base + len(row)] = row
            rel_len[i, tid] = len(row)
    return rel_times, rel_tids, (rel_tab, rel_base, rel_len)


def _advance(compiled, seeds, offs, duration: Time, policy):
    """All replications' recorded schedules, via one C kernel call.

    Returns ``(starts, fins, casc, rec, job_base, job_cap, rels)``:
    ``(sims, slots)`` start/finish/cascade columns over the kept
    compute tasks' job slots (``job_base`` maps a recorded task to its
    first slot, -1 otherwise; ``job_cap`` is every task's job bound),
    ``(sims, n)`` dispatch counts, and — in table mode — the
    ``(rel_tab, rel_base, rel_len)`` kept-release tables of
    :func:`_release_tables` (``None`` on the arithmetic path, where the
    kernel builds the streams).  Memoized on the scenario's
    ``_adv_cache`` — keyed like the scalar schedule memo, so
    capacity-derived siblings (which alias the cache) and repeated
    probes replay the recorded columns without re-advancing, and
    deterministic policies normalize the seeds away (seed sweeps under
    WCET/BCET advance once).

    LET deadline violations surface exactly as in the scalar engine:
    the error of the lowest violating replication index (the first
    the sequential reference would hit) with the engine's message.
    """
    mode = BATCH_POLICY_MODES[policy]
    # Non-periodic release models draw their tables from the seed, so
    # deterministic policies stop being seed-independent there.
    seeds_key = (
        tuple(seeds) if mode in (0, 3) or compiled._nonperiodic else ()
    )
    key = ("columnar", seeds_key, offs.tobytes(), duration, mode)
    cache = compiled._adv_cache
    found = cache.get(key)
    if found is not None:
        return found
    kernel, why = ckernel.load_kernel()
    if kernel is None:  # pragma: no cover - callers check eligibility
        raise ModelError(f"columnar advance kernel unavailable: {why}")
    sims, n = offs.shape
    phase = _batch.PHASE_TIMES

    t0 = _time.perf_counter()
    n_draws = _draw_budget(compiled, duration, mode)
    if n_draws:
        variates = draw_batch(seeds, n_draws)
    else:
        variates = _np.zeros((sims, 1), dtype=_np.float64)
    phase["draw_s"] += _time.perf_counter() - t0

    inst = _np.asarray(compiled.inst, dtype=_np.int32)
    job_cap = _np.asarray(
        [_job_cap(compiled, tid, duration) for tid in range(n)],
        dtype=_np.int64,
    )
    job_base = _np.full(n, -1, dtype=_np.int64)
    slots = 0
    for tid in range(n):
        if compiled.keep[tid] and not compiled.inst[tid]:
            job_base[tid] = slots
            slots += int(job_cap[tid])

    if compiled._needs_tables:
        t0 = _time.perf_counter()
        rel_times, rel_tids, rels = _release_tables(
            compiled, seeds, offs, duration
        )
        phase["streams_s"] += _time.perf_counter() - t0
        stream_w = rel_times.shape[1]
        rel_tab, rel_base, rel_len = rels
        rel_w = rel_tab.shape[1]
        streams = (_p64(rel_times), _p32(rel_tids))
    else:
        rels = None
        # The kernel merges the periodic streams itself: every compute
        # task's releases plus the terminating sentinel.
        stream_w = int(job_cap[inst == 0].sum()) + 1
        rel_tab = rel_base = rel_len = _np.zeros(1, dtype=_np.int64)
        rel_w = 0
        streams = (None, None)

    starts = _np.empty((sims, max(slots, 1)), dtype=_np.int64)
    fins = _np.empty((sims, max(slots, 1)), dtype=_np.int64)
    casc = _np.empty((sims, max(slots, 1)), dtype=_np.int32)
    rec = _np.empty((sims, n), dtype=_np.int64)
    viol = _np.empty((sims, 4), dtype=_np.int64)

    max_ranks = max(
        (len(members) for members in compiled.rank_tid), default=0
    ) or 1
    rank_tid = _np.full(
        (max(compiled.n_units, 1), max_ranks), -1, dtype=_np.int32
    )
    for u, members in enumerate(compiled.rank_tid):
        if members:
            rank_tid[u, : len(members)] = members

    bcet = _np.asarray(compiled.bcets, dtype=_np.int64)
    wcet = _np.asarray(compiled.wcets, dtype=_np.int64)
    span = _np.asarray(compiled.spans, dtype=_np.int64)
    periods = _np.asarray(compiled.periods, dtype=_np.int64)
    unit_of = _np.asarray(compiled.unit_of, dtype=_np.int32)
    bit_of = _np.asarray(compiled.bit_of, dtype=_np.uint64)
    offs_c = _np.ascontiguousarray(offs)

    t0 = _time.perf_counter()
    rc = kernel.advance(
        sims,
        n,
        compiled.n_units,
        stream_w,
        *streams,
        _p32(inst),
        duration,
        _p64(bcet),
        _p64(wcet),
        _p64(span),
        _p64(periods),
        _p32(unit_of),
        _pu64(bit_of),
        _p32(rank_tid),
        max_ranks,
        mode,
        int(compiled._let),
        int(compiled._track),
        _pf64(variates),
        n_draws,
        _p64(offs_c),
        _p64(rel_tab),
        _p64(rel_base),
        _p64(rel_len),
        rel_w,
        _p64(job_base),
        _p64(job_cap),
        starts.shape[1],
        _p64(starts),
        _p64(fins),
        _p32(casc),
        _p64(rec),
        _p64(viol),
    )
    phase["advance_s"] += _time.perf_counter() - t0
    if rc != 0:
        raise ModelError(
            f"columnar advance kernel failed in replication {-rc - 1} "
            f"(internal invariant broke; please report)"
        )
    if compiled._let:
        bad = _np.nonzero(viol[:, 0] >= 0)[0]
        if bad.size:
            tid, job, at, deadline = (int(x) for x in viol[int(bad[0])])
            raise ModelError(
                f"LET violation: job {compiled.names[tid]}#{job} "
                f"finished at {at} past its deadline {deadline}"
            )
    found = (starts, fins, casc, rec, job_base, job_cap, rels)
    cache.put(key, found)
    return found


# ----------------------------------------------------------------------
# step 3: provenance / disparity derivation
# ----------------------------------------------------------------------


def _topo_kept(compiled) -> List[int]:
    """Kept tasks in topological order (producers before consumers)."""
    keep = compiled.keep
    kept = [g for g in range(compiled.n) if keep[g]]
    indeg = {g: len(compiled.in_edges[g]) for g in kept}
    succs: Dict[int, List[int]] = {g: [] for g in kept}
    for g in kept:
        for pg, _cap in compiled.in_edges[g]:
            succs[pg].append(g)
    queue = deque(g for g in kept if not indeg[g])
    out: List[int] = []
    while queue:
        g = queue.popleft()
        out.append(g)
        for h in succs[g]:
            indeg[h] -= 1
            if not indeg[h]:
                queue.append(h)
    return out


def _derive(compiled, adv, offs, duration: Time, warmup: Time) -> List[Time]:
    """Per-sim monitored disparity over the advance columns, in C.

    Hands the recorded columns plus the kept tasks (topological
    order), their in-edges as CSR rows with channel capacities, and
    their source columns to ``columnar_derive``, which folds the
    per-source stamps and returns each sim's maximum disparity over
    the monitored jobs ``[k0(warmup), count)``.  Not memoized: the
    capacities differ between the capacity-derived siblings that share
    one advance.
    """
    kernel, why = ckernel.load_kernel()
    if kernel is None:  # pragma: no cover - callers check eligibility
        raise ModelError(f"columnar derive kernel unavailable: {why}")
    t0 = _time.perf_counter()
    starts, fins, casc, rec, job_base, job_cap, rels = adv
    sims, n = offs.shape
    order = _topo_kept(compiled)
    src_col = _np.full(n, -1, dtype=_np.int32)
    n_src = 0
    for g in order:
        if compiled.is_source[g]:
            src_col[g] = n_src
            n_src += 1
    edge_ptr = _np.zeros(n + 1, dtype=_np.int64)
    edge_src: List[int] = []
    edge_cap: List[int] = []
    for g in range(n):
        if compiled.keep[g]:
            for pg, cap in compiled.in_edges[g]:
                edge_src.append(pg)
                edge_cap.append(cap)
        edge_ptr[g + 1] = len(edge_src)
    if rels is not None:
        rel_tab, rel_base, rel_len = rels
        rel_w = rel_tab.shape[1]
    else:
        rel_tab = rel_base = rel_len = _np.zeros(1, dtype=_np.int64)
        rel_w = 0
    out = _np.empty(sims, dtype=_np.int64)
    rc = kernel.derive(
        sims,
        n,
        n_src,
        duration,
        warmup,
        int(compiled._let),
        int(compiled._track),
        _p64(_np.asarray(compiled.periods, dtype=_np.int64)),
        _p32(_np.asarray(compiled.inst, dtype=_np.int32)),
        _p32(src_col),
        _p32(_np.asarray(order, dtype=_np.int32)),
        len(order),
        _p64(edge_ptr),
        _p32(_np.asarray(edge_src or [0], dtype=_np.int32)),
        _p64(_np.asarray(edge_cap or [0], dtype=_np.int64)),
        compiled.m_gid,
        _p64(_np.ascontiguousarray(offs)),
        _p64(starts),
        _p64(fins),
        _p32(casc),
        _p64(rec),
        _p64(job_base),
        _p64(job_cap),
        starts.shape[1],
        _p64(rel_tab),
        _p64(rel_base),
        _p64(rel_len),
        rel_w,
        _p64(out),
    )
    _batch.PHASE_TIMES["derive_s"] += _time.perf_counter() - t0
    if rc != 0:
        raise ModelError(
            f"columnar derive kernel failed in replication {-rc - 1} "
            f"(internal invariant broke; please report)"
        )
    return out.tolist()


__all__ = [
    "MAX_RANKS",
    "ineligibility_reasons",
    "run_columnar",
]
