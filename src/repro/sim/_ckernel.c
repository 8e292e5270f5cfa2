/* Columnar NP-FP kernel: release streams, schedule advance, derive.
 *
 * The columnar batch engine (``repro/sim/columnar.py``) runs a batch
 * in two steps: execution-time variates are drawn in numpy, then one
 * call into this kernel (ABI 5, ``REPRO_CKERNEL_ABI``; must match
 * ``ckernel.ABI_VERSION``) processes every replication of the batch.
 *
 * ``columnar_advance`` — the fused entry point.  Per sim it builds the
 *   release stream, runs the schedule into scratch columns one sim
 *   wide, and derives that sim's disparity from them at once, while
 *   the columns are still in cache:
 *   - the stream: on the arithmetic path (strictly periodic,
 *     fault-free) ``build_stream`` merges the per-task periodic
 *     sequences in the static ``(time, k > 0, -period, -offset, tid)``
 *     order, later whole hyperperiods copied from the second one; in
 *     table mode (fault plans, jittered or sporadic releases) the
 *     caller passes the Python-drawn rows;
 *   - the schedule: ``run_sim``, a C transliteration of
 *     ``CompiledScenario._schedule`` (see ``repro/sim/batch.py``),
 *     compiled once per ``(policy_mode, let_mode, track)`` so the
 *     event loop carries no run-time flag tests.  The scalar loop's
 *     finish *heap* is replaced by a per-unit ``(fin_time, fin_seq)``
 *     pair plus a sentinel-aware min scan (``rehead``): the heap never
 *     holds more than one live entry per unit, so the scan is
 *     O(n_units) and reproduces the heap's ``(time, push sequence)``
 *     pop order exactly;
 *   - the derive: ``derive_sim``, the bulk form of
 *     ``CompiledScenario._resolver`` plus the monitored disparity
 *     fold — the kept tasks' per-source ``(lo, hi)`` stamp rows fold
 *     in topological order and the monitored task's windowed maximum
 *     disparity comes out.
 *   When the caller passes ``(sims, slots)`` start/finish/cascade
 *   arrays (the advance memo, kept only where a capacity sibling will
 *   read it), each sim's scratch columns are also copied there.
 *
 * ``columnar_derive`` — the derive alone, ``derive_sim`` over recorded
 *   ``(sims, slots)`` columns: a memo hit, where a capacity sibling
 *   re-derives a batch whose schedules are already known.
 *
 * The Python side (``repro/sim/ckernel.py``) compiles this file on
 * first use with the host C compiler and binds both entry points via
 * ctypes; every result must stay byte-identical to the scalar loop
 * (enforced by ``tests/test_batch_columnar.py``).
 *
 * Error protocol: both entry points return 0 on success and
 * ``-(sim + 1)`` when an input or internal invariant broke in ``sim``
 * (variate underrun, release-stream overflow, or an out-of-range slot,
 * job-cap or producer-row index — caller sizing bugs, never
 * expected); every such index is checked before it is dereferenced.
 * ``-1`` also reports a failed scratch allocation or static check.
 * ``*step`` names the step that failed (``STEP_*``).  LET deadline
 * violations are not errors at this layer: ``columnar_advance`` stops
 * at the first violating sim (the lowest index, as sims run in order),
 * writes ``(tid, job, at, deadline)`` to ``viol_out`` and returns
 * ``sim + 1``; the caller raises the engine-identical ModelError.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REPRO_CKERNEL_ABI 5

#if defined(__GNUC__) || defined(__clang__)
#define ALWAYS_INLINE static inline __attribute__((always_inline))
#else
#define ALWAYS_INLINE static inline
#endif

/* The step ``*step`` reports when an entry point fails. */
enum {
    STEP_SETUP = 1,   /* static input checks, scratch allocation */
    STEP_STREAM = 2,  /* release-stream build or row validation */
    STEP_ADVANCE = 3, /* schedule event loop */
    STEP_DERIVE = 4   /* provenance / disparity fold */
};

/* Absorbing no-contribution stamp of the derive's per-source folds
 * (``StampColumns.SENTINEL``): above any schedule instant, far from
 * int64 overflow under min/max. */
#define STAMP_SENTINEL ((int64_t)1 << 62)

/* Read-only tables shared by every replication. */
typedef struct {
    int64_t n;          /* tasks */
    int64_t n_units;    /* processing units */
    int64_t duration;   /* horizon */
    int64_t sentinel;   /* duration + 1 */
    int64_t max_ranks;  /* columns of rank_tid */
    int64_t n_draws;    /* variate columns per sim */
    int64_t slots;      /* job-record columns per sim */
    const int64_t *bcet;
    const int64_t *wcet;
    const int64_t *span;     /* wcet - bcet + 1 */
    const int64_t *periods;
    const int32_t *unit_of;
    const uint64_t *bit_of;  /* ready-mask bit per task (rank bit) */
    const int32_t *rank_tid; /* n_units x max_ranks, -1 padded */
    const int64_t *job_base; /* first record slot per task, -1 if none */
    const int64_t *job_cap;  /* job bound per task (record/table slots) */
    const int64_t *rel_base; /* first release-table slot per task */
    int64_t rel_w;           /* release-table columns, 0 = arithmetic */
} Tables;

/* One replication's mutable state (scratch reused across sims). */
typedef struct {
    const Tables *tb;
    const int64_t *offs; /* n: this sim's offsets */
    const int64_t *rel;  /* rel_w: this sim's kept-release tables */
    const int64_t *rlen; /* n: this sim's kept-release counts */
    const double *var;   /* n_draws: this sim's U[0,1) variates */
    int64_t cursor;
    uint64_t *ready;     /* n_units: pending-task rank bitmask */
    int32_t *running;    /* n_units: running tid or -1 */
    int64_t *fin_time;   /* n_units: finish instant of running job */
    int64_t *fin_seq;    /* n_units: dispatch sequence of running job */
    uint8_t *zrun;       /* n_units: running job executes in zero time */
    int32_t *cur_batch;  /* n_units: running job's sub-batch depth */
    int64_t *pend;       /* n: queued job count per task */
    int64_t *starts;     /* slots: this sim's start column */
    int64_t *fins;       /* slots: this sim's finish column */
    int32_t *casc;       /* slots: this sim's cascade-depth column */
    int64_t *rec;        /* n: dispatch count per task (= LET ndisp) */
    int64_t *viol;       /* 4: LET violation (tid, job, at, deadline) */
    int64_t seq;
    int64_t fin_head;    /* earliest finish instant (or sentinel) */
    int64_t fin_head_u;  /* its unit, -1 for the sentinel */
    int64_t err;         /* 0 ok, 1 LET violation, 2 invariant broke */
} Sim;

/* ------------------------------------------------------------------ */
/* release streams                                                     */
/* ------------------------------------------------------------------ */

/* One task's next release in the stream merge: its instant and the
 * static tie-break ``sub`` — ``tid`` for the initial release (k = 0
 * sorts as ``(off, 0, tid)``) and ``n + rank`` for rescheduled ones,
 * ``rank`` being the task's position in ``(-period, -offset, tid)``
 * order (``(t, 1, -period, -offset, tid)``). */
typedef struct {
    int64_t t;
    int64_t sub;
    int32_t tid;
} Rel;

static int rel_less(const Rel *a, const Rel *b)
{
    return a->t < b->t || (a->t == b->t && a->sub < b->sub);
}

static void sift_down(Rel *heap, int64_t size, int64_t i)
{
    Rel top = heap[i];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= size)
            break;
        if (c + 1 < size && rel_less(&heap[c + 1], &heap[c]))
            c += 1;
        if (!rel_less(&heap[c], &top))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = top;
}

/* Hyperperiod (lcm) of the compute tasks' periods when at least two
 * whole hyperperiods fit the horizon, else 0 (no window replay). */
static int64_t hyperperiod(const int64_t *per, const int32_t *inst, int64_t n,
                           int64_t duration)
{
    int64_t h = 1, i;
    for (i = 0; i < n; i++) {
        int64_t a, b, g;
        if (inst[i])
            continue;
        if (per[i] < 1)
            return 0;
        a = h;
        b = per[i];
        while (b) {
            int64_t t = a % b;
            a = b;
            b = t;
        }
        g = h / a; /* h / gcd(h, per) */
        if (g > duration / per[i])
            return 0;
        h = g * per[i];
    }
    return h <= duration / 2 ? h : 0;
}

/* Arithmetic release stream of one sim into ``rt``/``rd`` (capacity
 * ``w`` entries, the last one for the ``duration + 1`` sentinel):
 * every compute task's releases ``off + k * period <= duration`` in
 * exactly the order of ``CompiledScenario._stream_tables``.  Releases
 * past the horizon are never consumed by ``run_sim`` (it stops at the
 * first instant beyond ``duration``), so the stream ends there.
 *
 * A heap merge orders the releases up to ``2 * hyper``.  When every
 * offset lies below the hyperperiod ``hyper``, each later window
 * ``[m * hyper, (m + 1) * hyper)`` holds rescheduled releases only and
 * is exactly window 1 shifted by ``(m - 1) * hyper`` — same tasks,
 * same static keys — so the rest of the stream is copied from it.
 * ``order``/``rank``/``heap`` are n-entry scratch.  Returns nonzero
 * when the stream would overflow ``w``. */
static int build_stream(const Tables *tb, const int32_t *inst, int64_t hyper,
                        const int64_t *offs, int64_t *rt, int32_t *rd,
                        int64_t w, int32_t *order, int64_t *rank, Rel *heap)
{
    const int64_t n = tb->n;
    const int64_t duration = tb->duration;
    const int64_t *per = tb->periods;
    int64_t nc = 0, size = 0, pos = 0, lim = duration, i, w1, w2, shift;

    /* Rank compute tasks by (-period, -offset, tid): insertion sort,
     * n is small (bounded by the 64-bit ready masks per unit). */
    for (i = 0; i < n; i++) {
        int64_t j;
        int32_t tid = (int32_t)i;
        if (inst[i])
            continue;
        if (offs[i] >= hyper)
            hyper = 0;
        j = nc++;
        while (j > 0) {
            int32_t o = order[j - 1];
            if (per[o] > per[tid] ||
                (per[o] == per[tid] && offs[o] >= offs[tid]))
                break;
            order[j] = o;
            j -= 1;
        }
        order[j] = tid;
    }
    for (i = 0; i < nc; i++)
        rank[order[i]] = n + i;

    for (i = 0; i < n; i++) {
        if (inst[i] || offs[i] > duration)
            continue;
        heap[size].t = offs[i];
        heap[size].sub = i;
        heap[size].tid = (int32_t)i;
        size += 1;
    }
    for (i = size / 2 - 1; i >= 0; i--)
        sift_down(heap, size, i);

    if (hyper)
        lim = 2 * hyper - 1;
    w1 = -1;
    while (size && heap[0].t <= lim) {
        int32_t tid = heap[0].tid;
        if (pos >= w - 1)
            return 1;
        if (w1 < 0 && heap[0].t >= hyper)
            w1 = pos;
        rt[pos] = heap[0].t;
        rd[pos] = tid;
        pos += 1;
        heap[0].t += per[tid];
        heap[0].sub = rank[tid];
        if (heap[0].t > duration)
            heap[0] = heap[--size];
        sift_down(heap, size, 0);
    }
    w2 = pos;
    for (shift = hyper; hyper && w1 >= 0 && w1 < w2; shift += hyper) {
        for (i = w1; i < w2; i++) {
            int64_t t = rt[i] + shift;
            if (t > duration)
                goto end;
            if (pos >= w - 1)
                return 1;
            rt[pos] = t;
            rd[pos] = rd[i];
            pos += 1;
        }
    }
end:
    rt[pos] = tb->sentinel;
    rd[pos] = -1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* schedule advance                                                    */
/* ------------------------------------------------------------------ */

/* Recompute the earliest (fin_time, fin_seq) over busy units.  The
 * sentinel compares as (sentinel, seq 0), before any real finish at
 * the same instant — exactly the scalar heap's permanent entry. */
ALWAYS_INLINE void rehead(Sim *s)
{
    const Tables *tb = s->tb;
    int64_t best_t = tb->sentinel;
    int64_t best_q = 0;
    int64_t best_u = -1;
    int64_t u;
    for (u = 0; u < tb->n_units; u++) {
        if (s->running[u] >= 0) {
            int64_t t = s->fin_time[u];
            if (t < best_t || (t == best_t && s->fin_seq[u] < best_q)) {
                best_t = t;
                best_q = s->fin_seq[u];
                best_u = u;
            }
        }
    }
    s->fin_head = best_t;
    s->fin_head_u = best_u;
}

/* Pop the highest-priority pending task of unit u (lowest set rank
 * bit); the bit clears only when the task's last queued job leaves. */
ALWAYS_INLINE int32_t pop_ready(Sim *s, int64_t u)
{
    const Tables *tb = s->tb;
    uint64_t m = s->ready[u];
    uint64_t b = m & (~m + 1ULL);
    int32_t tid = tb->rank_tid[u * tb->max_ranks + __builtin_ctzll(b)];
    if (--s->pend[tid] == 0)
        s->ready[u] = m ^ b;
    return tid;
}

/* LET: each finish must meet its job's deadline (one period past the
 * release).  rec counts dispatches, so the running job's index is
 * rec - 1 and its deadline offs + rec * period == release + period.
 * Under release tables (jitter/sporadic models, fault masks) the
 * arithmetic does not hold: the deadline is the job's kept release
 * (read from this sim's release tables) plus one period.  Implicit
 * instantiations never test a deadline. */
ALWAYS_INLINE int check_deadline(Sim *s, int64_t u, int64_t now,
                                 const int let_mode)
{
    const Tables *tb = s->tb;
    int32_t tid;
    int64_t deadline, job;
    if (!let_mode)
        return 0;
    tid = s->running[u];
    job = s->rec[tid] - 1;
    if (tb->rel_w) {
        if (job < 0 || job >= s->rlen[tid]) {
            s->err = 2;
            return 1;
        }
        deadline = s->rel[tb->rel_base[tid] + job] + tb->periods[tid];
    } else {
        deadline = s->offs[tid] + s->rec[tid] * tb->periods[tid];
    }
    if (now > deadline) {
        s->viol[0] = tid;
        s->viol[1] = job;
        s->viol[2] = now;
        s->viol[3] = deadline;
        s->err = 1;
        return 1;
    }
    return 0;
}

/* Draw tid's execution time and start it on unit u at ``now`` with
 * sub-batch depth nb.  ``policy_mode``: 0 uniform, 1 wcet, 2 bcet,
 * 3 extremes.  Returns nonzero when the sim must stop. */
ALWAYS_INLINE int dispatch(Sim *s, int64_t u, int32_t tid, int64_t now,
                           int32_t nb, const int policy_mode,
                           const int track)
{
    const Tables *tb = s->tb;
    int64_t e, j, base;
    if (policy_mode == 0) {
        int64_t sp = tb->span[tid];
        if (sp > 1) {
            if (s->cursor >= tb->n_draws) {
                s->err = 2;
                return 1;
            }
            e = tb->bcet[tid] + (int64_t)(s->var[s->cursor++] * (double)sp);
        } else {
            e = tb->bcet[tid];
        }
    } else if (policy_mode == 1) {
        e = tb->wcet[tid];
    } else if (policy_mode == 2) {
        e = tb->bcet[tid];
    } else {
        if (s->cursor >= tb->n_draws) {
            s->err = 2;
            return 1;
        }
        e = s->var[s->cursor++] < 0.5 ? tb->bcet[tid] : tb->wcet[tid];
    }
    j = s->rec[tid]++;
    base = tb->job_base[tid];
    if (base >= 0) {
        if (j >= tb->job_cap[tid] || base + j >= tb->slots) {
            s->err = 2;
            return 1;
        }
        s->starts[base + j] = now;
        s->fins[base + j] = now + e;
        s->casc[base + j] = nb;
    }
    if (track) {
        s->cur_batch[u] = nb;
        s->zrun[u] = (e == 0);
    }
    s->running[u] = tid;
    s->seq += 1;
    s->fin_time[u] = now + e;
    s->fin_seq[u] = s->seq;
    return 0;
}

/* One replication's event loop — a line-for-line port of the scalar
 * ``_schedule``: releases win ties, multi-event instants gather every
 * same-instant release and finish before dispatching idle units, and
 * sibling finishes at a finish instant all complete before any
 * replacement dispatch (zero-time replacements cascade with depth
 * cur_batch + 1, replayed by the fast path's side table).  The
 * release stream ``rt``/``rd`` always ends in a sentinel beyond the
 * horizon, so the loop never reads past it.  The flags are constants
 * of each instantiation below, so their tests fold away. */
ALWAYS_INLINE void run_sim(Sim *s, const int64_t *rt, const int32_t *rd,
                           int32_t *touched, int32_t *fin2,
                           const int policy_mode, const int let_mode,
                           const int track)
{
    const Tables *tb = s->tb;
    const int64_t duration = tb->duration;
    int64_t ri = 0;
    int64_t u, i;

    for (u = 0; u < tb->n_units; u++) {
        s->ready[u] = 0;
        s->running[u] = -1;
        s->zrun[u] = 0;
        s->cur_batch[u] = 0;
    }
    for (i = 0; i < tb->n; i++) {
        s->pend[i] = 0;
        s->rec[i] = 0;
    }
    for (i = 0; i < 4; i++)
        s->viol[i] = -1;
    s->seq = 0;
    s->cursor = 0;
    s->err = 0;
    s->fin_head = tb->sentinel;
    s->fin_head_u = -1;

    for (;;) {
        int64_t now = rt[ri];
        if (now <= s->fin_head) {
            /* Release event (at equal times releases go first). */
            int32_t tid;
            if (now > duration)
                break;
            tid = rd[ri];
            ri += 1;
            u = tb->unit_of[tid];
            if (rt[ri] == now || s->fin_head == now) {
                /* Multi-event instant: gather every same-instant
                 * release and finish, then dispatch idle units. */
                int64_t tn = 0;
                s->pend[tid] += 1;
                s->ready[u] |= tb->bit_of[tid];
                touched[tn++] = (int32_t)u;
                while (rt[ri] == now) {
                    int32_t t2 = rd[ri];
                    int64_t u2 = tb->unit_of[t2];
                    if (tn >= tb->n) {
                        /* A task released twice at one instant: the
                         * stream is malformed (touched holds n + units). */
                        s->err = 2;
                        return;
                    }
                    ri += 1;
                    s->pend[t2] += 1;
                    s->ready[u2] |= tb->bit_of[t2];
                    touched[tn++] = (int32_t)u2;
                }
                while (s->fin_head == now) {
                    int64_t u2 = s->fin_head_u;
                    if (check_deadline(s, u2, now, let_mode))
                        return;
                    s->running[u2] = -1;
                    rehead(s);
                    touched[tn++] = (int32_t)u2;
                }
                for (i = 0; i < tn; i++) {
                    int64_t u2 = touched[i];
                    if (s->running[u2] < 0 && s->ready[u2]) {
                        int32_t t2 = pop_ready(s, u2);
                        if (dispatch(s, u2, t2, now, 0, policy_mode, track))
                            return;
                        rehead(s);
                    }
                }
            } else if (s->running[u] < 0) {
                /* Idle unit, single release: dispatch directly. */
                if (dispatch(s, u, tid, now, 0, policy_mode, track))
                    return;
                rehead(s);
            } else {
                /* Busy unit: queue and move on. */
                s->pend[tid] += 1;
                s->ready[u] |= tb->bit_of[tid];
            }
        } else {
            /* Finish event. */
            int32_t nb = 0;
            now = s->fin_head;
            if (now > duration)
                break;
            u = s->fin_head_u;
            if (check_deadline(s, u, now, let_mode))
                return;
            if (track)
                nb = s->zrun[u] ? s->cur_batch[u] + 1 : 0;
            if (s->ready[u]) {
                int32_t t2 = pop_ready(s, u);
                if (dispatch(s, u, t2, now, nb, policy_mode, track))
                    return;
                rehead(s);
            } else {
                s->running[u] = -1;
                rehead(s);
            }
            if (s->fin_head == now) {
                /* Sibling finishes at the same instant: complete
                 * them all before dispatching any replacement. */
                int64_t fn = 0;
                while (s->fin_head == now) {
                    int64_t u2 = s->fin_head_u;
                    if (check_deadline(s, u2, now, let_mode))
                        return;
                    s->running[u2] = -1;
                    rehead(s);
                    fin2[fn++] = (int32_t)u2;
                }
                for (i = 0; i < fn; i++) {
                    int64_t u2 = fin2[i];
                    if (s->running[u2] < 0 && s->ready[u2]) {
                        int32_t nb2 = 0;
                        int32_t t2;
                        if (track)
                            nb2 = s->zrun[u2] ? s->cur_batch[u2] + 1 : 0;
                        t2 = pop_ready(s, u2);
                        if (dispatch(s, u2, t2, now, nb2, policy_mode,
                                     track))
                            return;
                        rehead(s);
                    }
                }
            }
        }
    }
}

/* ``run_sim`` instantiated per (policy_mode, let_mode, track). */
typedef void (*RunSim)(Sim *, const int64_t *, const int32_t *, int32_t *,
                       int32_t *);

#define RUN_SIM_AS(P, L, K)                                                \
    static void run_sim_##P##L##K(Sim *s, const int64_t *rt,               \
                                  const int32_t *rd, int32_t *touched,     \
                                  int32_t *fin2)                           \
    {                                                                      \
        run_sim(s, rt, rd, touched, fin2, P, L, K);                        \
    }
#define RUN_SIM_POLICY(P)                                                  \
    RUN_SIM_AS(P, 0, 0) RUN_SIM_AS(P, 0, 1)                                \
    RUN_SIM_AS(P, 1, 0) RUN_SIM_AS(P, 1, 1)
RUN_SIM_POLICY(0)
RUN_SIM_POLICY(1)
RUN_SIM_POLICY(2)
RUN_SIM_POLICY(3)

static const RunSim RUN_SIM[4][2][2] = {
    {{run_sim_000, run_sim_001}, {run_sim_010, run_sim_011}},
    {{run_sim_100, run_sim_101}, {run_sim_110, run_sim_111}},
    {{run_sim_200, run_sim_201}, {run_sim_210, run_sim_211}},
    {{run_sim_300, run_sim_301}, {run_sim_310, run_sim_311}},
};

/* ------------------------------------------------------------------ */
/* provenance / disparity derive                                       */
/* ------------------------------------------------------------------ */

/* One sim's recorded columns and release tables. */
typedef struct {
    const int64_t *offs, *starts, *fins, *rec, *rel, *rlen;
    const int32_t *casc;
} SimCols;

/* The derive's read-only inputs (shared by every sim) and scratch. */
typedef struct {
    int64_t n, n_src, duration, warmup, let_mode, track;
    const int64_t *periods;
    const int32_t *inst;
    const int32_t *src_col;  /* n: source column, -1 otherwise */
    const int32_t *order;    /* n_order kept tasks, topological */
    int64_t n_order;
    const int64_t *edge_ptr; /* n + 1: CSR rows of in-edges */
    const int32_t *edge_src; /* n_edges: producer task */
    const int64_t *edge_cap; /* n_edges: channel capacity */
    int64_t gid;             /* monitored task */
    const int64_t *job_base; /* n, -1 for unrecorded tasks */
    const int64_t *job_cap;  /* n */
    const int64_t *rel_base; /* n */
    int64_t rel_w;           /* 0 = arithmetic releases */
    int64_t *blk_base;       /* n: first stamp row per kept task */
    int64_t *live;           /* n: live rows per task, this sim */
    int64_t *fin_n;          /* n: finishes within the horizon */
    int64_t *ats;            /* max_cap: read instants of one task */
    int64_t *stamps;         /* rows x 2 n_src: (lo, hi) stamp rows */
} Derive;

/* Release instant of job k of task g (k < its release count). */
ALWAYS_INLINE int64_t release_of(const Derive *d, const SimCols *c,
                                 int64_t g, int64_t k)
{
    if (d->rel_w)
        return c->rel[d->rel_base[g] + k];
    return c->offs[g] + k * d->periods[g];
}

/* Fold producer stamp row ``src`` into consumer row ``dst``: per
 * source the min of the lows and the max of the highs
 * (``ProvenancePacker.merge``); never-contributing sources hold the
 * absorbing sentinels. */
ALWAYS_INLINE void fold_row(int64_t *dst, const int64_t *src, int64_t n_src)
{
    int64_t s;
    for (s = 0; s < n_src; s++) {
        int64_t lo = src[s], hi = src[n_src + s];
        dst[s] = lo < dst[s] ? lo : dst[s];
        dst[n_src + s] = hi > dst[n_src + s] ? hi : dst[n_src + s];
    }
}

static void derive_free(Derive *d)
{
    free(d->blk_base);
    free(d->live);
    free(d->fin_n);
    free(d->ats);
    free(d->stamps);
}

/* Fill the derive's inputs (the arguments both entry points share),
 * lay out the stamp rows, run the static index checks and allocate
 * the scratch.  Returns nonzero on a failed check or allocation
 * (``derive_free`` still applies). */
static int derive_setup(
    Derive *d, int64_t n, int64_t n_src, int64_t duration, int64_t warmup,
    int64_t let_mode, int64_t track, const int64_t *periods,
    const int32_t *inst, const int32_t *src_col, const int32_t *order,
    int64_t n_order, const int64_t *edge_ptr, const int32_t *edge_src,
    const int64_t *edge_cap, int64_t gid, const int64_t *job_base,
    const int64_t *job_cap, const int64_t *rel_base, int64_t rel_w,
    int64_t slots)
{
    const int64_t width = 2 * n_src;
    int64_t i, j, rows = 0, max_cap = 1;
    size_t nn = (size_t)(n > 0 ? n : 1);
    d->n = n;
    d->n_src = n_src;
    d->duration = duration;
    d->warmup = warmup;
    d->let_mode = let_mode;
    d->track = track;
    d->periods = periods;
    d->inst = inst;
    d->src_col = src_col;
    d->order = order;
    d->n_order = n_order;
    d->edge_ptr = edge_ptr;
    d->edge_src = edge_src;
    d->edge_cap = edge_cap;
    d->gid = gid;
    d->job_base = job_base;
    d->job_cap = job_cap;
    d->rel_base = rel_base;
    d->rel_w = rel_w;
    d->blk_base = malloc(nn * sizeof(int64_t));
    d->live = malloc(nn * sizeof(int64_t));
    d->fin_n = malloc(nn * sizeof(int64_t));
    d->ats = NULL;
    d->stamps = NULL;
    if (!d->blk_base || !d->live || !d->fin_n)
        return 1;
    for (i = 0; i < n; i++)
        d->blk_base[i] = -1;
    for (j = 0; j < d->n_order; j++) {
        int32_t g = d->order[j];
        if (g < 0 || g >= n || d->job_cap[g] < 0 ||
            d->src_col[g] >= d->n_src ||
            (!d->inst[g] && (d->job_base[g] < 0 ||
                             d->job_base[g] + d->job_cap[g] > slots)) ||
            (d->rel_w && (d->rel_base[g] < 0 ||
                          d->rel_base[g] + d->job_cap[g] > d->rel_w)))
            return 1;
        d->blk_base[g] = rows;
        rows += d->job_cap[g];
        if (d->job_cap[g] > max_cap)
            max_cap = d->job_cap[g];
    }
    for (j = 0; j < d->n_order; j++) {
        int32_t g = d->order[j];
        int64_t e;
        if (d->edge_ptr[g] < 0 || d->edge_ptr[g] > d->edge_ptr[g + 1] ||
            d->edge_ptr[g + 1] > d->edge_ptr[n])
            return 1;
        for (e = d->edge_ptr[g]; e < d->edge_ptr[g + 1]; e++) {
            int32_t pg = d->edge_src[e];
            /* Producers must be kept and precede their consumer. */
            if (pg < 0 || pg >= n || d->blk_base[pg] < 0 ||
                d->blk_base[pg] >= d->blk_base[g] || d->edge_cap[e] < 1)
                return 1;
        }
    }
    if (d->gid < 0 || d->gid >= n || d->blk_base[d->gid] < 0)
        return 1;
    d->ats = malloc((size_t)max_cap * sizeof(int64_t));
    d->stamps = malloc((size_t)(rows * width > 0 ? rows * width : 1)
                       * sizeof(int64_t));
    return !d->ats || !d->stamps;
}

/* One sim: fold each kept task's per-source ``(lo, hi)`` stamp rows
 * in topological order, reproducing ``CompiledScenario._resolver``
 * one for one, then take the monitored task's maximum defined
 * disparity over jobs ``[k0(warmup), count)`` into ``*out`` (0 when
 * none is defined).  Returns nonzero when an index check fails.
 *
 * Row ``k`` of a task exists for its live jobs only: releases within
 * the horizon for sources, LET-mode and instantaneous tasks, recorded
 * dispatches for implicit compute tasks.  A consumer job reads at its
 * release (LET, instantaneous) or start (implicit compute).  Per
 * in-edge, the visible-write count ``mm`` counts the producer's
 * publications up to the read: releases (sources, instantaneous
 * producers) or releases plus one period (LET compute producers,
 * capped at the jobs completed within the horizon), and under
 * implicit semantics a compute producer's finishes — stepped back
 * over same-instant zero-time writes deeper in the sub-batch than the
 * read under ``track``.  The FIFO head ``max(0, mm - capacity)``
 * selects the producer row folded in.  Read instants are
 * nondecreasing in ``k`` and every live publication lies within the
 * horizon, so each count is a monotone two-pointer walk over the
 * producer's live jobs, edge by edge. */
static int derive_sim(const Derive *d, const SimCols *c, int64_t *out)
{
    const int64_t n_src = d->n_src;
    const int64_t width = 2 * n_src;
    const int64_t duration = d->duration;
    const int64_t gid = d->gid;
    int64_t *live = d->live, *fin_n = d->fin_n, *ats = d->ats;
    int64_t count, k0, k, j, best = -1;

    for (j = 0; j < d->n_order; j++) {
        const int32_t g = d->order[j];
        int64_t *row0 = d->stamps + d->blk_base[g] * width;
        const int by_release =
            d->let_mode || d->inst[g] || d->src_col[g] >= 0;
        const int64_t jb = d->job_base[g];
        int64_t nk, e;

        /* Live rows: in-horizon releases or recorded dispatches. */
        if (!by_release)
            nk = c->rec[g];
        else if (d->rel_w)
            nk = c->rlen[g];
        else if (c->offs[g] > duration)
            nk = 0;
        else
            nk = (duration - c->offs[g]) / d->periods[g] + 1;
        if (nk < 0 || nk > d->job_cap[g] ||
            (d->rel_w && (c->rlen[g] < 0 || c->rlen[g] > d->job_cap[g])) ||
            (!d->inst[g] && (c->rec[g] < 0 || c->rec[g] > d->job_cap[g])))
            return 1;
        live[g] = nk;
        if (!d->inst[g]) {
            int64_t r = c->rec[g];
            fin_n[g] = r > 0 && c->fins[jb + r - 1] > duration ? r - 1 : r;
        }
        for (k = 0; k < nk; k++) {
            int64_t *row = row0 + k * width, s;
            ats[k] = by_release ? release_of(d, c, g, k) : c->starts[jb + k];
            for (s = 0; s < n_src; s++) {
                row[s] = STAMP_SENTINEL;
                row[n_src + s] = -STAMP_SENTINEL;
            }
        }
        if (d->src_col[g] >= 0) {
            for (k = 0; k < nk; k++) {
                row0[k * width + d->src_col[g]] = ats[k];
                row0[k * width + n_src + d->src_col[g]] = ats[k];
            }
            continue;
        }

        for (e = d->edge_ptr[g]; e < d->edge_ptr[g + 1]; e++) {
            const int32_t pg = d->edge_src[e];
            const int64_t cap = d->edge_cap[e];
            const int64_t plive = live[pg];
            const int64_t *prow0 = d->stamps + d->blk_base[pg] * width;
            int64_t p = 0, mm, kk;
            if (!d->let_mode && !d->inst[pg]) {
                /* Implicit compute producer: finishes <= read,
                 * over its recorded dispatches. */
                const int64_t *f = c->fins + d->job_base[pg];
                const int64_t *st = c->starts + d->job_base[pg];
                const int32_t *cs = c->casc + d->job_base[pg];
                const int64_t np = c->rec[pg];
                for (k = 0; k < nk; k++) {
                    const int64_t at = ats[k];
                    while (p < np && f[p] <= at)
                        p += 1;
                    mm = p;
                    if (d->track) {
                        const int64_t rkey =
                            by_release ? 1 : 3 * (int64_t)c->casc[jb + k] + 2;
                        while (mm && f[mm - 1] == at && st[mm - 1] == at &&
                               3 * ((int64_t)cs[mm - 1] + 1) > rkey)
                            mm -= 1;
                    }
                    if (!mm)
                        continue;
                    kk = mm > cap ? mm - cap : 0;
                    if (kk >= plive)
                        return 1;
                    fold_row(row0 + k * width, prow0 + kk * width, n_src);
                }
            } else {
                /* Publications at release (sources, instantaneous
                 * producers) or one period later (LET compute and
                 * instantaneous non-sources), LET compute ones only
                 * for jobs completed within the horizon. */
                const int64_t lag =
                    d->let_mode && d->src_col[pg] < 0 ? d->periods[pg] : 0;
                const int64_t limit =
                    d->let_mode && d->src_col[pg] < 0 && !d->inst[pg]
                        ? fin_n[pg] : plive;
                for (k = 0; k < nk; k++) {
                    const int64_t at = ats[k];
                    while (p < plive && release_of(d, c, pg, p) + lag <= at)
                        p += 1;
                    mm = p < limit ? p : limit;
                    if (!mm)
                        continue;
                    kk = mm > cap ? mm - cap : 0;
                    if (kk >= plive)
                        return 1;
                    fold_row(row0 + k * width, prow0 + kk * width, n_src);
                }
            }
        }
    }

    /* Monitored fold over [k0(warmup), count). */
    count = d->inst[gid] ? live[gid] : fin_n[gid];
    if (count > live[gid])
        return 1;
    k0 = 0;
    if (d->rel_w) {
        const int64_t *r = c->rel + d->rel_base[gid];
        while (k0 < c->rlen[gid] && r[k0] < d->warmup)
            k0 += 1;
    } else if (c->offs[gid] < d->warmup) {
        const int64_t per = d->periods[gid];
        k0 = (d->warmup - c->offs[gid] + per - 1) / per;
    }
    for (k = k0; k < count; k++) {
        const int64_t *row = d->stamps + (d->blk_base[gid] + k) * width;
        int64_t mn = STAMP_SENTINEL, mx = -STAMP_SENTINEL, s;
        for (s = 0; s < n_src; s++) {
            mn = row[s] < mn ? row[s] : mn;
            mx = row[n_src + s] > mx ? row[n_src + s] : mx;
        }
        if (mn < STAMP_SENTINEL && mx - mn > best)
            best = mx - mn;
    }
    *out = best > 0 ? best : 0;
    return 0;
}

/* ------------------------------------------------------------------ */
/* entry points                                                        */
/* ------------------------------------------------------------------ */

int64_t repro_ckernel_abi(void)
{
    return REPRO_CKERNEL_ABI;
}

/* Table mode: sim ``i``'s caller-built stream row must end in its
 * sentinel, name only released (non-instantaneous) tasks, and every
 * kept-release count must fit its task's cap. */
static int check_rows(const Tables *tb, const int32_t *inst,
                      const int64_t *rt, const int32_t *rd, int64_t stream_w,
                      const int64_t *rlen)
{
    int64_t t;
    if (rt[stream_w - 1] <= tb->duration)
        return 1;
    for (t = 0; tb->rel_w && t < tb->n; t++) {
        if (rlen[t] < 0 || rlen[t] > tb->job_cap[t])
            return 1;
    }
    for (t = 0; t < stream_w && rt[t] <= tb->duration; t++) {
        if (rd[t] < 0 || rd[t] >= tb->n || inst[rd[t]])
            return 1;
    }
    return 0;
}

int64_t columnar_advance(
    int64_t sims, int64_t n, int64_t n_units,
    int64_t stream_w,            /* release-row width incl. sentinel */
    const int64_t *rel_times,    /* sims x stream_w, NULL = build */
    const int32_t *rel_tids,     /* sims x stream_w, NULL = build */
    const int32_t *inst,         /* n: instantaneous (never released) */
    int64_t duration,
    const int64_t *bcet, const int64_t *wcet, const int64_t *span,
    const int64_t *periods,
    const int32_t *unit_of, const uint64_t *bit_of,
    const int32_t *rank_tid, int64_t max_ranks,
    int64_t policy_mode, int64_t let_mode, int64_t track,
    const double *variates, int64_t n_draws, /* sims x n_draws */
    const int64_t *offsets,      /* sims x n */
    const int64_t *rel_tab,      /* sims x rel_w kept-release tables */
    const int64_t *rel_base,     /* n: first rel_tab column per task */
    const int64_t *rel_len,      /* sims x n: kept releases per task */
    int64_t rel_w,               /* 0 = arithmetic releases */
    const int64_t *job_base,     /* n, -1 for unrecorded tasks */
    const int64_t *job_cap,      /* n */
    int64_t slots,
    int64_t *starts_out,         /* sims x slots, NULL = no memo */
    int64_t *fins_out,           /* sims x slots, NULL = no memo */
    int32_t *casc_out,           /* sims x slots, NULL = no memo */
    int64_t *rec_out,            /* sims x n: dispatch counts */
    int64_t *viol_out,           /* 4: the LET violation, if any */
    int64_t n_src, int64_t warmup,
    const int32_t *src_col,      /* n: source column, -1 otherwise */
    const int32_t *order,        /* n_order kept tasks, topological */
    int64_t n_order,
    const int64_t *edge_ptr,     /* n + 1: CSR rows of in-edges */
    const int32_t *edge_src,     /* n_edges: producer task */
    const int64_t *edge_cap,     /* n_edges: channel capacity */
    int64_t gid,                 /* monitored task */
    int64_t *out,                /* sims: windowed maximum disparity */
    int64_t *step)               /* the failing STEP_* */
{
    Tables tb;
    Sim s;
    Derive d;
    RunSim run = NULL;
    int64_t i;
    int64_t rc = 0;
    const int build = rel_times == NULL || rel_tids == NULL;
    const int memo = starts_out && fins_out && casc_out;
    const int64_t hyper = build ? hyperperiod(periods, inst, n, duration) : 0;
    size_t nn = (size_t)(n > 0 ? n : 1);
    size_t nu = (size_t)(n_units > 0 ? n_units : 1);
    size_t ns = (size_t)(slots > 0 ? slots : 1);
    uint64_t *ready = malloc(nu * sizeof(uint64_t));
    int32_t *running = malloc(nu * sizeof(int32_t));
    int64_t *fin_time = malloc(nu * sizeof(int64_t));
    int64_t *fin_seq = malloc(nu * sizeof(int64_t));
    uint8_t *zrun = malloc(nu * sizeof(uint8_t));
    int32_t *cur_batch = malloc(nu * sizeof(int32_t));
    int64_t *pend = malloc(nn * sizeof(int64_t));
    int32_t *touched = malloc((nn + nu) * sizeof(int32_t));
    int32_t *fin2 = malloc(nu * sizeof(int32_t));
    int32_t *rank_order = malloc(nn * sizeof(int32_t));
    int64_t *rank = malloc(nn * sizeof(int64_t));
    Rel *heap = malloc(nn * sizeof(Rel));
    int64_t *starts = malloc(ns * sizeof(int64_t));
    int64_t *fins = malloc(ns * sizeof(int64_t));
    int32_t *casc = malloc(ns * sizeof(int32_t));
    int64_t *rt_buf = NULL;
    int32_t *rd_buf = NULL;

    *step = STEP_SETUP;
    if (derive_setup(&d, n, n_src, duration, warmup, let_mode, track,
                     periods, inst, src_col, order, n_order, edge_ptr,
                     edge_src, edge_cap, gid, job_base, job_cap, rel_base,
                     rel_w, slots) || stream_w < 1 || slots < 1) {
        rc = -1;
        goto done;
    }
    if (policy_mode >= 0 && policy_mode < 4 && let_mode >= 0 &&
        let_mode < 2 && track >= 0 && track < 2)
        run = RUN_SIM[policy_mode][let_mode][track];
    if (build) {
        rt_buf = malloc((size_t)stream_w * sizeof(int64_t));
        rd_buf = malloc((size_t)stream_w * sizeof(int32_t));
    }
    if (!run || !ready || !running || !fin_time || !fin_seq || !zrun ||
        !cur_batch || !pend || !touched || !fin2 || !rank_order || !rank ||
        !heap || !starts || !fins || !casc ||
        (build && (!rt_buf || !rd_buf))) {
        rc = -1;
        goto done;
    }
    /* Table-driven tasks must index inside their sim's row. */
    for (i = 0; rel_w && i < n; i++) {
        if (rel_base[i] < 0 || rel_base[i] + job_cap[i] > rel_w) {
            rc = -1;
            goto done;
        }
    }

    tb.n = n;
    tb.n_units = n_units;
    tb.duration = duration;
    tb.sentinel = duration + 1;
    tb.max_ranks = max_ranks;
    tb.n_draws = n_draws;
    tb.slots = slots;
    tb.bcet = bcet;
    tb.wcet = wcet;
    tb.span = span;
    tb.periods = periods;
    tb.unit_of = unit_of;
    tb.bit_of = bit_of;
    tb.rank_tid = rank_tid;
    tb.job_base = job_base;
    tb.job_cap = job_cap;
    tb.rel_base = rel_base;
    tb.rel_w = rel_w;

    s.tb = &tb;
    s.ready = ready;
    s.running = running;
    s.fin_time = fin_time;
    s.fin_seq = fin_seq;
    s.zrun = zrun;
    s.cur_batch = cur_batch;
    s.pend = pend;
    s.starts = starts;
    s.fins = fins;
    s.casc = casc;
    s.viol = viol_out;

    for (i = 0; i < sims; i++) {
        const int64_t *rt;
        const int32_t *rd;
        SimCols c;
        s.offs = offsets + i * n;
        s.rel = rel_w ? rel_tab + i * rel_w : NULL;
        s.rlen = rel_w ? rel_len + i * n : NULL;
        s.var = variates + i * n_draws;
        s.rec = rec_out + i * n;
        *step = STEP_STREAM;
        if (build) {
            if (build_stream(&tb, inst, hyper, s.offs, rt_buf, rd_buf,
                             stream_w, rank_order, rank, heap)) {
                rc = -(i + 1);
                goto done;
            }
            rt = rt_buf;
            rd = rd_buf;
        } else {
            rt = rel_times + i * stream_w;
            rd = rel_tids + i * stream_w;
            if (check_rows(&tb, inst, rt, rd, stream_w, s.rlen)) {
                rc = -(i + 1);
                goto done;
            }
        }
        *step = STEP_ADVANCE;
        run(&s, rt, rd, touched, fin2);
        if (s.err == 2) {
            rc = -(i + 1);
            goto done;
        }
        if (s.err == 1) {
            rc = i + 1; /* LET violation, details in viol_out */
            goto done;
        }
        *step = STEP_DERIVE;
        c.offs = s.offs;
        c.starts = starts;
        c.fins = fins;
        c.casc = casc;
        c.rec = s.rec;
        c.rel = s.rel;
        c.rlen = s.rlen;
        if (derive_sim(&d, &c, out + i)) {
            rc = -(i + 1);
            goto done;
        }
        if (memo) {
            size_t w = (size_t)slots;
            memcpy(starts_out + i * slots, starts, w * sizeof(int64_t));
            memcpy(fins_out + i * slots, fins, w * sizeof(int64_t));
            memcpy(casc_out + i * slots, casc, w * sizeof(int32_t));
        }
    }
    *step = 0;

done:
    derive_free(&d);
    free(ready);
    free(running);
    free(fin_time);
    free(fin_seq);
    free(zrun);
    free(cur_batch);
    free(pend);
    free(touched);
    free(fin2);
    free(rank_order);
    free(rank);
    free(heap);
    free(starts);
    free(fins);
    free(casc);
    free(rt_buf);
    free(rd_buf);
    return rc;
}

/* The derive alone over recorded ``(sims, slots)`` columns (an
 * advance-memo hit): the same ``derive_sim`` per sim. */
int64_t columnar_derive(
    int64_t sims, int64_t n, int64_t n_src,
    int64_t duration, int64_t warmup,
    int64_t let_mode, int64_t track,
    const int64_t *periods,
    const int32_t *inst,
    const int32_t *src_col,      /* n: source column, -1 otherwise */
    const int32_t *order,        /* n_order kept tasks, topological */
    int64_t n_order,
    const int64_t *edge_ptr,     /* n + 1: CSR rows of in-edges */
    const int32_t *edge_src,     /* n_edges: producer task */
    const int64_t *edge_cap,     /* n_edges: channel capacity */
    int64_t gid,                 /* monitored task */
    const int64_t *offsets,      /* sims x n */
    const int64_t *starts,       /* sims x slots */
    const int64_t *fins,         /* sims x slots */
    const int32_t *casc,         /* sims x slots */
    const int64_t *rec,          /* sims x n */
    const int64_t *job_base,     /* n, -1 for unrecorded tasks */
    const int64_t *job_cap,      /* n */
    int64_t slots,
    const int64_t *rel_tab,      /* sims x rel_w, table mode */
    const int64_t *rel_base,     /* n */
    const int64_t *rel_len,      /* sims x n */
    int64_t rel_w,               /* 0 = arithmetic releases */
    int64_t *out,                /* sims: windowed maximum disparity */
    int64_t *step)               /* the failing STEP_* */
{
    Derive d;
    int64_t i, rc = 0;

    *step = STEP_SETUP;
    if (derive_setup(&d, n, n_src, duration, warmup, let_mode, track,
                     periods, inst, src_col, order, n_order, edge_ptr,
                     edge_src, edge_cap, gid, job_base, job_cap, rel_base,
                     rel_w, slots)) {
        rc = -1;
        goto done;
    }
    *step = STEP_DERIVE;
    for (i = 0; i < sims; i++) {
        SimCols c;
        c.offs = offsets + i * n;
        c.starts = starts + i * slots;
        c.fins = fins + i * slots;
        c.casc = casc + i * slots;
        c.rec = rec + i * n;
        c.rel = rel_w ? rel_tab + i * rel_w : NULL;
        c.rlen = rel_w ? rel_len + i * n : NULL;
        if (derive_sim(&d, &c, out + i)) {
            rc = -(i + 1);
            goto done;
        }
    }
    *step = 0;

done:
    derive_free(&d);
    return rc;
}
