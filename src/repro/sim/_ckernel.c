/* Columnar NP-FP kernel: release streams, schedule advance, derive.
 *
 * The columnar batch engine (``repro/sim/columnar.py``) runs a batch
 * in three steps: execution-time variates are drawn in numpy, then
 * two entry points of this kernel (ABI 4, ``REPRO_CKERNEL_ABI``; must
 * match ``ckernel.ABI_VERSION``) each process every replication of
 * the batch in one call:
 *
 * ``columnar_advance`` — one C transliteration of
 *   ``CompiledScenario._schedule`` (see ``repro/sim/batch.py``).  The
 *   replications share the read-only compiled tables (execution-time
 *   ranges, unit mapping, priority-rank bitmasks) and differ only in
 *   their release stream, offset vector, and execution-time variates.
 *   On the arithmetic path (strictly periodic, fault-free) the kernel
 *   builds each sim's release stream itself (``build_stream``: a
 *   k-way heap merge of the per-task periodic sequences in the static
 *   ``(time, k > 0, -period, -offset, tid)`` order, later whole
 *   hyperperiods copied from the second one); in table mode
 *   (fault plans, jittered or sporadic releases) the caller passes the
 *   Python-drawn rows.  The scalar loop's finish *heap* is replaced by
 *   a per-unit ``(fin_time, fin_seq)`` pair plus a sentinel-aware min
 *   scan (``rehead``): the heap never holds more than one live entry
 *   per unit, so the scan is O(n_units) and reproduces the heap's
 *   ``(time, push sequence)`` pop order exactly.
 *
 * ``columnar_derive`` — the bulk form of ``_prov_resolver`` plus the
 *   monitored disparity fold: per sim, the kept tasks' per-source
 *   ``(lo, hi)`` stamp rows fold in topological order and the
 *   monitored task's windowed maximum disparity comes out.
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
 * ``-1`` also reports a failed scratch allocation.  LET deadline
 * violations are not errors at this layer: the violating sim stops,
 * its ``viol_out`` row records ``(tid, job, at, deadline)``, and the
 * caller raises the engine-identical ModelError for the lowest
 * violating sim index.
 */

#include <stdint.h>
#include <stdlib.h>

#define REPRO_CKERNEL_ABI 4

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
    int64_t policy_mode; /* 0 uniform, 1 wcet, 2 bcet, 3 extremes */
    int64_t let_mode;   /* LET semantics: deadline-check each finish */
    int64_t track;      /* implicit + zero-BCET: record cascade depths */
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
    int64_t *starts;     /* slots: this sim's start row */
    int64_t *fins;       /* slots: this sim's finish row */
    int32_t *casc;       /* slots: this sim's cascade-depth row */
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
static void rehead(Sim *s)
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
static int32_t pop_ready(Sim *s, int64_t u)
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
 * (read from this sim's release tables) plus one period. */
static int check_deadline(Sim *s, int64_t u, int64_t now)
{
    const Tables *tb = s->tb;
    int32_t tid;
    int64_t deadline, job;
    if (!tb->let_mode)
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
 * sub-batch depth nb.  Returns nonzero when the sim must stop. */
static int dispatch(Sim *s, int64_t u, int32_t tid, int64_t now, int32_t nb)
{
    const Tables *tb = s->tb;
    int64_t e, j, base;
    if (tb->policy_mode == 0) {
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
    } else if (tb->policy_mode == 1) {
        e = tb->wcet[tid];
    } else if (tb->policy_mode == 2) {
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
    if (tb->track) {
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
 * horizon, so the loop never reads past it. */
static void run_sim(Sim *s, const int64_t *rt, const int32_t *rd,
                    int32_t *touched, int32_t *fin2)
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
                    if (check_deadline(s, u2, now))
                        return;
                    s->running[u2] = -1;
                    rehead(s);
                    touched[tn++] = (int32_t)u2;
                }
                for (i = 0; i < tn; i++) {
                    int64_t u2 = touched[i];
                    if (s->running[u2] < 0 && s->ready[u2]) {
                        int32_t t2 = pop_ready(s, u2);
                        if (dispatch(s, u2, t2, now, 0))
                            return;
                        rehead(s);
                    }
                }
            } else if (s->running[u] < 0) {
                /* Idle unit, single release: dispatch directly. */
                if (dispatch(s, u, tid, now, 0))
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
            if (check_deadline(s, u, now))
                return;
            if (tb->track)
                nb = s->zrun[u] ? s->cur_batch[u] + 1 : 0;
            if (s->ready[u]) {
                int32_t t2 = pop_ready(s, u);
                if (dispatch(s, u, t2, now, nb))
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
                    if (check_deadline(s, u2, now))
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
                        if (tb->track)
                            nb2 = s->zrun[u2] ? s->cur_batch[u2] + 1 : 0;
                        t2 = pop_ready(s, u2);
                        if (dispatch(s, u2, t2, now, nb2))
                            return;
                        rehead(s);
                    }
                }
            }
        }
    }
}

int64_t repro_ckernel_abi(void)
{
    return REPRO_CKERNEL_ABI;
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
    int64_t *starts_out,         /* sims x slots */
    int64_t *fins_out,           /* sims x slots */
    int32_t *casc_out,           /* sims x slots */
    int64_t *rec_out,            /* sims x n */
    int64_t *viol_out)           /* sims x 4 */
{
    Tables tb;
    Sim s;
    int64_t i;
    int64_t rc = 0;
    const int build = rel_times == NULL || rel_tids == NULL;
    const int64_t hyper = build ? hyperperiod(periods, inst, n, duration) : 0;
    size_t nn = (size_t)(n > 0 ? n : 1);
    size_t nu = (size_t)(n_units > 0 ? n_units : 1);
    uint64_t *ready = malloc(nu * sizeof(uint64_t));
    int32_t *running = malloc(nu * sizeof(int32_t));
    int64_t *fin_time = malloc(nu * sizeof(int64_t));
    int64_t *fin_seq = malloc(nu * sizeof(int64_t));
    uint8_t *zrun = malloc(nu * sizeof(uint8_t));
    int32_t *cur_batch = malloc(nu * sizeof(int32_t));
    int64_t *pend = malloc(nn * sizeof(int64_t));
    int32_t *touched = malloc((nn + nu) * sizeof(int32_t));
    int32_t *fin2 = malloc(nu * sizeof(int32_t));
    int32_t *order = malloc(nn * sizeof(int32_t));
    int64_t *rank = malloc(nn * sizeof(int64_t));
    Rel *heap = malloc(nn * sizeof(Rel));
    int64_t *rt_buf = NULL;
    int32_t *rd_buf = NULL;

    if (stream_w < 1) {
        rc = -1;
        goto done;
    }
    if (build) {
        rt_buf = malloc((size_t)stream_w * sizeof(int64_t));
        rd_buf = malloc((size_t)stream_w * sizeof(int32_t));
    }
    if (!ready || !running || !fin_time || !fin_seq || !zrun ||
        !cur_batch || !pend || !touched || !fin2 || !order || !rank ||
        !heap || (build && (!rt_buf || !rd_buf))) {
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
    tb.policy_mode = policy_mode;
    tb.let_mode = let_mode;
    tb.track = track;
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

    for (i = 0; i < sims; i++) {
        const int64_t *rt;
        const int32_t *rd;
        s.offs = offsets + i * n;
        s.rel = rel_w ? rel_tab + i * rel_w : NULL;
        s.rlen = rel_w ? rel_len + i * n : NULL;
        s.var = variates + i * n_draws;
        s.starts = starts_out + i * slots;
        s.fins = fins_out + i * slots;
        s.casc = casc_out + i * slots;
        s.rec = rec_out + i * n;
        s.viol = viol_out + i * 4;
        if (build) {
            if (build_stream(&tb, inst, hyper, s.offs, rt_buf, rd_buf,
                             stream_w, order, rank, heap)) {
                rc = -(i + 1);
                goto done;
            }
            rt = rt_buf;
            rd = rd_buf;
        } else {
            int64_t t;
            rt = rel_times + i * stream_w;
            rd = rel_tids + i * stream_w;
            if (rt[stream_w - 1] <= duration) {
                rc = -(i + 1); /* row lacks its terminating sentinel */
                goto done;
            }
            for (t = 0; rel_w && t < n; t++) {
                if (s.rlen[t] < 0 || s.rlen[t] > job_cap[t]) {
                    rc = -(i + 1);
                    goto done;
                }
            }
            for (t = 0; t < stream_w && rt[t] <= duration; t++) {
                if (rd[t] < 0 || rd[t] >= n || inst[rd[t]]) {
                    rc = -(i + 1);
                    goto done;
                }
            }
        }
        run_sim(&s, rt, rd, touched, fin2);
        if (s.err == 2) {
            rc = -(i + 1);
            goto done;
        }
        /* err == 1 (LET violation) is recorded in viol_out; later
         * sims are independent, so keep advancing — the caller
         * raises for the lowest violating index. */
    }

done:
    free(ready);
    free(running);
    free(fin_time);
    free(fin_seq);
    free(zrun);
    free(cur_batch);
    free(pend);
    free(touched);
    free(fin2);
    free(order);
    free(rank);
    free(heap);
    free(rt_buf);
    free(rd_buf);
    return rc;
}

/* ------------------------------------------------------------------ */
/* provenance / disparity derive                                       */
/* ------------------------------------------------------------------ */

/* One sim's recorded columns and release tables. */
typedef struct {
    const int64_t *offs, *starts, *fins, *rec, *rel, *rlen;
    const int32_t *casc;
} SimCols;

/* Release instant of job k of task g (k < its release count). */
static int64_t release_of(const int64_t *periods, const int64_t *rel_base,
                          int64_t rel_w, const SimCols *c, int64_t g,
                          int64_t k)
{
    if (rel_w)
        return c->rel[rel_base[g] + k];
    return c->offs[g] + k * periods[g];
}

/* Fold producer stamp row ``src`` into consumer row ``dst``: per
 * source the min of the lows and the max of the highs
 * (``ProvenancePacker.merge``); never-contributing sources hold the
 * absorbing sentinels. */
static void fold_row(int64_t *dst, const int64_t *src, int64_t n_src)
{
    int64_t s;
    for (s = 0; s < n_src; s++) {
        int64_t lo = src[s], hi = src[n_src + s];
        dst[s] = lo < dst[s] ? lo : dst[s];
        dst[n_src + s] = hi > dst[n_src + s] ? hi : dst[n_src + s];
    }
}

/* Per sim: fold each kept task's per-source ``(lo, hi)`` stamp rows
 * in topological order, reproducing ``_prov_resolver`` one for one,
 * then take the monitored task's maximum defined disparity over jobs
 * ``[k0(warmup), count)`` (0 when none is defined).
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
    int64_t *out)                /* sims: windowed maximum disparity */
{
    const int64_t width = 2 * n_src; /* stamp row: n_src lo, n_src hi */
    int64_t i, j, rows = 0, max_cap = 1, rc = 0;
    size_t nn = (size_t)(n > 0 ? n : 1);
    int64_t *blk_base = malloc(nn * sizeof(int64_t));
    int64_t *live = malloc(nn * sizeof(int64_t));
    int64_t *fin_n = malloc(nn * sizeof(int64_t));
    int64_t *ats = NULL;
    int64_t *stamps = NULL;

    if (!blk_base || !live || !fin_n) {
        rc = -1;
        goto done;
    }
    /* Stamp-row layout and the static index checks. */
    for (i = 0; i < n; i++)
        blk_base[i] = -1;
    for (j = 0; j < n_order; j++) {
        int32_t g = order[j];
        if (g < 0 || g >= n || job_cap[g] < 0 || src_col[g] >= n_src ||
            (!inst[g] &&
             (job_base[g] < 0 || job_base[g] + job_cap[g] > slots)) ||
            (rel_w &&
             (rel_base[g] < 0 || rel_base[g] + job_cap[g] > rel_w))) {
            rc = -1;
            goto done;
        }
        blk_base[g] = rows;
        rows += job_cap[g];
        if (job_cap[g] > max_cap)
            max_cap = job_cap[g];
    }
    for (j = 0; j < n_order; j++) {
        int32_t g = order[j];
        int64_t e;
        if (edge_ptr[g] < 0 || edge_ptr[g] > edge_ptr[g + 1] ||
            edge_ptr[g + 1] > edge_ptr[n]) {
            rc = -1;
            goto done;
        }
        for (e = edge_ptr[g]; e < edge_ptr[g + 1]; e++) {
            int32_t pg = edge_src[e];
            /* Producers must be kept and precede their consumer. */
            if (pg < 0 || pg >= n || blk_base[pg] < 0 ||
                blk_base[pg] >= blk_base[g] || edge_cap[e] < 1) {
                rc = -1;
                goto done;
            }
        }
    }
    if (gid < 0 || gid >= n || blk_base[gid] < 0) {
        rc = -1;
        goto done;
    }
    ats = malloc((size_t)max_cap * sizeof(int64_t));
    stamps = malloc((size_t)(rows * width > 0 ? rows * width : 1)
                    * sizeof(int64_t));
    if (!ats || !stamps) {
        rc = -1;
        goto done;
    }

    for (i = 0; i < sims; i++) {
        SimCols c;
        int64_t count, k0, k, best = -1;
        c.offs = offsets + i * n;
        c.starts = starts + i * slots;
        c.fins = fins + i * slots;
        c.casc = casc + i * slots;
        c.rec = rec + i * n;
        c.rel = rel_w ? rel_tab + i * rel_w : NULL;
        c.rlen = rel_w ? rel_len + i * n : NULL;

        for (j = 0; j < n_order; j++) {
            const int32_t g = order[j];
            int64_t *row0 = stamps + blk_base[g] * width;
            const int by_release = let_mode || inst[g] || src_col[g] >= 0;
            const int64_t jb = job_base[g];
            int64_t nk, e;

            /* Live rows: in-horizon releases or recorded dispatches. */
            if (!by_release)
                nk = c.rec[g];
            else if (rel_w)
                nk = c.rlen[g];
            else if (c.offs[g] > duration)
                nk = 0;
            else
                nk = (duration - c.offs[g]) / periods[g] + 1;
            if (nk < 0 || nk > job_cap[g] ||
                (rel_w && (c.rlen[g] < 0 || c.rlen[g] > job_cap[g])) ||
                (!inst[g] && (c.rec[g] < 0 || c.rec[g] > job_cap[g]))) {
                rc = -(i + 1);
                goto done;
            }
            live[g] = nk;
            if (!inst[g]) {
                int64_t r = c.rec[g];
                fin_n[g] = r > 0 && c.fins[jb + r - 1] > duration ? r - 1 : r;
            }
            for (k = 0; k < nk; k++) {
                int64_t *row = row0 + k * width, s;
                ats[k] = by_release
                             ? release_of(periods, rel_base, rel_w, &c, g, k)
                             : c.starts[jb + k];
                for (s = 0; s < n_src; s++) {
                    row[s] = STAMP_SENTINEL;
                    row[n_src + s] = -STAMP_SENTINEL;
                }
            }
            if (src_col[g] >= 0) {
                for (k = 0; k < nk; k++) {
                    row0[k * width + src_col[g]] = ats[k];
                    row0[k * width + n_src + src_col[g]] = ats[k];
                }
                continue;
            }

            for (e = edge_ptr[g]; e < edge_ptr[g + 1]; e++) {
                const int32_t pg = edge_src[e];
                const int64_t cap = edge_cap[e];
                const int64_t plive = live[pg];
                const int64_t *prow0 = stamps + blk_base[pg] * width;
                int64_t p = 0, mm, kk;
                if (!let_mode && !inst[pg]) {
                    /* Implicit compute producer: finishes <= read,
                     * over its recorded dispatches. */
                    const int64_t *f = c.fins + job_base[pg];
                    const int64_t *st = c.starts + job_base[pg];
                    const int32_t *cs = c.casc + job_base[pg];
                    const int64_t np = c.rec[pg];
                    for (k = 0; k < nk; k++) {
                        const int64_t at = ats[k];
                        while (p < np && f[p] <= at)
                            p += 1;
                        mm = p;
                        if (track) {
                            const int64_t rkey =
                                by_release ? 1
                                           : 3 * (int64_t)c.casc[jb + k] + 2;
                            while (mm && f[mm - 1] == at &&
                                   st[mm - 1] == at &&
                                   3 * ((int64_t)cs[mm - 1] + 1) > rkey)
                                mm -= 1;
                        }
                        if (!mm)
                            continue;
                        kk = mm > cap ? mm - cap : 0;
                        if (kk >= plive) {
                            rc = -(i + 1);
                            goto done;
                        }
                        fold_row(row0 + k * width, prow0 + kk * width, n_src);
                    }
                } else {
                    /* Publications at release (sources, instantaneous
                     * producers) or one period later (LET compute and
                     * instantaneous non-sources), LET compute ones only
                     * for jobs completed within the horizon. */
                    const int64_t lag =
                        let_mode && src_col[pg] < 0 ? periods[pg] : 0;
                    const int64_t limit =
                        let_mode && src_col[pg] < 0 && !inst[pg]
                            ? fin_n[pg] : plive;
                    for (k = 0; k < nk; k++) {
                        const int64_t at = ats[k];
                        while (p < plive &&
                               release_of(periods, rel_base, rel_w, &c, pg,
                                          p) + lag <= at)
                            p += 1;
                        mm = p < limit ? p : limit;
                        if (!mm)
                            continue;
                        kk = mm > cap ? mm - cap : 0;
                        if (kk >= plive) {
                            rc = -(i + 1);
                            goto done;
                        }
                        fold_row(row0 + k * width, prow0 + kk * width, n_src);
                    }
                }
            }
        }

        /* Monitored fold over [k0(warmup), count). */
        count = inst[gid] ? live[gid] : fin_n[gid];
        if (count > live[gid]) {
            rc = -(i + 1);
            goto done;
        }
        k0 = 0;
        if (rel_w) {
            const int64_t *r = c.rel + rel_base[gid];
            while (k0 < c.rlen[gid] && r[k0] < warmup)
                k0 += 1;
        } else if (c.offs[gid] < warmup) {
            k0 = (warmup - c.offs[gid] + periods[gid] - 1) / periods[gid];
        }
        for (k = k0; k < count; k++) {
            const int64_t *row = stamps + (blk_base[gid] + k) * width;
            int64_t mn = STAMP_SENTINEL, mx = -STAMP_SENTINEL, s;
            for (s = 0; s < n_src; s++) {
                mn = row[s] < mn ? row[s] : mn;
                mx = row[n_src + s] > mx ? row[n_src + s] : mx;
            }
            if (mn < STAMP_SENTINEL && mx - mn > best)
                best = mx - mn;
        }
        out[i] = best > 0 ? best : 0;
    }

done:
    free(blk_base);
    free(live);
    free(fin_n);
    free(ats);
    free(stamps);
    return rc;
}
