/* Per-cycle GPU step kernel for the struct-of-arrays engine.
 *
 * Compiled on demand into the native library (repro.native: plain cc,
 * no Python headers) and driven through ctypes.  Operates in place on
 * the NumPy buffers of repro.gpu.engine.VectorizedGPUEngine; one call
 * advances all SMs one nominal clock cycle.  engine_actuate serves the
 * co-sim cycle kernel's apply stage, keeping EngineState private here.
 *
 * The contract is bit-identical equivalence with the per-object Python
 * model kept as the test oracle (StreamingMultiprocessor in
 * tests/oracles/per_object_gpu.py).  This file is a direct sequential
 * transliteration of its step() — same operation order, same IEEE-754
 * double arithmetic:
 *
 *   - compile with -ffp-contract=off (no FMA contraction) and without
 *     -ffast-math, so double expressions evaluate exactly as CPython's;
 *   - rint() under the default round-to-nearest-even mode matches
 *     Python's round() for the DIWS budget;
 *   - (long long) casts of non-negative doubles truncate like int();
 *   - the memory-queue recurrence and energy-wheel deposits run in the
 *     reference's exact sequence (per SM, per issue slot, fakes last).
 *
 * Warp selection is GTO, or GATES (the oracle's GatingAwareScheduler)
 * when the gates flag is set: GTO over the ready warps whose head unit
 * is in the SM's active row, the units the power-gating controller last
 * saw powered on.
 *
 * Scoreboards are the engine's (sms, warps, 17) ready-at table with
 * sentinels RA_NEVER (never written -> always ready) and RA_PENDING
 * (load in flight -> never ready).  Readiness is cached per warp in the
 * engine's head caches: ready_cycle is the
 * max of the head instruction's dest/src1/src2 columns (RA_PENDING once
 * the warp is done) and head_unit its execution unit, so a warp is
 * ready iff ready_cycle <= cycle.  A warp's caches change only when it
 * issues or one of its loads completes; both refresh them here, and
 * the launch refreshes every warp (VectorizedGPUEngine._refresh_heads).
 * live[s] counts SM s's warps that are not done or have loads
 * outstanding; the SM is drained when it reaches 0.
 *
 * Pending loads live in per-SM binary heaps of packed
 * (completion << 24 | warp << 8 | reg) keys — packed-integer order
 * equals the reference's (completion, warp, reg) tuple order, so pop
 * order is identical.  A launch empties the heaps: loads still in
 * flight belong to the kernel that issued them.
 */

#include <math.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

#define RA_NEVER (-(1LL << 62))
#define RA_PENDING (1LL << 62)

#define HEAP_PACK(comp, w, reg) (((comp) << 24) | ((i64)(w) << 8) | (i64)(reg))
#define HEAP_COMP(e) ((e) >> 24)
#define HEAP_WARP(e) (((e) >> 8) & 0xFFFF)
#define HEAP_REG(e) ((e) & 0xFF)

typedef struct EngineState {
    /* dimensions and scalar constants */
    i64 num_sms;
    i64 num_warps;
    i64 body;
    i64 heap_cap;
    i64 max_pc;
    i64 dram_cycles;
    i64 l2_cycles;
    i64 gates; /* GATES warp selection instead of GTO */
    double clock_hz;
    double idle_energy;
    double fake_energy;
    double slot_width;
    /* actuation state, (S,) / (S,3) */
    double *issue_width;
    double *fake_rate;
    double *freq_scale;
    u8 *gated;
    u8 *active;  /* GATES active units, as the PG controller last wrote them */
    i64 *waking; /* usable-at cycle; RA_NEVER when cleared */
    i64 *unit_idle;
    double *leakage;
    /* DIWS / FII / DFS machinery, (S,) */
    i64 *window_start;
    i64 *budget;
    double *fake_acc;
    double *clock_acc;
    /* energy wheel */
    double *wheel; /* (S,8) */
    i64 *wheel_pos;
    /* statistics, (S,) */
    i64 *st_cycles;
    i64 *st_active;
    i64 *st_inst;
    i64 *st_fake;
    i64 *st_stall;
    /* per-warp state, (S,W) / (S,W,17) */
    i64 *pc;
    i64 *length;
    i64 *outstanding;
    u8 *warp_done;
    i64 *ready_at;
    i64 *ready_cycle; /* (S,W) head caches */
    i64 *head_unit;
    i64 *live;      /* (S,) live warps */
    i64 *last_warp; /* (S,) */
    /* pending-load heaps, (S,cap) packed */
    i64 *heap;
    i64 *heap_len;
    /* shared memory system: [0] next service slot; counters
     * [served, misses]; totals [instructions, fakes] */
    double *mem_slot;
    i64 *mem_counters;
    i64 *totals;
    /* current generation's streams, (W,body) */
    i64 *s_unit;
    i64 *s_latency;
    i64 *s_dest;
    u8 *s_is_load;
    i64 *s_span;
    double *s_share;
    i64 *s_dest_col;
    i64 *s_src1_col;
    i64 *s_src2_col;
    u8 *miss_table; /* (W,max_pc) */
    /* output */
    double *powers; /* (S,) */
    u8 *done;       /* (S,) per-SM kernel-done flags of the last census */
} EngineState;

static inline int warp_ready(const EngineState *st, i64 s, i64 w, i64 cycle) {
    return st->ready_cycle[s * st->num_warps + w] <= cycle;
}

/* Recompute warp w's head caches after it issued or a load of its
 * completed: the same values as the engine's _refresh_heads. */
static void refresh_head(EngineState *st, i64 s, i64 w) {
    const i64 body = st->body;
    i64 sw = s * st->num_warps + w;
    i64 p = st->pc[sw];
    i64 e = p >= body ? p - body : p;
    if (e > body - 1)
        e = body - 1; /* a done warp's stream ran to twice the body */
    i64 pos = w * body + e;
    st->head_unit[sw] = st->s_unit[pos];
    if (p >= st->length[sw]) {
        st->ready_cycle[sw] = RA_PENDING; /* done: peek() is None */
        return;
    }
    const i64 *ra = st->ready_at + sw * 17;
    i64 rc = ra[st->s_dest_col[pos]];
    if (ra[st->s_src1_col[pos]] > rc)
        rc = ra[st->s_src1_col[pos]];
    if (ra[st->s_src2_col[pos]] > rc)
        rc = ra[st->s_src2_col[pos]];
    st->ready_cycle[sw] = rc;
}

static inline int unit_avail(const EngineState *st, i64 s, i64 u, i64 cycle) {
    if (st->gated[s * 3 + u])
        return 0;
    return st->waking[s * 3 + u] <= cycle;
}

static void heap_push(i64 *heap, i64 *len, i64 entry) {
    i64 i = (*len)++;
    heap[i] = entry;
    while (i > 0) {
        i64 parent = (i - 1) / 2;
        if (heap[parent] <= heap[i])
            break;
        i64 t = heap[parent];
        heap[parent] = heap[i];
        heap[i] = t;
        i = parent;
    }
}

static i64 heap_pop(i64 *heap, i64 *len) {
    i64 top = heap[0];
    i64 n = --(*len);
    heap[0] = heap[n];
    i64 i = 0;
    for (;;) {
        i64 left = 2 * i + 1;
        if (left >= n)
            break;
        i64 small = left;
        i64 right = left + 1;
        if (right < n && heap[right] < heap[left])
            small = right;
        if (heap[i] <= heap[small])
            break;
        i64 t = heap[i];
        heap[i] = heap[small];
        heap[small] = t;
        i = small;
    }
    return top;
}

/* GTO select: greedy on the last-issued warp while it stays ready,
 * else oldest ready (min (pc, warp_id)) — remembering the oldest pick
 * even when the subsequent issue is blocked, like the reference. */
static i64 gto_select(EngineState *st, i64 s, i64 cycle) {
    i64 W = st->num_warps;
    i64 last = st->last_warp[s];
    if (last >= 0 && warp_ready(st, s, last, cycle))
        return last;
    i64 best = -1, best_pc = 0;
    for (i64 w = 0; w < W; w++) {
        if (!warp_ready(st, s, w, cycle))
            continue;
        i64 p = st->pc[s * W + w];
        if (best < 0 || p < best_pc) {
            best = w;
            best_pc = p;
        }
    }
    if (best >= 0)
        st->last_warp[s] = best;
    return best;
}

/* GATES select: GTO over a pool of the ready warps whose head unit is
 * active, or over every ready warp when no ready warp's is.  Greedy
 * keeps the last-issued warp only while it is in the pool. */
static i64 gates_select(EngineState *st, i64 s, i64 cycle) {
    i64 W = st->num_warps;
    const u8 *active = st->active + s * 3;
    i64 last = st->last_warp[s];
    int last_ready = last >= 0 && warp_ready(st, s, last, cycle);
    if (last_ready && active[st->head_unit[s * W + last]])
        return last;
    i64 best = -1, best_pc = 0, any = -1, any_pc = 0;
    for (i64 w = 0; w < W; w++) {
        if (!warp_ready(st, s, w, cycle))
            continue;
        i64 p = st->pc[s * W + w];
        if (any < 0 || p < any_pc) {
            any = w;
            any_pc = p;
        }
        if (active[st->head_unit[s * W + w]] && (best < 0 || p < best_pc)) {
            best = w;
            best_pc = p;
        }
    }
    if (best < 0) {
        if (last_ready)
            return last;
        best = any;
    }
    if (best >= 0)
        st->last_warp[s] = best;
    return best;
}

/* One nominal clock for every SM.  Returns the number of kernel-done
 * SMs at end of cycle (for the GPU's launch barrier), or -1 if a
 * pending-load heap overflowed. */
i64 engine_step(EngineState *st, i64 cycle) {
    const i64 S = st->num_sms, W = st->num_warps, body = st->body;

    for (i64 s = 0; s < S; s++) {
        st->st_cycles[s]++;

        /* DFS clock masking: skip execution on masked cycles. */
        st->clock_acc[s] += st->freq_scale[s];
        if (st->clock_acc[s] < 1.0) {
            double freq = st->clock_hz * 0.0;
            double energy = st->idle_energy + 0.0;
            st->powers[s] = st->leakage[s] + energy * freq;
            continue;
        }
        st->clock_acc[s] -= 1.0;
        st->st_active[s]++;

        /* Complete arrived loads. */
        i64 *heap = st->heap + s * st->heap_cap;
        i64 *hlen = st->heap_len + s;
        while (*hlen > 0 && HEAP_COMP(heap[0]) <= cycle) {
            i64 entry = heap_pop(heap, hlen);
            i64 w = HEAP_WARP(entry), reg = HEAP_REG(entry);
            i64 sw = s * W + w;
            i64 *ra = st->ready_at + sw * 17;
            if (ra[reg] == RA_PENDING)
                ra[reg] = cycle;
            if (--st->outstanding[sw] == 0 && st->warp_done[sw])
                st->live[s]--;
            refresh_head(st, s, w);
        }

        /* Drained kernel: idle at base power until the launch barrier. */
        if (st->live[s] == 0) {
            double freq = st->clock_hz * st->freq_scale[s];
            double energy = st->idle_energy + 0.0;
            st->powers[s] = st->leakage[s] + energy * freq;
            continue;
        }

        /* DIWS window bookkeeping. */
        if (cycle - st->window_start[s] >= 10) {
            st->window_start[s] = cycle;
            st->budget[s] = (i64)rint(st->issue_width[s] * 10.0);
        }

        i64 ports[3] = {2, 1, 1};
        int used[3] = {0, 0, 0};
        int issued = 0;
        i64 iss_span[2];
        double iss_share[2];

        while (issued < 2 && st->budget[s] > 0) {
            i64 w = st->gates ? gates_select(st, s, cycle)
                              : gto_select(st, s, cycle);
            if (w < 0)
                break;
            i64 unit = st->head_unit[s * W + w];
            if (ports[unit] <= 0 || !unit_avail(st, s, unit, cycle)) {
                /* Structural hazard: oldest ready warp (excluding the
                 * blocked one) whose head unit has a free, live port. */
                i64 alt = -1, alt_pc = 0;
                for (i64 v = 0; v < W; v++) {
                    if (v == w || !warp_ready(st, s, v, cycle))
                        continue;
                    i64 uv = st->head_unit[s * W + v];
                    if (ports[uv] <= 0 || !unit_avail(st, s, uv, cycle))
                        continue;
                    i64 pv = st->pc[s * W + v];
                    if (alt < 0 || pv < alt_pc) {
                        alt = v;
                        alt_pc = pv;
                    }
                }
                if (alt < 0)
                    break;
                w = alt;
                unit = st->head_unit[s * W + w];
            }
            i64 sw = s * W + w;
            i64 p = st->pc[sw];
            i64 e = p >= body ? p - body : p;
            ports[unit]--;
            used[unit] = 1;
            st->pc[sw] = p + 1;
            int finished = p + 1 >= st->length[sw];
            if (finished)
                st->warp_done[sw] = 1;
            st->last_warp[s] = w;
            st->budget[s]--;
            st->st_inst[s]++;
            st->totals[0]++;

            i64 spos = w * body + e;
            i64 dest = st->s_dest[spos];
            if (dest >= 0) {
                if (st->s_is_load[spos]) {
                    /* Shared-memory request, inline like the reference:
                     * bandwidth slot recurrence, then site-keyed
                     * hit/miss from the precomputed table. */
                    double dc = (double)cycle;
                    double start =
                        dc > st->mem_slot[0] ? dc : st->mem_slot[0];
                    st->mem_slot[0] = start + st->slot_width;
                    double queue_delay = start - dc;
                    int miss = st->miss_table[w * st->max_pc + (p + 1)];
                    i64 lat = miss ? st->dram_cycles : st->l2_cycles;
                    if (miss)
                        st->mem_counters[1]++;
                    st->mem_counters[0]++;
                    i64 comp =
                        (i64)(((double)cycle + queue_delay) + (double)lat);
                    st->ready_at[sw * 17 + dest] = RA_PENDING;
                    st->outstanding[sw]++;
                    if (*hlen >= st->heap_cap)
                        return -1;
                    heap_push(heap, hlen, HEAP_PACK(comp, w, dest));
                } else {
                    st->ready_at[sw * 17 + dest] = cycle + st->s_latency[spos];
                }
            }
            if (finished && st->outstanding[sw] == 0)
                st->live[s]--;
            refresh_head(st, s, w);
            iss_span[issued] = st->s_span[spos];
            iss_share[issued] = st->s_share[spos];
            issued++;
        }

        if (issued == 0)
            st->st_stall[s]++;

        /* FII: fill leftover hardware slots with fake instructions. */
        st->fake_acc[s] += st->fake_rate[s];
        int fakes = 0;
        while (st->fake_acc[s] >= 1.0 && issued + fakes < 2 &&
               unit_avail(st, s, 0, cycle)) {
            st->fake_acc[s] -= 1.0;
            fakes++;
            st->st_fake[s]++;
            st->totals[1]++;
        }
        if (st->fake_acc[s] > 2.0)
            st->fake_acc[s] = 2.0;

        /* PG idle accounting (real issues only). */
        for (i64 u = 0; u < 3; u++) {
            if (used[u])
                st->unit_idle[s * 3 + u] = 0;
            else
                st->unit_idle[s * 3 + u]++;
        }

        /* Smear issued energy over pipeline occupancy (fakes last,
         * span 1), then rotate the wheel. */
        double *wheel = st->wheel + s * 8;
        i64 pos = st->wheel_pos[s];
        for (int k = 0; k < issued; k++) {
            for (i64 off = 0; off < iss_span[k]; off++)
                wheel[(pos + off) & 7] += iss_share[k];
        }
        for (int k = 0; k < fakes; k++)
            wheel[pos] += st->fake_energy;
        double dynamic_energy = wheel[pos];
        wheel[pos] = 0.0;
        st->wheel_pos[s] = (pos + 1) & 7;

        double freq = st->clock_hz * st->freq_scale[s];
        double energy = st->idle_energy + dynamic_energy;
        st->powers[s] = st->leakage[s] + energy * freq;
    }

    /* Kernel-done census for the GPU's launch barrier: the count, plus
     * per-SM flags so a barrier-exempt set can be OR-ed in by the caller. */
    i64 ndone = 0;
    for (i64 s = 0; s < S; s++) {
        u8 done = st->live[s] == 0;
        st->done[s] = done;
        ndone += done;
    }
    return ndone;
}

/* Step a batch of independent engines one nominal clock in a single
 * call — the co-simulator's B-lane hot path.  Each lane is the exact
 * engine_step() above on its own state struct; lanes share nothing, so
 * ordering across lanes cannot affect results.
 *
 * The launch barrier comes first: a lane whose last census has every
 * SM kernel-done or barrier-exempt (exempt is a (nlanes, S) mask) needs
 * its next kernel launched, which the caller does.  Such lanes get
 * relaunch[b] = 1 and their count is returned, with nothing stepped.
 * The caller launches them and calls again: a lane entering with
 * relaunch[b] set skips the census (it was just launched — an
 * all-exempt lane would otherwise re-flag forever).  Then every lane
 * steps at cycle *clock, the per-lane kernel-done counts land in
 * ndone[], the flags clear, *clock advances, and 0 is returned — or
 * -(lane + 1) on the first lane whose pending-load heap overflows.
 */
i64 engine_step_batch(EngineState **sts, i64 nlanes, i64 *clock,
                      i64 *ndone, const u8 *exempt, u8 *relaunch) {
    i64 due = 0;
    for (i64 b = 0; b < nlanes; b++) {
        if (relaunch[b])
            continue;
        const EngineState *st = sts[b];
        const i64 S = st->num_sms;
        u8 full = ndone[b] == S;
        if (!full) {
            const u8 *ex = exempt + b * S;
            full = 1;
            for (i64 s = 0; s < S; s++) {
                if (!st->done[s] && !ex[s]) {
                    full = 0;
                    break;
                }
            }
        }
        relaunch[b] = full;
        due += full;
    }
    if (due)
        return due;
    const i64 cycle = *clock;
    for (i64 b = 0; b < nlanes; b++) {
        i64 n = engine_step(sts[b], cycle);
        if (n < 0)
            return -(b + 1);
        ndone[b] = n;
        relaunch[b] = 0;
    }
    *clock = cycle + 1;
    return 0;
}

/* VectorizedGPUEngine._clamp02: x > 0 ? x : 0, capped at 2 (NaN and
 * -0.0 become 0.0, as the reference's min(2.0, max(0.0, x))). */
static double clamp02(double x) {
    double low = x > 0.0 ? x : 0.0;
    return low < 2.0 ? low : 2.0;
}

/* Actuate one engine as set_issue_widths / set_fake_rates do, with the
 * halted SMs' widths zeroed first.  Returns 0. */
i64 engine_actuate(EngineState *st, const double *widths,
                   const double *fakes, const u8 *halted) {
    for (i64 s = 0; s < st->num_sms; s++) {
        st->issue_width[s] = clamp02(halted[s] ? 0.0 : widths[s]);
        st->fake_rate[s] = clamp02(fakes[s]);
    }
    return 0;
}
