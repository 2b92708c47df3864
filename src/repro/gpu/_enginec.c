/* Per-cycle GPU step kernel for the struct-of-arrays engine.
 *
 * Compiled on demand into the native library (repro.native: plain cc,
 * no Python headers) and driven through ctypes.  Operates in place on
 * the NumPy buffers of repro.gpu.engine.VectorizedGPUEngine; one call
 * advances all SMs one nominal clock cycle.  engine_launch launches a
 * kernel generation (the streams, jittered lengths, site miss table and
 * warp resets) into the engine's own buffers.  engine_actuate serves the
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
 * engine_launch refreshes every warp.
 * live[s] counts SM s's warps that are not done or have loads
 * outstanding; the SM is drained when it reaches 0.
 *
 * Pending loads live in per-SM binary heaps of packed
 * (completion << 24 | warp << 8 | reg) keys — packed-integer order
 * equals the reference's (completion, warp, reg) tuple order, so pop
 * order is identical.  A launch empties the heaps: loads still in
 * flight belong to the kernel that issued them.
 *
 * A launch seeds its own PCG64s from the generation's integer seeds,
 * as np.random.PCG64(seed) seeds one (SeedSequence, then set_seed),
 * and draws the generation's instruction streams and jittered lengths
 * through NumPy's own Generator routines on them, so every value, and
 * each generator's state after the launch, equal the per-warp Python
 * builders kept as the stream oracle (tests/oracles/stream_reference.py).
 * The generators live on the launch's stack behind a bitgen_t; Python
 * builds no NumPy object for a launch.
 */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>

typedef int64_t i64;
typedef uint8_t u8;

#define RA_NEVER (-(1LL << 62))
#define RA_PENDING (1LL << 62)

#define NUM_REGS 16 /* a warp's register window; column 16 is the dummy */

/* Site-hash constants of the per-load oracle's hash
 * (tests/oracles/per_object_gpu.py, PerRequestMemory._site_hash). */
#define SITE_SEED 0x9E3779B1ULL
#define SITE_C1 0x7F4A7C15ULL
#define SITE_C2 0x85EBCA6BULL
#define SITE_MASK 0xFFFFFFFFULL

/* NumPy's bit generator interface (numpy/random/bitgen.h) and the
 * routines Generator.random, .integers and .uniform call, from NumPy's
 * libnpyrandom.a (numpy/random/distributions.h would pull in
 * Python.h). */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;
void random_standard_uniform_fill(bitgen_t *bitgen_state, intptr_t cnt,
                                  double *out);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);
double random_uniform(bitgen_t *bitgen_state, double lower, double range);

/* NumPy's PCG64 (XSL-RR 128/64): the 128-bit LCG state and increment,
 * and the upper half of a 64-bit draw buffered for the next 32-bit one. */
typedef unsigned __int128 u128;

typedef struct Pcg64 {
    u128 state;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} Pcg64;

#define PCG_MULT (((u128)0x2360ED051FC65DA4ULL << 64) | 0x4385DF649FCCF645ULL)

static uint64_t pcg64_next64(void *st) {
    Pcg64 *g = st;
    g->state = g->state * PCG_MULT + g->inc;
    const uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    const unsigned rot = (unsigned)(g->state >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

static uint32_t pcg64_next32(void *st) {
    Pcg64 *g = st;
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return g->uinteger;
    }
    const uint64_t next = pcg64_next64(g);
    g->has_uint32 = 1;
    g->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static double pcg64_next_double(void *st) {
    return (double)(pcg64_next64(st) >> 11) * (1.0 / 9007199254740992.0);
}

/* SeedSequence's hash constants (numpy/random/bit_generator.pyx). */
#define SS_INIT_A 0x43b0d7e5U
#define SS_MULT_A 0x931e8875U
#define SS_INIT_B 0x8b51f9ddU
#define SS_MULT_B 0x58f38dedU
#define SS_MIX_L 0xca01f9ddU
#define SS_MIX_R 0x4973f715U
#define SS_POOL 4

static uint32_t ss_hashmix(uint32_t value, uint32_t *hash_const) {
    value ^= *hash_const;
    *hash_const *= SS_MULT_A;
    value *= *hash_const;
    return value ^ (value >> 16);
}

static uint32_t ss_mix(uint32_t x, uint32_t y) {
    const uint32_t r = SS_MIX_L * x - SS_MIX_R * y;
    return r ^ (r >> 16);
}

static uint32_t le32(const uint8_t *p) {
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 |
           (uint32_t)p[3] << 24;
}

/* Seed g as np.random.PCG64(seed) does, from the seed's nbytes
 * little-endian bytes (a multiple of 4, at least 16, zero-padded):
 * SeedSequence's mix_entropy of its 32-bit words into a four-word pool,
 * generate_state(4, uint64), then PCG64's set_seed.  The entropy of a
 * seed below 2**128 may be padded to the pool with zero words, since
 * mix_entropy pads the pool with hashmix(0); past the pool, the zero
 * words above the seed's top word are dropped, as NumPy never makes
 * them. */
static void pcg64_seed(Pcg64 *g, const uint8_t *bytes, i64 nbytes) {
    i64 n = nbytes / 4;
    while (n > SS_POOL && le32(bytes + 4 * (n - 1)) == 0)
        n--;
    uint32_t hash_const = SS_INIT_A;
    uint32_t pool[SS_POOL];
    for (int i = 0; i < SS_POOL; i++)
        pool[i] = ss_hashmix(le32(bytes + 4 * i), &hash_const);
    for (int src = 0; src < SS_POOL; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            if (src != dst)
                pool[dst] = ss_mix(pool[dst], ss_hashmix(pool[src], &hash_const));
    for (i64 src = SS_POOL; src < n; src++)
        for (int dst = 0; dst < SS_POOL; dst++)
            pool[dst] = ss_mix(pool[dst],
                               ss_hashmix(le32(bytes + 4 * src), &hash_const));

    uint32_t hash_b = SS_INIT_B;
    uint64_t words[4] = {0, 0, 0, 0};
    for (int i = 0; i < 8; i++) {
        uint32_t v = pool[i % SS_POOL] ^ hash_b;
        hash_b *= SS_MULT_B;
        v *= hash_b;
        v ^= v >> 16;
        words[i / 2] |= (uint64_t)v << (32 * (i % 2));
    }
    /* set_seed's srandom: from state 0, step, add the seed, step. */
    g->inc = ((u128)words[2] << 64 | words[3]) << 1 | 1;
    g->state = (g->inc + ((u128)words[0] << 64 | words[1])) * PCG_MULT + g->inc;
    g->has_uint32 = 0;
    g->uinteger = 0;
}

/* g's state as six words: state and inc (high, low), has_uint32 and
 * uinteger, the fields of PCG64.state. */
static void pcg64_save(const Pcg64 *g, uint64_t *out) {
    out[0] = (uint64_t)(g->state >> 64);
    out[1] = (uint64_t)g->state;
    out[2] = (uint64_t)(g->inc >> 64);
    out[3] = (uint64_t)g->inc;
    out[4] = (uint64_t)g->has_uint32;
    out[5] = g->uinteger;
}

/* The state np.random.PCG64(seed) starts in, for a seed given as in
 * pcg64_seed; written as pcg64_save writes it.  Returns 0. */
i64 pcg64_seed_state(const uint8_t *bytes, i64 nbytes, uint64_t *out) {
    Pcg64 g;
    pcg64_seed(&g, bytes, nbytes);
    pcg64_save(&g, out);
    return 0;
}

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
    /* kernel launch: the spec's per-class tables (classes in the mix's
     * insertion order), its constants and the launch's scratch */
    i64 n_classes;
    i64 phase_period; /* <= 0: no memory phases */
    i64 miss_cap;     /* miss_table capacity, entries */
    double dependence;
    double jitter;
    double miss_ratio;
    uint64_t miss_seed; /* MemorySystem._seed modulo 2**64 */
    double *cum_base;   /* (K,) cumulative class probabilities */
    double *cum_boost;  /* (K,) the same in memory phases */
    i64 *c_latency;     /* (K,) */
    i64 *c_span;
    double *c_share;
    i64 *c_unit;
    u8 *c_has_dest;
    u8 *c_is_load;
    double *draws;    /* (3, body) uniform scratch */
    uint64_t *idraws; /* (2, body) register-draw scratch */
} EngineState;

static inline int warp_ready(const EngineState *st, i64 s, i64 w, i64 cycle) {
    return st->ready_cycle[s * st->num_warps + w] <= cycle;
}

/* Recompute warp w's head caches after a launch, an issue or a
 * completed load. */
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

/* Branch-free select: a if cond else b (the launch's selects depend on
 * random draws, so branches on them would mispredict). */
static inline i64 pick(int cond, i64 a, i64 b) {
    const i64 mask = -(i64)(cond != 0);
    return (a & mask) | (b & ~mask);
}

/* One warp's stream, as the oracle's per-warp builder makes it: five
 * draws in order (class uniforms, chain uniforms, random src1, src2
 * uniforms, random src2; never merged across warps, because integers()
 * draws 32-bit halves and an odd body leaves one buffered in the
 * generator for the next warp), then per position the class lookup,
 * searchsorted(cum, u, side="right") clipped to the last class (cum is
 * non-decreasing with any NaN last, so that is the count of entries
 * <= u), the src1 chain to the last written register and the per-class
 * table gathers. */
static void launch_stream(EngineState *st, bitgen_t *bg, i64 w) {
    const i64 body = st->body, K = st->n_classes, period = st->phase_period;
    const double dependence = st->dependence;
    double *uni = st->draws, *chain = uni + body, *pick2 = chain + body;
    uint64_t *reg1 = st->idraws, *reg2 = reg1 + body;
    random_standard_uniform_fill(bg, body, uni);
    random_standard_uniform_fill(bg, body, chain);
    random_bounded_uint64_fill(bg, 0, NUM_REGS - 1, body, false, reg1);
    random_standard_uniform_fill(bg, body, pick2);
    random_bounded_uint64_fill(bg, 0, NUM_REGS - 1, body, false, reg2);

    const double *cum_base = st->cum_base, *cum_boost = st->cum_boost;
    const i64 *c_latency = st->c_latency, *c_span = st->c_span;
    const i64 *c_unit = st->c_unit;
    const double *c_share = st->c_share;
    const u8 *c_has_dest = st->c_has_dest, *c_is_load = st->c_is_load;
    const i64 row = w * body;
    i64 *unit = st->s_unit + row, *latency = st->s_latency + row;
    i64 *span = st->s_span + row, *dest = st->s_dest + row;
    i64 *dest_col = st->s_dest_col + row, *src1_col = st->s_src1_col + row;
    i64 *src2_col = st->s_src2_col + row;
    double *share = st->s_share + row;
    u8 *is_load = st->s_is_load + row;
    i64 last_writer = -1;
    for (i64 p = 0; p < body; p++) {
        const double *cum =
            period > 0 && (p / period) % 2 == 1 ? cum_boost : cum_base;
        const double u = uni[p];
        i64 k = 0;
        for (i64 j = 0; j < K; j++)
            k += cum[j] <= u;
        k = pick(k < K - 1, k, K - 1);
        const int writes = c_has_dest[k];
        const i64 reg = p % NUM_REGS;
        unit[p] = c_unit[k];
        latency[p] = c_latency[k];
        span[p] = c_span[k];
        share[p] = c_share[k];
        is_load[p] = c_is_load[k];
        dest[p] = pick(writes, reg, -1);
        dest_col[p] = pick(writes, reg, NUM_REGS);
        src1_col[p] = pick((chain[p] < dependence) & (last_writer >= 0),
                           last_writer % NUM_REGS, (i64)reg1[p]);
        src2_col[p] = pick(pick2[p] < 0.5, (i64)reg2[p], NUM_REGS);
        last_writer = pick(writes, p, last_writer);
    }
}

/* Launch kernel generation `generation` on every SM: the oracle SM's
 * start_new_kernel plus the launch-time builders.  seeds holds the
 * launch's PCG64 seeds, nbytes little-endian bytes each (see
 * pcg64_seed): seed 0 draws the streams (one set for every SM, SPMD);
 * with jitter > 0, seed 1 + s draws SM s's lengths,
 * round(body * (1 + jitter * U(-1, 1))) at least 1, where a length past
 * the body wraps to the stream's head (with jitter 0 every length is
 * the body, and seed 0 is the only one).  Then the site miss table over
 * every (warp, pc) up to the longest stream, the warp resets (PCs,
 * scoreboards, outstanding loads, the scheduler's last warp; loads in
 * flight are dropped with the heaps) and every warp's head caches.
 * Unless end_states is NULL, generator g's state after its draws is
 * written to end_states[6 g .. 6 g + 5] as pcg64_save writes it.
 * Returns 0, or -1 when the miss table would outgrow its capacity
 * (nothing launched). */
i64 engine_launch(EngineState *st, const uint8_t *seeds, i64 nbytes,
                  uint64_t generation, uint64_t *end_states) {
    const i64 S = st->num_sms, W = st->num_warps, body = st->body;
    Pcg64 pcg;
    bitgen_t bg = {&pcg, pcg64_next64, pcg64_next32, pcg64_next_double,
                   pcg64_next64};
    i64 max_len = body;
    if (st->jitter > 0.0) {
        max_len = 1;
        for (i64 s = 0; s < S; s++) {
            pcg64_seed(&pcg, seeds + (1 + s) * nbytes, nbytes);
            for (i64 w = 0; w < W; w++) {
                const double scale =
                    1.0 + st->jitter * random_uniform(&bg, -1.0, 2.0);
                const double r = rint((double)body * scale);
                const i64 len = (i64)(r < 1.0 ? 1.0 : r);
                st->length[s * W + w] = len;
                if (len > max_len)
                    max_len = len;
            }
            if (end_states)
                pcg64_save(&pcg, end_states + 6 * (1 + s));
        }
    }
    const i64 max_pc = max_len + 1;
    if (W * max_pc > st->miss_cap)
        return -1;
    if (st->jitter <= 0.0) {
        for (i64 i = 0; i < S * W; i++)
            st->length[i] = body;
    }
    pcg64_seed(&pcg, seeds, nbytes);
    for (i64 w = 0; w < W; w++)
        launch_stream(st, &bg, w);
    if (end_states)
        pcg64_save(&pcg, end_states);

    /* The site hash of (warp, pc, generation), whose first
     * product is an unbounded Python int: only its low 32 bits survive
     * the next mask, and those are the wrapped product's. */
    const uint64_t gen_mix = generation + SITE_C1;
    for (i64 w = 0; w < W; w++) {
        const uint64_t h1 =
            ((st->miss_seed * SITE_SEED) ^ ((uint64_t)w + SITE_C1)) * SITE_C2
            & SITE_MASK;
        u8 *row = st->miss_table + w * max_pc;
        for (i64 pc = 0; pc < max_pc; pc++) {
            const uint64_t h2 = ((h1 ^ ((uint64_t)pc + SITE_C1)) * SITE_C2)
                                & SITE_MASK;
            const uint64_t h3 = ((h2 ^ gen_mix) * SITE_C2) & SITE_MASK;
            row[pc] = (double)h3 / 4294967296.0 < st->miss_ratio;
        }
    }
    st->max_pc = max_pc;

    for (i64 s = 0; s < S; s++) {
        for (i64 w = 0; w < W; w++) {
            const i64 sw = s * W + w;
            i64 *ra = st->ready_at + sw * 17;
            for (int r = 0; r < 17; r++)
                ra[r] = RA_NEVER;
            st->pc[sw] = 0;
            st->outstanding[sw] = 0;
            st->warp_done[sw] = st->length[sw] <= 0;
            refresh_head(st, s, w);
        }
        st->last_warp[s] = -1;
        st->heap_len[s] = 0;
        st->live[s] = W;
        st->done[s] = 0;
    }
    return 0;
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
