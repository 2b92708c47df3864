/* One co-simulation cycle for every lane in a single call.
 *
 * Compiled on demand into the native library (repro.native: plain cc,
 * no Python headers) and driven through ctypes by the co-sim loop
 * (repro.sim.cosim, via repro.sim._cyclec).  The kernel owns no physics
 * of its own: it calls the GPU engine's engine_step_batch
 * (repro/gpu/_enginec.c) and the PDN solver's solver_step_n[_checked]
 * (repro/circuits/_solverc.c), linked into the same library, and glues
 * them with the loop's array work — process-variation scaling,
 * currents, SM-voltage readout, the controller bank's RC filter and
 * quantizer, and the recording row — that the loop would otherwise
 * dispatch as ~25 small NumPy calls per cycle.
 *
 * The contract is bit-identical equivalence with the loop's NumPy
 * body (the phased path, which runs without the native library):
 *
 *   - compile with -ffp-contract=off and without -ffast-math, so each
 *     double expression rounds exactly as NumPy's unfused ufuncs;
 *   - each lane keeps the NumPy operation order, element by element;
 *   - max(x, 0) keeps NaN, as np.maximum does;
 *   - rint() rounds half to even under the default rounding mode, as
 *     np.rint does;
 *   - the applied-DCC row sum reproduces NumPy's pairwise summation
 *     (8 accumulators for 8 <= n <= 128), added to the 0.0 identity.
 *
 * Stages (a call runs stages first..last):
 *
 *   0  GPU: launch barrier census, then one engine_step_batch, then
 *      each lane's active process-variation rows (FaultInjector.
 *      scale_powers);
 *   1  solve: powers + applied DCC -> PDN currents, then the guarded
 *      substeps (snapshot + health proof) on the shared batch clock;
 *   2  readout: SM voltages; a call that stops here also copies the
 *      bank lanes' rows into the seen block, for the caller to corrupt;
 *   3  filter: the bank's RC filter and quantizer (reading the seen
 *      block when the call starts here, the SM voltages otherwise),
 *      then the recording row (in warmup, the flight recorders'
 *      voltage row when they ride along).
 *
 * Returns 0 when every requested stage ran, CYC_MASKED (stage 3 ran
 * the masked filter: a seen sample was non-finite or a row unobserved;
 * measurement block in `measured`, flags in has_nan / any_fallback),
 * CYC_RELAUNCH (stage 0 flagged lanes for a kernel launch; nothing
 * ran), CYC_SUSPECT (stage 1 ran and the health proof flagged lanes;
 * later stages did not run), or a negative error code with the
 * offending lane in err_lane.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;
typedef uint8_t u8;

#define CYC_MASKED 1
#define CYC_RELAUNCH 2
#define CYC_SUSPECT 3
#define CYC_GPU_ERROR (-1)
#define CYC_SOLVER_ERROR (-2)

/* Defined in _enginec.c and _solverc.c. */
struct EngineState;
struct SolverState;
i64 engine_step_batch(struct EngineState **sts, i64 nlanes, i64 *clock,
                      i64 *ndone, const u8 *exempt, u8 *relaunch);
i64 solver_step_n(struct SolverState *st, i64 nsub);
i64 solver_step_n_checked(struct SolverState *st, i64 nsub, double *snap,
                          const double *limit_sq);

typedef struct {
    i64 n_lanes; /* B: rows of every per-row block below */
    i64 num_sms; /* S */
    /* stage 0: the GPU batch's fused dispatch */
    void *engine_states; /* EngineState *[B] */
    void *gpu_clock;     /* i64[1] */
    void *ndone;         /* i64[B] */
    void *exempt;        /* u8[B*S] */
    void *relaunch;      /* u8[B] */
    void *powers;        /* double[B*S] */
    i64 pv_k;            /* process-variation rows per lane, 0: none */
    void *pv_rows;       /* double[B*pv_k*S] */
    void *pv_count;      /* i64[B] active rows of each lane */
    /* stage 1: currents and the solve */
    double sm_voltage;
    double conductance_bias;
    void *dcc;      /* double[B*S] applied DCC power */
    void *currents; /* double[B*S], the solver's shared current base */
    void *solver_state;
    i64 substeps;
    void *snap;     /* guard snapshot block, NULL: guard off */
    void *limit_sq; /* double[B] */
    void *clock;    /* double[2]: time, time at the last step's start */
    void *csteps;   /* i64[1] */
    double dt;
    /* stage 2: readout */
    void *sol; /* double[B*sol_size] */
    i64 sol_size;
    void *top_idx; /* i64[S] */
    void *bot_idx; /* i64[S], -1 for a grounded bottom terminal */
    void *volts;   /* double[B*S] */
    /* stage 3: the controller bank's filter (bank_lanes 0: none) */
    i64 bank_lanes;
    void *bank_rows;    /* i64[bank_lanes] batch row of each bank row */
    void *filter_state; /* double[bank_lanes*S] */
    void *last_good;    /* double[bank_lanes*S] */
    void *alpha;        /* double[bank_lanes] */
    void *step_v;       /* double[bank_lanes] */
    void *seen;         /* double[bank_lanes*S] what the detectors see */
    void *observed;     /* u8[bank_lanes] */
    void *fb_on;        /* u8[bank_lanes] sensor fallback enabled */
    void *fallback;     /* u8[bank_lanes*S] fallback-held flags */
    void *measured;     /* double[bank_lanes*S] masked measurement block */
    void *dropped;      /* i64[bank_lanes] dropped samples, accumulated */
    i64 has_nan;
    i64 any_fallback;
    /* stage 3: the recording row */
    i64 warmup;
    i64 cycles;     /* recorded window length */
    void *lane_index; /* i64[B] recording row of each batch row */
    void *rec_powers; /* double[lanes*cycles*S] */
    void *rec_volts;  /* double[lanes*cycles*S] */
    void *rec_supply; /* double[lanes*cycles] */
    i64 vdd_row;
    i64 dcc_possible;
    void *dcc_accum; /* double[lanes] */
    void *dcc_trace; /* double[lanes*cycles], or NULL */
    void *flight_warm; /* double[lanes*warmup*S] warmup voltages, or NULL */
    /* telemetry: accumulate per-stage wall time when set */
    i64 timing;
    void *stage_s; /* double[4]: gpu, solve + readout, filter, record */
    i64 err_lane;
} CycleState;

static double now_s(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* NumPy's pairwise_sum for one contiguous row. */
static double pairwise_sum(const double *a, i64 n) {
    if (n < 8) {
        double res = 0.0;
        for (i64 i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        i64 i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    i64 n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

static i64 stage_gpu(CycleState *cs) {
    i64 rc = engine_step_batch(
        (struct EngineState **)cs->engine_states, cs->n_lanes,
        (i64 *)cs->gpu_clock, (i64 *)cs->ndone, (const u8 *)cs->exempt,
        (u8 *)cs->relaunch);
    if (rc > 0)
        return CYC_RELAUNCH;
    if (rc < 0) {
        cs->err_lane = -rc - 1;
        return CYC_GPU_ERROR;
    }
    /* powers *= scales, per active row in schedule order. */
    const i64 S = cs->num_sms, K = cs->pv_k;
    const i64 *count = (const i64 *)cs->pv_count;
    double *powers = (double *)cs->powers;
    for (i64 b = 0; b < (K ? cs->n_lanes : 0); b++)
        for (i64 k = 0; k < count[b]; k++) {
            const double *r = (const double *)cs->pv_rows + (b * K + k) * S;
            double *p = powers + b * S;
            for (i64 s = 0; s < S; s++)
                p[s] = p[s] * r[s];
        }
    return 0;
}

static i64 stage_solve(CycleState *cs) {
    /* Each SM is an ideal current source I = P / V_nominal, less the
     * load conductance's own bias draw, never negative. */
    const double *powers = (const double *)cs->powers;
    const double *dcc = (const double *)cs->dcc;
    double *cur = (double *)cs->currents;
    const double vsm = cs->sm_voltage, bias = cs->conductance_bias;
    for (i64 k = 0; k < cs->n_lanes * cs->num_sms; k++) {
        double c = powers[k] + dcc[k];
        c = c / vsm;
        c = c - bias;
        cur[k] = (c >= 0.0 || isnan(c)) ? c : 0.0;
    }
    struct SolverState *st = (struct SolverState *)cs->solver_state;
    i64 rc = cs->snap ? solver_step_n_checked(st, cs->substeps,
                                              (double *)cs->snap,
                                              (const double *)cs->limit_sq)
                      : solver_step_n(st, cs->substeps);
    if (rc < 0) {
        cs->err_lane = -rc - 1;
        return CYC_SOLVER_ERROR;
    }
    /* The batch clock advances as the per-step path's t += dt. */
    double *clock = (double *)cs->clock;
    double t = clock[0];
    clock[1] = t;
    for (i64 sub = 0; sub < cs->substeps; sub++)
        t = t + cs->dt;
    clock[0] = t;
    ((i64 *)cs->csteps)[0] += cs->substeps;
    return rc > 0 ? CYC_SUSPECT : 0;
}

static void stage_readout(CycleState *cs, int to_seen) {
    /* V_sm = V(top) - V(bottom), a grounded bottom reading 0.0. */
    const i64 S = cs->num_sms;
    const double *sol = (const double *)cs->sol;
    const i64 *top = (const i64 *)cs->top_idx;
    const i64 *bot = (const i64 *)cs->bot_idx;
    double *volts = (double *)cs->volts;
    for (i64 b = 0; b < cs->n_lanes; b++) {
        const double *node = sol + b * cs->sol_size;
        double *v = volts + b * S;
        for (i64 s = 0; s < S; s++)
            v[s] = node[top[s]] - (bot[s] < 0 ? 0.0 : node[bot[s]]);
    }
    /* The bank lanes' rows, for the caller to corrupt. */
    const i64 *rows = (const i64 *)cs->bank_rows;
    for (i64 j = 0; j < (to_seen ? cs->bank_lanes : 0); j++)
        memcpy((double *)cs->seen + j * S, volts + rows[j] * S,
               (size_t)S * sizeof(double));
}

/* The bank's RC filter and quantizer: ControllerBank._advance_masked,
 * element for element.  Only fresh (finite, observed) samples enter the
 * filter; a dropped sample holds its last good value (fallback on) or
 * reads NaN; an unobserved row changes nowhere.  An all-fresh block is
 * ControllerBank.observe's plain advance (its measurement is last_good). */
static i64 stage_filter(CycleState *cs, int from_seen) {
    const i64 S = cs->num_sms;
    const i64 *rows = (const i64 *)cs->bank_rows;
    const u8 *observed = (const u8 *)cs->observed;
    const u8 *fb_on = (const u8 *)cs->fb_on;
    int masked = 0, has_nan = 0, any_fb = 0;
    for (i64 j = 0; j < cs->bank_lanes; j++) {
        const double *seen = from_seen
                                 ? (const double *)cs->seen + j * S
                                 : (const double *)cs->volts + rows[j] * S;
        double *st = (double *)cs->filter_state + j * S;
        double *m = (double *)cs->last_good + j * S;
        double *out = (double *)cs->measured + j * S;
        u8 *f = (u8 *)cs->fallback + j * S;
        const double a = ((const double *)cs->alpha)[j];
        const double q = ((const double *)cs->step_v)[j];
        const int obs = !from_seen || observed[j];
        i64 drops = 0;
        for (i64 s = 0; s < S; s++) {
            const int fresh = obs && isfinite(seen[s]);
            if (fresh) {
                double d = seen[s] - st[s];
                d = d * a;
                st[s] = st[s] + d;
            }
            double v = st[s] / q;
            v = rint(v);
            v = v * q;
            if (fresh) {
                m[s] = v;
                f[s] = 0;
            } else if (obs) {
                drops++;
                f[s] = fb_on[j];
                has_nan |= !fb_on[j];
            }
            out[s] = fresh || !obs ? v : fb_on[j] ? m[s] : NAN;
            any_fb |= f[s];
        }
        ((i64 *)cs->dropped)[j] += drops;
        masked |= !obs || drops;
    }
    cs->has_nan = has_nan;
    cs->any_fallback = any_fb;
    return masked ? CYC_MASKED : 0;
}

static void stage_record(CycleState *cs, i64 cycle) {
    const i64 S = cs->num_sms, k = cycle - cs->warmup, C = cs->cycles;
    const i64 *lane = (const i64 *)cs->lane_index;
    const double *powers = (const double *)cs->powers;
    const double *volts = (const double *)cs->volts;
    const double *dcc = (const double *)cs->dcc;
    const double *sol = (const double *)cs->sol;
    double *rec_p = (double *)cs->rec_powers;
    double *rec_v = (double *)cs->rec_volts;
    double *rec_i = (double *)cs->rec_supply;
    double *accum = (double *)cs->dcc_accum;
    double *trace = (double *)cs->dcc_trace;
    for (i64 b = 0; b < cs->n_lanes; b++) {
        const i64 row = lane[b] * C + k;
        memcpy(rec_p + row * S, powers + b * S, (size_t)S * sizeof(double));
        memcpy(rec_v + row * S, volts + b * S, (size_t)S * sizeof(double));
        rec_i[row] = -sol[b * cs->sol_size + cs->vdd_row];
        if (cs->dcc_possible) {
            /* The DCC power applied this cycle, ledgered. */
            double applied = 0.0 + pairwise_sum(dcc + b * S, S);
            accum[lane[b]] = accum[lane[b]] + applied;
            if (trace)
                trace[row] = applied;
        }
    }
}

/* Warmup: keep the SM voltages for the flight recorders. */
static void stage_warm(CycleState *cs, i64 cycle) {
    const i64 S = cs->num_sms;
    const i64 *lane = (const i64 *)cs->lane_index;
    const double *volts = (const double *)cs->volts;
    double *warm = (double *)cs->flight_warm;
    for (i64 b = 0; b < cs->n_lanes; b++)
        memcpy(warm + (lane[b] * cs->warmup + cycle) * S, volts + b * S,
               (size_t)S * sizeof(double));
}

/* Book the time since *t0 to stage k (when timing) and restart it. */
static void lap(CycleState *cs, double *t0, int k) {
    if (!cs->timing)
        return;
    double t1 = now_s();
    ((double *)cs->stage_s)[k] += t1 - *t0;
    *t0 = t1;
}

i64 cosim_cycle(CycleState *cs, i64 cycle, i64 first, i64 last) {
    double t0 = cs->timing ? now_s() : 0.0;
    i64 rc;
    if (first <= 0) {
        rc = stage_gpu(cs);
        lap(cs, &t0, 0);
        if (rc)
            return rc;
    }
    if (first <= 1 && last >= 1) {
        rc = stage_solve(cs);
        if (rc) {
            lap(cs, &t0, 1);
            return rc;
        }
    }
    if (first <= 2 && last >= 2)
        stage_readout(cs, last == 2);
    lap(cs, &t0, 1);
    if (last < 3)
        return 0;
    i64 status = 0;
    if (cs->bank_lanes) {
        status = stage_filter(cs, first == 3);
        lap(cs, &t0, 2);
    }
    if (cycle >= cs->warmup)
        stage_record(cs, cycle);
    else if (cs->flight_warm)
        stage_warm(cs, cycle);
    lap(cs, &t0, 3);
    return status;
}
