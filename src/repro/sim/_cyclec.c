/* Co-simulation cycles for every lane: one, or a span, per call.
 *
 * Compiled on demand into the native library (repro.native: plain cc,
 * no Python headers) and driven through ctypes by the co-sim loop
 * (repro.sim.cosim, via repro.sim._cyclec).  The kernel owns no physics
 * of its own: it calls the GPU engine's engine_step_batch
 * (repro/gpu/_enginec.c) and the PDN solver's solver_step_n[_checked]
 * (repro/circuits/_solverc.c), linked into the same library, and glues
 * them with the loop's array work — process-variation scaling,
 * currents, SM-voltage readout, the controller bank's RC filter and
 * quantizer, its decision wave (Algorithm 1, or the prior-art global
 * throttle), every lane's latency-pipeline pop and apply, the recording
 * row — that the loop would otherwise dispatch as many small NumPy calls
 * and Python loops.  The filter, the wave and the pop are also exported
 * on their own (bank_filter, bank_wave, bank_pop), for the controllers'
 * observe and commands_for (repro/core/controller.py).  The fault
 * injectors' sensor and jitter draws and their actuator faults
 * (repro/faults/injector.py) run here too, the draws through each
 * injector's own NumPy bit generator and the very distribution routines
 * its Generator calls, from the libnpyrandom.a archive NumPy ships for C
 * extensions: the streams, and the generators' final states, are the
 * ones the Python draws would leave.
 *
 * The contract is bit-identical equivalence with the serial co-sim
 * oracle (tests/oracles/serial_cosim.py) and its per-SM scalar
 * controller (tests/oracles/scalar_controller.py), whose arithmetic is
 * NumPy's:
 *
 *   - compile with -ffp-contract=off and without -ffast-math, so each
 *     double expression rounds exactly as NumPy's unfused ufuncs;
 *   - each lane keeps the NumPy operation order, element by element;
 *   - np_max / np_min keep NaN and NumPy's operand order (on equal
 *     operands, e.g. signed zeros, NumPy returns the second), and
 *     np.clip(x, lo, hi) is np_min(np_max(x, lo), hi);
 *   - a comparison with NaN is false, as NumPy's;
 *   - rint() rounds half to even under the default rounding mode, as
 *     np.rint does;
 *   - the applied-DCC row sum reproduces NumPy's pairwise summation
 *     (8 accumulators for 8 <= n <= 128), added to the 0.0 identity.
 *
 * Stages (a call runs stages first..last):
 *
 *   0  GPU: launch barrier census, then one engine_step_batch, then
 *      each lane's active process-variation rows (the multiply of
 *      FaultInjector.scale_powers);
 *   1  solve: powers + applied DCC -> PDN currents, then the guarded
 *      substeps (snapshot + health proof) on the shared batch clock;
 *   2  readout: SM voltages;
 *   3  filter: each faulted lane's draws (the row its detectors see,
 *      whether it observes, its extra command latency) and actuator-
 *      fault count, then the bank's RC filter and quantizer, masked when
 *      a seen sample is non-finite or a row unobserved (a throttle row
 *      reads its seen samples raw);
 *   4  decide: the bank's decision wave when a lane is due, then every
 *      lane's pop (bank_pop, at the cycle less its extra latency): each
 *      flags its lane in `apply` when its active decision is a new one
 *      or the loop asked for a re-apply (`reapply`), and counts in
 *      n_stop the `watch` lanes with a new decision or a safe-state flip
 *      this cycle;
 *   then the recording row (in warmup, the flight recorders' voltage
 *   row when they ride along), which ledgers this cycle's DCC, then
 *   the apply stage: each flagged lane's active command row, distorted
 *   by its active actuator faults, becomes its row in force, goes into
 *   its engine (engine_actuate; its halted SMs, which are its barrier-
 *   exempt row, get width 0) and its dcc row.  A call with last >= 3
 *   runs to the end.
 *
 * cosim_cycle returns 0 when every requested stage ran, CYC_RELAUNCH
 * (stage 0 flagged lanes for a kernel launch; nothing ran), CYC_SUSPECT
 * (stage 1 ran and the health proof flagged lanes; later stages did not
 * run), CYC_GROW (stage 4 found a due lane's pipeline full and changed
 * nothing: the caller grows the bank's ring and resumes at stage 4), or
 * a negative error code with the offending lane in err_lane.
 *
 * cosim_span runs whole cycles start..stop-1 and stops at the first that
 * returns non-zero, or with CYC_APPLY after one with n_stop set; span_at
 * is the cycle it stopped at, stop when all ran.
 */

#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include <string.h>
#include <time.h>

typedef int64_t i64;
typedef uint8_t u8;

#define CYC_RELAUNCH 2
#define CYC_SUSPECT 3
#define CYC_GROW 4
#define CYC_APPLY 5
#define CYC_GPU_ERROR (-1)

/* Defined in _enginec.c and _solverc.c. */
struct EngineState;
struct SolverState;
i64 engine_step_batch(struct EngineState **sts, i64 nlanes, i64 *clock,
                      i64 *ndone, const u8 *exempt, u8 *relaunch);
void solver_step_n(struct SolverState *st, i64 nsub);
i64 solver_step_n_checked(struct SolverState *st, i64 nsub, double *snap,
                          const double *limit_sq);
i64 engine_actuate(struct EngineState *st, const double *widths,
                   const double *fakes, const u8 *halted);

/* NumPy's bit generator (numpy/random/bitgen.h; only passed through)
 * and the three routines Generator.normal, .random and .integers call,
 * from NumPy's libnpyrandom.a (numpy/random/distributions.h would pull
 * in Python.h). */
typedef struct bitgen bitgen_t;
double random_normal(bitgen_t *bitgen_state, double loc, double scale);
double random_standard_uniform(bitgen_t *bitgen_state);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);

/* Columns of ControllerBank._ints / _iparams / _params and slots of
 * its _scal (repro/core/controller.py; the orders must match). */
enum {
    I_LAST, I_DECISIONS, I_TRIGGERS, I_THROTTLE, I_BOOST, I_THROTTLED,
    I_COUNTED, I_ACT_DIWS, I_ACT_FII, I_ACT_DCC, I_SAT_ISSUE, I_SAT_FAKE,
    I_SAT_DCC, I_WD_ENGAGE, I_SAFE_DEC, I_SAFE, I_SUBGUARD, I_HEALTHY,
    I_FB_SAMPLES, I_NAN_SAMPLES, I_LC_EVENTS, I_LC_FLAGGED, I_FLIPS,
    I_FLAP_HEAD, I_FLAP_LEN, I_ACTIVE, I_LAST_ID, I_RING_HEAD, I_RING_LEN,
    I_ACTIVE_THR, I_AT_DEFAULT, I_APPLIED, I_APPLIED_ID, I_UNTIL,
    I_STEPPED, I_FLIP_AT, NI
};
enum { Q_PERIOD, Q_LATENCY, Q_WATCHDOG, Q_PATIENCE, Q_RELEASE, Q_WINDOW,
       Q_MIN_FLIPS, Q_LAW, Q_HOLD, NQ };
enum { P_THR, P_THR_HIGH, P_WIDEN, P_IWMAX, P_V_NOM, P_K1W1, P_K2W2,
       P_K3W3, P_UNIT, P_MAX_CODE, P_GUARD, P_SAFE_W, NP };
enum { S_NEXT_DUE, S_UNIFORM };
/* A lane's law: Algorithm 1, or the prior-art global throttle (every SM
 * at P_SAFE_W for Q_HOLD cycles after a trigger). */
enum { LAW_ALG1, LAW_THROTTLE };
#define WAVE_GROW (-1)
#define NO_DUE ((i64)1 << 62)

/* A fault event's kind (the sensing kinds, then an actuator fault's
 * actuator), its columns in the event table (E_ARG: a jitter event's
 * extra latency, or 1 when an actuator fault freezes), and a lane's
 * counters (SENSE_KINDS, FaultTable, FAULT_COUNTERS in _cyclec.py). */
enum { K_NOISE, K_QUANT, K_STUCK, K_DROP, K_JITTER, K_DIWS, K_FII, K_DCC };
enum { E_KIND, E_SM0, E_NSM, E_ARG, NE };
enum { F_CORRUPTED, F_DROPPED, F_OBS_DROPPED, F_JITTER, F_OVERRIDES, NF };

/* A ControllerBank's struct-of-arrays state (B lanes, S SMs). */
typedef struct {
    i64 n_lanes, num_sms;
    i64 cap;           /* ring depth; the store keeps cap + 1 rows */
    i64 flap_width;    /* row stride of flap */
    i64 *ints;         /* i64[B*NI] decision state and counters */
    const i64 *iparams;    /* i64[B*NQ] */
    const double *params;  /* double[B*NP] */
    const double *cat_default; /* double[B*3S] default command row */
    const double *slew;        /* double[B*3S] */
    u8 *fallback;      /* u8[B*S] fallback-held flags */
    u8 *flap;          /* u8[B*flap_width] limit-cycle window rings */
    i64 *ring_at;      /* i64[B*cap] pipeline: apply cycle */
    i64 *ring_id;      /* i64[B*cap] pipeline: decision id */
    double *store;     /* double[B*(cap+1)*3S] command row of id % (cap+1) */
    u8 *store_trig;    /* u8[B*(cap+1)*S] its triggered SMs */
    u8 *store_thr;     /* u8[B*(cap+1)] whether it throttles */
    i64 *scal;         /* i64[4] the S_* slots */
    u8 *due;           /* u8[B] scratch */
    double *filter_state; /* double[B*S] */
    double *last_good;    /* double[B*S] */
    const double *alpha;  /* double[B] */
    const double *step_v; /* double[B] */
    const u8 *fb_on;      /* u8[B] sensor fallback enabled */
    double *in_force;     /* double[B*3S] command row last applied */
} BankState;

typedef struct {
    i64 n_lanes; /* B: rows of every per-row block below */
    i64 num_sms; /* S */
    /* stage 0: the GPU batch's fused dispatch */
    void *engine_states; /* EngineState *[B] */
    void *gpu_clock;     /* i64[1] */
    void *ndone;         /* i64[B] */
    void *exempt;        /* u8[B*S], also each lane's halted SMs */
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
    /* stages 3-4: the controller bank (bank_lanes 0: none) */
    i64 bank_lanes;
    void *bank;         /* BankState */
    void *bank_rows;    /* i64[bank_lanes] batch row of each bank row */
    i64 faulted;        /* some event below is active */
    void *bitgens;      /* bitgen_t *[bank_lanes] each injector's, or NULL */
    void *ev_off;       /* i64[bank_lanes+1] row j's events: ev_off[j].. */
    void *ev;           /* i64[n_ev*NE] sensor, jitter, actuator events */
    void *ev_param;     /* double[n_ev] */
    void *ev_sms;       /* i64[] target SMs, ~s: a sensor event's repeat */
    void *ev_on;        /* u8[n_ev] active flags */
    void *ev_live;      /* u8[n_ev] an actuator fault applied since it began */
    void *ev_frozen;    /* double[] a freezing fault's command, per ev_sms */
    void *fault_counts; /* i64[bank_lanes*NF] the events' counters */
    void *extra;        /* i64[bank_lanes] out: extra command latency */
    void *reapply;      /* u8[bank_lanes] re-apply in force (stage 4 clears) */
    void *seen;         /* double[bank_lanes*S] a corrupted sensor row */
    void *observed;     /* u8[bank_lanes] out */
    void *measured;     /* double[bank_lanes*S] masked measurement block */
    i64 masked;         /* stage 3 ran masked (measured holds the block) */
    i64 unobserved;     /* ... and a row was unobserved */
    void *apply;        /* u8[bank_lanes] out: lanes applied this cycle */
    i64 n_apply;        /* out: how many */
    void *watch;        /* u8[bank_lanes] lanes whose changes stop a span */
    i64 n_stop;         /* out: watch lanes with a new decision or flip */
    i64 span_at;        /* out: the cycle cosim_span stopped at */
    /* stage 3: the recording row */
    i64 warmup;
    i64 cycles;     /* recorded window length */
    void *lane_index; /* i64[B] recording row of each batch row */
    void *rec_powers; /* double[lanes*cycles*S] */
    void *rec_volts;  /* double[lanes*cycles*S] */
    void *rec_supply; /* double[lanes*cycles] */
    i64 vdd_row;
    void *dcc_accum; /* double[lanes] */
    void *dcc_trace; /* double[lanes*cycles], or NULL */
    void *flight_warm; /* double[lanes*warmup*S] warmup voltages, or NULL */
    /* telemetry: accumulate per-stage wall time when set */
    i64 timing;
    void *stage_s; /* double[4]: gpu, solve + readout, controller, record */
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
    i64 bad = 0;
    if (cs->snap)
        bad = solver_step_n_checked(st, cs->substeps, (double *)cs->snap,
                                    (const double *)cs->limit_sq);
    else
        solver_step_n(st, cs->substeps);
    /* The batch clock advances as the per-step path's t += dt. */
    double *clock = (double *)cs->clock;
    double t = clock[0];
    clock[1] = t;
    for (i64 sub = 0; sub < cs->substeps; sub++)
        t = t + cs->dt;
    clock[0] = t;
    ((i64 *)cs->csteps)[0] += cs->substeps;
    return bad > 0 ? CYC_SUSPECT : 0;
}

static void stage_readout(CycleState *cs) {
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
}

/* Bank row j's sensor and jitter draws on its SM voltages v, through
 * its injector's bit generator, as FaultInjector.corrupt_sensors,
 * observation_allowed and extra_latency make them, in that order, then
 * its active actuator faults' count (distort_actuation's).  Sensor
 * events apply in schedule order; an SM listed again later in an event
 * keeps only its last write, as NumPy's fancy-index store.  Returns the
 * row the detectors see (v, or j's seen row once a sensor event rewrote
 * it) and sets *obs. */
static const double *sense(CycleState *cs, i64 j, const double *v, int *obs) {
    const i64 S = cs->num_sms;
    bitgen_t *bg = ((bitgen_t **)cs->bitgens)[j];
    const i64 *off = (const i64 *)cs->ev_off;
    const i64 *ev = (const i64 *)cs->ev;
    const double *param = (const double *)cs->ev_param;
    const u8 *on = (const u8 *)cs->ev_on;
    i64 *F = (i64 *)cs->fault_counts + j * NF;
    double *seen = (double *)cs->seen + j * S;
    const double *row = v;
    i64 e = off[j];
    for (; e < off[j + 1] && ev[e * NE + E_KIND] < K_JITTER; e++) {
        if (!on[e])
            continue;
        if (row == v)
            row = memcpy(seen, v, (size_t)S * sizeof(double));
        const i64 kind = ev[e * NE + E_KIND], n = ev[e * NE + E_NSM];
        const i64 *sm = (const i64 *)cs->ev_sms + ev[e * NE + E_SM0];
        const double p = param[e];
        for (i64 k = 0; k < n; k++) {
            const i64 s = sm[k] < 0 ? ~sm[k] : sm[k];
            if (kind == K_NOISE) {
                const double z = random_normal(bg, 0.0, p);
                if (sm[k] >= 0)
                    seen[s] = seen[s] + z;
            } else if (kind == K_DROP) {
                if (random_standard_uniform(bg) < p) {
                    seen[s] = NAN;
                    F[F_DROPPED]++;
                }
            } else if (sm[k] >= 0) {
                seen[s] = kind == K_STUCK ? p : rint(seen[s] / p) * p;
            }
        }
        if (kind != K_DROP)
            F[F_CORRUPTED] += n;
    }
    /* Jitter: the first dropped observation ends the drop draws. */
    const i64 jitter = e;
    *obs = 1;
    for (; e < off[j + 1] && ev[e * NE + E_KIND] == K_JITTER && *obs; e++) {
        const double p = param[e];
        if (on[e] && p > 0.0 && random_standard_uniform(bg) < p) {
            *obs = 0;
            F[F_OBS_DROPPED]++;
        }
    }
    i64 extra = 0;
    for (e = jitter; e < off[j + 1] && ev[e * NE + E_KIND] == K_JITTER; e++) {
        const i64 n = ev[e * NE + E_ARG];
        if (on[e] && n > 0) {
            uint64_t x; /* Generator.integers(0, n + 1) */
            random_bounded_uint64_fill(bg, 0, (uint64_t)n, 1, false, &x);
            extra += (i64)x;
        }
    }
    F[F_JITTER] += extra;
    ((i64 *)cs->extra)[j] = extra;
    for (; e < off[j + 1]; e++)
        F[F_OVERRIDES] += on[e] ? ev[e * NE + E_NSM] : 0;
    return row;
}

/* Bank row j's RC filter and quantizer on the samples `seen` its
 * detectors read this cycle (`obs`: whether the row observes at all):
 * only fresh (finite, observed) samples enter the filter; a dropped
 * sample holds its last good value (fallback on) or reads NaN, and is
 * counted in the lane's stats; an unobserved row changes nowhere.  A
 * throttle row's measurement is `seen` itself.  Writes the row's
 * measurement to `out` (for an all-fresh Algorithm 1 row, its last_good
 * row); returns whether it may differ from last_good. */
static int filter_row(BankState *bs, i64 j, const double *seen, int obs,
                      double *out) {
    const i64 S = bs->num_sms;
    i64 *I = bs->ints + j * NI;
    I[I_STEPPED] = 1;
    if (bs->iparams[j * NQ + Q_LAW] == LAW_THROTTLE) {
        memcpy(out, seen, (size_t)S * sizeof(double));
        return 1;
    }
    double *st = bs->filter_state + j * S;
    double *m = bs->last_good + j * S;
    u8 *f = bs->fallback + j * S;
    const double a = bs->alpha[j];
    const double q = bs->step_v[j];
    const u8 fb = bs->fb_on[j];
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
            f[s] = fb;
        }
        out[s] = fresh || !obs ? v : fb ? m[s] : NAN;
    }
    I[I_NAN_SAMPLES] += drops;
    I[I_FB_SAMPLES] += fb ? drops : 0;
    return drops > 0;
}

/* For ControllerBank.observe: every row's filter_row on the (B*S)
 * block `seen`, its measurement into `measured`; `observed` (u8[B]) or
 * NULL when every lane observed. */
i64 bank_filter(BankState *bs, const double *seen, const u8 *observed,
                double *measured) {
    const i64 S = bs->num_sms;
    for (i64 j = 0; j < bs->n_lanes; j++)
        filter_row(bs, j, seen + j * S, !observed || observed[j],
                   measured + j * S);
    return 0;
}

/* The faulted lanes' draws, then filter_row on what each lane's
 * detectors see (the block's measurement is last_good unless a row
 * dropped a sample, did not observe or throttles: `masked`). */
static void stage_filter(CycleState *cs) {
    BankState *bs = (BankState *)cs->bank;
    const i64 S = cs->num_sms;
    const i64 *rows = (const i64 *)cs->bank_rows;
    const i64 *ev_off = (const i64 *)cs->ev_off;
    int masked = 0, unobserved = 0;
    for (i64 j = 0; j < cs->bank_lanes; j++) {
        const double *seen = (const double *)cs->volts + rows[j] * S;
        int obs = 1;
        ((i64 *)cs->extra)[j] = 0;
        if (cs->faulted && ev_off[j] < ev_off[j + 1])
            seen = sense(cs, j, seen, &obs);
        ((u8 *)cs->observed)[j] = (u8)obs;
        masked |= filter_row(bs, j, seen, obs,
                             (double *)cs->measured + j * S) || !obs;
        unobserved |= !obs;
    }
    cs->masked = masked;
    cs->unobserved = unobserved;
}

/* ---- Algorithm 1's decision wave (ScalarController._make_decision) -- */

static double np_max(double a, double b) { return isnan(a) || a > b ? a : b; }
static double np_min(double a, double b) { return isnan(a) || a < b ? a : b; }

/* The watchdog streaks on the decision's worst measured SM; returns
 * whether the safe state flipped (the only place it does). */
static int watchdog(i64 *I, const i64 *Q, const double *P, double worst) {
    if (worst < P[P_GUARD]) {
        I[I_SUBGUARD]++;
        I[I_HEALTHY] = 0;
    } else {
        I[I_SUBGUARD] = 0;
        I[I_HEALTHY]++;
    }
    if (Q[Q_WATCHDOG] && !I[I_SAFE] && I[I_SUBGUARD] >= Q[Q_PATIENCE]) {
        I[I_SAFE] = 1;
        I[I_WD_ENGAGE]++;
        I[I_HEALTHY] = 0;
        return 1;
    }
    if (I[I_SAFE] && I[I_HEALTHY] >= Q[Q_RELEASE]) {
        I[I_SAFE] = 0;
        return 1;
    }
    return 0;
}

/* Append the throttle flag t to the limit-cycle window ring, keeping
 * the adjacent-flip count, and flag (or clear) a limit cycle. */
static void track_flap(i64 *I, const i64 *Q, u8 *flap, u8 t) {
    const i64 w = Q[Q_WINDOW], h = I[I_FLAP_HEAD], n = I[I_FLAP_LEN];
    if (n == w && flap[h] != flap[(h + 1) % w])
        I[I_FLIPS]--;
    if (n && flap[(h + n - 1) % w] != t)
        I[I_FLIPS]++;
    flap[(h + n) % w] = t;
    if (n == w)
        I[I_FLAP_HEAD] = (h + 1) % w;
    else
        I[I_FLAP_LEN] = n + 1;
    if (I[I_FLAP_LEN] < w)
        return;
    if (I[I_FLIPS] >= Q[Q_MIN_FLIPS]) {
        if (!I[I_LC_FLAGGED]) {
            I[I_LC_FLAGGED] = 1;
            I[I_LC_EVENTS]++;
        }
    } else if (I[I_FLIPS] <= Q[Q_MIN_FLIPS] / 2) {
        I[I_LC_FLAGGED] = 0;
    }
}

/* Queue lane b's last id to take effect at cycle + its latency. */
static void enqueue(BankState *bs, i64 b, i64 cycle) {
    i64 *I = bs->ints + b * NI;
    const i64 pos = (I[I_RING_HEAD] + I[I_RING_LEN]) % bs->cap;
    bs->ring_at[b * bs->cap + pos] = cycle + bs->iparams[b * NQ + Q_LATENCY];
    bs->ring_id[b * bs->cap + pos] = I[I_LAST_ID];
    I[I_RING_LEN]++;
}

/* A throttle lane's decision on its seen samples m: when no trigger is
 * pending and an SM reads below the threshold (NaN blocks it, as
 * NumPy's min), queue one (GlobalThrottleController). */
static void throttle_decide(BankState *bs, i64 b, i64 cycle,
                            const double *m) {
    i64 *I = bs->ints + b * NI;
    double low = m[0];
    for (i64 s = 1; s < bs->num_sms; s++)
        low = np_min(low, m[s]);
    I[I_DECISIONS]++;
    if (!I[I_RING_LEN] && low < bs->params[b * NP + P_THR]) {
        enqueue(bs, b, cycle);
        I[I_TRIGGERS]++;
    }
}

/* Lane b's decision on its measurement row m: watchdog (a flip notes
 * its cycle), Algorithm 1 (or the safe state), the slew clamp, the
 * counters and the enqueue.  An idle lane re-enqueues its last id; any
 * other stores its command under the next id (the slot of last id + 1
 * is free: see bank_wave). */
static void decide_lane(BankState *bs, i64 b, i64 cycle, const double *m) {
    const i64 S = bs->num_sms, N = 3 * S, R = bs->cap + 1;
    i64 *I = bs->ints + b * NI;
    const i64 *Q = bs->iparams + b * NQ;
    const double *P = bs->params + b * NP;
    const u8 *fb = bs->fallback + b * S;
    /* NaN is no evidence: an all-NaN row leaves the streaks alone. */
    double worst = INFINITY;
    for (i64 s = 0; s < S; s++)
        if (m[s] < worst)
            worst = m[s];
    if (worst != INFINITY && watchdog(I, Q, P, worst))
        I[I_FLIP_AT] = cycle;
    const int safe = (int)I[I_SAFE];
    const i64 slot = (I[I_LAST_ID] + 1) % R;
    u8 *trig = bs->store_trig + (b * R + slot) * S;
    int any_trig = 0;
    /* 1: low (throttle), 2: high (boost); widened where fallback-held. */
    for (i64 s = 0; s < S; s++) {
        const double widen = fb[s] ? P[P_WIDEN] : 0.0;
        trig[s] = safe                          ? 0
                  : m[s] < P[P_THR] + widen     ? 1
                  : m[s] > P[P_THR_HIGH] + widen ? 2
                                                : 0;
        any_trig |= trig[s];
    }
    I[I_DECISIONS]++;
    u8 throttling = 0;
    if (!I[I_AT_DEFAULT] || any_trig || safe) {
        const double *def = bs->cat_default + b * N;
        const double *prev = bs->store + (b * R + I[I_LAST_ID] % R) * N;
        const double *slew = bs->slew + b * N;
        double *cat = bs->store + (b * R + slot) * N;
        double *widths = cat, *fakes = cat + S, *dcc = cat + 2 * S;
        memcpy(cat, def, (size_t)N * sizeof(double));
        for (i64 s = 0; s < S; s++) {
            if (trig[s] == 1) {
                const double err = P[P_V_NOM] - m[s];
                const double raw = np_min(
                    P[P_IWMAX], np_max(0.0, P[P_IWMAX] - P[P_K1W1] * err));
                widths[s] = err > 0 ? raw : P[P_IWMAX];
            } else if (trig[s] == 2) {
                const double over = m[s] - P[P_V_NOM];
                const int pos = over > 0;
                const double fake = np_min(2.0, np_max(0.0, P[P_K2W2] * over));
                fakes[s] = pos ? fake : 0.0;
                const double p = P[P_K3W3] * over;
                const double code = np_min(P[P_MAX_CODE], rint(p / P[P_UNIT]));
                dcc[s] = pos && p > 0 ? code * P[P_UNIT] : 0.0;
            }
            trig[s] = trig[s] != 0;
        }
        if (safe) {
            for (i64 s = 0; s < S; s++)
                widths[s] = P[P_SAFE_W];
            I[I_SAFE_DEC]++;
        }
        int sat[3] = {0, 0, 0}, now_default = 1;
        for (i64 k = 0; k < N; k++) {
            const double c =
                np_min(np_max(cat[k], prev[k] - slew[k]), prev[k] + slew[k]);
            sat[k / S] |= c != cat[k];
            cat[k] = c;
            now_default &= c == def[k];
        }
        u8 fii = 0, dcc_on = 0;
        for (i64 s = 0; s < S; s++) {
            throttling |= widths[s] < P[P_IWMAX];
            fii |= fakes[s] > 0.0;
            dcc_on |= dcc[s] > 0.0;
        }
        bs->store_thr[b * R + slot] = throttling;
        I[I_LAST_ID]++;
        I[I_AT_DEFAULT] = now_default;
        I[I_SAT_ISSUE] += sat[0];
        I[I_SAT_FAKE] += sat[1];
        I[I_SAT_DCC] += sat[2];
        I[I_TRIGGERS] += any_trig != 0;
        I[I_THROTTLE] += throttling;
        I[I_ACT_DIWS] += throttling;
        I[I_ACT_FII] += fii;
        I[I_ACT_DCC] += dcc_on;
        I[I_BOOST] += fii || dcc_on;
    }
    track_flap(I, Q, bs->flap + b * bs->flap_width, throttling);
    enqueue(bs, b, cycle);
}

/* For ControllerBank.observe: the wave of the lanes due at `cycle`, on
 * the measurement block `measured` (B*S); `observed` (u8[B]) or NULL
 * when every lane observed.  One shared cadence decides every lane
 * together; an observed mask splits the phases for good, and lanes are
 * then due one by one.  Returns 0, or WAVE_GROW, changing nothing, when
 * a due lane's ring is full or its
 * next id's store slot is still live (its live ids, active through last
 * enqueued, must stay within cap + 1 consecutive values). */
i64 bank_wave(BankState *bs, i64 cycle, const double *measured,
              const u8 *observed) {
    i64 *scal = bs->scal;
    if (cycle < scal[S_NEXT_DUE])
        return 0;
    const int uniform = scal[S_UNIFORM] && !observed;
    for (i64 b = 0; b < bs->n_lanes; b++) {
        const i64 *I = bs->ints + b * NI;
        bs->due[b] = uniform ||
                     (cycle - I[I_LAST] >= bs->iparams[b * NQ + Q_PERIOD] &&
                      (!observed || observed[b]));
        if (bs->due[b] && (I[I_RING_LEN] >= bs->cap ||
                           I[I_LAST_ID] - I[I_ACTIVE] >= bs->cap))
            return WAVE_GROW;
    }
    i64 next_due = NO_DUE;
    for (i64 b = 0; b < bs->n_lanes; b++) {
        i64 *I = bs->ints + b * NI;
        const double *m = measured + b * bs->num_sms;
        if (bs->due[b]) {
            I[I_LAST] = cycle;
            if (bs->iparams[b * NQ + Q_LAW] == LAW_THROTTLE)
                throttle_decide(bs, b, cycle, m);
            else
                decide_lane(bs, b, cycle, m);
        }
        const i64 due_at = I[I_LAST] + bs->iparams[b * NQ + Q_PERIOD];
        next_due = due_at < next_due ? due_at : next_due;
    }
    if (uniform) {
        scal[S_NEXT_DUE] = cycle + scal[S_UNIFORM];
    } else {
        scal[S_UNIFORM] = 0;
        scal[S_NEXT_DUE] = next_due;
    }
    return 0;
}

/* A throttle lane's read at cycle `read`: a trigger that came due
 * (`due`) starts the hold there; the lane throttles while the read is
 * inside it, counting every read that does, and a change of state is a
 * new command (the next id, its row stored as the wave stores one). */
static void throttle_read(BankState *bs, i64 j, i64 read, int due) {
    const i64 S = bs->num_sms, N = 3 * S, R = bs->cap + 1;
    i64 *I = bs->ints + j * NI;
    if (due)
        I[I_UNTIL] = read + bs->iparams[j * NQ + Q_HOLD];
    const u8 thr = read < I[I_UNTIL];
    I[I_THROTTLED] += thr;
    if (thr == I[I_ACTIVE_THR])
        return;
    const i64 slot = ++I[I_LAST_ID] % R;
    double *cat = bs->store + (j * R + slot) * N;
    memcpy(cat, bs->cat_default + j * N, (size_t)N * sizeof(double));
    for (i64 s = 0; thr && s < S; s++)
        cat[s] = bs->params[j * NP + P_SAFE_W];
    memset(bs->store_trig + (j * R + slot) * S, thr, (size_t)S);
    bs->store_thr[j * R + slot] = thr;
    I[I_ACTIVE] = I[I_LAST_ID];
    I[I_ACTIVE_THR] = thr;
}

/* For the controllers' commands_for, and stage 4: lane j's command read
 * at cycle `read`.  Pops the entries due by then (the last popped id
 * becomes active) and counts the read into throttled_cycles, once per
 * cycle (a throttle lane: per read).  Returns the active id. */
i64 bank_pop(BankState *bs, i64 j, i64 read) {
    const i64 cap = bs->cap;
    i64 *I = bs->ints + j * NI;
    const i64 *at = bs->ring_at + j * cap;
    i64 popped = -1;
    I[I_STEPPED] = 1;
    while (I[I_RING_LEN] && at[I[I_RING_HEAD]] <= read) {
        popped = bs->ring_id[j * cap + I[I_RING_HEAD]];
        I[I_RING_HEAD] = (I[I_RING_HEAD] + 1) % cap;
        I[I_RING_LEN]--;
    }
    if (bs->iparams[j * NQ + Q_LAW] == LAW_THROTTLE) {
        throttle_read(bs, j, read, popped >= 0);
        return I[I_ACTIVE];
    }
    if (popped >= 0 && popped != I[I_ACTIVE]) {
        I[I_ACTIVE] = popped;
        I[I_ACTIVE_THR] = bs->store_thr[j * (cap + 1) + popped % (cap + 1)];
    }
    if (read > I[I_COUNTED]) {
        I[I_COUNTED] = read;
        I[I_THROTTLED] += I[I_ACTIVE_THR];
    }
    return I[I_ACTIVE];
}

/* Every lane's read at `cycle` less its extra latency; flag the lanes
 * whose active id is new (counted as applied) or that must re-apply,
 * and count the watch lanes that changed. */
static void stage_pop(CycleState *cs, i64 cycle) {
    BankState *bs = (BankState *)cs->bank;
    u8 *apply = (u8 *)cs->apply, *reapply = (u8 *)cs->reapply;
    const u8 *watch = (const u8 *)cs->watch;
    i64 n_apply = 0, n_stop = 0;
    for (i64 j = 0; j < cs->bank_lanes; j++) {
        i64 *I = bs->ints + j * NI;
        const i64 id = bank_pop(bs, j, cycle - ((const i64 *)cs->extra)[j]);
        const int fresh = id != I[I_APPLIED_ID];
        if (fresh) {
            I[I_APPLIED_ID] = id;
            I[I_APPLIED]++;
        }
        apply[j] = fresh || reapply[j];
        reapply[j] = 0;
        n_apply += apply[j];
        n_stop += watch && watch[j] && (fresh || I[I_FLIP_AT] == cycle);
    }
    cs->n_apply = n_apply;
    cs->n_stop = n_stop;
}

/* Bank row j's actuator faults on its command row cmd, in schedule
 * order, as FaultInjector.distort_actuation: an active fault jams its
 * SMs' command at its value, or freezes it at the command they had on
 * its first active apply (earlier faults' distortion included). */
static void distort(CycleState *cs, i64 j, double *cmd) {
    const i64 *off = (const i64 *)cs->ev_off, *ev = (const i64 *)cs->ev;
    const u8 *on = (const u8 *)cs->ev_on;
    u8 *live = (u8 *)cs->ev_live;
    double *frozen = (double *)cs->ev_frozen;
    for (i64 e = off[j]; e < off[j + 1]; e++) {
        const i64 kind = ev[e * NE + E_KIND];
        if (kind <= K_JITTER)
            continue;
        if (!on[e]) {
            live[e] = 0;
            continue;
        }
        const i64 at = ev[e * NE + E_SM0], n = ev[e * NE + E_NSM];
        const i64 *sm = (const i64 *)cs->ev_sms + at;
        double *target = cmd + (kind - K_DIWS) * cs->num_sms;
        for (i64 k = 0; k < n && !live[e]; k++)
            frozen[at + k] = target[sm[k]];
        live[e] = 1;
        for (i64 k = 0; k < n; k++)
            target[sm[k]] = ev[e * NE + E_ARG]
                                ? frozen[at + k]
                                : ((const double *)cs->ev_param)[e];
    }
}

/* The flagged lanes' active command rows, distorted, into force: each
 * as the GPU setters and a DCC row copy apply it. */
static void stage_apply(CycleState *cs) {
    BankState *bs = (BankState *)cs->bank;
    const i64 S = cs->num_sms, N = 3 * S, R = bs->cap + 1;
    const i64 *rows = (const i64 *)cs->bank_rows;
    for (i64 j = 0; j < cs->bank_lanes; j++) {
        if (!((const u8 *)cs->apply)[j])
            continue;
        const i64 b = rows[j], id = bs->ints[j * NI + I_ACTIVE];
        double *cmd = bs->in_force + j * N;
        memcpy(cmd, bs->store + (j * R + id % R) * N,
               (size_t)N * sizeof(double));
        distort(cs, j, cmd);
        engine_actuate(((struct EngineState **)cs->engine_states)[b], cmd,
                       cmd + S, (const u8 *)cs->exempt + b * S);
        memcpy((double *)cs->dcc + b * S, cmd + 2 * S,
               (size_t)S * sizeof(double));
    }
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
        /* The DCC power applied this cycle, ledgered. */
        const double applied = 0.0 + pairwise_sum(dcc + b * S, S);
        accum[lane[b]] = accum[lane[b]] + applied;
        if (trace)
            trace[row] = applied;
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
        stage_readout(cs);
    lap(cs, &t0, 1);
    if (last < 3)
        return 0;
    if (cs->bank_lanes) {
        BankState *bs = (BankState *)cs->bank;
        if (first <= 3)
            stage_filter(cs);
        rc = bank_wave(bs, cycle,
                       cs->masked ? (const double *)cs->measured
                                  : bs->last_good,
                       cs->unobserved ? (const u8 *)cs->observed : NULL);
        if (rc == WAVE_GROW) {
            lap(cs, &t0, 2);
            return CYC_GROW;
        }
        stage_pop(cs, cycle);
        lap(cs, &t0, 2);
    }
    if (cycle >= cs->warmup)
        stage_record(cs, cycle);
    else if (cs->flight_warm)
        stage_warm(cs, cycle);
    lap(cs, &t0, 3);
    if (cs->bank_lanes && cs->n_apply) {
        stage_apply(cs);
        lap(cs, &t0, 2);
    }
    return 0;
}

i64 cosim_span(CycleState *cs, i64 start, i64 stop) {
    i64 rc = 0;
    for (cs->span_at = start; cs->span_at < stop && !rc; cs->span_at++) {
        rc = cosim_cycle(cs, cs->span_at, 0, 3);
        if (!rc && cs->n_stop)
            rc = CYC_APPLY;
    }
    cs->span_at -= rc != 0;
    return rc;
}
