/* Fused batched trapezoidal substep kernel for the PDN co-simulator.
 *
 * Compiled on demand into the native library (repro.native: plain cc,
 * no Python headers) and driven through ctypes.  Operates in place on
 * the NumPy buffers of repro.circuits.transient.BatchTransientSolver;
 * one call advances every lane `nsub` trapezoidal steps — the whole
 * co-sim cycle's worth of substeps in a single crossing of the ctypes
 * boundary.
 *
 * It is the batch solver's only step, and the contract is bit-identical
 * equivalence with B serial TransientSolver runs:
 *
 *   - compile with -ffp-contract=off (no FMA contraction) and without
 *     -ffast-math, so double expressions evaluate exactly as NumPy's
 *     unfused elementwise kernels;
 *   - the RHS scatter accumulates gain*value contributions in triple
 *     order, matching np.bincount's (and np.add.at's) input-order
 *     accumulation per index;
 *   - the back-substitution runs the operation sequence of the NRHS=1
 *     LAPACK getrs the serial solver calls (OpenBLAS: laswp, then two
 *     column-oriented trsv, unblocked up to 64 unknowns): the pivot
 *     swaps, then the unit-lower and the upper triangle column by
 *     column, each update x_i = fma(-x_k, LU[i,k], x_i) (x_i + -x_k *
 *     LU[i,k] on a CPU without FMA, as BLAS's non-FMA axpy) and each
 *     diagonal step a true division.  Updates into one column touch
 *     distinct rows, so every x_i sees the same rounded operations in
 *     the same order as under getrs, and the result is getrs's bit for
 *     bit.  Past 64 unknowns BLAS blocks the triangles and folds the
 *     off-block part into a gemv, which reorders the sums, so the
 *     Python side rejects larger systems.
 *
 * The substitution solves each shard's lanes (those sharing one LU)
 * together, CHUNK lanes at a time laid out lanes-inner, so each LU
 * entry is loaded once per chunk; a lone lane runs the same body at
 * width 1 and a chunk of 2..CHUNK-1 lanes is padded with zero lanes.
 * It walks only the entries that were nonzero when the shard was
 * built.  Skipping an update by a zero entry leaves x_i as it was,
 * which getrs's update also does unless the multiplier is not finite
 * (inf * 0 is NaN) or x_i is a zero whose sign the update would flip.
 * Either case leaves a zero or non-finite value in the lane's
 * solution (a non-finite multiplier stays non-finite through the rest
 * of the substitution), so a chunk with such a value is solved again
 * walking every entry: the result is always getrs's.
 *
 * Index arrays are the solver's flat-view gathers: lane-offset indices
 * into the flattened (B, ...) buffers, precomputed once in Python.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef int64_t i64;

/* Largest system the substitution reproduces getrs on (BLAS's trsv
 * block), and the chunk width (the co-sim's lane group). */
#define MAX_UNKNOWNS 64
#define CHUNK 8

/* One shard: its lanes and the F-ordered LU they share. */
typedef struct ShardLU {
    i64 n_lanes;
    void *lanes;  /* (n_lanes,) i64 lane indices, ascending */
    void *lu;     /* (size, size) F-ordered LU block (lu_factor's) */
    void *perm;   /* (size,) i64: row i of P·b is b[perm[i]] */
    void *l_ptr;  /* (size + 1,) i64 column offsets into l_row */
    void *l_row;  /* strict-lower nonzero rows, column by column */
    void *u_ptr;  /* (size + 1,) i64 column offsets into u_row */
    void *u_row;  /* strict-upper nonzero rows, column by column */
} ShardLU;

typedef struct SolverState {
    /* dimensions */
    i64 n_lanes;    /* B */
    i64 size;       /* MNA system size per lane (<= MAX_UNKNOWNS) */
    i64 n_vals;     /* per-lane value-vector length [ieq | sources] */
    i64 n_react;    /* reactive elements per lane (== cs offset) */
    i64 n_scatter;  /* total flat scatter triples (B * per-lane) */
    i64 n_cs;       /* total flat current-source gather length */
    i64 n_vs;       /* voltage-source rows per lane */
    /* back-substitution: the shards partition the lanes */
    i64 n_shards;
    void *shards;   /* (n_shards,) ShardLU */
    /* reactive companion state, (B, n_react) unless noted */
    void *react_g;
    void *react_v;
    void *react_i;
    void *react_sign; /* (n_react,) */
    void *pos_mask;   /* (n_react,) */
    void *neg_mask;   /* (n_react,) */
    void *react_pos;  /* (B*n_react,) flat indices into sol */
    void *react_neg;  /* (B*n_react,) flat indices into sol */
    /* per-step value vector and its source gather */
    void *vals;     /* (B, n_vals) */
    void *base;     /* flattened shared current buffer */
    void *cs_dst;   /* (n_cs,) flat indices into vals */
    void *cs_src;   /* (n_cs,) flat indices into base */
    /* RHS scatter triples (flat across lanes) */
    void *scat_idx;  /* (n_scatter,) flat indices into rhs */
    void *scat_src;  /* (n_scatter,) flat indices into vals */
    void *scat_gain; /* (n_scatter,) */
    /* voltage-source row stamp */
    void *vs_rows;  /* (n_vs,) per-lane row indices */
    void *vs_vals;  /* (B, n_vs) */
    /* solution and RHS blocks, (B, size); rhs keeps the final
     * substep's values for guard forensics */
    void *rhs;
    void *sol;
} SolverState;

/* One getrs update x + -x_k * a, NaN operands included: BLAS's axpy
 * runs y = fma(alpha, x, y), and an x86 FMA returns the NaN of a
 * multiplicand before the addend's, so a NaN multiplier wins over a NaN
 * entry, which wins over a NaN x (the walk over nonzeros leaves NaNs to
 * the full walk, which runs this). */
static inline __attribute__((always_inline)) double
update(double m, double a, double x, int fused) {
    if (isnan(m))
        return m;
    if (isnan(a))
        return a;
    if (isnan(x))
        return x;
    return fused ? fma(m, a, x) : x + m * a;
}

/* One column's updates x_i = x_i + m * col[i] for the entries e in
 * [beg, end): row e itself (`dense`) or rows[e]. */
static inline __attribute__((always_inline)) void
column(const double *col, const i64 *rows, i64 beg, i64 end,
       const double *m, double *x, i64 w, int dense, int fused) {
    for (i64 e = beg; e < end; e++) {
        const i64 i = dense ? e : rows[e];
        const double a = col[i];
        double *xi = x + i * w;
        for (i64 l = 0; l < w; l++)
            xi[l] = dense ? update(m[l], a, xi[l], fused)
                    : fused ? fma(m[l], a, xi[l]) : xi[l] + m[l] * a;
    }
}

/* P·L·U x = b on `w` lanes held lanes-inner in x (row i of lane l at
 * x[i*w + l]), walking the shard's nonzeros or (`dense`) every entry.
 * Always inlined with constant w, dense and fused, so each variant
 * compiles to its own loop nest. */
static inline __attribute__((always_inline)) void
substitute(const ShardLU *sh, i64 n, double *x, i64 w, int dense,
           int fused) {
    const double *lu = (const double *)sh->lu;
    const i64 *l_ptr = (const i64 *)sh->l_ptr;
    const i64 *u_ptr = (const i64 *)sh->u_ptr;
    double m[CHUNK];
    for (i64 k = 0; k < n; k++) {
        for (i64 l = 0; l < w; l++)
            m[l] = -x[k * w + l];
        column(lu + k * n, (const i64 *)sh->l_row,
               dense ? k + 1 : l_ptr[k], dense ? n : l_ptr[k + 1],
               m, x, w, dense, fused);
    }
    for (i64 k = n - 1; k >= 0; k--) {
        const double d = lu[k * n + k];
        double *xk = x + k * w;
        for (i64 l = 0; l < w; l++) {
            xk[l] = xk[l] / d;
            m[l] = -xk[l];
        }
        column(lu + k * n, (const i64 *)sh->u_row,
               dense ? 0 : u_ptr[k], dense ? k : u_ptr[k + 1],
               m, x, w, dense, fused);
    }
}

/* Load the chunk's permuted right-hand sides into x (`nl` lanes of
 * `w`; padding lanes are zero). */
static inline __attribute__((always_inline)) void
load_chunk(const ShardLU *sh, i64 n, const i64 *lanes, i64 nl, i64 w,
           const double *rhs, double *x) {
    const i64 *perm = (const i64 *)sh->perm;
    if (nl < w)
        memset(x, 0, (size_t)(n * w) * sizeof(double));
    for (i64 l = 0; l < nl; l++) {
        const double *b = rhs + lanes[l] * n;
        for (i64 i = 0; i < n; i++)
            x[i * w + l] = b[perm[i]];
    }
}

/* Write the chunk's real lanes into sol; returns whether any value is
 * zero or not finite (the cases a skipped entry can change). */
static inline __attribute__((always_inline)) int
store_chunk(i64 n, const i64 *lanes, i64 nl, i64 w, const double *x,
            double *sol) {
    int redo = 0;
    for (i64 l = 0; l < nl; l++) {
        double *row = sol + lanes[l] * n;
        for (i64 i = 0; i < n; i++) {
            const double v = x[i * w + l];
            const double a = fabs(v);
            redo |= !(a > 0.0 && a <= DBL_MAX);
            row[i] = v;
        }
    }
    return redo;
}

static inline __attribute__((always_inline)) void
solve_chunk(const ShardLU *sh, i64 n, const i64 *lanes, i64 nl, i64 w,
            const double *rhs, double *sol, int fused) {
    double x[MAX_UNKNOWNS * CHUNK];
    load_chunk(sh, n, lanes, nl, w, rhs, x);
    substitute(sh, n, x, w, 0, fused);
    if (store_chunk(n, lanes, nl, w, x, sol)) {
        load_chunk(sh, n, lanes, nl, w, rhs, x);
        substitute(sh, n, x, w, 1, fused);
        store_chunk(n, lanes, nl, w, x, sol);
    }
}

/* Solve every lane: rhs -> sol, shard by shard, chunk by chunk. */
static inline __attribute__((always_inline)) void
solve_lanes(const SolverState *st, int fused) {
    const ShardLU *shards = (const ShardLU *)st->shards;
    const double *rhs = (const double *)st->rhs;
    double *sol = (double *)st->sol;
    const i64 n = st->size;
    for (i64 s = 0; s < st->n_shards; s++) {
        const ShardLU *sh = shards + s;
        const i64 *lanes = (const i64 *)sh->lanes;
        for (i64 c = 0; c < sh->n_lanes; c += CHUNK) {
            const i64 nl = sh->n_lanes - c < CHUNK ? sh->n_lanes - c
                                                   : CHUNK;
            if (nl == 1)
                solve_chunk(sh, n, lanes + c, 1, 1, rhs, sol, fused);
            else
                solve_chunk(sh, n, lanes + c, nl, CHUNK, rhs, sol, fused);
        }
    }
}

/* The fused body is compiled for the FMA instruction set (without it,
 * fma() is a libm call) and picked at run time when the CPU has it; the
 * plain body rounds the product and the sum apart, as BLAS's axpy does
 * on a CPU without FMA. */
#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("fma"))) static void
solve_lanes_fma(const SolverState *st) {
    solve_lanes(st, 1);
}

static void solve_lanes_plain(const SolverState *st) {
    solve_lanes(st, 0);
}

static void solve_all(const SolverState *st) {
    static int has_fma = -1;
    if (has_fma < 0) {
        __builtin_cpu_init();
        has_fma = __builtin_cpu_supports("fma") ? 1 : 0;
    }
    if (has_fma)
        solve_lanes_fma(st);
    else
        solve_lanes_plain(st);
}
#else
static void solve_all(const SolverState *st) {
    solve_lanes(st, 1);
}
#endif

/* Advance every lane `nsub` trapezoidal steps.  NaNs propagate
 * silently, as in the serial solver, and are caught by the solver
 * guard's health proof afterwards. */
void solver_step_n(SolverState *st, i64 nsub) {
    const i64 B = st->n_lanes;
    const i64 SZ = st->size;
    const i64 NV = st->n_vals;
    const i64 R = st->n_react;
    const i64 NVS = st->n_vs;
    double *react_g = (double *)st->react_g;
    double *react_v = (double *)st->react_v;
    double *react_i = (double *)st->react_i;
    double *react_sign = (double *)st->react_sign;
    double *pos_mask = (double *)st->pos_mask;
    double *neg_mask = (double *)st->neg_mask;
    i64 *react_pos = (i64 *)st->react_pos;
    i64 *react_neg = (i64 *)st->react_neg;
    double *vals = (double *)st->vals;
    double *base = (double *)st->base;
    i64 *cs_dst = (i64 *)st->cs_dst;
    i64 *cs_src = (i64 *)st->cs_src;
    i64 *scat_idx = (i64 *)st->scat_idx;
    i64 *scat_src = (i64 *)st->scat_src;
    double *scat_gain = (double *)st->scat_gain;
    i64 *vs_rows = (i64 *)st->vs_rows;
    double *vs_vals = (double *)st->vs_vals;
    double *rhs = (double *)st->rhs;
    double *sol = (double *)st->sol;

    for (i64 sub = 0; sub < nsub; sub++) {
        /* Companion injections ieq = g*v + i land in the head of each
         * lane's value vector (the gather below only writes the
         * source tail, so the head doubles as the ieq scratch for the
         * post-solve state update). */
        for (i64 b = 0; b < B; b++) {
            double *g = react_g + b * R;
            double *v = react_v + b * R;
            double *ci = react_i + b * R;
            double *vb = vals + b * NV;
            for (i64 j = 0; j < R; j++)
                vb[j] = g[j] * v[j] + ci[j];
        }

        /* Shared-current-buffer gather (flat element copies). */
        for (i64 k = 0; k < st->n_cs; k++)
            vals[cs_dst[k]] = base[cs_src[k]];

        /* Gain-weighted scatter into the RHS block, triple order ==
         * bincount's input-order accumulation per index. */
        memset(rhs, 0, (size_t)(B * SZ) * sizeof(double));
        for (i64 k = 0; k < st->n_scatter; k++)
            rhs[scat_idx[k]] += scat_gain[k] * vals[scat_src[k]];

        /* Voltage-source row stamp (constants only on this path). */
        for (i64 b = 0; b < B; b++) {
            double *rb = rhs + b * SZ;
            double *vv = vs_vals + b * NVS;
            for (i64 m = 0; m < NVS; m++)
                rb[vs_rows[m]] = vv[m];
        }

        /* Back-substitute every lane against its shard's LU. */
        solve_all(st);

        /* Reactive-state update: v' across every terminal pair,
         * i' = g*v' + sign*ieq. */
        for (i64 b = 0; b < B; b++) {
            i64 *rp = react_pos + b * R;
            i64 *rn = react_neg + b * R;
            double *g = react_g + b * R;
            double *v = react_v + b * R;
            double *ci = react_i + b * R;
            double *vb = vals + b * NV;
            for (i64 j = 0; j < R; j++) {
                double vn = sol[rp[j]] * pos_mask[j]
                          - sol[rn[j]] * neg_mask[j];
                ci[j] = g[j] * vn + react_sign[j] * vb[j];
                v[j] = vn;
            }
        }
    }
}

/* One guarded co-sim cycle (BatchSolverGuard's clean path) in one call:
 * snapshot the reactive state into `snap` (the v plane, then the i
 * plane: the layout of the Python (2, B, n_react) block), step `nsub`
 * substeps, then run the guard's health proof on every lane.  A sum
 * of squares under limit_sq[b] certifies every entry of the lane's
 * solution row is inside the spike limit; NaN/Inf fail the compare.
 * Returns how many lanes failed the proof. */
i64 solver_step_n_checked(SolverState *st, i64 nsub, double *snap,
                          const double *limit_sq) {
    const i64 B = st->n_lanes;
    const i64 SZ = st->size;
    const size_t plane = (size_t)(B * st->n_react) * sizeof(double);
    memcpy(snap, st->react_v, plane);
    memcpy((char *)snap + plane, st->react_i, plane);
    solver_step_n(st, nsub);
    const double *sol = (const double *)st->sol;
    i64 bad = 0;
    for (i64 b = 0; b < B; b++) {
        const double *row = sol + b * SZ;
        double ss = 0.0;
        for (i64 j = 0; j < SZ; j++)
            ss += row[j] * row[j];
        if (!(ss < limit_sq[b]))
            bad++;
    }
    return bad;
}
