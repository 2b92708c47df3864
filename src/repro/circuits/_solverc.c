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
 *   - the back-substitution calls the very LAPACK dgetrs scipy's
 *     getrs wrapper calls (function pointer extracted from
 *     scipy.linalg.cython_lapack by the Python side), one NRHS=1
 *     solve per lane on the lane's shard LU — same routine, same
 *     operands, same bits.  A hand-rolled P·L·U substitution was
 *     rejected: a blocked BLAS trsm reorders dot-product accumulation,
 *     so only the genuine dgetrs preserves bit-identity with the
 *     serial solver.
 *
 * Index arrays are the solver's flat-view gathers: lane-offset indices
 * into the flattened (B, ...) buffers, precomputed once in Python.
 */

#include <stdint.h>
#include <string.h>

typedef int64_t i64;

/* LAPACK dgetrs, Fortran calling convention: all arguments by
 * reference, pivots 1-based int32, matrices column-major. */
typedef void (*dgetrs_t)(char *trans, int *n, int *nrhs, double *a,
                         int *lda, int *ipiv, double *b, int *ldb,
                         int *info);

typedef struct SolverState {
    /* dimensions */
    i64 n_lanes;    /* B */
    i64 size;       /* MNA system size per lane */
    i64 n_vals;     /* per-lane value-vector length [ieq | sources] */
    i64 n_react;    /* reactive elements per lane (== cs offset) */
    i64 n_scatter;  /* total flat scatter triples (B * per-lane) */
    i64 n_cs;       /* total flat current-source gather length */
    i64 n_vs;       /* voltage-source rows per lane */
    /* LAPACK back-substitution */
    void *dgetrs;   /* dgetrs function pointer */
    void *lu_addr;  /* (B,) i64 addresses of F-ordered shard LU blocks */
    void *piv_addr; /* (B,) i64 addresses of 1-based int32 pivot vectors */
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

/* Advance every lane `nsub` trapezoidal steps.  Returns 0, or
 * -(lane + 1) if dgetrs reports a bad argument for that lane (a
 * wiring bug, not a numerical event — NaNs propagate silently just
 * like the NumPy path and are caught by the solver guard's health
 * proof afterwards). */
i64 solver_step_n(SolverState *st, i64 nsub) {
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
    i64 *lu_addr = (i64 *)st->lu_addr;
    i64 *piv_addr = (i64 *)st->piv_addr;
    dgetrs_t dgetrs = (dgetrs_t)st->dgetrs;
    char trans = 'N';
    int n = (int)SZ;
    int one = 1;

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

        /* Back-substitute each lane in place on its solution row
         * against its shard's LU. */
        for (i64 b = 0; b < B; b++) {
            double *row = sol + b * SZ;
            int info = 0;
            memcpy(row, rhs + b * SZ, (size_t)SZ * sizeof(double));
            dgetrs(&trans, &n, &one, (double *)(void *)lu_addr[b], &n,
                   (int *)(void *)piv_addr[b], row, &n, &info);
            if (info != 0)
                return -(b + 1);
        }

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
    return 0;
}

/* One guarded co-sim cycle (BatchSolverGuard's clean path) in one call:
 * snapshot the reactive state into `snap` (the v plane, then the i
 * plane: the layout of the Python (2, B, n_react) block), step `nsub`
 * substeps, then run the guard's health proof on every lane.  A sum
 * of squares under limit_sq[b] certifies every entry of the lane's
 * solution row is inside the spike limit; NaN/Inf fail the compare.
 * Returns how many lanes failed the proof, or the step's negative
 * error code. */
i64 solver_step_n_checked(SolverState *st, i64 nsub, double *snap,
                          const double *limit_sq) {
    const i64 B = st->n_lanes;
    const i64 SZ = st->size;
    const size_t plane = (size_t)(B * st->n_react) * sizeof(double);
    memcpy(snap, st->react_v, plane);
    memcpy((char *)snap + plane, st->react_i, plane);
    i64 rc = solver_step_n(st, nsub);
    if (rc < 0)
        return rc;
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
