"""Runtime-compiled C kernels (the ``cc`` flavor of ``compiled``).

Three entry points are compiled once per host from the source below
and driven through :mod:`ctypes`:

``newton_step``
    One backward-Euler step: the step constant ``C/dt v_prev`` (plus
    current sources), argument matmul, EKV evaluation, reduced
    assembly, lane-blocked LU solve, damped update and per-sample
    convergence masking, operating on the
    :class:`~repro.spice.backends.maps.ReducedKernelMaps` arrays.
    Every workspace array is batch-last (``rhs[k*nb0 + i]``,
    ``jac[q*nb0 + i]``), so the stamp scatters are contiguous loops.
``lu_solve_lanes``
    The block solve of ``newton_step`` on its own, over batch-last
    systems (for tests).
``transient_be``
    The whole reduced backward-Euler time loop of one transient (known
    columns, trajectory seeding, extrapolation, the ``newton_step``
    call, early decision, probe and state recording) in one call.  The
    active samples are split into contiguous partitions, one per
    thread; each thread runs its partition's whole time loop, since
    every per-step operation is per-sample.  Threads are created and
    joined inside the call, so none outlives it.

Compiled objects are cached on disk keyed by a hash of the source, the
flags, the resolved compiler binary (path, size, mtime) and the host
CPU (model and feature flags), so a shared or copied cache directory
never hands a ``.so`` built by another compiler or for another CPU to
``dlopen``.  The identity is read from the file system only, so a
cached load starts no process.  Flag sets are tried most-aggressive
first, until one compiles and loads.

The EKV softplus/logistic rows and the CLM ``tanh`` row evaluate
``exp``, ``log1p`` and ``tanh`` through glibc's vector math library
(libmvec) at the lane width the target macros allow: 8 lanes with
``__AVX512F__``, 4 with ``__AVX2__``, else a 1-lane wrapper over
scalar libm (:func:`libm_path` reports which).  One ``vmap`` helper
per function pads a row's tail through a lane-sized buffer, so every
sample, the tail included, goes through the same vector routine, and
its value is a pure function of its own argument.  The LU solve runs
at the same lane width, one vector code path for every sample: idle
tail lanes solve ``I x = 0``, partial pivoting swaps rows under a lane
mask (only when some lane needs it), the ``f == 0`` skip is a blend, a
zero pivot re-factors with ``reg`` on the failing lanes only, and
``VFNMA`` is an explicit fused multiply-subtract where the target has
FMA.  ``chunk_size`` and the thread count are not part of the result
cache key, so results must be invariant to batch packing; the padding
and the masks guarantee it without fast-math, which stays excluded
(with ``-Ofast`` the compiler mixes vector lanes and a scalar
remainder loop).  A glibc without the
vector symbols (vector ``log1p``/``tanh`` arrived in 2.35) fails the
``RTLD_NOW`` load, and the ladder builds the scalar flag set.  The
``compiled`` backend additionally self-checks the produced kernel
against the reference numpy kernel on first use, falling back
permanently in the process if the results disagree (see
``compiled.py``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
from typing import Optional, Tuple

import numpy as np

#: Flag sets tried in order until one compiles and loads.  ``-l``
#: entries are link libraries, passed after the source (a linker run
#: with ``--as-needed`` drops a library named before the object).  The
#: first set links glibc's vector libm (libmvec) at the lane width
#: ``-march=native`` allows; the second builds the scalar-libm wrappers.
#: No fast-math anywhere: results must not depend on how samples are
#: packed into batches.
CC_FLAG_SETS = (
    "-O3 -march=native -fno-math-errno -pthread -lmvec",
    "-O2 -pthread",
)

#: libm path of a kernel, by its vector lane width (``libm_lanes()``).
LIBM_PATHS = {8: "mvec-avx512", 4: "mvec-avx2", 1: "scalar"}

#: Unknown-block width ceiling of the stack-allocated LU buffers.
MAX_NU = 32

C_SOURCE = r"""
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <string.h>

#define MAX_NU 32
#define MAX_PARTS 256 /* thread ceiling of one transient_be call */

/* Vector libm: glibc's libmvec at the widest lane count the target
 * macros allow, else a 1-lane wrapper over scalar libm. */
#if defined(__x86_64__) && defined(__AVX512F__)
#include <immintrin.h>
#define LANES 8
typedef double vd __attribute__((vector_size(64)));
vd _ZGVeN8v_exp(vd);
vd _ZGVeN8v_log1p(vd);
vd _ZGVeN8v_tanh(vd);
#define VEXP _ZGVeN8v_exp
#define VLOG1P _ZGVeN8v_log1p
#define VTANH _ZGVeN8v_tanh
#elif defined(__x86_64__) && defined(__AVX2__)
#include <immintrin.h>
#define LANES 4
typedef double vd __attribute__((vector_size(32)));
vd _ZGVdN4v_exp(vd);
vd _ZGVdN4v_log1p(vd);
vd _ZGVdN4v_tanh(vd);
#define VEXP _ZGVdN4v_exp
#define VLOG1P _ZGVdN4v_log1p
#define VTANH _ZGVdN4v_tanh
#else
#define LANES 1
typedef double vd;
#define VEXP exp
#define VLOG1P log1p
#define VTANH tanh
#endif

int64_t libm_lanes(void) { return LANES; }

/* y[i] = f(x[i]) for i < n (x == y allowed).  The row tail is padded
 * through a lane-sized buffer, so every element goes through the same
 * vector routine and its value depends on its own argument only. */
#define VMAP(name, f)                                                   \
    static void name(const double* x, double* y, int64_t n)             \
    {                                                                   \
        vd a;                                                           \
        int64_t i = 0;                                                  \
        for (; i + LANES <= n; i += LANES) {                            \
            memcpy(&a, x + i, sizeof a);                                \
            a = f(a);                                                   \
            memcpy(y + i, &a, sizeof a);                                \
        }                                                               \
        if (i < n) {                                                    \
            double buf[LANES] = {0.0};                                  \
            memcpy(buf, x + i, (n - i) * sizeof(double));               \
            memcpy(&a, buf, sizeof a);                                  \
            a = f(a);                                                   \
            memcpy(buf, &a, sizeof a);                                  \
            memcpy(y + i, buf, (n - i) * sizeof(double));               \
        }                                                               \
    }
VMAP(vmap_exp, VEXP)
VMAP(vmap_log1p, VLOG1P)
VMAP(vmap_tanh, VTANH)

/* Lane arithmetic of the block LU: LANES samples side by side, one
 * vector code path for every sample.  Comparisons give all-ones/zero
 * lane masks and blends select per lane, so no lane's value depends on
 * another lane's.  VFNMA(a, b, c) is c - a*b with one rounding where
 * the target has FMA (an explicit contraction, the same in every
 * lane), else a multiply and a subtract. */
#if LANES > 1
typedef int64_t vm __attribute__((vector_size(LANES * 8)));
#define VGT(a, b) ((a) > (b))
#define VEQ(a, b) ((a) == (b))
#define VNE(a, b) ((a) != (b))
static inline vd vsel(vm m, vd x, vd y)
{
    return (vd) (((vm) x & m) | ((vm) y & ~m));
}
static inline vd vsplat(double x)
{
    vd r;
    for (int l = 0; l < LANES; l++) r[l] = x;
    return r;
}
static inline vd vabs(vd x)
{
    vm m;
    for (int l = 0; l < LANES; l++) m[l] = INT64_MAX;
    return (vd) ((vm) x & m);
}
#else
typedef int64_t vm;
#define VGT(a, b) (-(vm) ((a) > (b)))
#define VEQ(a, b) (-(vm) ((a) == (b)))
#define VNE(a, b) (-(vm) ((a) != (b)))
static inline vd vsel(vm m, vd x, vd y) { return m ? x : y; }
static inline vd vsplat(double x) { return x; }
static inline vd vabs(vd x) { return fabs(x); }
#endif
#if LANES == 8
#define VFNMA(a, b, c) _mm512_fnmadd_pd((a), (b), (c))
#elif LANES == 4 && defined(__FMA__)
#define VFNMA(a, b, c) _mm256_fnmadd_pd((a), (b), (c))
#elif LANES == 1 && defined(__FP_FAST_FMA)
#define VFNMA(a, b, c) __builtin_fma(-(a), (b), (c))
#else
#define VFNMA(a, b, c) ((c) - (a) * (b))
#endif

/* Bit l set when lane l of m is set. */
static inline unsigned vbits(vm m)
{
#if LANES == 8
    return _mm512_test_epi64_mask((__m512i) m, (__m512i) m);
#elif LANES == 4
    return _mm256_movemask_pd((__m256d) m);
#else
    return m != 0;
#endif
}

/* Partial-pivot LU solve of LANES systems at once: A holds nu*nu
 * row-major lane vectors and b nu; b receives the solutions.  Per lane
 * this is the scalar algorithm: first-maximum pivot search, a row swap
 * where the pivot row differs (masked, and run only when some lane
 * needs one), the f == 0 skip as a blend.  Returns the lanes that met
 * a zero pivot (their b is garbage); *swapped gains the lanes that
 * swapped a row. */
static inline __attribute__((always_inline)) vm lu_lanes(
    vd* A, vd* b, int64_t nu, vm* swapped)
{
    vm fail = {0};
    for (int64_t k = 0; k < nu; k++) {
        vd* Ak = A + k * nu;
        vd best = vabs(Ak[k]);
        vd piv = vsplat((double) k);
        for (int64_t r = k + 1; r < nu; r++) {
            vd m = vabs(A[r * nu + k]);
            vm gt = VGT(m, best);
            best = vsel(gt, m, best);
            piv = vsel(gt, vsplat((double) r), piv);
        }
        fail |= VEQ(best, vsplat(0.0));
        vm need = VNE(piv, vsplat((double) k));
        if (vbits(need)) {
            *swapped |= need;
            for (int64_t r = k + 1; r < nu; r++) {
                vm s = VEQ(piv, vsplat((double) r));
                if (!vbits(s)) continue;
                vd* Ar = A + r * nu;
                for (int64_t c = k; c < nu; c++) {
                    vd t = Ak[c];
                    Ak[c] = vsel(s, Ar[c], t);
                    Ar[c] = vsel(s, t, Ar[c]);
                }
                vd t = b[k];
                b[k] = vsel(s, b[r], t);
                b[r] = vsel(s, t, b[r]);
            }
        }
        vd inv = vsplat(1.0) / Ak[k];
        for (int64_t r = k + 1; r < nu; r++) {
            vd* Ar = A + r * nu;
            vd f = Ar[k] * inv;
            vm nz = VNE(f, vsplat(0.0));
            for (int64_t c = k + 1; c < nu; c++)
                Ar[c] = vsel(nz, VFNMA(f, Ak[c], Ar[c]), Ar[c]);
            b[r] = vsel(nz, VFNMA(f, b[k], b[r]), b[r]);
        }
    }
    for (int64_t k = nu - 1; k >= 0; k--) {
        vd x = b[k];
        for (int64_t c = k + 1; c < nu; c++)
            x = VFNMA(A[k * nu + c], b[c], x);
        b[k] = x / A[k * nu + k];
    }
    return fail;
}

/* Lanes 0..w-1 from p, the idle tail lanes set to pad. */
static inline vd lane_load(const double* p, int64_t w, double pad)
{
    vd a;
    if (w == LANES) {
        memcpy(&a, p, sizeof a);
        return a;
    }
    double buf[LANES];
    for (int64_t l = 0; l < LANES; l++) buf[l] = (l < w) ? p[l] : pad;
    memcpy(&a, buf, sizeof a);
    return a;
}

/* Lane vectors of the systems at the head of the batch-last jac and
 * rhs: A (nu*nu) and b (nu); idle tail lanes hold I x = 0. */
static inline void load_block(vd* A, vd* b, const double* jac,
                              const double* rhs, int64_t nb0, int64_t w,
                              int64_t nu)
{
    for (int64_t r = 0; r < nu; r++) {
        for (int64_t c = 0; c < nu; c++)
            A[r * nu + c] = lane_load(jac + (r * nu + c) * nb0, w,
                                      (r == c) ? 1.0 : 0.0);
        b[r] = lane_load(rhs + r * nb0, w, 0.0);
    }
}

/* Solve the w <= LANES systems at the head of the batch-last jac
 * (nu*nu, nb0) and rhs (nu, nb0) into xs, lane-minor (xs[k*LANES + l]
 * is unknown k of system l); idle tail lanes solve I x = 0.  Lanes that meet a zero pivot are re-factored
 * with reg added to their diagonal (the other lanes recompute the same
 * bits).  Returns the leading lanes solved: w, or the first lane that
 * is singular even bumped.  counts[0] gains the bumped lanes, counts[1]
 * the lanes that swapped a row or were bumped, both up to that lane. */
static int64_t solve_block(const double* jac, const double* rhs,
                           int64_t nb0, int64_t w, int64_t nu, double reg,
                           double* xs, int64_t* counts)
{
    vd A[MAX_NU * MAX_NU], x[MAX_NU];
    load_block(A, x, jac, rhs, nb0, w, nu);
    vm swapped = {0};
    vm fail = lu_lanes(A, x, nu, &swapped);
    unsigned bumped = vbits(fail), lanes = (1u << w) - 1;
    int64_t done = w;
    if (bumped) {
        load_block(A, x, jac, rhs, nb0, w, nu);
        for (int64_t k = 0; k < nu; k++)
            A[k * nu + k] = vsel(fail, A[k * nu + k] + vsplat(reg),
                                 A[k * nu + k]);
        unsigned worse = vbits(lu_lanes(A, x, nu, &swapped)) & bumped;
        if (worse) {
            done = __builtin_ctz(worse);
            lanes = (2u << done) - 1;
        }
    }
    counts[0] += __builtin_popcount(bumped & lanes);
    counts[1] += __builtin_popcount((bumped | vbits(swapped)) & lanes);
    memcpy(xs, x, nu * sizeof(vd));
    return done;
}

/* Solve nb batch-last systems, jac (nu*nu, nb0) x = rhs (nu, nb0), as
 * newton_step does, into x (nu, nb0).  Returns 0, or -2 when a system
 * is singular even bumped (x then holds the systems before it);
 * counts[0] gains the bumped systems, counts[1] those that swapped a
 * row or were bumped. */
int64_t lu_solve_lanes(const double* jac, const double* rhs, double* x,
                       int64_t nb, int64_t nb0, int64_t nu, double reg,
                       int64_t* counts)
{
    for (int64_t i0 = 0; i0 < nb; i0 += LANES) {
        const int64_t w = (nb - i0 < LANES) ? nb - i0 : LANES;
        double xs[MAX_NU * LANES];
        int64_t done = solve_block(jac + i0, rhs + i0, nb0, w, nu, reg, xs,
                                   counts);
        for (int64_t k = 0; k < nu; k++)
            for (int64_t l = 0; l < done; l++)
                x[k * nb0 + i0 + l] = xs[k * LANES + l];
        if (done < w) return -2;
    }
    return 0;
}

/* One backward-Euler Newton solve for the samples listed in active.
 * noinline: the fused transient calls this very function, so the
 * stepped and the fused paths run the same machine code per step. */
__attribute__((noinline)) int64_t newton_step(
    double* v, const double* v_prev, const int64_t* active, int64_t na,
    const double* Cdt_u, const double* isrc, int64_t iw,
    const double* carg, int64_t cw,
    const double* M, const double* negA_u, const double* A_uu,
    const int64_t* u_idx,
    const int64_t* fs_idx, const double* fs_coef,
    const int64_t* js_idx, const double* js_coef, int64_t js_w,
    const double* dev_c, const double* scal,
    int64_t n, int64_t nu, int64_t nd, int64_t max_iter,
    double* work, int64_t* alive, int64_t* counts)
{
    const double inv_phit = scal[0], exp_clip = scal[1], vtol = scal[2],
                 max_step = scal[3], reg = scal[4];
    const double* thetaphit = dev_c;
    const double* theta_nphit = dev_c + nd;
    const double* inv_n = dev_c + 2 * nd;
    const double* lam = dev_c + 3 * nd;
    const double* lam2phit = dev_c + 4 * nd;
    const int64_t nb0 = na;
    /* carve the caller-provided workspace; every array is batch-last */
    double* vt   = work;               /* (n, nb0) gathered voltages */
    double* arg  = vt + n * nb0;       /* (4nd, nb0) model arguments */
    double* e    = arg + 4 * nd * nb0; /* (3nd, nb0) exp(-|x|) */
    double* sp   = e + 3 * nd * nb0;   /* (3nd, nb0) softplus */
    double* lg   = sp + 3 * nd * nb0;  /* (3nd, nb0) logistic */
    double* th   = lg + 3 * nd * nb0;  /* (nd, nb0) tanh(x_t) */
    double* idv  = th + nd * nb0;      /* (nd, nb0) normalised i_d */
    double* st   = idv + nd * nb0;     /* (3nd, nb0) gm/gd/gs stamps */
    double* rhs  = st + 3 * nd * nb0;  /* (nu, nb0) */
    double* jac  = rhs + nu * nb0;     /* (nu*nu, nb0) */
    double* sc   = jac + nu * nu * nb0; /* (nu, nb0) step constant */

    /* step constant C/dt v_prev (+ source currents), per active sample;
     * alive holds positions into active */
    for (int64_t i = 0; i < na; i++) {
        const double* vp = v_prev + active[i] * n;
        for (int64_t k = 0; k < nu; k++) {
            const double* Ck = Cdt_u + k * n;
            double acc = 0.0;
            for (int64_t j = 0; j < n; j++) {
                double c = Ck[j];
                if (c == 0.0) continue;
                acc += c * vp[j];
            }
            sc[k * nb0 + i] = acc;
        }
        if (iw > 0) {
            const double* is = isrc + (iw == 1 ? 0 : active[i]) * nu;
            for (int64_t k = 0; k < nu; k++) sc[k * nb0 + i] += is[k];
        }
        alive[i] = i;
    }
    int64_t nb = na;
    int64_t depth = 0, sample_iters = 0, status = 0;
    int64_t lu_counts[2] = {0, 0}; /* bumped, swapped or bumped lanes */

    while (nb > 0 && depth < max_iter) {
        depth++;
        sample_iters += nb;
        /* gather the active rows of v, batch-last: vt[j,i] = v[s_i,j] */
        for (int64_t i = 0; i < nb; i++) {
            const double* vs = v + active[alive[i]] * n;
            for (int64_t j = 0; j < n; j++) vt[j * nb0 + i] = vs[j];
        }
        /* arg = M @ vt (+ carg on the first 3nd rows) */
        for (int64_t r = 0; r < 4 * nd; r++) {
            double* ar = arg + r * nb0;
            const double* Mr = M + r * n;
            for (int64_t i = 0; i < nb; i++) ar[i] = 0.0;
            for (int64_t j = 0; j < n; j++) {
                double c = Mr[j];
                if (c == 0.0) continue;
                const double* vj = vt + j * nb0;
                for (int64_t i = 0; i < nb; i++) ar[i] += c * vj[i];
            }
        }
        if (cw == 1) {
            for (int64_t r = 0; r < 3 * nd; r++) {
                double c = carg[r];
                double* ar = arg + r * nb0;
                for (int64_t i = 0; i < nb; i++) ar[i] += c;
            }
        } else {
            for (int64_t r = 0; r < 3 * nd; r++) {
                const double* cr = carg + r * cw;
                double* ar = arg + r * nb0;
                for (int64_t i = 0; i < nb; i++)
                    ar[i] += cr[active[alive[i]]];
            }
        }
        /* numerically-stable softplus + logistic on the EKV rows */
        for (int64_t r = 0; r < 3 * nd; r++) {
            const double* x = arg + r * nb0;
            double* er = e + r * nb0;
            double* spr = sp + r * nb0;
            double* lgr = lg + r * nb0;
            for (int64_t i = 0; i < nb; i++) er[i] = -fabs(x[i]);
            vmap_exp(er, er, nb);
            vmap_log1p(er, spr, nb);
            for (int64_t i = 0; i < nb; i++) {
                double xi = x[i], ei = er[i];
                if (xi > 0.0) spr[i] += xi;
                double den = 1.0 + ei;
                lgr[i] = (xi >= 0.0) ? 1.0 / den : ei / den;
            }
        }
        /* clipped tanh on the CLM row */
        for (int64_t j = 0; j < nd; j++) {
            const double* xt = arg + (3 * nd + j) * nb0;
            double* tr = th + j * nb0;
            for (int64_t i = 0; i < nb; i++) {
                double t = xt[i];
                if (t > exp_clip) t = exp_clip;
                if (t < -exp_clip) t = -exp_clip;
                tr[i] = t;
            }
            vmap_tanh(tr, tr, nb);
        }
        /* EKV core + mobility degradation + CLM, currents and stamps */
        for (int64_t j = 0; j < nd; j++) {
            const double* spf = sp + j * nb0;
            const double* spr_ = sp + (nd + j) * nb0;
            const double* spo = sp + (2 * nd + j) * nb0;
            const double* lgf = lg + j * nb0;
            const double* lgr_ = lg + (nd + j) * nb0;
            const double* lgo = lg + (2 * nd + j) * nb0;
            const double* xt = arg + (3 * nd + j) * nb0;
            const double* tr = th + j * nb0;
            double* idj = idv + j * nb0;
            double* gm = st + j * nb0;
            double* gd = st + (nd + j) * nb0;
            double* gs = st + (2 * nd + j) * nb0;
            double tp = thetaphit[j], tnp = theta_nphit[j],
                   inj = inv_n[j], lj = lam[j], l2p = lam2phit[j];
            for (int64_t i = 0; i < nb; i++) {
                double ff = spf[i] * spf[i];
                double fr = spr_[i] * spr_[i];
                double core = ff - fr;
                double degr = 1.0 + tnp * spo[i];
                double t = tr[i];
                double clm = 1.0 + l2p * xt[i] * t;
                double dclm = lj * (t + xt[i] * (1.0 - t * t));
                idj[i] = core * clm / degr;
                double dff = spf[i] * lgf[i];
                double dfr = spr_[i] * lgr_[i];
                double pre = clm / degr * inv_phit;
                double q = core * tp * lgo[i] / degr;
                double cd = core * dclm / degr;
                gm[i] = ((dff - dfr) * inj - q) * pre;
                gd[i] = dfr * pre + cd;
                gs[i] = dff * pre + cd;
            }
        }
        /* rhs = step_const + negA_u @ v + device-current scatter */
        for (int64_t k = 0; k < nu; k++) {
            const double* sck = sc + k * nb0;
            double* rk = rhs + k * nb0;
            for (int64_t i = 0; i < nb; i++) rk[i] = sck[alive[i]];
        }
        for (int64_t k = 0; k < nu; k++) {
            const double* Ak = negA_u + k * n;
            double* rk = rhs + k * nb0;
            for (int64_t j = 0; j < n; j++) {
                double c = Ak[j];
                if (c == 0.0) continue;
                const double* vj = vt + j * nb0;
                for (int64_t i = 0; i < nb; i++) rk[i] += c * vj[i];
            }
        }
        for (int64_t j = 0; j < nd; j++) {
            const double* idj = idv + j * nb0;
            for (int64_t t = 0; t < 2; t++) {
                double c = fs_coef[j * 2 + t];
                if (c == 0.0) continue;
                double* rk = rhs + fs_idx[j * 2 + t] * nb0;
                for (int64_t i = 0; i < nb; i++) rk[i] += c * idj[i];
            }
        }
        /* jac = A_uu + stamp scatter */
        for (int64_t q = 0; q < nu * nu; q++) {
            double* jq = jac + q * nb0;
            const double aq = A_uu[q];
            for (int64_t i = 0; i < nb; i++) jq[i] = aq;
        }
        for (int64_t r = 0; r < 3 * nd; r++) {
            const double* sr = st + r * nb0;
            for (int64_t t = 0; t < js_w; t++) {
                double c = js_coef[r * js_w + t];
                if (c == 0.0) continue;
                double* jq = jac + js_idx[r * js_w + t] * nb0;
                for (int64_t i = 0; i < nb; i++) jq[i] += c * sr[i];
            }
        }
        /* lane-blocked LU solve + damped update + masking */
        int64_t keep = 0;
        for (int64_t i0 = 0; i0 < nb; i0 += LANES) {
            const int64_t w = (nb - i0 < LANES) ? nb - i0 : LANES;
            double xs[MAX_NU * LANES];
            int64_t done = solve_block(jac + i0, rhs + i0, nb0, w, nu, reg,
                                       xs, lu_counts);
            for (int64_t l = 0; l < done; l++) {
                const int64_t i = i0 + l;
                double maxstep = 0.0;
                double* vs = v + active[alive[i]] * n;
                for (int64_t k = 0; k < nu; k++) {
                    double d = xs[k * LANES + l];
                    if (d > max_step) d = max_step;
                    if (d < -max_step) d = -max_step;
                    vs[u_idx[k]] += d;
                    double m = fabs(d);
                    if (m > maxstep) maxstep = m;
                }
                if (maxstep >= vtol) alive[keep++] = alive[i];
            }
            if (done < w) {
                status = -2; /* singular even bumped */
                break;
            }
        }
        if (status != 0) break;
        nb = keep;
    }
    counts[0] = depth;
    counts[1] = sample_iters;
    counts[2] = lu_counts[0];
    counts[3] = lu_counts[1];
    if (status != 0) return status;
    return (nb > 0) ? -1 : 0;
}

/* The whole reduced backward-Euler loop of one transient.  Samples are
 * split into contiguous row ranges (partitions), one per thread; every
 * per-step operation is per-sample, so a partition runs its whole time
 * loop without synchronising with the others. */
typedef struct {
    /* system operators, exactly as newton_step takes them */
    const double *Cdt_u, *carg, *M, *negA_u, *A_uu, *fs_coef, *js_coef,
                 *dev_c, *scal;
    const int64_t *u_idx, *fs_idx, *js_idx;
    int64_t cw, js_w, n, nu, nd, max_iter;
    /* the run */
    int64_t batch, n_steps;
    const double* table;      /* (n_steps+1, batch, nk) known voltages */
    const int64_t* known; int64_t nk;
    const double* isrc; int64_t iw; /* (n_steps+1, iw, nu) */
    const double* traj; int64_t traj_len, traj_step; double gate;
    int64_t extrapolate;
    int64_t dec_a, dec_b, dec_from; double dec_thr; /* dec_a < 0: off */
    const uint8_t* active;    /* (batch,) initially active samples */
    uint8_t* decided;         /* (batch,) out */
    double* hist; int64_t hist_len; /* (hist_len, batch, n) ring */
    double* probes; const int64_t* pcols; int64_t npr;
                              /* (npr, n_steps+1, batch) */
    double* work; int64_t wrow; /* per-sample workspace stride */
    int64_t *alive, *act;     /* (batch,) scratch */
    int64_t* stats;           /* (parts, 7, n_steps+1) per-step stats */
    int64_t* result;          /* (parts, 2): last step run, status */
    int64_t stop_step;        /* earliest failed step (atomic) */
} Run;

typedef struct { Run* run; int64_t part, lo, hi; } Part;

static void record_probes(const Run* R, const double* v, int64_t step,
                          int64_t lo, int64_t hi)
{
    const int64_t T = R->n_steps + 1;
    for (int64_t p = 0; p < R->npr; p++) {
        double* out = R->probes + (p * T + step) * R->batch;
        const int64_t c = R->pcols[p];
        for (int64_t s = lo; s < hi; s++) out[s] = v[s * R->n + c];
    }
}

static void* run_partition(void* arg)
{
    const Part* pt = (const Part*) arg;
    Run* R = pt->run;
    const int64_t n = R->n, nu = R->nu, B = R->batch, T = R->n_steps + 1;
    const int64_t lo = pt->lo, hi = pt->hi, HL = R->hist_len;
    const int64_t* u = R->u_idx;
    int64_t* act = R->act + lo;
    int64_t na = 0;
    for (int64_t s = lo; s < hi; s++)
        if (R->active[s]) act[na++] = s;
    int64_t* st = R->stats + pt->part * 7 * T;
    int64_t steps = 0, status = 0;
    for (int64_t step = 1; step <= R->n_steps; step++) {
        if (na == 0) break;
        if (step > __atomic_load_n(&R->stop_step, __ATOMIC_RELAXED)) break;
        double* vn = R->hist + (step % HL) * B * n;
        const double* vp = R->hist + ((step - 1) % HL) * B * n;
        const double* vp2 = (step >= 2)
            ? R->hist + ((step - 2) % HL) * B * n : NULL;
        const double* tab = R->table + step * B * R->nk;
        const int has_traj = step < R->traj_len;
        const double* tn = has_traj ? R->traj + step * R->traj_step : NULL;
        const double* tb = has_traj ? tn - R->traj_step : NULL;
        int64_t k = 0, seeds = 0;
        /* Newton guess: previous state, known columns from the table,
         * unknowns seeded from the trajectory or extrapolated */
        for (int64_t s = lo; s < hi; s++) {
            double* dst = vn + s * n;
            const double* src = vp + s * n;
            memcpy(dst, src, n * sizeof(double));
            if (k >= na || act[k] != s) continue;
            k++;
            for (int64_t c = 0; c < R->nk; c++)
                dst[R->known[c]] = tab[s * R->nk + c];
            int seeded = 0;
            if (has_traj) {
                double worst = 0.0;
                int nan = 0;
                for (int64_t j = 0; j < nu; j++) {
                    double m = fabs(tb[s * n + u[j]] - src[u[j]]);
                    if (m != m) { nan = 1; break; }
                    if (m > worst) worst = m;
                }
                if (!nan && worst <= R->gate) {
                    seeded = 1;
                    seeds++;
                    for (int64_t j = 0; j < nu; j++)
                        dst[u[j]] = src[u[j]]
                            + (tn[s * n + u[j]] - tb[s * n + u[j]]);
                }
            }
            if (!seeded && R->extrapolate && vp2 != NULL) {
                const double* src2 = vp2 + s * n;
                for (int64_t j = 0; j < nu; j++)
                    dst[u[j]] = 2.0 * src[u[j]] - src2[u[j]];
            }
        }
        if (has_traj) {
            st[4 * T + step] = seeds;
            st[5 * T + step] = na - seeds;
        }
        int64_t counts[4];
        const double* isrc = R->isrc + step * R->iw * nu;
        int64_t rc = newton_step(
            vn, vp, act, na, R->Cdt_u, isrc, R->iw, R->carg, R->cw, R->M,
            R->negA_u, R->A_uu, u, R->fs_idx, R->fs_coef, R->js_idx,
            R->js_coef, R->js_w, R->dev_c, R->scal, n, nu, R->nd,
            R->max_iter, R->work + lo * R->wrow, R->alive + lo, counts);
        st[step] = counts[0];
        st[T + step] = na;
        st[2 * T + step] = counts[1];
        st[3 * T + step] = counts[2];
        st[6 * T + step] = counts[3];
        steps = step;
        if (rc != 0) {
            status = rc;
            int64_t seen = __atomic_load_n(&R->stop_step, __ATOMIC_RELAXED);
            while (step < seen && !__atomic_compare_exchange_n(
                       &R->stop_step, &seen, step, 0, __ATOMIC_RELAXED,
                       __ATOMIC_RELAXED)) {}
            break;
        }
        record_probes(R, vn, step, lo, hi);
        if (R->dec_a >= 0 && step >= R->dec_from) {
            int64_t keep = 0;
            for (int64_t i = 0; i < na; i++) {
                const double* vs = vn + act[i] * n;
                if (fabs(vs[R->dec_a] - vs[R->dec_b]) >= R->dec_thr)
                    R->decided[act[i]] = 1;
                else
                    act[keep++] = act[i];
            }
            na = keep;
        }
    }
    R->result[pt->part * 2] = steps;
    R->result[pt->part * 2 + 1] = status;
    return NULL;
}

/* Returns 0, or the newton_step status of the earliest failed step;
 * result[0] receives the number of steps run. */
int64_t transient_be(
    double* hist, int64_t hist_len, double* probes, const int64_t* pcols,
    int64_t npr, const double* table, const int64_t* known, int64_t nk,
    const double* isrc, int64_t iw, const double* traj, int64_t traj_len,
    int64_t traj_step, double gate, int64_t extrapolate,
    int64_t dec_a, int64_t dec_b, int64_t dec_from, double dec_thr,
    const uint8_t* active, uint8_t* decided, int64_t batch, int64_t n_steps,
    const double* Cdt_u, const double* carg, int64_t cw,
    const double* M, const double* negA_u, const double* A_uu,
    const int64_t* u_idx,
    const int64_t* fs_idx, const double* fs_coef,
    const int64_t* js_idx, const double* js_coef, int64_t js_w,
    const double* dev_c, const double* scal,
    int64_t n, int64_t nu, int64_t nd, int64_t max_iter,
    double* work, int64_t wrow, int64_t* alive, int64_t* act,
    int64_t parts, int64_t* stats, int64_t* result)
{
    Run R = {
        .Cdt_u = Cdt_u, .carg = carg, .M = M, .negA_u = negA_u,
        .A_uu = A_uu, .fs_coef = fs_coef, .js_coef = js_coef,
        .dev_c = dev_c, .scal = scal, .u_idx = u_idx, .fs_idx = fs_idx,
        .js_idx = js_idx, .cw = cw, .js_w = js_w, .n = n, .nu = nu,
        .nd = nd, .max_iter = max_iter, .batch = batch,
        .n_steps = n_steps, .table = table, .known = known, .nk = nk,
        .isrc = isrc, .iw = iw, .traj = traj, .traj_len = traj_len,
        .traj_step = traj_step, .gate = gate, .extrapolate = extrapolate,
        .dec_a = dec_a, .dec_b = dec_b, .dec_from = dec_from,
        .dec_thr = dec_thr,
        .active = active, .decided = decided, .hist = hist,
        .hist_len = hist_len, .probes = probes, .pcols = pcols,
        .npr = npr, .work = work, .wrow = wrow, .alive = alive,
        .act = act, .stats = stats, .result = result + 1,
        .stop_step = n_steps + 1};
    if (parts < 1) parts = 1;
    if (parts > MAX_PARTS) parts = MAX_PARTS;
    /* contiguous row ranges holding equal shares of the active samples */
    int64_t na = 0;
    for (int64_t s = 0; s < batch; s++) na += active[s] != 0;
    Part pts[MAX_PARTS];
    pthread_t tids[MAX_PARTS];
    int started[MAX_PARTS];
    int64_t seen = 0, s = 0;
    for (int64_t p = 0; p < parts; p++) {
        int64_t first = p * na / parts;
        while (seen < first) {
            if (active[s]) seen++;
            s++;
        }
        pts[p].lo = (p == 0) ? 0 : s;
        pts[p].run = &R;
        pts[p].part = p;
    }
    for (int64_t p = 0; p < parts; p++)
        pts[p].hi = (p + 1 < parts) ? pts[p + 1].lo : batch;
    record_probes(&R, hist, 0, 0, batch);
    for (int64_t p = 1; p < parts; p++)
        started[p] = pthread_create(&tids[p], NULL, run_partition,
                                    &pts[p]) == 0;
    run_partition(&pts[0]);
    for (int64_t p = 1; p < parts; p++) {
        if (started[p]) pthread_join(tids[p], NULL);
        else run_partition(&pts[p]);
    }
    /* earliest failure wins; otherwise freeze finished partitions */
    int64_t steps_run = 0, status = 0, fail_step = n_steps + 1;
    for (int64_t p = 0; p < parts; p++) {
        int64_t ps = R.result[p * 2], pst = R.result[p * 2 + 1];
        if (pst != 0 && ps < fail_step) { fail_step = ps; status = pst; }
        if (ps > steps_run) steps_run = ps;
    }
    if (status != 0) {
        result[0] = fail_step;
        return status;
    }
    const int64_t B = batch;
    for (int64_t p = 0; p < parts; p++) {
        for (int64_t step = R.result[p * 2] + 1; step <= steps_run; step++) {
            double* vn = hist + (step % hist_len) * B * n;
            const double* vp = hist + ((step - 1) % hist_len) * B * n;
            memcpy(vn + pts[p].lo * n, vp + pts[p].lo * n,
                   (pts[p].hi - pts[p].lo) * n * sizeof(double));
            record_probes(&R, vn, step, pts[p].lo, pts[p].hi);
        }
    }
    result[0] = steps_run;
    return 0;
}
"""


def compiler_available() -> bool:
    """True when a ``cc`` executable is on PATH."""
    return shutil.which("cc") is not None


def libm_path(lib) -> str:
    """How ``lib`` evaluates exp/log1p/tanh: a ``LIBM_PATHS`` value."""
    return LIBM_PATHS[int(lib.libm_lanes())]


def _cache_dir() -> str:
    base = os.environ.get("REPRO_CACHE_DIR")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.path.join(base, "cc-kernels")


def _compiler_identity() -> str:
    """Resolved ``cc`` binary as ``path:size:mtime_ns`` (no process)."""
    path = shutil.which("cc")
    if path is None:
        return "none"
    real = os.path.realpath(path)
    info = os.stat(real)
    return f"{real}:{info.st_size}:{info.st_mtime_ns}"


def _cpu_identity() -> str:
    """Host CPU model and feature flags (what ``-march=native`` sees)."""
    fields = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8",
                  errors="replace") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "flags", "Features",
                           "CPU part") and key not in fields:
                    fields[key] = value.strip()
                if not line.strip() and fields:
                    break  # the first processor block is enough
    except OSError:
        pass
    return "|".join([platform.machine()]
                    + [f"{k}={v}" for k, v in sorted(fields.items())])


def so_path(flags: str, directory: str) -> str:
    """Cache path of the kernel built with ``flags`` on this host."""
    key = "\0".join((C_SOURCE, flags, _compiler_identity(),
                      _cpu_identity()))
    tag = hashlib.sha256(key.encode()).hexdigest()[:16]
    return os.path.join(directory, f"newton_step_{tag}.so")


def _setup_argtypes(lib) -> None:
    ptr_f = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ptr_i = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    ptr_b = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    operators = [
        ptr_f, ptr_f, ptr_f,        # M, negA_u, A_uu
        ptr_i,                      # u_idx
        ptr_i, ptr_f,               # fs_idx, fs_coef
        ptr_i, ptr_f, i64,          # js_idx, js_coef, js_w
        ptr_f, ptr_f,               # dev_c, scal
        i64, i64, i64, i64,         # n, nu, nd, max_iter
    ]
    lib.libm_lanes.restype = ctypes.c_int64
    lib.libm_lanes.argtypes = []
    lib.newton_step.restype = ctypes.c_int64
    lib.newton_step.argtypes = [
        ptr_f, ptr_f, ptr_i, i64,   # v, v_prev, active, na
        ptr_f, ptr_f, i64,          # Cdt_u, isrc, iw
        ptr_f, i64,                 # carg, cw
    ] + operators + [
        ptr_f, ptr_i, ptr_i,        # work, alive, counts
    ]
    lib.lu_solve_lanes.restype = ctypes.c_int64
    lib.lu_solve_lanes.argtypes = [
        ptr_f, ptr_f, ptr_f,        # jac, rhs, x
        i64, i64, i64, f64,         # nb, nb0, nu, reg
        ptr_i,                      # counts
    ]
    lib.transient_be.restype = ctypes.c_int64
    lib.transient_be.argtypes = [
        ptr_f, i64, ptr_f, ptr_i, i64,  # hist, hist_len, probes, pcols, npr
        ptr_f, ptr_i, i64,          # table, known, nk
        ptr_f, i64,                 # isrc, iw
        ctypes.c_void_p, i64, i64,  # traj, traj_len, traj_step
        f64, i64,                   # gate, extrapolate
        i64, i64, i64, f64,         # dec_a, dec_b, dec_from, dec_thr
        ptr_b, ptr_b, i64, i64,     # active, decided, batch, n_steps
        ptr_f, ptr_f, i64,          # Cdt_u, carg, cw
    ] + operators + [
        ptr_f, i64, ptr_i, ptr_i,   # work, wrow, alive, act
        i64, ptr_i, ptr_i,          # parts, stats, result
    ]


def _compile(flags: str, directory: str) -> Tuple[Optional[object], float,
                                                  bool]:
    """Compile (or reuse) the kernels for one flag set.

    Returns ``(lib, compile_ms, compiled_now)`` — ``lib`` is ``None``
    when this flag set does not build on the host.
    """
    so = so_path(flags, directory)
    compile_ms = 0.0
    compiled_now = False
    if not os.path.exists(so):
        os.makedirs(directory, exist_ok=True)
        c_path = so[:-3] + ".c"
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(C_SOURCE)
        fd, tmp_so = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        words = flags.split()
        libs = [w for w in words if w.startswith("-l")]
        cmd = (["cc"] + [w for w in words if w not in libs]
               + ["-shared", "-fPIC", c_path, "-o", tmp_so] + libs
               + ["-lm"])
        start = time.perf_counter()
        try:
            subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        except (OSError, subprocess.SubprocessError):
            try:
                os.unlink(tmp_so)
            except OSError:
                pass
            return None, 0.0, False
        compile_ms = (time.perf_counter() - start) * 1e3
        compiled_now = True
        os.replace(tmp_so, so)
    try:
        lib = ctypes.CDLL(so)
        _setup_argtypes(lib)
    except (OSError, AttributeError):
        return None, compile_ms, compiled_now
    return lib, compile_ms, compiled_now


def load_kernel() -> Tuple[Optional[object], float, Optional[str]]:
    """Build/load the C kernels.

    Returns ``(lib, compile_ms, flags)``: ``lib.newton_step`` and
    ``lib.transient_be`` are ready-typed ctypes functions.  ``lib`` is
    ``None`` when no compiler is available or every flag set fails.
    ``compile_ms`` is 0.0 when a cached ``.so`` was reused.
    """
    if not compiler_available():
        return None, 0.0, None
    directories = [_cache_dir(), os.path.join(tempfile.gettempdir(),
                                              "repro-cc-kernels")]
    for directory in directories:
        for flags in CC_FLAG_SETS:
            try:
                lib, ms, _ = _compile(flags, directory)
            except OSError:
                break  # directory unusable; try the fallback dir
            if lib is not None:
                return lib, ms, flags
    return None, 0.0, None
