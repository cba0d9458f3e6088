/* Bellman forward pass for DP peak tracking (§4.2, Eqns. 6-8).
 *
 * Compiled on demand by repro/perf/dptrack.py (see there for the build
 * and caching story).  One call runs the forward recursion for a whole
 * stack of alignment matrices; dp_backtrace walks the stored
 * backpointers for the whole stack in one call.
 *
 * Formulation: the reference recursion evaluates, per step, the full
 * (L, L) candidate table cand[l][n] = base[l] + jc[l][n] and takes the
 * per-column argmax with numpy's first-index tie-break.  Here the table
 * is swept with l outermost and the running column maxima updated in a
 * branchless blend, which preserves that tie-break exactly: the maxima
 * update only on a strictly-greater candidate, and l ascends.  The one
 * exception is the l == n diagonal used to seed the maxima before the
 * sweep — a strictly earlier l must displace an equal-valued seed, hence
 * the explicit displace term.  The candidate sums are the same float
 * expressions the reference computes, so values, backpointers, and tie
 * decisions are bit-identical.
 *
 * The argmax lane is carried as a float of the same width as the values
 * (argd), so the blend loop is a single-type SIMD select; lag indices
 * are exactly representable far beyond any realistic L, and the int32
 * backpointers are materialized once per step.  The per-step scratch
 * lives on the stack — provably alias-free, which is what lets the
 * compiler keep the read-modify-write blend vectorized — capping the
 * supported lag count at DP_MAX_LAGS; wider requests return nonzero and
 * the caller falls back to the numpy path (the default max_lag = 100
 * gives L = 2*max_lag + 1 = 201).
 *
 * Pruning: only origins that can win are swept.  With omega < 0 the jump
 * cost J(d) = omega * d / (L - 1) is linear in the lag distance d, so it
 * obeys the triangle inequality J(|l' - n|) >= J(|l' - l|) + J(|l - n|).
 * If some origin l' has base[l'] + J(|l' - l|) > base[l] + m, then in
 * every column n
 *
 *     base[l'] + J(|l' - n|) > base[l] + J(|l - n|) + m,
 *
 * so l' beats l strictly everywhere: l is never a column maximum, can
 * neither be the argmax nor win a tie, and dropping it changes no value,
 * backpointer or tie decision.  (The argmax origin of a column is never
 * dominated, so at least one origin always survives.)  Two O(L) running
 * maxima find every dominated l: env(l) = max over l' < l of
 * base[l'] + J(l - l'), built left to right by adding jc[1] per lag, and
 * its mirror from the right.  The blend then visits the surviving origins
 * only, in ascending l, each across all L columns.  On TRRS evidence a
 * median of one origin survives a step, against L for the full table.
 *
 * The margin m makes the floating-point test honour the exact inequality.
 * With u = eps/2 (eps the dtype's epsilon), B = max |base| and every
 * |jc| <= |omega|: each stored jc entry is within 3u|omega| of J (two
 * roundings in float64, plus the cast for the float32 table); each
 * candidate sum base[l] + jc rounds by at most u(B + |omega|); and the
 * envelope's L - 1 additions of the rounded jc[1] drift by at most
 * (L - 1)u(B + |omega|) + 3u|omega|.  A flagged l thus trails by more than
 * m - (L + 10)u(B + |omega|) - u(B + m) in every computed candidate, and
 * m = 4(L + 2) eps (B + |omega| + 1) keeps that positive with at least a
 * factor of two to spare; the +1 keeps m clear of underflow when B and
 * omega are tiny.  Evidence is finite (callers zero its NaNs); an infinite base
 * makes m infinite, which only disables pruning for that step.
 *
 * The float32 twin serves the opt-in reduced-precision kernel mode
 * (RimConfig.kernel_dtype = "float32"); both are expanded from one body
 * and keep the same tie semantics at their own precision.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>

#define DP_MAX_LAGS 512

#define DP_FORWARD(NAME, REAL, EPS)                                          \
int NAME(const REAL *restrict e, const REAL *restrict jc,                    \
         REAL *restrict score, int32_t *restrict backptr,                    \
         ptrdiff_t n_mat, ptrdiff_t t, ptrdiff_t n_lags, REAL omega)         \
{                                                                            \
    if (n_lags > DP_MAX_LAGS)                                                \
        return 1;                                                            \
    REAL base[DP_MAX_LAGS], best[DP_MAX_LAGS], argd[DP_MAX_LAGS];            \
    ptrdiff_t live[DP_MAX_LAGS];                                             \
    unsigned char dominated[DP_MAX_LAGS];                                    \
    const REAL step1 = n_lags > 1 ? jc[1] : (REAL)0;                         \
    for (ptrdiff_t p = 0; p < n_mat; ++p) {                                  \
        const REAL *ep = e + p * t * n_lags;                                 \
        REAL *sc = score + p * n_lags;                                       \
        for (ptrdiff_t l = 0; l < n_lags; ++l)                               \
            sc[l] = ep[l];                                                   \
        for (ptrdiff_t step = 1; step < t; ++step) {                         \
            const REAL *eprev = ep + (step - 1) * n_lags;                    \
            const REAL *ecur = ep + step * n_lags;                           \
            int32_t *bp = backptr + (step * n_mat + p) * n_lags;             \
            REAL bmag = 0;                                                   \
            for (ptrdiff_t l = 0; l < n_lags; ++l) {                         \
                REAL b = sc[l] + eprev[l];                                   \
                base[l] = b;                                                 \
                REAL a = b < 0 ? -b : b;                                     \
                bmag = a > bmag ? a : bmag;                                  \
            }                                                                \
            ptrdiff_t n_live = 0;                                            \
            if (omega < 0) {                                                 \
                const REAL margin =                                          \
                    (REAL)(4 * (n_lags + 2)) * EPS * (bmag - omega + 1);     \
                REAL env = -INFINITY;                                        \
                for (ptrdiff_t l = n_lags - 1; l >= 0; --l) {                \
                    dominated[l] = env > base[l] + margin;                   \
                    env = (env > base[l] ? env : base[l]) + step1;           \
                }                                                            \
                env = -INFINITY;                                             \
                for (ptrdiff_t l = 0; l < n_lags; ++l) {                     \
                    if (!dominated[l] && !(env > base[l] + margin))          \
                        live[n_live++] = l;                                  \
                    env = (env > base[l] ? env : base[l]) + step1;           \
                }                                                            \
            } else {                                                         \
                for (ptrdiff_t l = 0; l < n_lags; ++l)                       \
                    live[n_live++] = l;                                      \
            }                                                                \
            for (ptrdiff_t n = 0; n < n_lags; ++n) {                         \
                best[n] = base[n] + jc[n * n_lags + n];                      \
                argd[n] = (REAL)n;                                           \
            }                                                                \
            for (ptrdiff_t k = 0; k < n_live; ++k) {                         \
                const ptrdiff_t l = live[k];                                 \
                const REAL bl = base[l];                                     \
                const REAL ld = (REAL)l;                                     \
                const REAL *jr = jc + l * n_lags;                            \
                for (ptrdiff_t n = 0; n < n_lags; ++n) {                     \
                    REAL v = bl + jr[n];                                     \
                    int take = (v > best[n]) | ((v == best[n]) & (ld < argd[n])); \
                    best[n] = take ? v : best[n];                            \
                    argd[n] = take ? ld : argd[n];                           \
                }                                                            \
            }                                                                \
            for (ptrdiff_t n = 0; n < n_lags; ++n) {                         \
                bp[n] = (int32_t)argd[n];                                    \
                sc[n] = best[n] + ecur[n];                                   \
            }                                                                \
        }                                                                    \
    }                                                                        \
    return 0;                                                                \
}

DP_FORWARD(dp_forward_f64, double, DBL_EPSILON)
DP_FORWARD(dp_forward_f32, float, FLT_EPSILON)

/* Walk the stored backpointers from the given terminal columns.
 * lag_indices is (n_mat, t) int64; lag_indices[p][t-1] must hold the
 * argmax of the final score row on entry (numpy computes it — its
 * first-index tie-break over a contiguous row is the contract). */
void dp_backtrace(const int32_t *restrict backptr,
                  int64_t *restrict lag_indices, ptrdiff_t n_mat,
                  ptrdiff_t t, ptrdiff_t n_lags)
{
    for (ptrdiff_t p = 0; p < n_mat; ++p) {
        int64_t *lp = lag_indices + p * t;
        int64_t cur = lp[t - 1];
        for (ptrdiff_t step = t - 1; step > 0; --step) {
            cur = backptr[(step * n_mat + p) * n_lags + cur];
            lp[step - 1] = cur;
        }
    }
}
