/* Native sweep over a CSR interaction plan.
 *
 * This is the compiled analogue of the numpy PlanExecutor pipeline (and
 * of the paper's Phantom-GRAPE kernel): one pass over the plan, one
 * fused loop per pair.  Every floating-point operation below reproduces,
 * in the same order, one individually rounded IEEE double operation of
 * the numpy float64 pipeline, so the results are bitwise identical:
 *
 *   - dx = source - target, then (wrap groups only) the minimum-image
 *     round dx -= box * rint(dx / box), where dx / box is computed as
 *     dx * rbox when the caller passes the exact reciprocal rbox of a
 *     power-of-two box (both are the correctly rounded value of the same
 *     real number, so the bits agree; a multiply is far cheaper);
 *   - r2 accumulated over components in numpy's einsum order;
 *   - f = (y*y)*y with y = 1.0/sqrt(r2 + eps2);
 *   - the S2 cutoff polynomial with powers expanded into the exact
 *     multiply chains used by repro.forces.cutoff.gp3m_cutoff;
 *   - per-target accumulation strictly sequential over the source list
 *     (numpy's einsum order), scaled by G at the end.
 *
 * Vector layout (Phantom-GRAPE's, paper sec. II-A): targets are swept
 * in tiles of W, one target per lane, and each source is broadcast to
 * all lanes.  A lane sums only its own target's sources, in list order,
 * so the per-target reduction order is that of a scalar loop and the
 * lane loop carries no dependence the compiler must respect beyond
 * elementwise arithmetic.  The lane loop has no branches: each
 * (wrap form, split) case is an inlined specialisation, and every
 * data-dependent decision is a select.
 *
 * Pairs whose force factor is exactly +/-0.0 (self pairs, pairs past the
 * exact cutoff) have their factor replaced by +0.0 with a select (never a
 * multiply by a mask, which would turn the inf of an unsoftened self
 * pair into NaN).  The lane then adds +0.0 * dx, a signed zero, which
 * leaves a sequential IEEE sum unchanged: the accumulator starts at
 * +0.0 and can never become -0.0 (round-to-nearest cancellation yields
 * +0.0), the same argument that licenses the numpy path's compression.
 * Padding lanes of a tail tile repeat the last target; they are
 * computed and never stored.
 *
 * The loop over groups is an OpenMP loop (compiled in only when the
 * loader probes -fopenmp successfully; without it the pragma is ignored
 * and the loop runs serially).  Groups own disjoint target rows and each
 * group's arithmetic depends only on its own interaction list, so the
 * result is bitwise independent of the schedule and thread count.
 *
 * Compile with -ffp-contract=off at any -march: no FMA contraction, no
 * reassociation; vector sqrt/divide are correctly rounded and the vector
 * round-to-nearest-even instruction is rint.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define W 8 /* lanes per target tile */

#define INLINE static inline __attribute__((always_inline))

/* x if keep, else +0.0: a bitwise mask, so no branch and no multiply */
INLINE double select_or_zero(int keep, double x)
{
    uint64_t b;
    memcpy(&b, &x, sizeof b);
    b &= -(uint64_t)(keep != 0);
    memcpy(&x, &b, sizeof b);
    return x;
}

INLINE double gp3m(double xi)
{
    /* exact operation sequence of gp3m_cutoff's array branch */
    double g = xi * (3.0 / 20.0);
    g += -12.0 / 35.0;
    g *= xi;
    g += -0.5;
    g *= xi;
    g += 8.0 / 5.0;
    double xi2 = xi * xi;
    g *= xi2;
    g += -8.0 / 5.0;
    double xi3 = xi2 * xi;
    g *= xi3;
    g += 1.0;
    double q = xi * (1.0 / 5.0);
    q += 18.0 / 35.0;
    q *= xi;
    q += 3.0 / 35.0;
    double zeta = xi - 1.0;
    zeta = select_or_zero(!(zeta < 0.0), zeta);
    double z2 = zeta * zeta;
    double z6 = z2 * z2;
    z6 *= z2;
    q *= z6;
    g -= q;
    return select_or_zero(!(xi >= 2.0), g);
}

/* Forces of sources [0, S) on targets t0 .. t0+n-1 (n <= W).  wrap is
 * 0 (none), 1 (divide by box) or 2 (multiply by rbox). */
INLINE void sweep_tile(
    const int wrap,
    const int split,
    int64_t n,
    const double *tpos, /* target rows t0.. */
    int64_t S,
    const double *sx,
    const double *sm,
    double box,
    double rbox,
    double eps2,
    double rcut,
    double rc2,
    double G,
    double *out)        /* output rows t0.. */
{
    double tx[W], ty[W], tz[W];
    double ax[W], ay[W], az[W];
    for (int l = 0; l < W; ++l) {
        int64_t i = l < n ? l : n - 1;
        tx[l] = tpos[3 * i];
        ty[l] = tpos[3 * i + 1];
        tz[l] = tpos[3 * i + 2];
        ax[l] = ay[l] = az[l] = 0.0;
    }
    for (int64_t s = 0; s < S; ++s) {
        const double bx = sx[3 * s];
        const double by = sx[3 * s + 1];
        const double bz = sx[3 * s + 2];
        const double m = sm[s];
        for (int l = 0; l < W; ++l) {
            double dx = bx - tx[l];
            double dy = by - ty[l];
            double dz = bz - tz[l];
            if (wrap == 1) {
                dx -= rint(dx / box) * box;
                dy -= rint(dy / box) * box;
                dz -= rint(dz / box) * box;
            } else if (wrap == 2) {
                dx -= rint(dx * rbox) * box;
                dy -= rint(dy * rbox) * box;
                dz -= rint(dz * rbox) * box;
            }
            /* numpy's einsum reduces the length-3 component axis in
             * SIMD-pair order: lane x plus remainder z, then lane y */
            double r2 = (dx * dx + dz * dz) + dy * dy;
            double y = 1.0 / sqrt(r2 + eps2);
            double f = (y * y) * y;
            int keep = r2 != 0.0; /* self pair: factor is zeroed */
            if (split) {
                double xi = (2.0 * sqrt(r2)) / rcut;
                f *= gp3m(xi);
                keep &= !(r2 > rc2); /* exact cutoff: factor is 0.0 */
            }
            double fm = f * m;
            fm = select_or_zero(keep, fm);
            ax[l] += fm * dx;
            ay[l] += fm * dy;
            az[l] += fm * dz;
        }
    }
    for (int64_t l = 0; l < n; ++l) {
        out[3 * l] += ax[l] * G;
        out[3 * l + 1] += ay[l] * G;
        out[3 * l + 2] += az[l] * G;
    }
}

static void sweep_group(
    int64_t g,
    const int64_t *group_lo,
    const int64_t *group_hi,
    const int64_t *part_ptr,
    const int64_t *part_idx,
    const int64_t *node_ptr,
    const int64_t *node_idx,
    const double *pos,
    const double *mass,
    const double *node_com,
    const double *node_mass,
    const uint8_t *wrap,
    double box,
    double rbox,
    double eps2,
    int use_split,
    double rcut,
    double rc2,
    double G,
    double *scratch,
    double *out)
{
    int64_t p0 = part_ptr[g], p1 = part_ptr[g + 1];
    int64_t n0 = node_ptr[g], n1 = node_ptr[g + 1];
    int64_t S = (p1 - p0) + (n1 - n0);
    if (S == 0)
        return;
    /* gather the interaction list once per group (particles first,
     * then nodes: the legacy list order) */
    double *sx = scratch;
    double *sm = scratch + 3 * S;
    int64_t k = 0;
    for (int64_t i = p0; i < p1; ++i, ++k) {
        int64_t j = part_idx[i];
        sx[3 * k] = pos[3 * j];
        sx[3 * k + 1] = pos[3 * j + 1];
        sx[3 * k + 2] = pos[3 * j + 2];
        sm[k] = mass[j];
    }
    for (int64_t i = n0; i < n1; ++i, ++k) {
        int64_t j = node_idx[i];
        sx[3 * k] = node_com[3 * j];
        sx[3 * k + 1] = node_com[3 * j + 1];
        sx[3 * k + 2] = node_com[3 * j + 2];
        sm[k] = node_mass[j];
    }
    int w = wrap != 0 && wrap[g] ? (rbox != 0.0 ? 2 : 1) : 0;
    for (int64_t t = group_lo[g]; t < group_hi[g]; t += W) {
        int64_t n = group_hi[g] - t < W ? group_hi[g] - t : W;
#define TILE(wf, sp)                                                       \
    sweep_tile(wf, sp, n, pos + 3 * t, S, sx, sm, box, rbox, eps2, rcut,   \
               rc2, G, out + 3 * t)
        switch (2 * w + (use_split != 0)) {
        case 0: TILE(0, 0); break;
        case 1: TILE(0, 1); break;
        case 2: TILE(1, 0); break;
        case 3: TILE(1, 1); break;
        case 4: TILE(2, 0); break;
        default: TILE(2, 1); break;
        }
#undef TILE
    }
}

/* One scratch board of `scratch_stride` doubles per thread.  Bitwise
 * identical for any nthreads (disjoint output rows, per-group
 * arithmetic). */
void plan_sweep(
    int64_t n_groups,
    const int64_t *group_lo,
    const int64_t *group_hi,
    const int64_t *part_ptr,
    const int64_t *part_idx,
    const int64_t *node_ptr,
    const int64_t *node_idx,
    const double *pos,       /* (N, 3) Morton-sorted positions */
    const double *mass,      /* (N,) */
    const double *node_com,  /* (M, 3) */
    const double *node_mass, /* (M,) */
    const uint8_t *wrap,     /* per-group: apply per-pair minimum image */
    double box,
    double rbox,             /* exact 1 / box for a power-of-two box, else 0 */
    double eps2,
    int use_split,           /* 1: apply the S2 gp3m cutoff */
    double rcut,
    double rc2,              /* cutoff threshold, >= rcut^2 */
    double G,
    double *scratch,         /* >= nthreads * scratch_stride doubles */
    double *out,             /* (N, 3); rows group_lo..group_hi get += */
    int64_t scratch_stride,  /* >= 4 * max list length */
    int nthreads)
{
    (void)nthreads;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic, 8) num_threads(nthreads)
#endif
    for (int64_t g = 0; g < n_groups; ++g) {
        int tid = 0;
#ifdef _OPENMP
        tid = omp_get_thread_num();
#endif
        sweep_group(g, group_lo, group_hi, part_ptr, part_idx, node_ptr,
                    node_idx, pos, mass, node_com, node_mass, wrap, box,
                    rbox, eps2, use_split, rcut, rc2, G,
                    scratch + (int64_t)tid * scratch_stride, out);
    }
}
