/* Host peak for the PP kernel's roofline.
 *
 * Built through repro.native.build.load_library with the flags of the
 * plan-sweep kernel (-O2 -ffp-contract=off, plus -fopenmp when the
 * toolchain has it), so the peak is what this build mode can reach on
 * this host.  Each thread runs CHAINS independent multiply-add chains;
 * with contraction off every step is one multiply and one add, i.e.
 * 2 flops, and the chains hide the operation latency.  The chains
 * converge to c / (1 - m) = 1, so no operand ever becomes subnormal.
 */

#include <stdint.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#define CHAINS 12

/* one multiply-add step of every chain, kept in registers */
#define STEP(a) a = a * m + c

/* Runs iters steps of CHAINS chains on each of nthreads threads
 * (2 * CHAINS * iters flops per thread); returns a checksum so the
 * work cannot be optimized away. */
double peak_chains(int64_t iters, int nthreads)
{
    double total = 0.0;
#ifdef _OPENMP
#pragma omp parallel num_threads(nthreads) reduction(+ : total)
#endif
    {
        const double m = 0.9999999;
        const double c = 1.0e-7;
        double a0 = 1.000, a1 = 1.001, a2 = 1.002, a3 = 1.003;
        double a4 = 1.004, a5 = 1.005, a6 = 1.006, a7 = 1.007;
        double a8 = 1.008, a9 = 1.009, a10 = 1.010, a11 = 1.011;
        for (int64_t i = 0; i < iters; i++) {
            STEP(a0); STEP(a1); STEP(a2); STEP(a3);
            STEP(a4); STEP(a5); STEP(a6); STEP(a7);
            STEP(a8); STEP(a9); STEP(a10); STEP(a11);
        }
        total += a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8 + a9 + a10 + a11;
    }
    return total;
}

int peak_chain_count(void) { return CHAINS; }
