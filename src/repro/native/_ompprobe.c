/* OpenMP probe: builds and loads only when the toolchain can produce
 * -fopenmp shared objects (see repro.native.build.openmp_available). */

#include <omp.h>

int omp_probe(void) { return omp_get_max_threads(); }
