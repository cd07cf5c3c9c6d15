"""Distributed PM machinery: mesh conversions, slab FFT, relay mesh.

The parallel FFT supports only a 1-D slab decomposition, while particles
live in a 3-D rectangular domain decomposition optimized for load
balance — so the density mesh must be converted 3-D -> 1-D before the
FFT and the potential 1-D -> 3-D after it (paper Fig. 4).  This package
implements both the straightforward global ``MPI_Alltoallv`` conversion
and the paper's novel *relay mesh method* (Fig. 5), which splits the
global exchange into one all-to-all inside small groups plus one
reduce/broadcast across groups, eliminating the ~p^(2/3)-senders-per-
FFT-process congestion.

:class:`ParallelPM` runs the whole five-step PM cycle once for every
FFT layout: ``fft="slab"`` (direct or relay conversion) or
``fft="pencil"`` (the 2-D pencil FFT of the paper's future work, which
lifts the slab's ``n``-process cap).  Only the conversion to and from
the FFT layout and the FFT itself differ between the two.
"""

from repro.meshcomm.slab import LocalMeshRegion, SlabDecomposition
from repro.meshcomm.convert import (
    local_to_slab,
    slab_to_local,
)
from repro.meshcomm.parallel_fft import SlabFFT
from repro.meshcomm.pencil_fft import PencilFFT
from repro.meshcomm.parallel_pm import ParallelPM
from repro.meshcomm.regions import redistribute

__all__ = [
    "LocalMeshRegion",
    "SlabDecomposition",
    "local_to_slab",
    "slab_to_local",
    "SlabFFT",
    "PencilFFT",
    "ParallelPM",
    "redistribute",
]
