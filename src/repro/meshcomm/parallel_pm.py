"""The distributed PM cycle: GreeM's five steps, every FFT layout.

A :class:`ParallelPM` instance lives on every rank of an SPMD job and
executes the paper's PM procedure:

1. density assignment onto the rank's local (ghosted) mesh,
2. conversion of the 3-D-decomposed density to the FFT layout,
3. parallel FFT + convolution with the long-range Green's function
   (FFT ranks only; other ranks wait, as in the paper),
4. conversion of the FFT-layout potential back to local meshes,
5. four-point finite differences and TSC force interpolation.

Only steps 2-4 depend on the FFT layout (``fft=``):

* ``"slab"`` — the paper's 1-D slab FFT (at most ``n`` FFT ranks).
  With ``n_groups = 1`` the conversion is the straightforward global
  all-to-all; with ``n_groups > 1`` it is the relay mesh method: one
  all-to-all inside each group (COMM_SMALLA2A), a reduction of partial
  slabs onto the root group (COMM_REDUCE), and a broadcast back (steps
  and communicator names follow the paper, Fig. 5).
* ``"pencil"`` — the 2-D pencil FFT of the paper's future-work section
  (up to ``n^2`` FFT ranks); the conversions use the generic region
  redistribution between 3-D local windows and the pencil grid.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.mesh.assignment import assign_mass_local, interpolate_local
from repro.mesh.differentiate import gradient_block
from repro.mesh.greens import build_greens_function
from repro.meshcomm.convert import local_to_slab, slab_to_local
from repro.meshcomm.parallel_fft import SlabFFT
from repro.meshcomm.pencil_fft import PencilFFT
from repro.meshcomm.regions import redistribute
from repro.meshcomm.slab import LocalMeshRegion, SlabDecomposition
from repro.utils.timer import TimingLedger

__all__ = ["ParallelPM"]

#: ghost width of the density mesh (TSC stencil reach = 1, +1 safety)
DENSITY_GHOST = 2
#: ghost width of the potential mesh (4-point differencing needs 2,
#: plus 1 for the interpolation stencil of the force mesh)
POTENTIAL_GHOST = 3

class ParallelPM:
    """Distributed long-range force solver on an SPMD communicator.

    Parameters
    ----------
    comm:
        World communicator of the SPMD job.
    n:
        Global PM mesh size per dimension.
    split:
        Force split shaping the Green's function (``None`` = pure PM).
    n_fft:
        Slab layout: number of FFT processes (default
        ``min(size // n_groups, n)``: the root relay group must hold
        them all, and the 1-D slab limit caps them at ``n``).
    n_groups:
        Slab layout: relay mesh groups; 1 = the straightforward method.
        Every group must contain at least ``n_fft`` ranks.  The pencil
        layout has no relay and accepts only 1.
    fft:
        FFT layout, ``"slab"`` or ``"pencil"``.
    grid:
        Pencil layout: process grid ``(py, pz)``; ``py * pz`` ranks (a
        prefix of the communicator) perform the FFT, and ``py * pz``
        may exceed ``n`` (up to ``n^2``).  Default: the most square
        factorization of the communicator size.
    """

    def __init__(
        self,
        comm,
        n: int,
        box: float = 1.0,
        split=None,
        G: float = 1.0,
        n_fft: Optional[int] = None,
        n_groups: int = 1,
        assignment: str = "tsc",
        deconvolve: Optional[int] = None,
        differencing: str = "four_point",
        fft: str = "slab",
        grid: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.comm = comm
        self.n = int(n)
        self.box = float(box)
        self.split = split
        self.G = float(G)
        self.assignment = assignment
        self.differencing = differencing
        self.layout = fft
        if deconvolve is None:
            deconvolve = 2 if split is not None else 1
        if fft == "slab":
            self._init_slab(n_fft, n_groups)
        elif fft == "pencil":
            if n_groups != 1:
                raise ValueError(
                    f"the pencil FFT has no relay mesh: n_groups must be 1, "
                    f"got {n_groups}"
                )
            self._init_pencil(grid)
        else:
            raise ValueError(f"fft must be 'slab' or 'pencil', got {fft!r}")

        if self.is_fft_rank:
            greens_full = build_greens_function(
                self.n,
                box=self.box,
                split=split,
                G=G,
                assignment=assignment,
                deconvolve=deconvolve,
                rfft=fft == "slab",
            )
            self.greens = self.fft.greens_slice(greens_full)
        else:
            self.fft = None
            self.greens = None

    def _init_slab(self, n_fft: Optional[int], n_groups: int) -> None:
        comm = self.comm
        if not 1 <= n_groups <= comm.size:
            raise ValueError(
                f"n_groups must be in [1, comm size], got {n_groups}"
            )
        if n_fft is None:
            n_fft = min(comm.size // n_groups, self.n)
        if not 1 <= n_fft <= min(comm.size, self.n):
            raise ValueError("n_fft must be in [1, min(size, n)]")
        if n_groups * n_fft > comm.size:
            raise ValueError(
                f"need n_groups * n_fft <= comm size "
                f"({n_groups} * {n_fft} > {comm.size})"
            )
        self.n_fft = int(n_fft)
        self.n_groups = int(n_groups)
        self.slabs = SlabDecomposition(self.n, self.n_fft)
        self.phases = ("pm:mesh_to_slab", "pm:slab_to_mesh")

        # contiguous group blocks; group 0 (the root group) holds the
        # FFT processes
        base, extra = divmod(comm.size, self.n_groups)
        sizes = [base + (1 if g < extra else 0) for g in range(self.n_groups)]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        rank = comm.rank
        self.group = int(np.searchsorted(starts, rank, side="right") - 1)
        self.rank_in_group = rank - int(starts[self.group])

        # COMM_SMALLA2A: all ranks of one group
        self.comm_small = comm.split(color=self.group)
        # COMM_REDUCE: same slab-holder position across groups (root =
        # the member from group 0, which has the smallest world rank)
        is_holder = self.rank_in_group < self.n_fft
        self.comm_reduce = comm.split(color=self.rank_in_group if is_holder else None)
        # COMM_FFT: the root group's slab holders
        self.comm_fft = comm.split(
            color=0 if (self.group == 0 and is_holder) else None
        )
        self.is_fft_rank = self.comm_fft is not None
        self.is_holder = is_holder
        if self.is_fft_rank:
            self.fft = SlabFFT(self.comm_fft, self.n)

    def _init_pencil(self, grid: Optional[Tuple[int, int]]) -> None:
        comm = self.comm
        if grid is None:
            py = int(np.floor(np.sqrt(comm.size)))
            while comm.size % py:
                py -= 1
            grid = (py, comm.size // py)
        py, pz = grid
        if py * pz > comm.size:
            raise ValueError("pencil grid larger than the communicator")
        if py > self.n or pz > self.n:
            raise ValueError("grid dimensions cannot exceed the mesh size")
        self.grid = (int(py), int(pz))
        self.phases = ("pm:mesh_to_pencil", "pm:pencil_to_mesh")

        self.is_fft_rank = comm.rank < py * pz
        self.comm_fft = comm.split(color=0 if self.is_fft_rank else None)
        #: this rank's real-space pencil (None off the grid)
        self.fft_region = None
        if self.is_fft_rank:
            self.fft = PencilFFT(self.comm_fft, self.n, self.grid)
            (xa, xb), (ya, yb), (za, zb) = self.fft.real_ranges()
            self.fft_region = LocalMeshRegion(
                n=self.n,
                lo=(xa, ya, za),
                shape=(xb - xa, yb - ya, zb - za),
                ghost=0,
            )

    # -- region helpers -----------------------------------------------------------

    def density_region(self, dom_lo, dom_hi) -> LocalMeshRegion:
        """Local density-mesh region for a spatial domain."""
        return LocalMeshRegion.from_domain(
            self.n, dom_lo, dom_hi, self.box, DENSITY_GHOST
        )

    def potential_region(self, dom_lo, dom_hi) -> LocalMeshRegion:
        """Local potential-mesh region for a spatial domain."""
        return LocalMeshRegion.from_domain(
            self.n, dom_lo, dom_hi, self.box, POTENTIAL_GHOST
        )

    # -- the layout-specific steps 2-4 ------------------------------------------------

    def _to_fft_layout(
        self, local_rho: np.ndarray, region: LocalMeshRegion
    ) -> Optional[np.ndarray]:
        """Step 2: the complete density in the FFT layout on FFT ranks
        (``None`` elsewhere)."""
        if self.layout == "pencil":
            return redistribute(
                self.comm, local_rho, region, self.fft_region, combine="add"
            )
        partial = local_to_slab(self.comm_small, local_rho, region, self.slabs)
        if self.is_holder:
            return self.comm_reduce.reduce(partial, op="sum", root=0)
        return None

    def _convolve(self, rho: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Step 3 on the FFT ranks (``None`` elsewhere)."""
        if not self.is_fft_rank:
            return None
        if self.layout == "pencil":
            rho = rho.astype(complex)
        return self.fft.convolve(rho, self.greens)

    def _from_fft_layout(
        self, phi: Optional[np.ndarray], region: LocalMeshRegion
    ) -> np.ndarray:
        """Step 4: the FFT-layout potential back onto a local mesh."""
        if self.layout == "pencil":
            return redistribute(
                self.comm, phi, self.fft_region, region, combine="replace"
            )
        if self.is_holder:
            phi = self.comm_reduce.bcast(phi, root=0)
        return slab_to_local(
            self.comm_small, phi if self.is_holder else None, region, self.slabs
        )

    # -- the PM cycle ---------------------------------------------------------------

    def solve_potential_slabs(
        self, local_rho: Optional[np.ndarray], region: Optional[LocalMeshRegion]
    ) -> Optional[np.ndarray]:
        """Steps 2-3: density conversion + FFT; returns the potential in
        the FFT layout on FFT ranks, ``None`` elsewhere.  No timing, no
        barrier, no backwards conversion — building block for tests and
        the relay benchmark."""
        return self._convolve(self._to_fft_layout(local_rho, region))

    def forces(
        self,
        pos: np.ndarray,
        mass: np.ndarray,
        dom_lo,
        dom_hi,
        timing: Optional[TimingLedger] = None,
        validator=None,
    ) -> np.ndarray:
        """The full PM cycle for this rank's particles.

        ``pos``/``mass`` are the particles owned by this rank, all
        inside ``[dom_lo, dom_hi)``.  Returns their long-range
        accelerations.  Phase timings use the paper's Table I row names;
        traffic phases ``pm:*`` are recorded for the network model.

        ``validator`` (a :class:`repro.validate.Validator`) enables mass
        conservation checks through the assignment and the conversion to
        the FFT layout, plus a finite-field sweep of the returned
        accelerations.  All validator traffic is collective, so every
        rank must pass the same validator (or none).
        """
        timing = timing if timing is not None else TimingLedger()
        rho_region = self.density_region(dom_lo, dom_hi)
        pot_region = self.potential_region(dom_lo, dom_hi)
        cell_vol = (self.box / self.n) ** 3
        to_fft_phase, from_fft_phase = self.phases

        # map each particle to its periodic image nearest the domain
        # center: a particle that drifted across the box boundary since
        # the last exchange would otherwise land far outside the local
        # (unwrapped) mesh window
        pos = np.asarray(pos, dtype=np.float64)
        center = 0.5 * (np.asarray(dom_lo) + np.asarray(dom_hi))
        pos = pos - self.box * np.round((pos - center) / self.box)

        with timing.phase("PM/density assignment"):
            local_rho = (
                assign_mass_local(pos, mass, rho_region, self.box, self.assignment)
                / cell_vol
            )

        check_mass = validator is not None and validator.check_enabled(
            "mass_conservation"
        )
        if check_mass:
            from repro.validate.checks import check_mesh_mass

            totals = self.comm.allreduce(
                np.array([local_rho.sum() * cell_vol, mass.sum()]), op="sum"
            )
            validator.handle(
                check_mesh_mass(
                    float(totals[0]),
                    float(totals[1]),
                    stage="mesh/assignment",
                    step=validator.step,
                    rank=self.comm.rank,
                )
            )

        self.comm.traffic_phase(to_fft_phase)
        with timing.phase("PM/communication"):
            fft_rho = self._to_fft_layout(local_rho, rho_region)
        if check_mass:
            # the complete density lives on the FFT ranks only; the
            # allreduce shares the verdict so every rank agrees
            fft_sum = float(fft_rho.sum()) * cell_vol if self.is_fft_rank else 0.0
            totals = self.comm.allreduce(np.array([fft_sum, mass.sum()]), op="sum")
            validator.handle(
                check_mesh_mass(
                    float(totals[0]),
                    float(totals[1]),
                    stage="meshcomm/convert",
                    step=validator.step,
                    rank=self.comm.rank,
                )
            )

        self.comm.traffic_phase("pm:fft")
        with timing.phase("PM/FFT"):
            phi = self._convolve(fft_rho)
            self.comm.barrier()  # non-FFT processes "wait the end of FFT"

        self.comm.traffic_phase(from_fft_phase)
        with timing.phase("PM/communication"):
            local_phi = self._from_fft_layout(phi, pot_region)
        self.comm.traffic_phase("pm:done")

        with timing.phase("PM/acceleration on mesh"):
            grad = gradient_block(
                local_phi,
                self.box / self.n,
                scheme=self.differencing,
                trim=2,
            )

        with timing.phase("PM/force interpolation"):
            acc = -interpolate_local(
                grad, pos, pot_region, self.box, self.assignment, trim=2
            )
        if validator is not None and validator.check_enabled("finite_fields"):
            from repro.validate.checks import check_finite

            validator.handle_collective(
                self.comm,
                check_finite(
                    "pm_acc", acc, stage="treepm/pm",
                    step=validator.step, rank=self.comm.rank,
                ),
            )
        return acc
