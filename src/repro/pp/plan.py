"""Flat interaction-plan representation and batched executor.

The legacy short-range path interleaves traversal and kernel work one
group at a time: every group pays a ``vstack``/``concatenate``, a fresh
``(T, S, 3)`` temporary and a redundant per-pair minimum-image
``np.round`` even when the whole list provably needs no wrap.  The plan
engine splits a force evaluation into two phases instead:

1. **Plan construction** (:meth:`repro.tree.traversal.TreeSolver.build_plan`)
   runs Barnes' modified traversal for *all* groups and emits one flat
   CSR-style :class:`InteractionPlan`: per-group target slices, the
   concatenated source-particle indices, accepted-node indices,
   precomputed periodic image shifts per list entry, and a per-group
   ``no_wrap`` certificate (every pair displacement provably within
   ``box/2``, so the per-pair ``np.round`` is exactly a no-op).
2. **Plan execution** (:class:`PlanExecutor`) sweeps the plan in large
   batches of groups bucketed by list length, with reused scratch
   buffers and zero-mass column padding.  In float64 mode the batched
   arithmetic is elementwise identical to the legacy per-group kernel,
   so forces match bitwise; an optional float32 mode mirrors the paper's
   single-precision Phantom-GRAPE kernel.

The executor deliberately knows nothing about trees: it consumes the
plan plus the Morton-sorted particle arrays and node moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.forces.cutoff import S2ForceSplit
from repro.native.build import native_threads as _native_threads
from repro.pp import native as _native
from repro.pp.rsqrt import fast_rsqrt
from repro.utils.periodic import minimum_image

__all__ = ["InteractionPlan", "PlanExecutor", "multi_arange", "slice_plan"]

#: Native-kernel cross-check verdicts, keyed by library (each build of
#: the sweep, e.g. one per ISA level, is checked once per process).
_verified: dict = {}


def _native_verified(lib) -> bool:
    """Whether ``lib`` passed :func:`_self_test` (run on first use)."""
    key = id(lib)
    if key not in _verified:
        _verified[key] = _self_test(lib)
    return _verified[key]


def _self_test(lib) -> bool:
    """Cross-check the compiled kernel against the numpy pipeline.

    The native sweep replays numpy's float64 arithmetic operation by
    operation, including numpy's SIMD reduction order for the component
    sum — an order that is an implementation detail of the running
    numpy build.  Rather than trust it across platforms, the first
    native execution verifies bitwise agreement on a small synthetic
    plan exercising wrap and no-wrap groups, power-of-two and other
    boxes, self pairs, softened and unsoftened kernels, and both split
    modes; any mismatch silently disables that build of the kernel for
    the process.
    """
    from repro.pp.kernel import PPKernel

    rng = np.random.default_rng(20120416)
    N, M = 48, 6
    pos = rng.random((N, 3))
    mass = rng.random(N) + 0.5
    ncom = rng.random((M, 3))
    nmass = rng.random(M) + 1.0
    pidx = rng.integers(0, N, 60).astype(np.int64)
    pidx[:12] = np.arange(12)  # include self pairs
    plan = InteractionPlan(
        group_nodes=np.zeros(4, dtype=np.int64),
        group_lo=np.array([0, 12, 24, 36], dtype=np.int64),
        group_hi=np.array([12, 24, 36, 48], dtype=np.int64),
        part_ptr=np.array([0, 20, 30, 50, 60], dtype=np.int64),
        part_idx=pidx,
        node_ptr=np.array([0, 3, 6, 6, 10], dtype=np.int64),
        node_idx=rng.integers(0, M, 10).astype(np.int64),
        no_wrap=np.array([True, False, True, False]),
    )
    kernels = [
        PPKernel(split=S2ForceSplit(0.4), eps=0.0, G=2.0, box=1.0),
        PPKernel(split=S2ForceSplit(0.4), eps=1e-3, box=1.0),
        PPKernel(split=S2ForceSplit(0.4), eps=1e-3, box=0.75),
        PPKernel(split=None, eps=1e-3, box=None),
        PPKernel(split=None, eps=0.0, box=1.0),
    ]
    numpy_exec = PlanExecutor(use_native=False)
    native_exec = PlanExecutor()
    for kern in kernels:
        want = numpy_exec.execute(plan, kern, pos, mass, ncom, nmass)
        got = np.zeros_like(pos)
        native_exec._execute_native(lib, plan, kern, pos, mass, ncom, nmass, got)
        if not np.array_equal(want, got):
            return False
    return True


def multi_arange(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(lo[i], hi[i])`` without a Python loop."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    lens = hi - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens) + np.repeat(
        lo, lens
    )


def slice_plan(plan: "InteractionPlan", groups: np.ndarray) -> "InteractionPlan":
    """A sub-plan containing only the selected groups.

    The CSR pointer arrays are rebuilt over the kept groups while every
    index keeps referring to the *full* Morton-sorted particle/node
    arrays, and each group's target slice ``[group_lo, group_hi)`` is
    untouched — so executing the sub-plan against the same sorted inputs
    reproduces, bitwise, exactly the rows the full sweep produced for
    those groups (groups own disjoint target rows and each group's
    arithmetic depends only on its own interaction list).  This is what
    the ABFT force spot-check leans on: re-sweep a sampled subset of
    groups through the reference pipeline and compare rows.
    """
    groups = np.asarray(groups, dtype=np.int64)
    if groups.ndim != 1:
        raise ValueError("groups must be a 1-D index array")
    if groups.size and (groups.min() < 0 or groups.max() >= plan.n_groups):
        raise IndexError("group index out of range")
    plo, phi = plan.part_ptr[groups], plan.part_ptr[groups + 1]
    nlo, nhi = plan.node_ptr[groups], plan.node_ptr[groups + 1]
    psel = multi_arange(plo, phi)
    nsel = multi_arange(nlo, nhi)
    zero = np.zeros(1, dtype=np.int64)
    return InteractionPlan(
        group_nodes=plan.group_nodes[groups],
        group_lo=plan.group_lo[groups],
        group_hi=plan.group_hi[groups],
        part_ptr=np.concatenate([zero, np.cumsum(phi - plo)]).astype(np.int64),
        part_idx=plan.part_idx[psel],
        node_ptr=np.concatenate([zero, np.cumsum(nhi - nlo)]).astype(np.int64),
        node_idx=plan.node_idx[nsel],
        part_shift=None if plan.part_shift is None else plan.part_shift[psel],
        node_shift=None if plan.node_shift is None else plan.node_shift[nsel],
        no_wrap=None if plan.no_wrap is None else plan.no_wrap[groups],
    )


@dataclass
class InteractionPlan:
    """CSR-style description of one whole short-range force evaluation.

    All index arrays refer to the tree's Morton-sorted particle order.
    Group ``i`` owns targets ``[group_lo[i], group_hi[i])``, particle
    sources ``part_idx[part_ptr[i]:part_ptr[i+1]]`` and accepted nodes
    ``node_idx[node_ptr[i]:node_ptr[i+1]]``.  Each source slot of a
    group's list keeps the legacy order: particles first, then nodes.

    ``part_shift``/``node_shift`` hold the periodic image shift of each
    list entry relative to the group center (``box`` times an integer
    vector; subtracting it moves the source next to the group).  They
    are ``None`` for non-periodic plans.  ``no_wrap[i]`` certifies that
    every pair displacement of group ``i`` lies within ``box/2`` in all
    coordinates, so the per-pair minimum-image round is exactly zero.
    """

    group_nodes: np.ndarray
    group_lo: np.ndarray
    group_hi: np.ndarray
    part_ptr: np.ndarray
    part_idx: np.ndarray
    node_ptr: np.ndarray
    node_idx: np.ndarray
    part_shift: Optional[np.ndarray] = None
    node_shift: Optional[np.ndarray] = None
    no_wrap: Optional[np.ndarray] = None

    @property
    def n_groups(self) -> int:
        return len(self.group_nodes)

    @property
    def target_counts(self) -> np.ndarray:
        """Targets per group (the per-call ``Ni``)."""
        return self.group_hi - self.group_lo

    @property
    def list_lengths(self) -> np.ndarray:
        """Interaction-list length per group (the per-call ``Nj``)."""
        return np.diff(self.part_ptr) + np.diff(self.node_ptr)

    @property
    def n_pairs(self) -> int:
        """Total pairwise interactions the plan encodes."""
        if self.n_groups == 0:
            return 0
        return int(np.dot(self.target_counts, self.list_lengths))


class PlanExecutor:
    """Batched sweep over an :class:`InteractionPlan`.

    Parameters
    ----------
    dtype:
        ``np.float64`` (default) computes bitwise-identically to the
        legacy per-group kernel path.  ``np.float32`` mirrors the
        paper's single-precision kernel: sources are re-centered on the
        group via the plan's baked image shifts (keeping float32
        coordinates well-conditioned), the wrap is dropped entirely, and
        all pair arithmetic runs in single precision.
    pair_budget:
        Approximate cap on target-rows x padded-list-columns per batch;
        bounds scratch memory at roughly ``40 * pair_budget`` bytes in
        float64.  Small budgets keep every scratch board resident in
        cache, which matters far more than batching overhead on the
        memory-bound sweep.
    refine_rows:
        Row-chunk size for the cutoff-culling refinement (see
        :meth:`_refine`); ``0`` disables refinement.
    use_native:
        Sweep through the compiled plan-sweep kernel when one can be
        built (see :mod:`repro.pp.native`); float64 only, bitwise
        identical to the numpy pipeline.  Falls back silently to the
        numpy pipeline when unavailable or unsupported for the kernel
        configuration.

    Scratch buffers are owned by the executor and grown on demand, so a
    long-lived executor (one per :class:`TreeSolver`) allocates nothing
    in steady state.
    """

    def __init__(
        self,
        dtype=np.float64,
        pair_budget: int = 1 << 16,
        refine_rows: int = 64,
        use_native: bool = True,
    ) -> None:
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise ValueError("dtype must be float64 or float32")
        if pair_budget < 1:
            raise ValueError("pair_budget must be >= 1")
        self.pair_budget = int(pair_budget)
        self.refine_rows = int(refine_rows)
        self.use_native = bool(use_native)
        self._scratch: dict = {}
        #: batches executed since construction (diagnostic)
        self.batches_run = 0
        #: native-kernel sweeps executed since construction (diagnostic)
        self.native_runs = 0

    # -- scratch management ---------------------------------------------------

    def _buf(self, name: str, shape, dtype) -> np.ndarray:
        """A reusable contiguous scratch view of the requested shape."""
        n = 1
        for s in shape:
            n *= int(s)
        key = (name, dtype)
        buf = self._scratch.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype=dtype)
            self._scratch[key] = buf
        return buf[:n].reshape(shape)

    def scratch_bytes(self) -> int:
        """Current scratch footprint (diagnostic)."""
        return sum(b.nbytes for b in self._scratch.values())

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        plan: InteractionPlan,
        kernel,
        pos_sorted: np.ndarray,
        mass_sorted: np.ndarray,
        node_com: np.ndarray,
        node_mass: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Accumulate the plan's monopole forces into ``out`` (sorted
        particle order).  ``kernel`` is a :class:`repro.pp.kernel.PPKernel`
        supplying the physics (split, softening, G, rsqrt path, box,
        Ewald table, counter)."""
        if out is None:
            out = np.zeros_like(pos_sorted)
        if plan.n_groups == 0:
            return out
        T = plan.target_counts
        S = plan.list_lengths
        kernel.counter.record_many(T, S)

        if (
            self.use_native
            and self._native_ok(kernel)
            and out.flags.c_contiguous
            and out.dtype == np.dtype(np.float64)
        ):
            lib = _native.get_lib()
            if lib is not None and _native_verified(lib):
                self._execute_native(
                    lib, plan, kernel, pos_sorted, mass_sorted,
                    node_com, node_mass, out,
                )
                return out

        refined = False
        if (
            self.refine_rows > 0
            and kernel.split is not None
            and getattr(kernel.split, "exact_cutoff", False)
            and plan.n_pairs
        ):
            plan = self._refine(plan, kernel, pos_sorted, node_com)
            T = plan.target_counts
            S = plan.list_lengths
            refined = True

        # gather the concatenated source streams once
        spos = pos_sorted[plan.part_idx]
        smass = mass_sorted[plan.part_idx]
        npos = node_com[plan.node_idx]
        nmass = node_mass[plan.node_idx]

        f32 = self.dtype == np.dtype(np.float32)
        box = kernel.box
        if f32 and box is not None and plan.part_shift is not None:
            # bake the image shifts: every source lands next to its
            # group, the per-pair wrap is dropped below
            spos = spos - plan.part_shift
            npos = npos - plan.node_shift

        G = plan.n_groups
        if box is None:
            wrap = np.zeros(G, dtype=bool)
        elif f32 and plan.part_shift is not None:
            wrap = np.zeros(G, dtype=bool)
        elif plan.no_wrap is not None:
            wrap = ~plan.no_wrap
        else:
            wrap = np.ones(G, dtype=bool)

        pcnt = np.diff(plan.part_ptr)
        order = np.argsort(S, kind="stable")[::-1]
        order = order[S[order] > 0]  # empty lists contribute nothing
        for need_wrap in (False, True):
            sel = order[wrap[order] == need_wrap]
            i = 0
            while i < len(sel):
                smax = int(S[sel[i]])
                ttot = int(T[sel[i]])
                j = i + 1
                while (
                    j < len(sel)
                    and (ttot + int(T[sel[j]])) * smax <= self.pair_budget
                ):
                    ttot += int(T[sel[j]])
                    j += 1
                self._run_batch(
                    plan, sel[i:j], smax, ttot, need_wrap, kernel,
                    pos_sorted, spos, smass, npos, nmass, pcnt, out,
                    refined,
                )
                i = j
        return out

    def _native_ok(self, kernel) -> bool:
        """Whether the compiled kernel covers this configuration.

        The native sweep implements the exact-arithmetic float64
        pipeline for plain softened Newtonian gravity and the S2 split;
        everything else (float32 mode, fast rsqrt, Ewald tables, other
        split shapes) stays on the numpy path.
        """
        return (
            self.dtype == np.dtype(np.float64)
            and kernel.ewald_table is None
            and not kernel.use_fast_rsqrt
            and (kernel.split is None or type(kernel.split) is S2ForceSplit)
        )

    def _execute_native(
        self,
        lib,
        plan: InteractionPlan,
        kernel,
        pos_sorted: np.ndarray,
        mass_sorted: np.ndarray,
        node_com: np.ndarray,
        node_mass: np.ndarray,
        out: np.ndarray,
    ) -> None:
        self.native_runs += 1
        i64 = lambda a: np.ascontiguousarray(a, dtype=np.int64)
        f64 = lambda a: np.ascontiguousarray(a, dtype=np.float64)
        G = plan.n_groups
        box = kernel.box
        if box is None:
            wrap = np.zeros(G, dtype=np.uint8)
        elif plan.no_wrap is not None:
            wrap = (~plan.no_wrap).astype(np.uint8)
        else:
            wrap = np.ones(G, dtype=np.uint8)
        rbox = 0.0  # x / box == x * rbox bitwise for a power-of-two box
        if box is not None and math.frexp(box)[0] == 0.5:
            rbox = 1.0 / box if math.isfinite(1.0 / box) else 0.0
        split = kernel.split
        if split is not None:
            rcut = split.cutoff_radius
            rc2 = (rcut * (1.0 + 1e-9)) ** 2
        else:
            rcut = rc2 = 0.0
        smax = int(plan.list_lengths.max()) if G else 0
        stride = 4 * max(smax, 1)
        # one scratch board per OpenMP thread; groups own disjoint output
        # rows so any thread count gives bitwise-identical forces
        nthreads = max(1, min(_native_threads(), G)) if G else 1
        scratch = self._buf("native_scratch", (nthreads * stride,), np.float64)
        eps2 = float(np.float64(kernel.eps) * np.float64(kernel.eps))
        _native.sweep(
            lib,
            i64(plan.group_lo),
            i64(plan.group_hi),
            i64(plan.part_ptr),
            i64(plan.part_idx),
            i64(plan.node_ptr),
            i64(plan.node_idx),
            f64(pos_sorted),
            f64(mass_sorted),
            f64(node_com),
            f64(node_mass),
            wrap,
            0.0 if box is None else float(box),
            rbox,
            eps2,
            0 if split is None else 1,
            float(rcut),
            float(rc2),
            float(kernel.G),
            scratch,
            out,
            nthreads=nthreads,
            scratch_stride=stride,
        )

    def _refine(
        self,
        plan: InteractionPlan,
        kernel,
        pos_sorted: np.ndarray,
        node_com: np.ndarray,
    ) -> InteractionPlan:
        """Split groups into row chunks and cull provably-out-of-range
        sources per chunk.

        The split's ``exact_cutoff`` contract makes the force factor
        exactly ``0.0`` past ``cutoff_radius``, so any source whose
        distance to a chunk's target bounding box provably exceeds the
        cutoff contributes only exact ``+/-0.0`` terms to the
        sequential einsum reduction — dropping it (and never computing
        its displacement at all) cannot change a bit of the result.
        The distance lower bound is the componentwise gap between the
        source and the bbox, taken the short way around the circle for
        periodic boxes, so it is sound regardless of which image the
        per-pair wrap would pick.  Stats are recorded from the original
        plan before refinement, keeping ``<Ni>``/``<Nj>`` identical to
        the legacy path.
        """
        chunk = self.refine_rows
        rcut = kernel.split.cutoff_radius * (1.0 + 1e-9)
        rc2 = rcut * rcut
        box = kernel.box
        Gn = plan.n_groups
        tcnt = plan.target_counts
        reps = (tcnt + chunk - 1) // chunk
        C = int(reps.sum())
        parent = np.repeat(np.arange(Gn, dtype=np.int64), reps)
        rep_starts = np.concatenate([[0], np.cumsum(reps)[:-1]])
        rank = np.arange(C, dtype=np.int64) - np.repeat(rep_starts, reps)
        clo = plan.group_lo[parent] + rank * chunk
        chi = np.minimum(clo + chunk, plan.group_hi[parent])

        # exact per-chunk target bounding boxes
        tpos = pos_sorted[multi_arange(clo, chi)]
        cptr = np.concatenate([[0], np.cumsum(chi - clo)[:-1]])
        tmin = np.minimum.reduceat(tpos, cptr, axis=0)
        tmax = np.maximum.reduceat(tpos, cptr, axis=0)
        width = tmax - tmin

        unsplit = C == Gn

        def cull(ptr, idx, shift, svals_all):
            ccnt = np.diff(ptr)[parent]
            crow = np.repeat(np.arange(C, dtype=np.int64), ccnt)
            s = svals_all[idx]
            if unsplit:
                big = None  # entries map 1:1, skip the second gather
            else:
                big = multi_arange(ptr[:-1][parent], ptr[1:][parent])
                s = s[big]
            lo = tmin[crow]
            d = np.minimum(np.maximum(s, lo, out=lo), tmax[crow])
            np.subtract(s, d, out=d)
            np.abs(d, out=d)
            if box is not None:
                # the short way around: either the direct gap or past
                # the bbox's far edge through the periodic boundary
                alt = box - width[crow]
                alt -= d
                np.minimum(d, alt, out=d)
                np.maximum(d, 0.0, out=d)
            keep = np.einsum("ij,ij->i", d, d) <= rc2
            kept = np.flatnonzero(keep) if big is None else big[keep]
            new_cnt = np.bincount(crow[keep], minlength=C)
            new_ptr = np.concatenate([[0], np.cumsum(new_cnt)]).astype(np.int64)
            new_shift = shift[kept] if shift is not None else None
            return new_ptr, idx[kept], new_shift

        pptr, pidx, pshift = cull(
            plan.part_ptr, plan.part_idx, plan.part_shift, pos_sorted
        )
        nptr, nidx, nshift = cull(
            plan.node_ptr, plan.node_idx, plan.node_shift, node_com
        )
        return InteractionPlan(
            group_nodes=plan.group_nodes[parent],
            group_lo=clo,
            group_hi=chi,
            part_ptr=pptr,
            part_idx=pidx,
            node_ptr=nptr,
            node_idx=nidx,
            part_shift=pshift,
            node_shift=nshift,
            no_wrap=None if plan.no_wrap is None else plan.no_wrap[parent],
        )

    def _fill_padded(
        self, rows_lo, rows_hi, col_offset, vals_pos, vals_mass, sb, mb, B
    ) -> None:
        """Scatter CSR entry ranges into the padded (B, smax) buffers."""
        cnt = rows_hi - rows_lo
        total = int(cnt.sum())
        if total == 0:
            return
        idx = multi_arange(rows_lo, rows_hi)
        row = np.repeat(np.arange(B), cnt)
        starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
        col = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts, cnt)
            + np.repeat(col_offset, cnt)
        )
        sb[row, col] = vals_pos[idx]
        mb[row, col] = vals_mass[idx]

    def _inv_r3(self, r2s: np.ndarray, dt: np.dtype) -> np.ndarray:
        """``(r^2+eps^2)^(-3/2)`` on a flat compressed vector, with the
        exact operation sequence of the legacy kernel."""
        y = np.sqrt(r2s)
        np.divide(dt.type(1.0), y, out=y)
        f = y * y
        f *= y
        return f

    def _run_batch(
        self,
        plan,
        groups,
        smax,
        ttot,
        need_wrap,
        kernel,
        pos_sorted,
        spos,
        smass,
        npos,
        nmass,
        pcnt,
        out,
        refined=False,
    ) -> None:
        self.batches_run += 1
        dt = self.dtype
        B = len(groups)

        # padded per-group source boards; zero masses neutralize padding
        # (their products append exact +0.0 terms to the sequential
        # einsum reduction, preserving bitwise results).  Only the
        # padding tail of each row is zeroed — every other column is
        # overwritten by the scatter fills below.
        sb = self._buf("src_pos", (B, smax, 3), dt)
        mb = self._buf("src_mass", (B, smax), dt)
        bp = pcnt[groups]
        bn = plan.node_ptr[groups + 1] - plan.node_ptr[groups]
        off = np.arange(B, dtype=np.int64) * smax
        pad = multi_arange(off + bp + bn, off + smax)
        sb.reshape(B * smax, 3)[pad] = 0.0
        mb.reshape(B * smax)[pad] = 0.0
        self._fill_padded(
            plan.part_ptr[groups], plan.part_ptr[groups + 1],
            np.zeros(B, dtype=np.int64), spos, smass, sb, mb, B,
        )
        self._fill_padded(
            plan.node_ptr[groups], plan.node_ptr[groups + 1],
            bp, npos, nmass, sb, mb, B,
        )

        tcnt = plan.group_hi[groups] - plan.group_lo[groups]
        trows = multi_arange(plan.group_lo[groups], plan.group_hi[groups])
        tgt = pos_sorted[trows]
        if dt != tgt.dtype:
            tgt = tgt.astype(dt)
        rend = np.cumsum(tcnt)

        # dx = source - target, exactly the legacy kernel's orientation;
        # one broadcast subtraction per group row-block avoids a full
        # gathered copy of the source board
        dx = self._buf("dx", (ttot, smax, 3), dt)
        for i in range(B):
            r1 = rend[i]
            r0 = r1 - tcnt[i]
            np.subtract(sb[i][None, :, :], tgt[r0:r1, None, :], out=dx[r0:r1])
        if need_wrap:
            minimum_image(dx, kernel.box, out=dx)

        r2 = self._buf("r2", (ttot, smax), dt)
        np.einsum("tsk,tsk->ts", dx, dx, out=r2)
        eps2 = dt.type(kernel.eps) * dt.type(kernel.eps)

        split = kernel.split
        f = self._buf("f", (ttot, smax), dt)
        if (
            split is not None
            and getattr(split, "exact_cutoff", False)
            and not refined
        ):
            # compressed pipeline: past the cutoff the factor is exactly
            # 0.0, so f is exactly +0.0 there (positive inv_r3 times
            # +0.0) — write the zeros directly and run the expensive
            # rsqrt/cutoff chain only on the in-range pairs.  The margin
            # keeps the exclusion sound against the rounding of the
            # factor's internal 2r/rcut scaling.
            rc2 = dt.type((split.cutoff_radius * (1.0 + 1e-9)) ** 2)
            inr = self._buf("inr", (ttot, smax), bool)
            np.less_equal(r2, rc2, out=inr)
            idx = np.flatnonzero(inr.reshape(-1))
            r2c = r2.reshape(-1)[idx]
            zc = r2c == 0.0
            r2sc = r2c + eps2
            if kernel.eps == 0.0:
                np.copyto(r2sc, dt.type(1.0), where=zc)
            if kernel.use_fast_rsqrt:
                y = fast_rsqrt(r2sc)
                fc = y * y
                fc *= y
                fc *= split.short_range_factor(np.sqrt(r2c))
            elif kernel.eps == 0.0:
                # r2sc is bitwise r2c away from the guarded self-pairs
                # (x + 0.0 == x for x > 0), so one sqrt serves both the
                # inverse cube and the cutoff argument; the self-pairs
                # are zeroed below either way
                r = np.sqrt(r2sc)
                y = dt.type(1.0) / r
                fc = y * y
                fc *= y
                fc *= split.short_range_factor(r)
            else:
                fc = self._inv_r3(r2sc, dt)
                fc *= split.short_range_factor(np.sqrt(r2c))
            np.copyto(fc, dt.type(0.0), where=zc)
            f[...] = 0.0
            f.reshape(-1)[idx] = fc
        else:
            zero = self._buf("zero", (ttot, smax), bool)
            np.equal(r2, 0.0, out=zero)
            r2s = self._buf("r2s", (ttot, smax), dt)
            np.add(r2, eps2, out=r2s)
            if kernel.eps == 0.0:
                # guard exact zeros so the rsqrt path stays finite
                np.copyto(r2s, dt.type(1.0), where=zero)
            if kernel.use_fast_rsqrt:
                y = fast_rsqrt(r2s)
                np.multiply(y, y, out=f)
                f *= y
                if split is not None:
                    r = self._buf("r", (ttot, smax), dt)
                    np.sqrt(r2, out=r)
                    f *= split.short_range_factor(r)
            elif split is not None and kernel.eps == 0.0:
                # sqrt(r2s) is bitwise sqrt(r2) away from the guarded
                # zeros (x + 0.0 == x), so one sqrt serves both the
                # inverse cube and the cutoff argument; the guarded
                # entries are overwritten by the zero mask below
                y = self._buf("y", (ttot, smax), dt)
                np.sqrt(r2s, out=y)
                inv = self._buf("r", (ttot, smax), dt)
                np.divide(dt.type(1.0), y, out=inv)
                np.multiply(inv, inv, out=f)
                f *= inv
                f *= split.short_range_factor(y)
            else:
                y = self._buf("y", (ttot, smax), dt)
                np.sqrt(r2s, out=y)
                np.divide(dt.type(1.0), y, out=y)
                np.multiply(y, y, out=f)
                f *= y
                if split is not None:
                    r = self._buf("r", (ttot, smax), dt)
                    np.sqrt(r2, out=r)
                    f *= split.short_range_factor(r)
            np.copyto(f, dt.type(0.0), where=zero)

        # fold the source masses into f one group row-block at a time
        # ((m*f)*dx is einsum's own product order, so this is bitwise
        # equal to the legacy three-operand contraction)
        for i in range(B):
            r1 = rend[i]
            r0 = r1 - tcnt[i]
            np.multiply(f[r0:r1], mb[i][None, :], out=f[r0:r1])
        acc = self._buf("acc", (ttot, 3), dt)
        np.einsum("ts,tsk->tk", f, dx, out=acc)
        acc *= dt.type(kernel.G)
        if kernel.ewald_table is not None:
            m2 = self._buf("m2", (ttot, smax), dt)
            gid = np.repeat(np.arange(B), tcnt)
            np.take(mb, gid, axis=0, out=m2)
            corr = -kernel.ewald_table.correction(dx)
            acc += dt.type(kernel.G) * np.einsum("ts,tsk->tk", m2, corr)
        # += onto the zeroed rows matches the legacy `0.0 + acc` exactly
        # (it normalizes any -0.0 component the same way)
        out[trows] += acc
