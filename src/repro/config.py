"""Run-configuration dataclasses.

Every top-level component of the framework is configured through one of
the frozen dataclasses defined here.  They validate their fields eagerly
so that a mis-configured simulation fails at construction time rather
than deep inside a force loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _check_power_of_two(name: str, value: int) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value!r}")


@dataclass(frozen=True)
class TreeConfig:
    """Parameters of the Barnes-Hut tree used for the short-range part.

    Attributes
    ----------
    opening_angle:
        Multipole acceptance criterion theta.  A node of size ``s`` at
        distance ``d`` is accepted when ``s < opening_angle * d``.
    leaf_size:
        Maximum number of particles in a leaf cell.
    group_size:
        Target number of particles per traversal group ``<Ni>`` for
        Barnes' modified algorithm (the paper finds ~100 optimal on K).
    use_quadrupole:
        Whether node moments include the quadrupole term.
    use_plan:
        Evaluate short-range forces through the flat interaction-plan
        engine (traverse all groups first, then execute one batched
        sweep).  ``False`` selects the legacy interleaved per-group
        path; in double precision both give bitwise-identical forces.
    plan_float32:
        Run the plan executor's pair arithmetic in single precision
        (the paper's float32 Phantom-GRAPE kernel).  Plan mode only.
    """

    opening_angle: float = 0.5
    leaf_size: int = 8
    group_size: int = 64
    use_quadrupole: bool = False
    use_plan: bool = True
    plan_float32: bool = False

    def __post_init__(self) -> None:
        _check_positive("opening_angle", self.opening_angle)
        if self.opening_angle >= 2.0:
            raise ValueError("opening_angle >= 2 gives divergent force errors")
        if self.leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")


@dataclass(frozen=True)
class PMConfig:
    """Parameters of the particle-mesh (long-range) solver.

    Attributes
    ----------
    mesh_size:
        Number of PM grid points per dimension (``N_PM^(1/3)``).
    assignment:
        Mass-assignment scheme: ``"ngp"``, ``"cic"`` or ``"tsc"``
        (the paper uses TSC, a 27-point kernel).
    deconvolve:
        Whether to deconvolve the assignment window (applied twice:
        once for assignment, once for interpolation).
    differencing:
        Gradient scheme on the mesh: ``"four_point"`` (the paper) or
        ``"two_point"`` or ``"spectral"``.
    fft_backend:
        Distributed FFT layout: ``"slab"`` (the paper's 1-D FFTW-style
        decomposition, limited to ``mesh_size`` processes) or
        ``"pencil"`` (the 2-D decomposition of the paper's future-work
        section, scaling to ``mesh_size^2``).
    """

    mesh_size: int = 64
    assignment: str = "tsc"
    deconvolve: bool = True
    differencing: str = "four_point"
    fft_backend: str = "slab"

    _ASSIGNMENTS = ("ngp", "cic", "tsc")
    _DIFFERENCING = ("two_point", "four_point", "spectral")
    _FFT_BACKENDS = ("slab", "pencil")

    def __post_init__(self) -> None:
        if self.mesh_size < 4:
            raise ValueError("mesh_size must be >= 4")
        if self.assignment not in self._ASSIGNMENTS:
            raise ValueError(
                f"assignment must be one of {self._ASSIGNMENTS}, got {self.assignment!r}"
            )
        if self.differencing not in self._DIFFERENCING:
            raise ValueError(
                f"differencing must be one of {self._DIFFERENCING}, "
                f"got {self.differencing!r}"
            )
        if self.fft_backend not in self._FFT_BACKENDS:
            raise ValueError(
                f"fft_backend must be one of {self._FFT_BACKENDS}, "
                f"got {self.fft_backend!r}"
            )

    def solver_kwargs(self) -> dict:
        """Keyword arguments shared by the serial ``PMSolver`` and the
        distributed ``ParallelPM`` (``deconvolve`` as the window power:
        2 = assignment and interpolation, 0 = none)."""
        return {
            "assignment": self.assignment,
            "deconvolve": 2 if self.deconvolve else 0,
            "differencing": self.differencing,
        }


@dataclass(frozen=True)
class TreePMConfig:
    """Parameters of the combined TreePM force solver.

    Attributes
    ----------
    tree:
        Short-range tree configuration.
    pm:
        Long-range PM configuration.
    rcut_mesh_units:
        Cutoff radius of the short-range force in units of the PM mesh
        spacing.  The paper uses ``rcut = 3 / N_PM^(1/3)``, i.e. 3.
    softening:
        Plummer softening length epsilon in box units (must be << rcut).
    split:
        Force-splitting shape: ``"s2"`` (P3M / the paper) or
        ``"gaussian"`` (GADGET-style baseline).
    """

    tree: TreeConfig = field(default_factory=TreeConfig)
    pm: PMConfig = field(default_factory=PMConfig)
    rcut_mesh_units: float = 3.0
    softening: float = 1.0e-4
    split: str = "s2"

    _SPLITS = ("s2", "gaussian")

    def __post_init__(self) -> None:
        _check_positive("rcut_mesh_units", self.rcut_mesh_units)
        _check_positive("softening", self.softening)
        if self.split not in self._SPLITS:
            raise ValueError(f"split must be one of {self._SPLITS}, got {self.split!r}")
        if self.softening >= self.rcut:
            raise ValueError(
                f"softening ({self.softening}) must be much smaller than "
                f"rcut ({self.rcut})"
            )

    @property
    def rcut(self) -> float:
        """Cutoff radius in box units."""
        return self.rcut_mesh_units / self.pm.mesh_size


@dataclass(frozen=True)
class DomainConfig:
    """Parameters of the dynamic 3-D multisection domain decomposition.

    Attributes
    ----------
    divisions:
        Number of domains along each axis; ``prod(divisions)`` must
        equal the number of MPI processes.
    sample_rate:
        Baseline fraction of particles sampled by the sampling method.
    smoothing_window:
        Number of past steps entering the linear weighted moving
        average of domain boundaries (the paper uses 5).
    cost_balance:
        If true, the per-domain sampling rate is scaled by the measured
        force-calculation cost (the paper's load balancing); if false
        the decomposition balances raw particle counts.
    """

    divisions: Tuple[int, int, int] = (2, 2, 2)
    sample_rate: float = 0.05
    smoothing_window: int = 5
    cost_balance: bool = True

    def __post_init__(self) -> None:
        if len(self.divisions) != 3 or any(d < 1 for d in self.divisions):
            raise ValueError(f"divisions must be three integers >= 1, got {self.divisions!r}")
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if self.smoothing_window < 1:
            raise ValueError("smoothing_window must be >= 1")

    @property
    def n_domains(self) -> int:
        return self.divisions[0] * self.divisions[1] * self.divisions[2]


@dataclass(frozen=True)
class RelayMeshConfig:
    """Parameters of the relay mesh communication algorithm.

    Attributes
    ----------
    n_groups:
        Number of relay groups the processes are divided into.  One
        group (the *root group*) contains the FFT processes.  With
        ``n_groups = 1`` the method degenerates to the straightforward
        global all-to-all conversion.
    """

    n_groups: int = 1

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")


@dataclass(frozen=True)
class ValidationConfig:
    """Policy of the runtime invariant guardrails (``repro.validate``).

    Attributes
    ----------
    policy:
        What happens when a check fires: ``"off"`` (checks are never
        evaluated), ``"warn"`` (emit an ``InvariantWarning`` and keep
        running), ``"abort"`` (raise the ``InvariantViolation``) or
        ``"dump"`` (write a diagnostic checkpoint first, then raise —
        so the violation is reproducible offline).
    interval:
        Sampling interval: checks run every this many steps, so
        ``warn`` stays cheap enough to leave on.
    energy_tol:
        Relative total-energy drift tolerance of the per-step monitor.
        Loose by default: cosmological energy is not strictly conserved,
        so the monitor targets integrator blow-ups, not secular drift.
    energy_interval:
        Evaluate the energy monitor every this many steps; ``0``
        disables it (the total potential is an O(N^2) diagnostic).
    momentum_tol:
        Relative total-momentum drift tolerance (against the largest
        momentum scale seen so far).
    dump_dir:
        Directory for ``dump``-policy diagnostic checkpoints
        (default: ``"diagnostics"`` under the working directory).
    strict_load:
        Run a finite-field sweep over particle arrays when restoring
        any checkpoint, rejecting values corrupted in storage even when
        checksums were regenerated around them.
    overrides:
        Per-check policy overrides, e.g. ``{"energy_drift": "warn"}``;
        keys are checker names (see ``docs/validation.md``).
    """

    policy: str = "off"
    interval: int = 1
    energy_tol: float = 0.25
    energy_interval: int = 0
    momentum_tol: float = 0.25
    dump_dir: Optional[str] = None
    strict_load: bool = False
    overrides: Mapping[str, str] = field(default_factory=dict)

    _POLICIES = ("off", "warn", "abort", "dump")

    def __post_init__(self) -> None:
        if self.policy not in self._POLICIES:
            raise ValueError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )
        if self.interval < 1:
            raise ValueError("interval must be >= 1")
        if self.energy_interval < 0:
            raise ValueError("energy_interval must be >= 0")
        _check_positive("energy_tol", self.energy_tol)
        _check_positive("momentum_tol", self.momentum_tol)
        for check, policy in dict(self.overrides).items():
            if policy not in self._POLICIES:
                raise ValueError(
                    f"override for {check!r} must be one of "
                    f"{self._POLICIES}, got {policy!r}"
                )
        # normalize to a private dict copy (value semantics; asdict-safe)
        object.__setattr__(self, "overrides", dict(self.overrides))

    @property
    def enabled(self) -> bool:
        return self.policy != "off" or any(
            p != "off" for p in self.overrides.values()
        )


@dataclass(frozen=True)
class SdcConfig:
    """Policy of the silent-data-corruption (SDC) audit layer.

    Attributes
    ----------
    policy:
        What happens when an audit finds corruption: ``"off"`` (audits
        never run), ``"warn"`` (record and log the ``SdcEvent``, keep
        running with the corrupted data), ``"heal"`` (restore damaged
        blocks in place from the checksum-clean replica, or roll back
        to the last verified boundary when in-place healing is not
        possible; raise only when nothing clean survives) or
        ``"abort"`` (raise ``SdcViolation`` on first detection).
    audit_every:
        Run the audit battery every this many steps.
    spot_check_groups:
        Number of interaction-plan groups re-swept through the pure
        python reference kernel per audit (ABFT force spot-check);
        ``0`` disables the spot-check.
    keep_last:
        Checkpoint retention depth: after every durable checkpoint,
        prune all but the newest ``keep_last`` epochs.  ``0`` keeps
        everything.
    seed:
        Seed of the deterministic spot-check sampler (mixed with the
        step index and rank so every audit draws fresh groups).
    """

    policy: str = "off"
    audit_every: int = 1
    spot_check_groups: int = 4
    keep_last: int = 0
    seed: int = 2012

    _POLICIES = ("off", "warn", "heal", "abort")

    def __post_init__(self) -> None:
        if self.policy not in self._POLICIES:
            raise ValueError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )
        if self.audit_every < 1:
            raise ValueError("audit_every must be >= 1")
        if self.spot_check_groups < 0:
            raise ValueError("spot_check_groups must be >= 0")
        if self.keep_last < 0:
            raise ValueError("keep_last must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.policy != "off"


@dataclass(frozen=True)
class HealthConfig:
    """Policy of the gray-failure health layer (``repro.mpi.health``).

    Attributes
    ----------
    policy:
        What happens when a rank is confirmed a straggler: ``"off"``
        (health monitoring never runs), ``"monitor"`` (score and log
        ``HealthEvent``\\ s, take no action), ``"evict"`` (cooperative
        drain — flush the buddy replica, then voluntary shrink through
        the elastic re-decomposition path) or ``"degrade"`` (keep the
        straggler but shed load: stretch audit/checkpoint cadence
        within the declared bounds and widen collective deadlines).
    straggler_factor:
        A rank is suspect when its step time exceeds the robust fleet
        median by this factor.
    straggler_patience:
        Consecutive over-threshold steps before a suspect becomes a
        confirmed straggler (debounces one-off hiccups such as a GC
        pause or page-cache miss).
    min_samples:
        Step-time samples required before verdicts are issued (the
        first steps include warm-up noise such as JIT/native compile).
    audit_stretch_max:
        Upper bound on the degradation engine's audit/checkpoint
        cadence multiplier — the declared bound that keeps "stretch
        the audit cadence" from becoming "silently disable audits".
    deadline_quantile:
        Quantile of the observed step-time distribution that seeds the
        adaptive collective deadline.
    deadline_factor:
        Multiplier applied to the quantile to get the deadline.
    deadline_floor / deadline_ceil:
        Clamp bounds (seconds) of the adaptive deadline.
    """

    policy: str = "off"
    straggler_factor: float = 3.0
    straggler_patience: int = 3
    min_samples: int = 3
    audit_stretch_max: int = 4
    deadline_quantile: float = 0.9
    deadline_factor: float = 10.0
    deadline_floor: float = 1.0
    deadline_ceil: float = 120.0

    _POLICIES = ("off", "monitor", "evict", "degrade")

    def __post_init__(self) -> None:
        if self.policy not in self._POLICIES:
            raise ValueError(
                f"policy must be one of {self._POLICIES}, got {self.policy!r}"
            )
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        if self.straggler_patience < 1:
            raise ValueError("straggler_patience must be >= 1")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.audit_stretch_max < 1:
            raise ValueError("audit_stretch_max must be >= 1")
        if not 0.0 < self.deadline_quantile <= 1.0:
            raise ValueError("deadline_quantile must be in (0, 1]")
        _check_positive("deadline_factor", self.deadline_factor)
        _check_positive("deadline_floor", self.deadline_floor)
        if self.deadline_ceil < self.deadline_floor:
            raise ValueError("deadline_ceil must be >= deadline_floor")

    @property
    def enabled(self) -> bool:
        return self.policy != "off"


@dataclass(frozen=True)
class MachineConfig:
    """Analytic machine model for performance projection.

    Default values describe one node of the K computer as reported in
    the paper (SPARC64 VIIIfx: 8 cores at 2 GHz with 4 FMA units).

    Attributes
    ----------
    nodes:
        Number of nodes.
    cores_per_node:
        Cores per node.
    clock_hz:
        Core clock in Hz.
    fma_units:
        FMA pipelines per core.
    link_bandwidth:
        Point-to-point link bandwidth of the interconnect in bytes/s
        (Tofu: 5 GB/s per link per direction).
    link_latency:
        Per-message latency in seconds.
    torus_shape:
        Logical 3-D torus shape used by the network congestion model;
        ``prod(torus_shape)`` must equal ``nodes``.
    """

    nodes: int = 82944
    cores_per_node: int = 8
    clock_hz: float = 2.0e9
    fma_units: int = 4
    link_bandwidth: float = 5.0e9
    link_latency: float = 1.0e-6
    torus_shape: Tuple[int, int, int] = (32, 54, 48)

    def __post_init__(self) -> None:
        _check_positive("nodes", self.nodes)
        _check_positive("cores_per_node", self.cores_per_node)
        _check_positive("clock_hz", self.clock_hz)
        _check_positive("fma_units", self.fma_units)
        _check_positive("link_bandwidth", self.link_bandwidth)
        _check_positive("link_latency", self.link_latency)
        if math.prod(self.torus_shape) != self.nodes:
            raise ValueError(
                f"prod(torus_shape)={math.prod(self.torus_shape)} must equal "
                f"nodes={self.nodes}"
            )

    @property
    def peak_per_core(self) -> float:
        """LINPACK peak flop/s per core (FMA units x 2 flops x clock)."""
        return self.fma_units * 2.0 * self.clock_hz

    @property
    def peak_per_node(self) -> float:
        return self.peak_per_core * self.cores_per_node

    @property
    def peak_total(self) -> float:
        return self.peak_per_node * self.nodes


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration of a parallel TreePM simulation."""

    n_particles: int = 4096
    treepm: TreePMConfig = field(default_factory=TreePMConfig)
    domain: DomainConfig = field(default_factory=DomainConfig)
    relay: RelayMeshConfig = field(default_factory=RelayMeshConfig)
    #: Runtime invariant guardrails (``repro.validate``); diagnostics
    #: only — never part of the physics fingerprint.
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    #: Silent-data-corruption audits (``repro.validate.sdc``); like
    #: ``validation``, diagnostics only — never part of the physics
    #: fingerprint.
    sdc: SdcConfig = field(default_factory=SdcConfig)
    #: Gray-failure health layer (``repro.mpi.health``); operational
    #: policy only — never part of the physics fingerprint.
    health: HealthConfig = field(default_factory=HealthConfig)
    #: Number of PP + domain-decomposition sub-cycles per PM step
    #: (the paper: "one simulation step was composed by a cycle of the
    #: PM and two cycles of the PP and the domain decomposition").
    pp_subcycles: int = 2
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.pp_subcycles < 1:
            raise ValueError("pp_subcycles must be >= 1")
        if self.treepm.pm.fft_backend == "pencil" and self.relay.n_groups > 1:
            raise ValueError(
                "the pencil FFT has no relay mesh: relay.n_groups must be 1 "
                f"with fft_backend='pencil', got {self.relay.n_groups}"
            )

    def with_(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        """JSON-serializable representation (checkpoints, CLI)."""
        from dataclasses import asdict

        return asdict(self)

    def config_hash(self, include_layout: bool = True) -> str:
        """sha256 fingerprint of this configuration.

        Checkpoint manifests store the hash with
        ``include_layout=False``, which excludes the ``domain`` and
        ``relay`` fields: those describe the process layout rather than
        the physics, and a checkpoint may legitimately be resumed on a
        different rank count.  The ``validation`` policy is always
        excluded: guardrails are diagnostics, and a checkpoint written
        with validation off must be loadable with validation on (that is
        how a diagnostic dump is replayed).
        """
        import hashlib
        import json

        d = self.to_dict()
        d.pop("validation", None)
        d.pop("sdc", None)
        d.pop("health", None)
        if not include_layout:
            d.pop("domain", None)
            d.pop("relay", None)
        return hashlib.sha256(
            json.dumps(d, sort_keys=True, default=str).encode()
        ).hexdigest()

    @staticmethod
    def from_dict(data: dict) -> "SimulationConfig":
        """Inverse of :meth:`to_dict`; validates on construction."""
        d = dict(data)
        tp = dict(d.pop("treepm", {}))
        tree = TreeConfig(**tp.pop("tree", {}))
        pm = PMConfig(**tp.pop("pm", {}))
        treepm = TreePMConfig(tree=tree, pm=pm, **tp)
        domain = d.pop("domain", {})
        if isinstance(domain, dict):
            if "divisions" in domain:
                domain = {**domain, "divisions": tuple(domain["divisions"])}
            domain = DomainConfig(**domain)
        relay = d.pop("relay", {})
        if isinstance(relay, dict):
            relay = RelayMeshConfig(**relay)
        validation = d.pop("validation", {})
        if isinstance(validation, dict):
            validation = ValidationConfig(**validation)
        sdc = d.pop("sdc", {})
        if isinstance(sdc, dict):
            sdc = SdcConfig(**sdc)
        health = d.pop("health", {})
        if isinstance(health, dict):
            health = HealthConfig(**health)
        return SimulationConfig(
            treepm=treepm,
            domain=domain,
            relay=relay,
            validation=validation,
            sdc=sdc,
            health=health,
            **d,
        )


__all__ = [
    "TreeConfig",
    "PMConfig",
    "TreePMConfig",
    "DomainConfig",
    "RelayMeshConfig",
    "MachineConfig",
    "ValidationConfig",
    "SdcConfig",
    "HealthConfig",
    "SimulationConfig",
]
