"""Program profiles and schedulable job instances.

A :class:`ProgramProfile` is the complete physical description of one
OpenCL-like program; everything the execution engine and the predictor know
about a program derives from it.  A :class:`Job` is one schedulable instance
of a program — the paper's 16-program experiment runs two instances of each
program with different inputs, modeled here as a scale factor on the work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Mapping, Sequence

from repro.hardware.device import DeviceKind
from repro.workload.phases import Phase, normalize_phases, uniform_phases
from repro.util.validation import check_in_range, check_nonnegative, check_positive


@dataclass(frozen=True)
class PerDevice:
    """An immutable (and hashable) per-device-kind pair of values.

    Profiles accept plain ``{DeviceKind: value}`` dicts for convenience and
    coerce them to this type, which keeps :class:`ProgramProfile` hashable —
    schedules containing jobs can then live in sets and dict keys.
    """

    cpu: float
    gpu: float

    @classmethod
    def coerce(cls, value, field_name: str, owner: str) -> "PerDevice":
        if isinstance(value, cls):
            return value
        try:
            return cls(cpu=value[DeviceKind.CPU], gpu=value[DeviceKind.GPU])
        except (KeyError, TypeError):
            raise ValueError(
                f"{owner}: missing {field_name}[cpu/gpu] entry"
            ) from None

    def __getitem__(self, kind: DeviceKind) -> float:
        return self.cpu if kind is DeviceKind.CPU else self.gpu

    def __contains__(self, kind: object) -> bool:
        return isinstance(kind, DeviceKind)

    def items(self):
        return ((DeviceKind.CPU, self.cpu), (DeviceKind.GPU, self.gpu))

    def keys(self):
        # Together with __getitem__ this makes ``{**per_device, ...}`` work.
        return (DeviceKind.CPU, DeviceKind.GPU)


@dataclass(frozen=True)
class ProgramProfile:
    """Physical description of one program.

    Attributes
    ----------
    name:
        Program name (e.g. ``"streamcluster"``).
    compute_base_s:
        Per-device compute time in seconds at the device's reference (max)
        frequency — the time the program would take with an infinitely fast
        memory system.
    bytes_gb:
        Total main-memory traffic in GB (reads + writes past the LLC).
    mem_eff:
        Per-device fraction of the device's streaming-bandwidth limit this
        program's access pattern achieves (1.0 = perfect streaming).
    overlap:
        Fraction of the smaller of (compute time, memory time) hidden under
        the larger — 0 means fully serialized phases, 1 perfect overlap.
    sensitivity:
        Per-device multiplier on contention-induced memory-latency growth.
        The micro-benchmark defines 1.0; latency-bound access patterns
        (e.g. dwt2d on the CPU) exceed it, latency-tolerant streaming
        kernels (e.g. streamcluster on the GPU) fall below it.  The paper's
        predictor cannot see this, which is a deliberate error source.
    phases:
        Normalised phase structure (see :mod:`repro.workload.phases`).
    """

    name: str
    compute_base_s: Mapping[DeviceKind, float]
    bytes_gb: float
    mem_eff: Mapping[DeviceKind, float]
    overlap: float
    sensitivity: Mapping[DeviceKind, float]
    phases: tuple[Phase, ...] = field(default_factory=uniform_phases)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "compute_base_s",
            PerDevice.coerce(self.compute_base_s, "compute_base_s", self.name),
        )
        object.__setattr__(
            self, "mem_eff", PerDevice.coerce(self.mem_eff, "mem_eff", self.name)
        )
        object.__setattr__(
            self,
            "sensitivity",
            PerDevice.coerce(self.sensitivity, "sensitivity", self.name),
        )
        for kind in DeviceKind:
            check_nonnegative(f"compute_base_s[{kind}]", self.compute_base_s[kind])
            check_in_range(f"mem_eff[{kind}]", self.mem_eff[kind], 1e-6, 1.0)
            check_nonnegative(f"sensitivity[{kind}]", self.sensitivity[kind])
        check_nonnegative("bytes_gb", self.bytes_gb)
        check_in_range("overlap", self.overlap, 0.0, 1.0)
        object.__setattr__(self, "phases", normalize_phases(self.phases))
        for kind in DeviceKind:
            # Such a device would run an empty program: the model has no
            # latency to predict and the engine no step to take.
            if self.bytes_gb == 0.0 and self.compute_base_s[kind] == 0.0:
                raise ValueError(
                    f"{self.name}: program has no work on {kind} "
                    "(zero compute and zero memory traffic)"
                )

    def scaled(self, factor: float, name: str | None = None) -> "ProgramProfile":
        """A copy with all work (compute and bytes) scaled by ``factor``.

        Used to derive "different input" instances of the same program for
        the 16-job experiment: a larger input scales both compute and
        traffic, leaving intensity characteristics unchanged.
        """
        check_positive("factor", factor)
        return replace(
            self,
            name=name or self.name,
            compute_base_s={k: v * factor for k, v in self.compute_base_s.items()},
            bytes_gb=self.bytes_gb * factor,
        )


@dataclass(frozen=True)
class Job:
    """One schedulable instance of a program."""

    uid: str
    profile: ProgramProfile

    @property
    def name(self) -> str:
        return self.uid

    @property
    def program_name(self) -> str:
        return self.profile.name

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.uid


def make_jobs(
    profiles: Sequence[ProgramProfile],
    *,
    instances: int = 1,
    instance_scales: Sequence[float] | None = None,
) -> list[Job]:
    """Materialise jobs from program profiles.

    With ``instances > 1``, each program yields several jobs named
    ``<program>#<k>``; ``instance_scales`` (one factor per instance) models
    different input sizes, as in the paper's 16-program study.
    """
    if instances < 1:
        raise ValueError("instances must be >= 1")
    if instance_scales is not None and len(instance_scales) != instances:
        raise ValueError("need exactly one scale per instance")
    jobs: list[Job] = []
    for profile in profiles:
        for k in range(instances):
            if instances == 1 and instance_scales is None:
                jobs.append(Job(uid=profile.name, profile=profile))
                continue
            scale = 1.0 if instance_scales is None else instance_scales[k]
            uid = f"{profile.name}#{k}"
            jobs.append(Job(uid=uid, profile=profile.scaled(scale, name=profile.name)))
    return jobs
