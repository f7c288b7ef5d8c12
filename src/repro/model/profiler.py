"""Offline standalone profiling.

The paper records, for every program, device, and frequency level, the
standalone run time and power ("we use offline profiling to record the
standalone performance and power usage at each frequency level", Section
V-C).  These are the ``l_{i,p,f}`` values of the algorithms, plus the
bandwidth-demand coordinates the interpolation model needs.

For N programs this is one sweep per job and device — linear in N, unlike
exhaustive pair profiling.  A sweep is one array pass over the job's
``(phases x levels)`` timings that performs, element for element, what
:func:`~repro.engine.standalone.standalone_run` and
:func:`~repro.engine.standalone.standalone_power_w` do at each level, so
the scalar solo run stays the referee (``tests/model/test_profiler.py``
holds every array to it byte for byte).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.hardware.device import DeviceKind
from repro.hardware.processor import IntegratedProcessor
from repro.workload.program import Job
from repro.perf.cache import EvalCache, fingerprint
from repro.perf.diskcache import resolve_disk_cache
from repro.util.validation import check_in_range, check_nonnegative


@dataclass(frozen=True)
class _JobProfile:
    """Per-level standalone observations for one job on one device."""

    time_s: np.ndarray
    demand_gbps: np.ndarray
    own_power_w: np.ndarray
    chip_power_w: np.ndarray


@dataclass(frozen=True)
class ProfileTable:
    """Standalone profiles of a job set on one processor.

    All lookups are keyed by job uid, device kind, and an exact frequency
    level of the corresponding domain.
    """

    processor: IntegratedProcessor
    jobs: tuple[Job, ...]
    _profiles: dict[tuple[str, DeviceKind], _JobProfile]

    def _lookup(self, uid: str, kind: DeviceKind, f_ghz: float) -> tuple[_JobProfile, int]:
        try:
            prof = self._profiles[(uid, kind)]
        except KeyError:
            raise KeyError(f"job {uid!r} was not profiled") from None
        idx = self.processor.device(kind).domain.index_of(f_ghz)
        return prof, idx

    def time_s(self, uid: str, kind: DeviceKind, f_ghz: float) -> float:
        """Standalone run time ``l_{i,p,f}``."""
        prof, idx = self._lookup(uid, kind, f_ghz)
        return float(prof.time_s[idx])

    def demand_gbps(self, uid: str, kind: DeviceKind, f_ghz: float) -> float:
        """Standalone memory-bandwidth demand (interpolation coordinate)."""
        prof, idx = self._lookup(uid, kind, f_ghz)
        return float(prof.demand_gbps[idx])

    def own_power_w(self, uid: str, kind: DeviceKind, f_ghz: float) -> float:
        """Standalone power of the device the job runs on."""
        prof, idx = self._lookup(uid, kind, f_ghz)
        return float(prof.own_power_w[idx])

    def chip_power_w(self, uid: str, kind: DeviceKind, f_ghz: float) -> float:
        """Whole-chip power of the standalone run (other device idle)."""
        prof, idx = self._lookup(uid, kind, f_ghz)
        return float(prof.chip_power_w[idx])

    def __contains__(self, uid: object) -> bool:
        """Whether ``uid`` has profiles (both devices are always swept)."""
        return (uid, DeviceKind.CPU) in self._profiles

    def job(self, uid: str) -> Job:
        """The job object behind a uid."""
        for j in self.jobs:
            if j.uid == uid:
                return j
        raise KeyError(f"unknown job {uid!r}")

    @property
    def uids(self) -> list[str]:
        return [j.uid for j in self.jobs]


@dataclass(frozen=True)
class _LevelSweep:
    """Per-level constants of one device's sweep, shared by every job.

    Each entry is the scalar chain's own intermediate at that level
    (``device.speed``, ``device.bw_limit``, ``dyn_coeff * f * V * V`` in
    :meth:`~repro.hardware.power.DevicePowerModel.dynamic_power`'s
    multiplication order), so the array pass reproduces it bit for bit.
    """

    kind: DeviceKind
    speed: np.ndarray          # (L,) relative compute speed
    bw_limit: np.ndarray       # (L,) standalone bandwidth limit, GB/s
    dyn_fvv: np.ndarray        # (L,) dynamic power at util 1
    leakage_w: float
    stall_fraction: float
    other_idle_w: float        # the other device idling at its fmin
    uncore_base_w: float
    uncore_per_gbps_w: float


def _level_sweeps(processor: IntegratedProcessor) -> dict[DeviceKind, _LevelSweep]:
    """Both devices' per-level constants (computed once per profiling call)."""
    power = processor.power
    sweeps = {}
    for kind in DeviceKind:
        device = processor.device(kind)
        own = power.cpu if kind is DeviceKind.CPU else power.gpu
        other = power.gpu if kind is DeviceKind.CPU else power.cpu
        levels = device.domain.levels
        dyn_fvv = []
        for f in levels:
            v = own.curve.voltage(f)
            dyn_fvv.append(own.dyn_coeff * f * v * v)
        sweeps[kind] = _LevelSweep(
            kind=kind,
            speed=np.array([device.speed(f) for f in levels]),
            bw_limit=np.array([device.bw_limit(f) for f in levels]),
            dyn_fvv=np.array(dyn_fvv),
            leakage_w=own.leakage_w,
            stall_fraction=own.stall_power_fraction,
            other_idle_w=other.idle_power(processor.device(kind.other).domain.fmin),
            uncore_base_w=power.uncore.base_w,
            uncore_per_gbps_w=power.uncore.per_gbps_w,
        )
    return sweeps


def _column_sums(a: np.ndarray) -> np.ndarray:
    """Per-level sums over phases with the builtin ``sum``.

    ``standalone_run`` sums its phases with ``sum``, whose float rounding
    is interpreter-specific (compensated since Python 3.12, left to right
    before), so the array pass must call the same function.
    """
    return np.array([sum(col) for col in a.T.tolist()])


def _check_levels(cf: np.ndarray, util: np.ndarray, demand: np.ndarray) -> None:
    """The scalar sweep's range checks, raising the first error it would."""
    if (
        (cf >= 0.0) & (cf <= 1.0) & (util >= 0.0) & (util <= 1.0) & (demand >= 0.0)
    ).all():
        return
    for c, u, d in zip(cf.tolist(), util.tolist(), demand.tolist()):
        check_in_range("compute_fraction", c, 0.0, 1.0)
        check_in_range("util", u, 0.0, 1.0)
        check_nonnegative("total_bw_gbps", d)


def _job_device_profile(job: Job, sweep: _LevelSweep) -> _JobProfile:
    """One job's standalone sweep on one device, over every level at once.

    One pass over a ``(phases x levels)`` array performs, element for
    element, the operations of :func:`~repro.engine.standalone.
    standalone_run` and :func:`~repro.engine.standalone.standalone_power_w`
    at each level (same operands, same order, the same ``>=`` tie in
    ``phase_time``), so every value is bitwise equal to the scalar run's.
    """
    profile = job.profile
    kind = sweep.kind
    base_c = profile.compute_base_s[kind]
    phases = profile.phases
    compute = np.array([ph.weight * base_c for ph in phases])[:, None] / sweep.speed
    traffic = np.array([ph.weight * ph.intensity * profile.bytes_gb for ph in phases])
    mem = traffic[:, None] / (sweep.bw_limit * profile.mem_eff[kind])
    compute_wins = compute >= mem
    hi = np.where(compute_wins, compute, mem)
    lo = np.where(compute_wins, mem, compute)
    duration = hi + (1.0 - profile.overlap) * lo

    times = _column_sums(duration)
    busy = _column_sums(np.minimum(compute, duration))
    ran = times > 0
    demand = np.divide(profile.bytes_gb, times, out=np.zeros_like(times), where=ran)
    cf = np.minimum(1.0, np.divide(busy, times, out=np.zeros_like(times), where=ran))
    util = cf + (1.0 - cf) * sweep.stall_fraction
    _check_levels(cf, util, demand)
    own = sweep.leakage_w + sweep.dyn_fvv * util
    chip = own + sweep.other_idle_w + (
        sweep.uncore_base_w + sweep.uncore_per_gbps_w * demand
    )
    return _JobProfile(
        time_s=times, demand_gbps=demand, own_power_w=own, chip_power_w=chip
    )


def profile_workload(
    processor: IntegratedProcessor,
    jobs: Sequence[Job],
    *,
    cache: EvalCache | None = None,
    disk_cache=None,
) -> ProfileTable:
    """Profile every job standalone on both devices at every frequency level.

    Profiling is a pure function of (processor, jobs): ``cache`` memoizes
    the whole table in memory, ``disk_cache`` persists it across runs (see
    :mod:`repro.perf.diskcache`).  Without either, no content hash is taken.
    """
    uids = [j.uid for j in jobs]
    if len(set(uids)) != len(uids):
        raise ValueError("job uids must be unique")
    jobs = tuple(jobs)
    if cache is not None:
        digest = fingerprint(processor, jobs)
        return cache.get_or_compute(
            ("profile", digest),
            lambda: _profile_on_disk(
                processor, jobs, digest, resolve_disk_cache(disk_cache)
            ),
        )
    disk = resolve_disk_cache(disk_cache)
    if disk is None:
        return _profile(processor, jobs)
    return _profile_on_disk(processor, jobs, fingerprint(processor, jobs), disk)


def extend_table(
    table: ProfileTable,
    jobs: Sequence[Job],
    *,
    cache: EvalCache | None = None,
) -> ProfileTable:
    """Profile additional jobs and merge them into a new table.

    The incremental counterpart of :func:`profile_workload` for online use
    (the :mod:`repro.service` daemon profiles each submission on arrival).
    Per-(program, device) sweeps are keyed by *profile content* in
    ``cache``, so repeated submissions of the same program and scale reuse
    the sweep even though every submission carries a fresh uid.
    """
    existing = set(table.uids)
    new_jobs: list[Job] = []
    for job in jobs:
        if job.uid in existing or any(j.uid == job.uid for j in new_jobs):
            raise ValueError(f"job {job.uid!r} is already profiled")
        new_jobs.append(job)
    if not new_jobs:
        return table

    processor = table.processor
    sweeps: dict[DeviceKind, _LevelSweep] = {}

    def sweep(job: Job, kind: DeviceKind) -> _JobProfile:
        # The level constants are built on the first cache miss only.
        if not sweeps:
            sweeps.update(_level_sweeps(processor))
        return _job_device_profile(job, sweeps[kind])

    tasks = [(job, kind) for job in new_jobs for kind in DeviceKind]
    if cache is None:
        results = [sweep(job, kind) for job, kind in tasks]
    else:
        results = [
            cache.get_or_compute(
                ("solo-sweep", fingerprint(processor, job.profile), kind.name),
                lambda job=job, kind=kind: sweep(job, kind),
            )
            for job, kind in tasks
        ]
    profiles = dict(table._profiles)
    profiles.update(
        {(job.uid, kind): prof for (job, kind), prof in zip(tasks, results)}
    )
    return ProfileTable(
        processor=table.processor,
        jobs=table.jobs + tuple(new_jobs),
        _profiles=profiles,
    )


def _profile(processor: IntegratedProcessor, jobs: tuple[Job, ...]) -> ProfileTable:
    sweeps = _level_sweeps(processor)
    profiles = {
        (job.uid, kind): _job_device_profile(job, sweeps[kind])
        for job in jobs
        for kind in DeviceKind
    }
    return ProfileTable(processor=processor, jobs=jobs, _profiles=profiles)


def _profile_on_disk(
    processor: IntegratedProcessor,
    jobs: tuple[Job, ...],
    digest: str,
    disk,
) -> ProfileTable:
    """:func:`_profile` through the disk cache ``disk`` (may be ``None``)."""
    if disk is not None:
        hit = disk.load(digest)
        if isinstance(hit, ProfileTable):
            return hit
    table = _profile(processor, jobs)
    if disk is not None:
        disk.store(digest, table)
    return table
