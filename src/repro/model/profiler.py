"""Offline standalone profiling.

The paper records, for every program, device, and frequency level, the
standalone run time and power ("we use offline profiling to record the
standalone performance and power usage at each frequency level", Section
V-C).  These are the ``l_{i,p,f}`` values of the algorithms, plus the
bandwidth-demand coordinates the interpolation model needs.

For N programs this costs N x (16 + 10) solo runs — linear in N, unlike
exhaustive pair profiling.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.hardware.device import DeviceKind
from repro.hardware.processor import IntegratedProcessor
from repro.workload.program import Job
from repro.engine.standalone import standalone_power_w, standalone_run
from repro.perf.cache import EvalCache, fingerprint
from repro.perf.diskcache import resolve_disk_cache


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


def _job_device_profile(
    job: Job, kind: DeviceKind, processor: IntegratedProcessor
) -> _JobProfile:
    """One job's standalone sweep on one device."""
    device = processor.device(kind)
    levels = device.domain.levels
    times = np.empty(len(levels))
    demands = np.empty(len(levels))
    own = np.empty(len(levels))
    chip = np.empty(len(levels))
    for idx, f in enumerate(levels):
        run = standalone_run(job.profile, device, f)
        times[idx] = run.time_s
        demands[idx] = run.demand_gbps
        own[idx], chip[idx] = standalone_power_w(job.profile, processor, kind, f)
    return _JobProfile(
        time_s=times, demand_gbps=demands, own_power_w=own, chip_power_w=chip
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
    :mod:`repro.perf.diskcache`).
    """
    uids = [j.uid for j in jobs]
    if len(set(uids)) != len(uids):
        raise ValueError("job uids must be unique")
    jobs = tuple(jobs)
    key = ("profile", fingerprint(processor, jobs))
    if cache is not None:
        return cache.get_or_compute(
            key,
            lambda: _profile_uncached(processor, jobs, key[1], disk_cache),
        )
    return _profile_uncached(processor, jobs, key[1], disk_cache)


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
    tasks = [(job, kind) for job in new_jobs for kind in DeviceKind]
    if cache is None:
        results = [_job_device_profile(job, kind, processor) for job, kind in tasks]
    else:
        results = [
            cache.get_or_compute(
                ("solo-sweep", fingerprint(processor, job.profile), kind.name),
                lambda job=job, kind=kind: _job_device_profile(
                    job, kind, processor
                ),
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


def _profile_uncached(
    processor: IntegratedProcessor,
    jobs: tuple[Job, ...],
    digest: str,
    disk_cache,
) -> ProfileTable:
    disk = resolve_disk_cache(disk_cache)
    if disk is not None:
        hit = disk.load(digest)
        if isinstance(hit, ProfileTable):
            return hit
    tasks = [(job, kind) for job in jobs for kind in DeviceKind]
    results = [_job_device_profile(job, kind, processor) for job, kind in tasks]
    profiles = {
        (job.uid, kind): prof for (job, kind), prof in zip(tasks, results)
    }
    table = ProfileTable(processor=processor, jobs=jobs, _profiles=profiles)
    if disk is not None:
        disk.store(digest, table)
    return table
