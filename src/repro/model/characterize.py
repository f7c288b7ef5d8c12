"""Micro-benchmark characterization sweep (the paper's Section V-B).

The micro-benchmark runs standalone at 11 throughput settings covering
0-11 GB/s on each device; then every pair of settings is co-run and both
sides' degradations recorded.  That is 121 co-runs of a seconds-long kernel
— the cheap, program-count-independent step that replaces O(N^2 K^2)
exhaustive pair profiling.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.hardware.processor import IntegratedProcessor
from repro.workload.microbench import micro_benchmark, micro_grid_levels
from repro.engine.corun import steady_degradation
from repro.engine.standalone import standalone_run
from repro.model.interpolation import BilinearGrid
from repro.model.space import DegradationSpace, StagedDegradationSpace
from repro.perf.cache import EvalCache, fingerprint
from repro.perf.diskcache import resolve_disk_cache


def characterize_space(
    processor: IntegratedProcessor,
    *,
    setting: FrequencySetting | None = None,
    n_levels: int = 11,
    cache: EvalCache | None = None,
    disk_cache=None,
) -> DegradationSpace:
    """Build the degradation space by sweeping micro-benchmark co-runs.

    ``setting`` is the frequency pair the characterization runs at (default:
    both devices at maximum — the paper's choice); ``n_levels`` is the grid
    resolution per axis (paper: 11).

    The sweep is a pure function of its inputs, so it is memoized: in memory
    via ``cache`` (an :class:`~repro.perf.cache.EvalCache`), on disk via
    ``disk_cache`` (a directory, a :class:`~repro.perf.diskcache.DiskCache`,
    or the ``REPRO_CACHE_DIR`` environment variable).
    """
    if setting is None:
        setting = processor.max_setting
    key = ("characterize", fingerprint(processor, setting, n_levels))
    if cache is not None:
        return cache.get_or_compute(
            key,
            lambda: _characterize_uncached(
                processor, setting, n_levels, key[1], disk_cache
            ),
        )
    return _characterize_uncached(
        processor, setting, n_levels, key[1], disk_cache
    )


def _characterize_uncached(
    processor: IntegratedProcessor,
    setting: FrequencySetting,
    n_levels: int,
    digest: str,
    disk_cache,
) -> DegradationSpace:
    disk = resolve_disk_cache(disk_cache)
    if disk is not None:
        hit = disk.load(digest)
        if isinstance(hit, DegradationSpace):
            return hit
    space = _characterize_sweep(processor, setting, n_levels)
    if disk is not None:
        disk.store(digest, space)
    return space


def _characterize_sweep(
    processor: IntegratedProcessor,
    setting: FrequencySetting,
    n_levels: int,
) -> DegradationSpace:
    # The sweep tops out at the platform's streaming capability: the paper's
    # 0-11 GB/s range is exactly its device limit.
    max_gbps = min(
        processor.cpu.bw_limit(processor.cpu.domain.fmax),
        processor.gpu.bw_limit(processor.gpu.domain.fmax),
    )
    levels = micro_grid_levels(n_levels, max_gbps)

    micros = [micro_benchmark(x, processor.cpu, processor.gpu) for x in levels]

    # Grid coordinates are the *measured* standalone demands at the
    # characterization setting (identical to the nominal levels when
    # characterizing at maximum frequency, compressed at lower settings).
    cpu_levels = np.array(
        [
            standalone_run(m, processor.cpu, setting.cpu_ghz).demand_gbps
            for m in micros
        ]
    )
    gpu_levels = np.array(
        [
            standalone_run(m, processor.gpu, setting.gpu_ghz).demand_gbps
            for m in micros
        ]
    )

    # Every (cpu, gpu) micro-benchmark pair is co-run once; both sides'
    # degradations fill one grid cell each.
    cpu_deg = np.zeros((n_levels, n_levels))
    gpu_deg = np.zeros((n_levels, n_levels))
    for i, cpu_micro in enumerate(micros):
        for j, gpu_micro in enumerate(micros):
            cpu_deg[i, j] = steady_degradation(
                processor, cpu_micro, DeviceKind.CPU, gpu_micro, setting
            )
            gpu_deg[i, j] = steady_degradation(
                processor, gpu_micro, DeviceKind.GPU, cpu_micro, setting
            )

    return DegradationSpace(
        levels_gbps=levels,
        cpu_grid=BilinearGrid(cpu_levels, gpu_levels, cpu_deg),
        gpu_grid=BilinearGrid(cpu_levels, gpu_levels, gpu_deg),
        setting=setting,
    )


def characterize_staged_space(
    processor: IntegratedProcessor,
    *,
    anchor_settings: list[FrequencySetting] | None = None,
    n_levels: int = 11,
    cache: EvalCache | None = None,
    disk_cache=None,
) -> StagedDegradationSpace:
    """Characterize the space at several frequency anchors (full staging).

    Default anchors: the four corners of the frequency space — both-max,
    both-min, max-CPU/min-GPU, min-CPU/max-GPU — which bracket every
    setting the schedulers can choose.
    """
    if anchor_settings is None:
        cpu_dom, gpu_dom = processor.cpu.domain, processor.gpu.domain
        anchor_settings = [
            FrequencySetting(cpu_dom.fmax, gpu_dom.fmax),
            FrequencySetting(cpu_dom.fmax, gpu_dom.fmin),
            FrequencySetting(cpu_dom.fmin, gpu_dom.fmax),
            FrequencySetting(cpu_dom.fmin, gpu_dom.fmin),
        ]
    anchors = tuple(
        characterize_space(
            processor,
            setting=s,
            n_levels=n_levels,
            cache=cache,
            disk_cache=disk_cache,
        )
        for s in anchor_settings
    )
    return StagedDegradationSpace(anchors=anchors)
