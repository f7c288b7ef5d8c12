"""Random synthetic workload generation.

Property-based tests and the scalability/ablation experiments need arbitrary
but physically sensible programs.  The generator samples the same parameter
ranges spanned by the calibrated Rodinia-like set, so random workloads
exercise the full contention landscape (compute-bound to memory-saturating,
CPU-preferring to GPU-preferring).
"""

from __future__ import annotations

import numpy as np

from repro.hardware.device import ComputeDevice, DeviceKind
from repro.workload.phases import Phase
from repro.workload.program import Job, ProgramProfile
from repro.util.rng import default_rng


def random_program(
    seed: int | np.random.Generator | None = None,
    *,
    name: str | None = None,
    min_time_s: float = 10.0,
    max_time_s: float = 90.0,
    max_phases: int = 4,
) -> ProgramProfile:
    """Sample one random program profile.

    The GPU/CPU speed ratio is sampled log-uniformly in [1/3, 3], covering
    CPU-preferred, non-preferred, and GPU-preferred programs.
    """
    rng = default_rng(seed)
    if name is None:
        name = f"synth-{rng.integers(0, 10**9):09d}"

    cpu_time = float(rng.uniform(min_time_s, max_time_s))
    ratio = float(np.exp(rng.uniform(np.log(1 / 3), np.log(3))))
    gpu_time = cpu_time / ratio

    # Memory intensity: fraction of the (shorter) runtime that is memory
    # traffic at a plausible achieved bandwidth.
    mem_frac = float(rng.uniform(0.05, 0.9))
    achieved_bw = float(rng.uniform(3.0, 10.0))
    bytes_gb = mem_frac * min(cpu_time, gpu_time) * achieved_bw

    n_phases = int(rng.integers(1, max_phases + 1))
    raw = [
        Phase(weight=float(rng.uniform(0.2, 1.0)), intensity=float(rng.uniform(0.3, 2.0)))
        for _ in range(n_phases)
    ]

    return _solve_profile(
        name=name,
        cpu_time=cpu_time,
        gpu_time=gpu_time,
        bytes_gb=bytes_gb,
        mem_eff_cpu=float(rng.uniform(0.6, 1.0)),
        mem_eff_gpu=float(rng.uniform(0.6, 1.0)),
        overlap=float(rng.uniform(0.2, 0.9)),
        sens_cpu=float(rng.uniform(0.5, 2.0)),
        sens_gpu=float(rng.uniform(0.3, 1.5)),
        phases=tuple(raw),
    )


def _solve_profile(
    *,
    name: str,
    cpu_time: float,
    gpu_time: float,
    bytes_gb: float,
    mem_eff_cpu: float,
    mem_eff_gpu: float,
    overlap: float,
    sens_cpu: float,
    sens_gpu: float,
    phases: tuple[Phase, ...],
) -> ProgramProfile:
    """Build a profile hitting the target standalone times at max frequency."""
    from repro.engine.standalone import solve_compute_base, standalone_run
    from repro.hardware.calibration import make_ivy_bridge

    processor = make_ivy_bridge()
    skeleton = ProgramProfile(
        name=name,
        compute_base_s={DeviceKind.CPU: 0.0, DeviceKind.GPU: 0.0},
        bytes_gb=bytes_gb,
        mem_eff={DeviceKind.CPU: mem_eff_cpu, DeviceKind.GPU: mem_eff_gpu},
        overlap=overlap,
        sensitivity={DeviceKind.CPU: sens_cpu, DeviceKind.GPU: sens_gpu},
        phases=phases,
    )

    def floor_time(device: ComputeDevice) -> float:
        return standalone_run(skeleton, device, device.domain.fmax).time_s

    # If the sampled traffic cannot fit in the sampled runtime, shrink it.
    cpu_floor = floor_time(processor.cpu)
    gpu_floor = floor_time(processor.gpu)
    shrink = min(cpu_time / cpu_floor if cpu_floor > 0 else np.inf,
                 gpu_time / gpu_floor if gpu_floor > 0 else np.inf)
    if shrink < 1.0:
        from dataclasses import replace

        skeleton = replace(skeleton, bytes_gb=bytes_gb * shrink * 0.95)

    cpu_base = solve_compute_base(skeleton, processor.cpu, cpu_time)
    gpu_base = solve_compute_base(skeleton, processor.gpu, gpu_time)
    from dataclasses import replace

    return replace(
        skeleton,
        compute_base_s={DeviceKind.CPU: cpu_base, DeviceKind.GPU: gpu_base},
    )


def random_workload(
    n_jobs: int,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> list[Job]:
    """Sample ``n_jobs`` independent random jobs."""
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    rng = default_rng(seed)
    jobs = []
    for k in range(n_jobs):
        profile = random_program(rng, name=f"synth-{k:03d}", **kwargs)
        jobs.append(Job(uid=profile.name, profile=profile))
    return jobs

