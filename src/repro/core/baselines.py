"""The comparison schedulers of Section VI-A: Random and Default.

*Random* mimics an operator with no model: whenever a processor goes idle it
grabs a random remaining job, or occasionally leaves the processor idle (the
paper allows this "as some jobs prefer to be executed alone").

*Default* mimics handing the batch to the OS: programs are ranked by their
CPU/GPU standalone-time ratio at the highest frequency, split into a GPU
partition and a CPU partition so the longer partition's total time is
minimized, and the CPU partition is launched all at once under the Linux
scheduler (time-shared — see :mod:`repro.engine.multiprog`).

Neither baseline controls power by itself; both rely on a GPU-biased or
CPU-biased governor (:mod:`repro.core.freqpolicy`) to satisfy the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.schedule import CoSchedule
from repro.model.profiler import ProfileTable
from repro.util.rng import default_rng

#: Probability that Random leaves a job to run alone at the tail.
DEFAULT_SOLO_PROB = 0.1


def random_schedule(
    jobs,
    *,
    seed: int | np.random.Generator | None = None,
    solo_prob: float = DEFAULT_SOLO_PROB,
) -> CoSchedule:
    """One sample of the Random baseline.

    ``jobs`` may be a job sequence or a
    :class:`~repro.core.context.SchedulingContext` (whose jobs and seed are
    used; an explicit ``seed`` wins).  Jobs are visited in random order;
    each lands on a uniformly random processor queue, except that with
    probability ``solo_prob`` it is set aside to run alone (on a random
    processor) after the queues drain.
    """
    from repro.core.context import SchedulingContext

    if isinstance(jobs, SchedulingContext):
        if seed is None:
            seed = jobs.seed
        jobs = jobs.jobs
    if not 0.0 <= solo_prob <= 1.0:
        raise ValueError("solo_prob must be a probability")
    rng = default_rng(seed)
    order = list(jobs)
    rng.shuffle(order)
    cpu: list[Job] = []
    gpu: list[Job] = []
    solo: list[tuple[Job, DeviceKind]] = []
    for job in order:
        if rng.random() < solo_prob:
            kind = DeviceKind.CPU if rng.random() < 0.5 else DeviceKind.GPU
            solo.append((job, kind))
        elif rng.random() < 0.5:
            cpu.append(job)
        else:
            gpu.append(job)
    return CoSchedule(
        cpu_queue=tuple(cpu), gpu_queue=tuple(gpu), solo_tail=tuple(solo)
    )


@dataclass(frozen=True)
class DefaultPartition:
    """The Default baseline's placement decision."""

    gpu_partition: tuple[Job, ...]  # ranked most-GPU-preferring first
    cpu_partition: tuple[Job, ...]


def default_partition(
    table: ProfileTable, jobs: Sequence[Job] | None = None
) -> DefaultPartition:
    """Rank-and-split placement (Section VI-A, "Default").

    ``table`` may be a :class:`~repro.core.context.SchedulingContext`
    (whose predictor's profile table and jobs are used).  Ranking key:
    standalone CPU time over GPU time at the highest frequency (higher
    ratio = stronger GPU preference).  The split point minimizes the larger
    of the two partitions' summed standalone times — the paper's
    "partitioning minimizes the sum of execution times of the longer
    partition".
    """
    from repro.core.context import SchedulingContext

    if isinstance(table, SchedulingContext):
        if jobs is None:
            jobs = table.jobs
        table = table.predictor.table
    elif jobs is None:
        raise TypeError("jobs are required without a SchedulingContext")
    proc = table.processor
    fc, fg = proc.cpu.domain.fmax, proc.gpu.domain.fmax

    def ratio(job: Job) -> float:
        return table.time_s(job.uid, DeviceKind.CPU, fc) / table.time_s(
            job.uid, DeviceKind.GPU, fg
        )

    ranked = sorted(jobs, key=ratio, reverse=True)
    gpu_times = [table.time_s(j.uid, DeviceKind.GPU, fg) for j in ranked]
    cpu_times = [table.time_s(j.uid, DeviceKind.CPU, fc) for j in ranked]

    best_k, best_span = 0, float("inf")
    for k in range(len(ranked) + 1):
        span = max(sum(gpu_times[:k]), sum(cpu_times[k:]))
        if span < best_span:
            best_k, best_span = k, span
    return DefaultPartition(
        gpu_partition=tuple(ranked[:best_k]),
        cpu_partition=tuple(ranked[best_k:]),
    )


class RandomOnlinePolicy:
    """Online Random policy (the paper's actual baseline semantics).

    Whenever a processor goes idle it receives a uniformly random arrived
    job — or, with probability ``idle_prob`` (and only while the other
    processor is busy), it is left idle until the next scheduling event.
    """

    def __init__(
        self,
        seed: int | np.random.Generator | None = None,
        idle_prob: float = DEFAULT_SOLO_PROB,
    ) -> None:
        if not 0.0 <= idle_prob <= 1.0:
            raise ValueError("idle_prob must be a probability")
        self._rng = default_rng(seed)
        self.idle_prob = idle_prob

    def __call__(
        self, kind: DeviceKind, available: list[Job], other: Job | None, now: float
    ) -> Job | None:
        if not available:
            return None
        if other is not None and self._rng.random() < self.idle_prob:
            return None
        return available[int(self._rng.integers(len(available)))]
