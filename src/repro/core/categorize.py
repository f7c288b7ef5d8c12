"""Step 2 of the heuristic: processor-preference categorization.

Each co-run candidate is labeled CPU-preferred, GPU-preferred, or
non-preferred by comparing its execution times on the two processors *at
the highest frequency allowed by the power cap* (the IV-A.2 change).  A
relative difference at or below the threshold D — empirically 20% in the
paper — means no preference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from collections.abc import Sequence

from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.model.predictor import CoRunPredictor
from repro.util.validation import check_nonnegative

#: The paper's empirically selected preference threshold.
DEFAULT_THRESHOLD = 0.20


class Preference(enum.Enum):
    """Which processor a job prefers."""

    CPU = "cpu"
    GPU = "gpu"
    NONE = "non-preferred"


@dataclass(frozen=True)
class Categorized:
    """Step 2 output: the three preference sets, order-preserving."""

    cpu_preferred: tuple[Job, ...]
    gpu_preferred: tuple[Job, ...]
    non_preferred: tuple[Job, ...]

    def of(self, preference: Preference) -> tuple[Job, ...]:
        if preference is Preference.CPU:
            return self.cpu_preferred
        if preference is Preference.GPU:
            return self.gpu_preferred
        return self.non_preferred


def job_preference(
    predictor: CoRunPredictor,
    job: Job,
    cap_w: float,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> Preference:
    """Classify one job.

    The comparison times are the standalone runs at the fastest cap-feasible
    level of each device.  If the job cannot run under the cap on one device
    at all, it trivially prefers the other.  A negative or ``NaN``
    ``threshold`` raises ``ValueError``.
    """
    check_nonnegative("threshold", threshold)
    try:
        _, t_cpu = predictor.best_solo(job.uid, DeviceKind.CPU, cap_w)
    except ValueError:
        return Preference.GPU
    try:
        _, t_gpu = predictor.best_solo(job.uid, DeviceKind.GPU, cap_w)
    except ValueError:
        return Preference.CPU
    diff = abs(t_cpu - t_gpu) / min(t_cpu, t_gpu)
    if diff <= threshold:
        return Preference.NONE
    return Preference.CPU if t_cpu < t_gpu else Preference.GPU


def categorize_jobs(
    predictor: CoRunPredictor,
    jobs: Sequence[Job],
    cap_w: float,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> Categorized:
    """Classify every job into the three preference sets.

    A negative or ``NaN`` ``threshold`` raises ``ValueError``: no relative
    difference compares at or below ``NaN``, so it would silently give
    every job a preference.
    """
    check_nonnegative("threshold", threshold)
    buckets: dict[Preference, list[Job]] = {p: [] for p in Preference}
    for job in jobs:
        buckets[job_preference(predictor, job, cap_w, threshold=threshold)].append(job)
    return Categorized(
        cpu_preferred=tuple(buckets[Preference.CPU]),
        gpu_preferred=tuple(buckets[Preference.GPU]),
        non_preferred=tuple(buckets[Preference.NONE]),
    )
