"""Step 2 of the heuristic: processor-preference categorization.

Each co-run candidate is labeled CPU-preferred, GPU-preferred, or
non-preferred by comparing its execution times on the two processors *at
the highest frequency allowed by the power cap* (the IV-A.2 change).  A
relative difference at or below the threshold D — empirically 20% in the
paper — means no preference.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from collections.abc import Callable, Sequence

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


def best_solo_time(
    predictor: CoRunPredictor, job: Job, kind: DeviceKind, cap_w: float
) -> float:
    """The job's fastest cap-feasible standalone time on ``kind``; ``inf``
    when no level of that device fits the cap."""
    try:
        return predictor.best_solo(job.uid, kind, cap_w)[1]
    except ValueError:
        return math.inf


def _preference(t_cpu: float, t_gpu: float, threshold: float) -> Preference:
    """The preference given both best standalone times (``inf`` = cannot run)."""
    if math.isinf(t_cpu):
        return Preference.GPU
    if math.isinf(t_gpu):
        return Preference.CPU
    diff = abs(t_cpu - t_gpu) / min(t_cpu, t_gpu)
    if diff <= threshold:
        return Preference.NONE
    return Preference.CPU if t_cpu < t_gpu else Preference.GPU


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
    return _preference(
        best_solo_time(predictor, job, DeviceKind.CPU, cap_w),
        best_solo_time(predictor, job, DeviceKind.GPU, cap_w),
        threshold,
    )


def categorize_jobs(
    predictor: CoRunPredictor,
    jobs: Sequence[Job],
    cap_w: float,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    best_time: Callable[[Job, DeviceKind], float] | None = None,
) -> Categorized:
    """Classify every job into the three preference sets.

    ``best_time(job, kind)`` supplies the standalone times when given —
    HCS passes its Step 3 source's, which reads the tensor model's
    best-solo reduction — with ``inf`` where the job cannot run; it
    defaults to :func:`best_solo_time` over the predictor.  A negative or
    ``NaN`` ``threshold`` raises ``ValueError``: no relative difference
    compares at or below ``NaN``, so it would silently give every job a
    preference.
    """
    check_nonnegative("threshold", threshold)
    if best_time is None:
        best_time = functools.partial(best_solo_time, predictor, cap_w=cap_w)
    buckets: dict[Preference, list[Job]] = {p: [] for p in Preference}
    for job in jobs:
        preference = _preference(
            best_time(job, DeviceKind.CPU), best_time(job, DeviceKind.GPU), threshold
        )
        buckets[preference].append(job)
    return Categorized(
        cpu_preferred=tuple(buckets[Preference.CPU]),
        gpu_preferred=tuple(buckets[Preference.GPU]),
        non_preferred=tuple(buckets[Preference.NONE]),
    )
