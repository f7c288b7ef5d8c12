"""Step 1 of the heuristic: partition jobs into S_co and S_seq.

A job joins S_co if *some* co-runner, placement, and cap-feasible frequency
setting exists for which the Co-Run Theorem predicts the co-run beats
sequential execution; otherwise it joins S_seq and will run alone on its
best processor (Section IV-A.1, with the power-cap change of IV-A.2: the
theorem is evaluated across all settings that satisfy the cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.feasibility import pair_settings_under_cap
from repro.core.theorem import corun_beneficial_theorem
from repro.model.predictor import CoRunPredictor
from repro.perf.tensor import TensorModel


@dataclass(frozen=True)
class Partition:
    """The two disjoint job sets produced by Step 1."""

    co: tuple[Job, ...]
    seq: tuple[Job, ...]


def _pair_ever_beneficial(
    predictor: CoRunPredictor,
    cpu_job: Job,
    gpu_job: Job,
    cap_w: float,
) -> bool:
    """Does any cap-feasible setting make this placement's co-run beneficial?"""
    for setting in pair_settings_under_cap(
        predictor, cpu_job.uid, gpu_job.uid, cap_w
    ):
        l_c = predictor.solo_time(cpu_job.uid, DeviceKind.CPU, setting.cpu_ghz)
        l_g = predictor.solo_time(gpu_job.uid, DeviceKind.GPU, setting.gpu_ghz)
        d_c, d_g = predictor.degradations(cpu_job.uid, gpu_job.uid, setting)
        if corun_beneficial_theorem(l_c, d_c, l_g, d_g):
            return True
    return False


def _row_verdicts(
    tensor: TensorModel, jobs: Sequence[Job], cap_w: float
) -> dict[str, bool] | None:
    """Every job's Step 1 verdict, read from the tensor's theorem reduction.

    ``None`` sends the caller to the scalar loop: a uid is not covered, or
    some cap-feasible cell among these jobs' rows holds an input the
    theorem rejects (the scalar loop then raises its ``ValueError``
    exactly where it meets one).  A row's
    verdict holds for all its jobs; a job pairs with a job of its own
    program only when its row holds two or more uids.
    """
    index = tensor.index
    uids = {job.uid for job in jobs}
    if not all(uid in index for uid in uids):
        return None
    rows = sorted({index[uid] for uid in uids})
    grid = np.ix_(rows, rows)
    beneficial, rejected = tensor.theorem_pairs(cap_w)
    if rejected[grid].any():
        return None
    # Either placement of the two jobs may be the beneficial one.
    pairs = beneficial[grid] | beneficial[grid].T
    position = {row: k for k, row in enumerate(rows)}
    local = {uid: position[index[uid]] for uid in uids}
    uids_per_row = np.bincount(list(local.values()), minlength=len(rows))
    np.fill_diagonal(pairs, pairs.diagonal() & (uids_per_row >= 2))
    verdict = pairs.any(axis=1).tolist()
    return {uid: verdict[k] for uid, k in local.items()}


def partition_jobs(
    predictor: CoRunPredictor,
    jobs: Sequence[Job],
    cap_w: float,
    *,
    tensor: TensorModel | None = None,
) -> Partition:
    """Split ``jobs`` into co-run candidates and run-alone jobs.

    ``tensor`` — a scheduling context's indexed model of ``predictor``
    (:attr:`~repro.core.context.SchedulingContext.tensor`) — answers
    every verdict from one theorem reduction when it covers the jobs;
    the predictor's per-setting loop is the fallback, with the same
    verdicts.
    """
    verdicts = None if tensor is None else _row_verdicts(tensor, jobs, cap_w)
    co: list[Job] = []
    seq: list[Job] = []
    for job in jobs:
        if verdicts is not None:
            beneficial = verdicts[job.uid]
        else:
            beneficial = any(
                other.uid != job.uid
                and (
                    _pair_ever_beneficial(predictor, job, other, cap_w)
                    or _pair_ever_beneficial(predictor, other, job, cap_w)
                )
                for other in jobs
            )
        (co if beneficial else seq).append(job)
    return Partition(co=tuple(co), seq=tuple(seq))
