"""Lower bound on the optimal makespan (Section IV-B).

The paper's formula::

    T_low = 1/2 * sum_i l'_i

    l'_{i,p} = min( min_{j,f,g}  l_{i,p,f} * (1 + d_{i,p,f}^{j,g}),
                    2 * min_{f'} l_{i,p,f'} )
    l'_i    = min_p l'_{i,p}

with every minimum restricted to cap-feasible frequency settings.  The first
branch is the job's best possible co-run time (best processor, best
co-runner, best setting); the second is twice its best standalone time —
by the Co-Run Theorem, a job whose cheapest co-run costs more than twice its
standalone time is better off running alone, during which it occupies the
machine exclusively, so it contributes its full standalone time *to both
processors' worth of capacity* (hence the factor 2 against the 1/2 outside).

The bound is deliberately simple, "not sophisticatedly computed to be the
tightest" (paper); tests verify ``T_low <= measured optimal makespan`` on
brute-forceable instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.hardware.device import DeviceKind
from repro.workload.program import Job
from repro.core.feasibility import pair_settings_under_cap
from repro.model.predictor import CoRunPredictor
from repro.perf.tensor import TensorModel


@dataclass(frozen=True)
class LowerBoundDetail:
    """Per-job contribution to the bound."""

    job: str
    best_corun_s: float      # min co-run time across processors/partners/settings
    best_solo_s: float       # min standalone time across processors/settings
    contribution_s: float    # l'_i


def lower_bound(
    predictor: CoRunPredictor,
    jobs: Sequence[Job] | None = None,
    cap_w: float | None = None,
    *,
    deg_source=None,
) -> tuple[float, list[LowerBoundDetail]]:
    """Compute ``T_low`` and its per-job breakdown.

    The first argument may be a
    :class:`~repro.core.context.SchedulingContext`, in which case ``jobs``
    and ``cap_w`` come from the context and must be omitted.  ``deg_source``
    overrides where degradations come from (e.g. an
    :class:`~repro.model.predictor.OracleDegradations` for a ground-truth
    bound); it defaults to the predictor itself.  A context's tensor model
    (:attr:`~repro.core.context.SchedulingContext.tensor`) answers the
    default bound in array reductions; a bare predictor takes the scalar
    loops, to the same bits.
    """
    from repro.core.context import SchedulingContext

    tensor = None
    if isinstance(predictor, SchedulingContext):
        if jobs is not None or cap_w is not None:
            raise TypeError(
                "jobs/cap_w must be omitted when a SchedulingContext is given"
            )
        tensor = predictor.tensor
        predictor, jobs, cap_w = predictor.predictor, predictor.jobs, predictor.cap_w
    elif jobs is None or cap_w is None:
        raise TypeError("jobs and cap_w are required without a SchedulingContext")
    if deg_source is None:
        deg_source = predictor
    if deg_source is predictor and tensor is not None:
        fast = _tensor_lower_bound(tensor, jobs, cap_w)
        if fast is not None:
            return fast
    details: list[LowerBoundDetail] = []
    total = 0.0
    for job in jobs:
        best_corun = float("inf")
        best_solo = float("inf")
        for kind in DeviceKind:
            try:
                _, solo = predictor.best_solo(job.uid, kind, cap_w)
            except ValueError:
                continue
            best_solo = min(best_solo, solo)
            for other in jobs:
                if other.uid == job.uid:
                    continue
                if kind is DeviceKind.CPU:
                    pair = (job.uid, other.uid)
                else:
                    pair = (other.uid, job.uid)
                for setting in pair_settings_under_cap(predictor, *pair, cap_w):
                    f = (
                        setting.cpu_ghz
                        if kind is DeviceKind.CPU
                        else setting.gpu_ghz
                    )
                    l = predictor.solo_time(job.uid, kind, f)
                    d = deg_source.degradation(job.uid, kind, other.uid, setting)
                    best_corun = min(best_corun, l * (1.0 + d))
        if best_solo == float("inf"):
            raise ValueError(f"{job.uid} cannot run under the cap at all")
        contribution = min(best_corun, 2.0 * best_solo)
        details.append(
            LowerBoundDetail(
                job=job.uid,
                best_corun_s=best_corun,
                best_solo_s=best_solo,
                contribution_s=contribution,
            )
        )
        total += contribution
    return 0.5 * total, details


def _tensor_lower_bound(
    tensor: TensorModel, jobs: Sequence[Job], cap_w: float
) -> tuple[float, list[LowerBoundDetail]] | None:
    """Vectorized ``T_low`` over a context's tensor model, or ``None``
    when it does not cover every job.

    Every minimum reduces the same candidate sets the scalar loops walk:
    ``t_corun_c[i, j, s]`` is computed with the identical arithmetic as the
    scalar ``l * (1.0 + d)``, and minima over float64 candidates are
    order-independent, so the result is bitwise equal.
    """
    if any(job.uid not in tensor.index for job in jobs):
        return None
    masks = tensor.masks(cap_w)
    details: list[LowerBoundDetail] = []
    total = 0.0
    for job in jobs:
        i = tensor.index[job.uid]
        partners = [tensor.index[o.uid] for o in jobs if o.uid != job.uid]
        best_corun = float("inf")
        best_solo = float("inf")
        for kind in DeviceKind:
            # The scalar loop skips the whole kind — co-run scan included —
            # when the job has no cap-feasible solo level on it.
            if not masks.best_solo_valid[kind][i]:
                continue
            best_solo = min(best_solo, float(masks.best_solo_time[kind][i]))
            if not partners:
                continue
            if kind is DeviceKind.CPU:
                times = tensor.t_corun_c[i, partners, :]
                ok = masks.pair_ok[i, partners, :]
            else:
                times = tensor.t_corun_g[partners, i, :]
                ok = masks.pair_ok[partners, i, :]
            if ok.any():
                best_corun = min(best_corun, float(times[ok].min()))
        if best_solo == float("inf"):
            raise ValueError(f"{job.uid} cannot run under the cap at all")
        contribution = min(best_corun, 2.0 * best_solo)
        details.append(
            LowerBoundDetail(
                job=job.uid,
                best_corun_s=best_corun,
                best_solo_s=best_solo,
                contribution_s=contribution,
            )
        )
        total += contribution
    return 0.5 * total, details
