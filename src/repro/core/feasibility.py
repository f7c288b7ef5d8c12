"""Cap-feasibility arithmetic: the one home for frequency enumeration.

Every governor and scheduler has to answer the same three questions about
the power cap:

* what would the chip draw for this running combination at this setting?
* which settings keep that draw at or below the cap?
* what does it cost (in energy) to finish the running work at a setting?

Historically those answers were re-implemented in ``freqpolicy.py``, in
``objectives.py``, and inline in per-scheduler loops.  This module is the
single consumer of the predictor's enumeration queries inside
``repro.core``; everything else (ModelGovernor, BiasedGovernor,
EnergyAwareGovernor, partitioning, the lower bound) goes through it, so a
cap-feasibility fix lands everywhere at once.

All helpers take job *uids* (``None`` for an idle side), matching the
predictor's own vocabulary, and raise
:class:`~repro.errors.InfeasibleCapError` from the ``require_*`` variants
when no setting fits — the exception the CLI maps to exit code 2.

One rule covers a whole request: :func:`require_cap_feasible` raises when
some job fits the cap on neither device; past it an infeasible co-run is a
move the searches avoid (it scores ``inf``) and :func:`repair_schedule`
fixes any plan that still scores ``inf``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable

from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting
from repro.units import Hertz, Joules, Watts


def context_cap(ctx) -> Watts:
    """The effective scalar power cap of a *single-node* context.

    This is the one sanctioned way for schedulers to read a context's cap
    (lint rule REP009 flags raw ``ctx.cap_w`` plumbing elsewhere).  For the
    classic one-APU world it is exactly the old ``cap_w``; for a one-node
    fleet it is that node's resolved cap.  A multi-node context has no
    single cap — per-node sub-contexts derived by the fleet driver do —
    so asking for one raises.
    """
    fleet = getattr(ctx, "fleet", None)
    if fleet is not None and len(fleet.nodes) > 1:
        raise ValueError(
            f"context spans {len(fleet.nodes)} nodes and has no single cap; "
            "schedule through the fleet driver (repro.core.fleetsched) or "
            "derive a per-node sub-context"
        )
    return ctx.cap_w  # repro: noqa REP009 -- the sanctioned accessor itself


def predicted_power(
    predictor,
    cpu_uid: str | None,
    gpu_uid: str | None,
    setting: FrequencySetting,
) -> Watts:
    """Predicted chip power for an arbitrary running combination."""
    if cpu_uid is not None and gpu_uid is not None:
        return predictor.pair_power_w(cpu_uid, gpu_uid, setting)
    if cpu_uid is not None:
        return predictor.solo_power_w(cpu_uid, DeviceKind.CPU, setting.cpu_ghz)
    if gpu_uid is not None:
        return predictor.solo_power_w(gpu_uid, DeviceKind.GPU, setting.gpu_ghz)
    raise ValueError("no running job: chip power is undefined")


def pair_settings_under_cap(
    predictor, cpu_uid: str, gpu_uid: str, cap_w: Watts
) -> list[FrequencySetting]:
    """Frequency settings whose predicted pair power fits the cap."""
    return list(predictor.feasible_pair_settings(cpu_uid, gpu_uid, cap_w))


def solo_levels_under_cap(
    predictor, uid: str, kind: DeviceKind, cap_w: Watts
) -> list[float]:
    """Device frequency levels whose predicted solo power fits the cap."""
    return list(predictor.feasible_solo_levels(uid, kind, cap_w))


def require_pair_settings(
    predictor, cpu_uid: str, gpu_uid: str, cap_w: Watts
) -> list[FrequencySetting]:
    """Cap-feasible pair settings, raising when there are none."""
    feasible = pair_settings_under_cap(predictor, cpu_uid, gpu_uid, cap_w)
    if not feasible:
        raise InfeasibleCapError(
            f"pair ({cpu_uid}, {gpu_uid}) infeasible under "
            f"{cap_w} W: no frequency setting fits the cap",
            cap_w=cap_w,
            jobs=(cpu_uid, gpu_uid),
        )
    return feasible


def require_solo_levels(
    predictor, uid: str, kind: DeviceKind, cap_w: Watts
) -> list[float]:
    """Cap-feasible solo levels, raising when there are none."""
    levels = solo_levels_under_cap(predictor, uid, kind, cap_w)
    if not levels:
        raise InfeasibleCapError(
            f"{uid} infeasible under {cap_w} W on {kind.value}: "
            "no frequency level fits the cap",
            cap_w=cap_w,
            jobs=(uid,),
        )
    return levels


def best_solo_kind(
    best_time: Callable[[object, DeviceKind], float], job
) -> DeviceKind:
    """The device of ``job``'s fastest cap-feasible standalone time, from
    ``best_time(job, kind)`` (``inf`` = cannot run there); the CPU on a
    tie."""
    return min(DeviceKind, key=lambda kind: best_time(job, kind))


def require_cap_feasible(ctx) -> None:
    """The cap certificate: every job of single-node ``ctx`` has a
    cap-feasible solo level on some device (read from the cap masks on a
    tensor-served context), else :class:`~repro.errors.InfeasibleCapError`
    names every stranded job."""
    cap_w = context_cap(ctx)
    uids = [job.uid for job in ctx.jobs]
    tensor = ctx.tensor
    if tensor is not None and all(uid in tensor.index for uid in uids):
        valid = tensor.masks(cap_w).best_solo_valid
        rows = [tensor.index[uid] for uid in uids]
        fits = (valid[DeviceKind.CPU][rows] | valid[DeviceKind.GPU][rows]).tolist()
    else:
        fits = [
            any(solo_levels_under_cap(ctx.predictor, uid, k, cap_w) for k in DeviceKind)
            for uid in uids
        ]
    stranded = tuple(uid for uid, ok in zip(uids, fits) if not ok)
    if stranded:
        raise InfeasibleCapError(
            f"{', '.join(stranded)} cannot run under the {cap_w} W cap on "
            "either device",
            cap_w=cap_w,
            jobs=stranded,
        )


def repair_schedule(ctx, schedule):
    """``schedule`` as it is when ``ctx`` scores it finite, else made
    cap-feasible.

    :func:`move_to_tail` makes the plan feasible.  A mostly infeasible
    plan can degrade into a long solo tail that way, so the two
    one-device plans (every job queued on the CPU, or every job on the
    GPU) compete with it: the lowest ``ctx.evaluator`` score wins, and
    the repaired plan wins a tie.
    """
    if math.isfinite(ctx.evaluator(schedule)):
        return schedule
    from repro.core.schedule import CoSchedule

    jobs = tuple(ctx.jobs)
    return min(
        (
            move_to_tail(ctx, schedule),
            CoSchedule(cpu_queue=jobs),
            CoSchedule(gpu_queue=jobs),
        ),
        key=ctx.evaluator,
    )


def move_to_tail(ctx, schedule):
    """``schedule`` with the jobs of its infeasible combinations run alone.

    At the first combination no setting fits in the referee replay, the
    job with the shorter best standalone time (the CPU side's on a tie)
    moves to the end of the solo tail, on its best device; this repeats
    at most once per job.  Under :func:`require_cap_feasible` every moved
    job runs alone where it fits, so the result is feasible.
    """
    from repro.core.categorize import best_solo_time
    from repro.core.schedule import CoSchedule, predicted_makespan

    cap_w = context_cap(ctx)

    def best_time(job, kind: DeviceKind) -> float:
        return best_solo_time(ctx.predictor, job, kind, cap_w)

    for _ in range(schedule.n_jobs):
        try:
            # repro: noqa REP004 -- only the raising replay names the combination
            predicted_makespan(schedule, ctx.predictor, ctx.governor)
            break
        except InfeasibleCapError as exc:
            if not exc.jobs:
                raise
            jobs = {j.uid: j for j in ctx.jobs}
            job = min(
                (jobs[uid] for uid in exc.jobs),
                key=lambda job: min(best_time(job, kind) for kind in DeviceKind),
            )
            schedule = CoSchedule(
                cpu_queue=tuple(j for j in schedule.cpu_queue if j.uid != job.uid),
                gpu_queue=tuple(j for j in schedule.gpu_queue if j.uid != job.uid),
                solo_tail=tuple(
                    (j, kind) for j, kind in schedule.solo_tail if j.uid != job.uid
                )
                + ((job, best_solo_kind(best_time, job)),),
            )
    return schedule


def first_setting_under_cap(
    predictor,
    cpu_uid: str | None,
    gpu_uid: str | None,
    cap_w: Watts,
    candidates: Iterable[FrequencySetting],
) -> FrequencySetting:
    """First candidate whose predicted power fits the cap, in given order.

    This is the biased governors' decision procedure: the caller encodes
    its bias purely in the candidate order.
    """
    for setting in candidates:
        if predicted_power(predictor, cpu_uid, gpu_uid, setting) <= cap_w:
            return setting
    raise InfeasibleCapError(
        f"no frequency setting satisfies the {cap_w} W cap for "
        f"({cpu_uid}, {gpu_uid})",
        cap_w=cap_w,
        jobs=tuple(uid for uid in (cpu_uid, gpu_uid) if uid is not None),
    )


def pair_energy_j(
    predictor, cpu_uid: str, gpu_uid: str, setting: FrequencySetting
) -> Joules:
    """Predicted energy to complete a co-running pair at ``setting``.

    Approximated as the predicted chip power times the summed predicted
    co-run times (both jobs must finish; power is roughly constant while
    they overlap).
    """
    power = predictor.pair_power_w(cpu_uid, gpu_uid, setting)
    t_c, t_g = predictor.corun_times(cpu_uid, gpu_uid, setting)
    return power * (t_c + t_g)


def solo_energy_j(predictor, uid: str, kind: DeviceKind, f_ghz: Hertz) -> Joules:
    """Predicted energy to complete a solo job at level ``f_ghz``."""
    return predictor.solo_power_w(uid, kind, f_ghz) * predictor.solo_time(
        uid, kind, f_ghz
    )
