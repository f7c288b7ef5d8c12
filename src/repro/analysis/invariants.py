"""Independent verification of the paper's Definition 2.1 invariants.

A valid co-schedule is a formal object: a true partition of the jobs into
the CPU queue, the GPU queue, and the solo tail; one frequency level per
device drawn from its discrete DVFS domain whenever work is running;
predicted chip power at or below the cap over every co-run interval; and a
makespan consistent with the degradation model and bounded below by the
paper's ``T_low``.  The schedulers in :mod:`repro.core` are *supposed* to
guarantee all of that — this module checks it without trusting any of
them.

:func:`verify_schedule` re-derives every invariant from first principles:
it replays the schedule's timeline with its own mean-field walker (not
:func:`repro.core.schedule.predicted_makespan`, and not the
:mod:`repro.core.feasibility` fast path), queries the predictor directly
for segment powers, and checks each governor-chosen frequency against the
processor's level sets.  Violations come back as structured
:class:`Violation` records rather than exceptions, so callers can report
all problems at once.

:func:`verify_execution` is the engine-side counterpart: it referees the
:class:`~repro.engine.sim.ExecutionResult` the event-driven core says
happened — per-device occupancy intervals that never overlap, completion
records consistent with each job's launch/resume chain (device changes
only where a migration record vouches for them), busy-time counters that
equal the summed timeline, and deadline-miss accounting that survives an
independent recount.

The **sanitizer** turns the verifiers into a tripwire: with
``REPRO_SANITIZE=1`` in the environment (or a context derived via
``ctx.with_sanitizer()``), every registry scheduler result, every
``refine`` pass, every ``engine.run()`` execution, and every
service-session batch is verified on the spot, and any violation raises
:class:`~repro.errors.ScheduleInvariantError` carrying the full violation
list.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from collections.abc import Iterator, Mapping

from repro.errors import InfeasibleCapError, ScheduleInvariantError
from repro.hardware.device import DeviceKind
from repro.hardware.frequency import FrequencySetting

#: Environment flag that arms the sanitizer globally.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Invariant identifiers (the ``Violation.invariant`` vocabulary).
INVARIANT_PARTITION = "partition"
INVARIANT_FREQUENCY = "frequency-domain"
INVARIANT_POWER_CAP = "power-cap"
INVARIANT_MAKESPAN = "makespan-consistency"
INVARIANT_LOWER_BOUND = "lower-bound"

ALL_INVARIANTS = (
    INVARIANT_PARTITION,
    INVARIANT_FREQUENCY,
    INVARIANT_POWER_CAP,
    INVARIANT_MAKESPAN,
    INVARIANT_LOWER_BOUND,
)

#: Fleet-level invariants (the :func:`verify_fleet_schedule` vocabulary):
#: the job partition across nodes, each node's own cap, and the shared
#: fleet budget swept over the union of per-node power timelines.
INVARIANT_FLEET_PARTITION = "fleet-partition"
INVARIANT_NODE_CAP = "node-power-cap"
INVARIANT_FLEET_BUDGET = "fleet-budget"

FLEET_INVARIANTS = (
    INVARIANT_FLEET_PARTITION,
    INVARIANT_NODE_CAP,
    INVARIANT_FLEET_BUDGET,
)

#: Execution-record invariants (the :func:`verify_execution` vocabulary) —
#: structural properties of an :class:`~repro.engine.sim.ExecutionResult`,
#: including preempted and migrated timelines the schedule-level verifier
#: cannot replay.
INVARIANT_EXEC_TIMELINE = "execution-timeline"
INVARIANT_EXEC_COMPLETION = "completion-consistency"
INVARIANT_EXEC_BUSY = "busy-accounting"
INVARIANT_EXEC_DEADLINE = "deadline-accounting"

EXECUTION_INVARIANTS = (
    INVARIANT_EXEC_TIMELINE,
    INVARIANT_EXEC_COMPLETION,
    INVARIANT_EXEC_BUSY,
    INVARIANT_EXEC_DEADLINE,
)

#: Relative tolerance for power/makespan/bound comparisons.  The verifier
#: replays the same *model* the schedulers used, so disagreements beyond
#: floating-point noise are real bugs; 1e-6 absorbs summation-order drift.
DEFAULT_REL_TOL = 1e-6

#: Remaining-work fraction below which a job counts as finished during the
#: replay (mirrors the scheduler-side replay's epsilon).
_EPS = 1e-12


@dataclass(frozen=True)
class Violation:
    """One broken invariant, with enough detail to debug it."""

    invariant: str
    message: str
    details: Mapping[str, object] = field(
        default_factory=lambda: MappingProxyType({})
    )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.invariant}] {self.message}"


@dataclass(frozen=True)
class _Segment:
    """One steady interval of the independent replay."""

    t0: float
    dt: float
    cpu_uid: str | None
    gpu_uid: str | None
    setting: FrequencySetting


def env_sanitizer_enabled() -> bool:
    """Is the process-wide ``REPRO_SANITIZE`` flag armed?"""
    value = os.environ.get(SANITIZE_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def sanitizer_enabled(ctx=None) -> bool:
    """Is the sanitizer active for ``ctx`` (or globally, when ``ctx=None``)?"""
    if ctx is not None and getattr(ctx, "sanitize", False):
        return True
    return env_sanitizer_enabled()


# ----------------------------------------------------------------------
# The independent timeline replay
# ----------------------------------------------------------------------
def _replay_segments(schedule, predictor, governor) -> Iterator[_Segment]:
    """Walk the schedule's timeline from scratch.

    Same mean-field semantics as the scheduler-side replay (rates are
    re-evaluated whenever a co-runner finishes; the solo tail runs alone at
    the end) but implemented independently, so a bug in
    ``core/schedule.py`` cannot vouch for itself.
    """
    cpu = list(schedule.cpu_queue)
    gpu = list(schedule.gpu_queue)
    on_cpu: tuple[object, float] | None = None
    on_gpu: tuple[object, float] | None = None
    t = 0.0

    while True:
        if on_cpu is None and cpu:
            on_cpu = (cpu.pop(0), 1.0)
        if on_gpu is None and gpu:
            on_gpu = (gpu.pop(0), 1.0)
        if on_cpu is None and on_gpu is None:
            break

        cpu_job = on_cpu[0] if on_cpu else None
        gpu_job = on_gpu[0] if on_gpu else None
        setting = governor(cpu_job, gpu_job)
        t_c = t_g = None
        if cpu_job is not None and gpu_job is not None:
            t_c, t_g = predictor.corun_times(cpu_job.uid, gpu_job.uid, setting)
        elif cpu_job is not None:
            t_c = predictor.solo_time(cpu_job.uid, DeviceKind.CPU, setting.cpu_ghz)
        else:
            t_g = predictor.solo_time(gpu_job.uid, DeviceKind.GPU, setting.gpu_ghz)

        candidates = []
        if on_cpu is not None:
            candidates.append(on_cpu[1] * t_c)
        if on_gpu is not None:
            candidates.append(on_gpu[1] * t_g)
        dt = min(candidates)
        yield _Segment(
            t0=t,
            dt=dt,
            cpu_uid=cpu_job.uid if cpu_job is not None else None,
            gpu_uid=gpu_job.uid if gpu_job is not None else None,
            setting=setting,
        )

        if on_cpu is not None:
            rem = on_cpu[1] - dt / t_c
            on_cpu = None if rem <= _EPS else (on_cpu[0], rem)
        if on_gpu is not None:
            rem = on_gpu[1] - dt / t_g
            on_gpu = None if rem <= _EPS else (on_gpu[0], rem)
        t += dt

    for job, kind in schedule.solo_tail:
        setting = governor(
            job if kind is DeviceKind.CPU else None,
            job if kind is DeviceKind.GPU else None,
        )
        f = setting.cpu_ghz if kind is DeviceKind.CPU else setting.gpu_ghz
        dt = predictor.solo_time(job.uid, kind, f)
        yield _Segment(
            t0=t,
            dt=dt,
            cpu_uid=job.uid if kind is DeviceKind.CPU else None,
            gpu_uid=job.uid if kind is DeviceKind.GPU else None,
            setting=setting,
        )
        t += dt


def _segment_power_w(predictor, seg: _Segment) -> float:
    """Predicted chip power over a segment, asked of the predictor directly."""
    if seg.cpu_uid is not None and seg.gpu_uid is not None:
        return predictor.pair_power_w(seg.cpu_uid, seg.gpu_uid, seg.setting)
    if seg.cpu_uid is not None:
        return predictor.solo_power_w(
            seg.cpu_uid, DeviceKind.CPU, seg.setting.cpu_ghz
        )
    return predictor.solo_power_w(
        seg.gpu_uid, DeviceKind.GPU, seg.setting.gpu_ghz
    )


def _level_in_domain(f_ghz: float, levels: tuple[float, ...]) -> bool:
    return any(math.isclose(f_ghz, level, abs_tol=1e-9) for level in levels)


# ----------------------------------------------------------------------
# Invariant checks
# ----------------------------------------------------------------------
def _check_partition(ctx, schedule) -> list[Violation]:
    scheduled = schedule.all_uids()
    expected = [j.uid for j in ctx.jobs]
    out: list[Violation] = []
    duplicates = sorted(u for u, n in Counter(scheduled).items() if n > 1)
    if duplicates:
        out.append(
            Violation(
                INVARIANT_PARTITION,
                "job(s) appear more than once across the queues: "
                + ", ".join(duplicates),
                MappingProxyType({"duplicates": tuple(duplicates)}),
            )
        )
    missing = sorted(set(expected) - set(scheduled))
    if missing:
        out.append(
            Violation(
                INVARIANT_PARTITION,
                "job(s) from the problem are missing from the schedule: "
                + ", ".join(missing),
                MappingProxyType({"missing": tuple(missing)}),
            )
        )
    extra = sorted(set(scheduled) - set(expected))
    if extra:
        out.append(
            Violation(
                INVARIANT_PARTITION,
                "schedule contains job(s) not in the problem: "
                + ", ".join(extra),
                MappingProxyType({"extra": tuple(extra)}),
            )
        )
    return out


def _check_timeline(
    ctx, schedule, rel_tol: float
) -> tuple[list[Violation], float | None]:
    """Frequency-domain and power-cap checks; returns the replayed makespan.

    Returns ``None`` for the makespan when the replay itself could not
    finish (e.g. the governor found no feasible setting mid-replay — which
    is itself reported as a power-cap violation).
    """
    from repro.core.feasibility import context_cap

    cap_w = context_cap(ctx)
    processor = getattr(ctx.predictor, "processor", None)
    cpu_levels = processor.cpu.domain.levels if processor is not None else None
    gpu_levels = processor.gpu.domain.levels if processor is not None else None
    out: list[Violation] = []
    seen_settings: set[tuple] = set()
    makespan = 0.0
    try:
        for seg in _replay_segments(schedule, ctx.predictor, ctx.governor):
            makespan = seg.t0 + seg.dt
            pair = (seg.cpu_uid, seg.gpu_uid)
            key = (pair, seg.setting)
            if key in seen_settings:
                continue
            seen_settings.add(key)
            if cpu_levels is not None and not _level_in_domain(
                seg.setting.cpu_ghz, cpu_levels
            ):
                out.append(
                    Violation(
                        INVARIANT_FREQUENCY,
                        f"CPU frequency {seg.setting.cpu_ghz} GHz for "
                        f"{pair} is not a level of the CPU DVFS domain",
                        MappingProxyType(
                            {"pair": pair, "f_ghz": seg.setting.cpu_ghz}
                        ),
                    )
                )
            if gpu_levels is not None and not _level_in_domain(
                seg.setting.gpu_ghz, gpu_levels
            ):
                out.append(
                    Violation(
                        INVARIANT_FREQUENCY,
                        f"GPU frequency {seg.setting.gpu_ghz} GHz for "
                        f"{pair} is not a level of the GPU DVFS domain",
                        MappingProxyType(
                            {"pair": pair, "f_ghz": seg.setting.gpu_ghz}
                        ),
                    )
                )
            power = _segment_power_w(ctx.predictor, seg)
            if power > cap_w * (1.0 + rel_tol):
                out.append(
                    Violation(
                        INVARIANT_POWER_CAP,
                        f"predicted chip power {power:.3f} W for {pair} at "
                        f"{seg.setting} exceeds the {cap_w:g} W cap "
                        f"(co-run interval starting at t={seg.t0:.3f}s)",
                        MappingProxyType(
                            {
                                "pair": pair,
                                "setting": seg.setting,
                                "power_w": power,
                                "cap_w": cap_w,
                                "t0_s": seg.t0,
                            }
                        ),
                    )
                )
    except InfeasibleCapError as exc:
        out.append(
            Violation(
                INVARIANT_POWER_CAP,
                "governor found no cap-feasible frequency setting while "
                f"replaying the schedule: {exc}",
                MappingProxyType({"cap_w": cap_w, "jobs": exc.jobs}),
            )
        )
        return out, None
    return out, makespan


def _check_makespan(ctx, schedule, replayed: float, rel_tol: float) -> list[Violation]:
    reported = ctx.predicted_makespan(schedule)
    if not math.isclose(replayed, reported, rel_tol=rel_tol, abs_tol=1e-9):
        return [
            Violation(
                INVARIANT_MAKESPAN,
                f"predicted makespan {reported:.6f}s disagrees with the "
                f"independent timeline replay ({replayed:.6f}s)",
                MappingProxyType(
                    {"reported_s": reported, "replayed_s": replayed}
                ),
            )
        ]
    return []


def _check_lower_bound(ctx, replayed: float, rel_tol: float) -> list[Violation]:
    from repro.core.bounds import lower_bound
    from repro.core.context import SchedulingContext
    from repro.core.feasibility import context_cap

    cap_w = context_cap(ctx)
    try:
        if isinstance(ctx, SchedulingContext):
            # The context's tensor model, when it has one, answers the
            # bound in array reductions, to the scalar loops' bits; the
            # scalar loops cost seconds per check at 48 jobs.
            t_low, _ = lower_bound(ctx)
        else:
            # Pieces passed explicitly so duck-typed contexts work too.
            t_low, _ = lower_bound(ctx.predictor, ctx.jobs, cap_w)
    except (InfeasibleCapError, ValueError) as exc:
        return [
            Violation(
                INVARIANT_LOWER_BOUND,
                f"T_low could not be derived under the {cap_w:g} W cap: "
                f"{exc}",
                MappingProxyType({"cap_w": cap_w}),
            )
        ]
    if replayed < t_low * (1.0 - rel_tol) - 1e-9:
        return [
            Violation(
                INVARIANT_LOWER_BOUND,
                f"replayed makespan {replayed:.6f}s is below the T_low "
                f"lower bound {t_low:.6f}s — the degradation model and the "
                "schedule disagree",
                MappingProxyType({"t_low_s": t_low, "replayed_s": replayed}),
            )
        ]
    return []


def verify_schedule(ctx, schedule, *, rel_tol: float = DEFAULT_REL_TOL) -> list[Violation]:
    """Check every Definition 2.1 invariant of ``schedule`` under ``ctx``.

    ``ctx`` is a :class:`~repro.core.context.SchedulingContext` (or any
    object exposing ``jobs``, ``cap_w``, ``predictor``, ``governor``, and
    ``predicted_makespan``).  Returns the (possibly empty) list of
    violations; never raises for an invalid schedule — use
    :func:`check_schedule` for the raising variant.
    """
    violations = _check_partition(ctx, schedule)
    timeline_violations, replayed = _check_timeline(ctx, schedule, rel_tol)
    violations.extend(timeline_violations)
    if replayed is not None:
        violations.extend(_check_makespan(ctx, schedule, replayed, rel_tol))
        # T_low is a bound over the *full* job set; a partial schedule
        # (already reported above) would trip it spuriously.
        if not any(v.invariant == INVARIANT_PARTITION for v in violations):
            violations.extend(_check_lower_bound(ctx, replayed, rel_tol))
    return violations


def check_schedule(ctx, schedule, *, where: str = "schedule", rel_tol: float = DEFAULT_REL_TOL) -> None:
    """Verify ``schedule`` and raise on any violation (the sanitizer's hook)."""
    violations = verify_schedule(ctx, schedule, rel_tol=rel_tol)
    if violations:
        summary = "; ".join(str(v) for v in violations)
        raise ScheduleInvariantError(
            f"invalid co-schedule from {where}: {summary}",
            violations=tuple(violations),
            where=where,
        )


def maybe_check_schedule(ctx, schedule, *, where: str = "schedule") -> None:
    """Run :func:`check_schedule` only when the sanitizer is armed."""
    if sanitizer_enabled(ctx):
        check_schedule(ctx, schedule, where=where)


# ----------------------------------------------------------------------
# Execution-record invariants (the engine.run() sanitizer hook)
# ----------------------------------------------------------------------
#: Absolute slack for timeline ordering comparisons; matches the engine's
#: deadline-accounting epsilon so the verifier never flags float noise the
#: simulator itself tolerates.
_T_EPS = 1e-9


def _check_exec_timeline(result, rel_tol: float) -> list[Violation]:
    """Per-device occupancy: sorted, non-overlapping, within the run."""
    out: list[Violation] = []
    horizon = result.makespan_s * (1.0 + rel_tol) + _T_EPS
    by_device: dict[str, list] = {}
    for iv in result.timeline:
        if iv.t1_s < iv.t0_s - _T_EPS:
            out.append(
                Violation(
                    INVARIANT_EXEC_TIMELINE,
                    f"interval of {iv.job!r} on {iv.device} ends before it "
                    f"starts ({iv.t0_s:.6f}s .. {iv.t1_s:.6f}s)",
                    MappingProxyType({"job": iv.job, "device": iv.device}),
                )
            )
        if iv.t0_s < -_T_EPS or iv.t1_s > horizon:
            out.append(
                Violation(
                    INVARIANT_EXEC_TIMELINE,
                    f"interval of {iv.job!r} on {iv.device} "
                    f"({iv.t0_s:.6f}s .. {iv.t1_s:.6f}s) falls outside the "
                    f"execution window [0, {result.makespan_s:.6f}s]",
                    MappingProxyType(
                        {"job": iv.job, "device": iv.device,
                         "makespan_s": result.makespan_s}
                    ),
                )
            )
        by_device.setdefault(iv.device, []).append(iv)
    for device, intervals in by_device.items():
        intervals.sort(key=lambda iv: (iv.t0_s, iv.t1_s))
        for prev, cur in zip(intervals, intervals[1:]):
            if cur.t0_s < prev.t1_s - _T_EPS:
                out.append(
                    Violation(
                        INVARIANT_EXEC_TIMELINE,
                        f"{device} serves {prev.job!r} and {cur.job!r} at "
                        f"once (overlap {prev.t1_s - cur.t0_s:.6f}s at "
                        f"t={cur.t0_s:.6f}s)",
                        MappingProxyType(
                            {"device": device, "jobs": (prev.job, cur.job)}
                        ),
                    )
                )
    return out


def _check_exec_completions(result, rel_tol: float) -> list[Violation]:
    """Each completed job's records must tell one consistent story.

    The occupancy chain must span exactly launch..finish, contain one
    interval per launch-or-resume, change devices only where a migrated
    preemption record says so, and never put the job on two devices at
    once; arrivals must precede starts and the makespan must cover the
    last finish.
    """
    out: list[Violation] = []
    resumed: dict[str, list] = {}
    for p in result.preemptions:
        if p.resumed_s is not None:
            resumed.setdefault(p.job, []).append(p)
        if p.resumed_device is not None:
            migrated = p.resumed_device != p.from_device
            if migrated != p.migrated:
                out.append(
                    Violation(
                        INVARIANT_EXEC_COMPLETION,
                        f"preemption of {p.job!r} resumed on "
                        f"{p.resumed_device} from {p.from_device} but is "
                        f"marked migrated={p.migrated}",
                        MappingProxyType({"job": p.job}),
                    )
                )
    for c in result.completions:
        if c.finish_s > result.makespan_s * (1.0 + rel_tol) + _T_EPS:
            out.append(
                Violation(
                    INVARIANT_EXEC_COMPLETION,
                    f"{c.job!r} finishes at {c.finish_s:.6f}s, after the "
                    f"reported makespan {result.makespan_s:.6f}s",
                    MappingProxyType(
                        {"job": c.job, "finish_s": c.finish_s,
                         "makespan_s": result.makespan_s}
                    ),
                )
            )
        arrival = result.arrivals.get(c.job)
        if arrival is not None and c.start_s < arrival - _T_EPS:
            out.append(
                Violation(
                    INVARIANT_EXEC_COMPLETION,
                    f"{c.job!r} starts at {c.start_s:.6f}s, before its "
                    f"arrival at {arrival:.6f}s",
                    MappingProxyType(
                        {"job": c.job, "start_s": c.start_s,
                         "arrival_s": arrival}
                    ),
                )
            )
        chain = sorted(result.intervals_of(c.job), key=lambda iv: iv.t0_s)
        if not chain:
            out.append(
                Violation(
                    INVARIANT_EXEC_COMPLETION,
                    f"{c.job!r} completed but has no occupancy intervals",
                    MappingProxyType({"job": c.job}),
                )
            )
            continue
        expected_n = 1 + len(resumed.get(c.job, ()))
        if len(chain) != expected_n:
            out.append(
                Violation(
                    INVARIANT_EXEC_COMPLETION,
                    f"{c.job!r} has {len(chain)} occupancy interval(s) but "
                    f"{expected_n} launch-or-resume record(s)",
                    MappingProxyType(
                        {"job": c.job, "intervals": len(chain),
                         "expected": expected_n}
                    ),
                )
            )
        if not math.isclose(
            chain[0].t0_s, c.start_s, rel_tol=rel_tol, abs_tol=_T_EPS
        ):
            out.append(
                Violation(
                    INVARIANT_EXEC_COMPLETION,
                    f"{c.job!r} launch record says {c.start_s:.6f}s but its "
                    f"first interval opens at {chain[0].t0_s:.6f}s",
                    MappingProxyType({"job": c.job}),
                )
            )
        if not math.isclose(
            chain[-1].t1_s, c.finish_s, rel_tol=rel_tol, abs_tol=_T_EPS
        ):
            out.append(
                Violation(
                    INVARIANT_EXEC_COMPLETION,
                    f"{c.job!r} completion record says {c.finish_s:.6f}s "
                    f"but its last interval closes at {chain[-1].t1_s:.6f}s",
                    MappingProxyType({"job": c.job}),
                )
            )
        for prev, cur in zip(chain, chain[1:]):
            if cur.t0_s < prev.t1_s - _T_EPS:
                out.append(
                    Violation(
                        INVARIANT_EXEC_COMPLETION,
                        f"{c.job!r} occupies {prev.device} and {cur.device} "
                        f"at once around t={cur.t0_s:.6f}s",
                        MappingProxyType({"job": c.job}),
                    )
                )
        start = result.starts.get(c.job)
        if start is not None and len(chain) == expected_n:
            devices = [str(start.kind)] + [
                p.resumed_device
                for p in sorted(resumed.get(c.job, ()), key=lambda p: p.resumed_s)
            ]
            observed = [iv.device for iv in chain]
            if observed != devices:
                out.append(
                    Violation(
                        INVARIANT_EXEC_COMPLETION,
                        f"{c.job!r} device chain {observed} disagrees with "
                        f"its launch/resume records {devices} — a device "
                        "change without a migration record",
                        MappingProxyType(
                            {"job": c.job, "observed": tuple(observed),
                             "expected": tuple(devices)}
                        ),
                    )
                )
    return out


def _check_exec_busy(result, rel_tol: float) -> list[Violation]:
    """Busy-time counters must equal the summed occupancy timeline."""
    out: list[Violation] = []
    sums = {"cpu": 0.0, "gpu": 0.0}
    for iv in result.timeline:
        sums[iv.device] = sums.get(iv.device, 0.0) + iv.duration_s
    for device, reported in (
        ("cpu", result.cpu_busy_s),
        ("gpu", result.gpu_busy_s),
    ):
        summed = sums.get(device, 0.0)
        if not math.isclose(summed, reported, rel_tol=rel_tol, abs_tol=1e-9):
            out.append(
                Violation(
                    INVARIANT_EXEC_BUSY,
                    f"{device} busy time {reported:.6f}s disagrees with the "
                    f"summed occupancy timeline ({summed:.6f}s)",
                    MappingProxyType(
                        {"device": device, "reported_s": reported,
                         "summed_s": summed}
                    ),
                )
            )
    return out


def _check_exec_deadlines(result, rel_tol: float) -> list[Violation]:
    """Deadline-miss accounting must match an independent recount."""
    out: list[Violation] = []
    finish = {c.job: c.finish_s for c in result.completions}
    expected: dict[str, float] = {}
    for uid, dl in result.deadlines.items():
        end = finish.get(uid)
        if end is None:
            if result.makespan_s > dl + _T_EPS:
                expected[uid] = result.makespan_s - dl
        elif end > dl + _T_EPS:
            expected[uid] = end - dl
    reported = {v.job: v.lateness_s for v in result.violations}
    for uid in sorted(set(expected) | set(reported)):
        if uid not in reported:
            out.append(
                Violation(
                    INVARIANT_EXEC_DEADLINE,
                    f"{uid!r} missed its deadline by {expected[uid]:.6f}s "
                    "but the execution reports no violation",
                    MappingProxyType(
                        {"job": uid, "lateness_s": expected[uid]}
                    ),
                )
            )
        elif uid not in expected:
            out.append(
                Violation(
                    INVARIANT_EXEC_DEADLINE,
                    f"{uid!r} is reported late by {reported[uid]:.6f}s but "
                    "met its deadline on recount",
                    MappingProxyType(
                        {"job": uid, "lateness_s": reported[uid]}
                    ),
                )
            )
        elif not math.isclose(
            expected[uid], reported[uid], rel_tol=rel_tol, abs_tol=1e-6
        ):
            out.append(
                Violation(
                    INVARIANT_EXEC_DEADLINE,
                    f"{uid!r} lateness {reported[uid]:.6f}s disagrees with "
                    f"the recount ({expected[uid]:.6f}s)",
                    MappingProxyType(
                        {"job": uid, "reported_s": reported[uid],
                         "recount_s": expected[uid]}
                    ),
                )
            )
    return out


def verify_execution(result, *, rel_tol: float = DEFAULT_REL_TOL) -> list[Violation]:
    """Check the structural invariants of an execution record.

    ``result`` is an :class:`~repro.engine.sim.ExecutionResult` (duck-typed
    — anything exposing its fields works).  Unlike :func:`verify_schedule`,
    which replays a *plan*, this referees what the event-driven engine says
    *happened*, so it stays meaningful on preempted and migrated timelines
    the mean-field replay cannot express.  Time-shared executions carry no
    occupancy timeline (several jobs share the CPU at once); their
    interval-dependent checks are skipped.  Returns the (possibly empty)
    violation list; use :func:`check_execution` for the raising variant.
    """
    violations = list(_check_exec_deadlines(result, rel_tol))
    if result.timeline:
        violations.extend(_check_exec_timeline(result, rel_tol))
        violations.extend(_check_exec_completions(result, rel_tol))
        violations.extend(_check_exec_busy(result, rel_tol))
    return violations


def check_execution(
    result, *, where: str = "engine.run", rel_tol: float = DEFAULT_REL_TOL
) -> None:
    """Verify an execution record and raise on any violation."""
    violations = verify_execution(result, rel_tol=rel_tol)
    if violations:
        summary = "; ".join(str(v) for v in violations)
        raise ScheduleInvariantError(
            f"invalid execution from {where}: {summary}",
            violations=tuple(violations),
            where=where,
        )


def maybe_check_execution(result, *, where: str = "engine.run", ctx=None) -> None:
    """Run :func:`check_execution` only when the sanitizer is armed."""
    if sanitizer_enabled(ctx):
        check_execution(result, where=where)


# ----------------------------------------------------------------------
# Fleet-level invariants (the fleet_schedule sanitizer hook)
# ----------------------------------------------------------------------
def _check_fleet_partition(ctx, result) -> list[Violation]:
    """The per-node assignments must partition the context's job set."""
    out: list[Violation] = []
    expected = [j.uid for j in ctx.jobs]
    assigned: list[str] = []
    for a in result.assignments:
        assigned.extend(j.uid for j in a.jobs)
    duplicates = sorted(u for u, n in Counter(assigned).items() if n > 1)
    if duplicates:
        out.append(
            Violation(
                INVARIANT_FLEET_PARTITION,
                "job(s) assigned to more than one node: "
                + ", ".join(duplicates),
                MappingProxyType({"duplicates": tuple(duplicates)}),
            )
        )
    missing = sorted(set(expected) - set(assigned))
    if missing:
        out.append(
            Violation(
                INVARIANT_FLEET_PARTITION,
                "job(s) from the problem were assigned to no node: "
                + ", ".join(missing),
                MappingProxyType({"missing": tuple(missing)}),
            )
        )
    extra = sorted(set(assigned) - set(expected))
    if extra:
        out.append(
            Violation(
                INVARIANT_FLEET_PARTITION,
                "fleet schedule contains job(s) not in the problem: "
                + ", ".join(extra),
                MappingProxyType({"extra": tuple(extra)}),
            )
        )
    known = {n.name for n in ctx.fleet.nodes}
    ghosts = sorted(
        set(a.node for a in result.assignments) - known
    ) + sorted(set(result.idle_nodes) - known)
    for name in ghosts:
        out.append(
            Violation(
                INVARIANT_FLEET_PARTITION,
                f"schedule references node {name!r} which is not in the fleet",
                MappingProxyType({"node": name}),
            )
        )
    return out


def _node_power_steps(sub, schedule) -> list[tuple[float, float, float]]:
    """(t0, t1, power_w) steps of one node's independently replayed plan.

    All nodes share the same wall clock — the node predictor already folds
    ``speed_scale`` into its times and ``power_scale`` into its powers, so
    steps from different nodes line up directly.
    """
    steps = []
    for seg in _replay_segments(schedule, sub.predictor, sub.governor):
        steps.append(
            (seg.t0, seg.t0 + seg.dt, _segment_power_w(sub.predictor, seg))
        )
    return steps


def _check_fleet_budget(
    ctx, profiles: Mapping[str, list], rel_tol: float
) -> list[Violation]:
    """Sweep summed node powers over every timeline boundary vs. the budget."""
    budget = ctx.fleet.budget_w
    if budget is None:
        return []
    boundaries = sorted(
        {t for steps in profiles.values() for t0, t1, _ in steps for t in (t0, t1)}
    )
    out: list[Violation] = []
    for t0, t1 in zip(boundaries, boundaries[1:]):
        mid = 0.5 * (t0 + t1)
        active = {
            node: p
            for node, steps in profiles.items()
            for s0, s1, p in steps
            if s0 <= mid < s1
        }
        total = sum(active.values())
        if total > budget * (1.0 + rel_tol):
            out.append(
                Violation(
                    INVARIANT_FLEET_BUDGET,
                    f"summed fleet power {total:.3f} W over "
                    f"t=[{t0:.3f}s, {t1:.3f}s) exceeds the shared "
                    f"{budget:g} W budget "
                    f"({', '.join(f'{n}={p:.3f}' for n, p in sorted(active.items()))})",
                    MappingProxyType(
                        {
                            "budget_w": budget,
                            "power_w": total,
                            "t0_s": t0,
                            "t1_s": t1,
                            "per_node_w": MappingProxyType(dict(active)),
                        }
                    ),
                )
            )
    return out


def verify_fleet_schedule(ctx, result, *, rel_tol: float = DEFAULT_REL_TOL) -> list[Violation]:
    """Check the fleet-level invariants of a :class:`FleetScheduleResult`.

    Three layers: the assignments must partition ``ctx.jobs`` across real
    fleet nodes (:data:`INVARIANT_FLEET_PARTITION`); each node's plan must
    satisfy every Definition 2.1 invariant on that node's derived
    single-node sub-context, with power-cap breaches re-tagged
    :data:`INVARIANT_NODE_CAP` and messages naming the node; and when the
    fleet declares a shared ``budget_w``, the *summed* per-node predicted
    power must stay under it over every interval of the union timeline
    (:data:`INVARIANT_FLEET_BUDGET`).  Returns the (possibly empty)
    violation list; use :func:`check_fleet_schedule` to raise instead.
    """
    violations = _check_fleet_partition(ctx, result)
    profiles: dict[str, list] = {}
    for a in result.assignments:
        try:
            index = ctx.fleet.index(a.node)
        except KeyError:
            continue  # already reported as a partition violation
        sub = ctx.node_context(index, jobs=a.jobs)
        for v in verify_schedule(sub, a.schedule, rel_tol=rel_tol):
            if v.invariant == INVARIANT_POWER_CAP:
                v = Violation(
                    INVARIANT_NODE_CAP,
                    f"[{a.node}] {v.message}",
                    MappingProxyType(dict(v.details, node=a.node)),
                )
            else:
                v = Violation(
                    v.invariant,
                    f"[{a.node}] {v.message}",
                    MappingProxyType(dict(v.details, node=a.node)),
                )
            violations.append(v)
        if ctx.fleet.budget_w is not None:
            try:
                profiles[a.node] = _node_power_steps(sub, a.schedule)
            except InfeasibleCapError:
                pass  # the per-node verifier reported the replay failure
    violations.extend(_check_fleet_budget(ctx, profiles, rel_tol))
    return violations


def check_fleet_schedule(
    ctx, result, *, where: str = "fleet", rel_tol: float = DEFAULT_REL_TOL
) -> None:
    """Verify a fleet schedule and raise on any violation."""
    violations = verify_fleet_schedule(ctx, result, rel_tol=rel_tol)
    if violations:
        summary = "; ".join(str(v) for v in violations)
        raise ScheduleInvariantError(
            f"invalid fleet schedule from {where}: {summary}",
            violations=tuple(violations),
            where=where,
        )

