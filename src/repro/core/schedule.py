"""Co-schedule representation and the scheduler-side (predicted) timeline.

A :class:`CoSchedule` is the object every scheduling algorithm produces: an
ordered CPU queue, an ordered GPU queue, and a *solo tail* of jobs that run
alone at the end (the heuristic's S_seq).  The ground-truth engine executes
it via :func:`repro.engine.sim.run`; the scheduler itself
evaluates candidates with :func:`predicted_makespan`, which replays the same
queue semantics using *predicted* degradations — the paper's runtime never
touches the machine while searching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

from repro.hardware.device import DeviceKind
from repro.objective import Objective
from repro.workload.program import Job

_EPS = 1e-12


@dataclass(frozen=True)
class CoSchedule:
    """Two execution queues plus a run-alone tail (Definition 2.1 output)."""

    cpu_queue: tuple[Job, ...] = ()
    gpu_queue: tuple[Job, ...] = ()
    solo_tail: tuple[tuple[Job, DeviceKind], ...] = ()

    def __post_init__(self) -> None:
        uids = self.all_uids()
        if len(set(uids)) != len(uids):
            raise ValueError("a job may appear only once in a co-schedule")

    def all_uids(self) -> list[str]:
        """Every scheduled job uid, in queue order."""
        return (
            [j.uid for j in self.cpu_queue]
            + [j.uid for j in self.gpu_queue]
            + [j.uid for j, _ in self.solo_tail]
        )

    @property
    def n_jobs(self) -> int:
        return len(self.cpu_queue) + len(self.gpu_queue) + len(self.solo_tail)

    def with_queues(
        self, cpu_queue: Sequence[Job], gpu_queue: Sequence[Job]
    ) -> "CoSchedule":
        """Copy with replaced co-phase queues (used by the refinement moves)."""
        return replace(
            self, cpu_queue=tuple(cpu_queue), gpu_queue=tuple(gpu_queue)
        )

    def describe(self) -> str:
        """Human-readable one-line-per-processor rendering."""
        lines = [
            "CPU : " + " -> ".join(j.uid for j in self.cpu_queue),
            "GPU : " + " -> ".join(j.uid for j in self.gpu_queue),
        ]
        if self.solo_tail:
            lines.append(
                "SOLO: "
                + ", ".join(f"{j.uid}@{kind}" for j, kind in self.solo_tail)
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PredictedMetrics:
    """Model-predicted makespan, energy, and flow of one schedule replay."""

    makespan_s: float
    energy_j: float
    #: Sum of predicted per-job completion times (total flow, releases at
    #: zero).
    flow_s: float

    @property
    def edp_js(self) -> float:
        return self.score(Objective.EDP)

    def score(self, objective: Objective | str) -> float:
        """Objective scalar (an :class:`Objective` or its string value)."""
        return Objective.coerce(objective).score(
            self.makespan_s, self.energy_j, self.flow_s
        )


def predicted_makespan(schedule: CoSchedule, predictor, governor) -> float:
    """Makespan of ``schedule`` under the *predicted* performance model.

    Mean-field replay: whenever jobs A (CPU) and B (GPU) overlap, each
    progresses at ``1 / (l (1 + d))`` per second with ``d`` the predicted
    steady degradation at the governor's chosen setting; a job running with
    the other processor empty progresses at ``1 / l``.  This mirrors the
    Co-Run Theorem's steady-state accounting, including the partial-overlap
    correction of the Section IV-B side note (rates are re-evaluated when a
    co-runner finishes).

    ``predictor`` needs ``corun_times``/``solo_time``; ``governor`` maps a
    (cpu job, gpu job) pair to the frequency setting (see
    :mod:`repro.core.freqpolicy`).
    """
    return _replay(schedule, predictor, governor, track_energy=False)[0]


def predicted_metrics(schedule: CoSchedule, predictor, governor) -> PredictedMetrics:
    """Makespan *and* energy of ``schedule`` under the predicted model.

    The same mean-field replay as :func:`predicted_makespan` (the makespan
    it reports is bit-identical), additionally integrating the predicted
    chip power over each steady segment.  This is what non-makespan
    objectives minimize while searching — the model-side analogue of
    :attr:`repro.engine.sim.ExecutionResult.energy_j`.
    """
    t, energy, flow = _replay(schedule, predictor, governor, track_energy=True)
    return PredictedMetrics(makespan_s=t, energy_j=energy, flow_s=flow)


def _replay(
    schedule: CoSchedule, predictor, governor, *, track_energy: bool
) -> tuple[float, float, float]:
    from repro.core.feasibility import predicted_power

    cpu = list(schedule.cpu_queue)
    gpu = list(schedule.gpu_queue)

    # (job, remaining fraction) per side, or None when idle.
    cur_c: tuple[Job, float] | None = None
    cur_g: tuple[Job, float] | None = None
    t = 0.0
    energy = 0.0
    flow = 0.0

    while True:
        if cur_c is None and cpu:
            cur_c = (cpu.pop(0), 1.0)
        if cur_g is None and gpu:
            cur_g = (gpu.pop(0), 1.0)
        if cur_c is None and cur_g is None:
            break

        setting = governor(cur_c[0] if cur_c else None, cur_g[0] if cur_g else None)
        if cur_c is not None and cur_g is not None:
            t_c, t_g = predictor.corun_times(cur_c[0].uid, cur_g[0].uid, setting)
        elif cur_c is not None:
            t_c = predictor.solo_time(cur_c[0].uid, DeviceKind.CPU, setting.cpu_ghz)
            t_g = None
        else:
            t_g = predictor.solo_time(cur_g[0].uid, DeviceKind.GPU, setting.gpu_ghz)
            t_c = None

        # Wall time each running job still needs if conditions persist.
        dt_candidates = []
        if cur_c is not None:
            dt_candidates.append(cur_c[1] * t_c)
        if cur_g is not None:
            dt_candidates.append(cur_g[1] * t_g)
        dt = min(dt_candidates)
        if track_energy:
            energy += dt * predicted_power(
                predictor,
                cur_c[0].uid if cur_c else None,
                cur_g[0].uid if cur_g else None,
                setting,
            )

        done = 0
        if cur_c is not None:
            rem = cur_c[1] - dt / t_c
            if rem <= _EPS:
                cur_c, done = None, done + 1
            else:
                cur_c = (cur_c[0], rem)
        if cur_g is not None:
            rem = cur_g[1] - dt / t_g
            if rem <= _EPS:
                cur_g, done = None, done + 1
            else:
                cur_g = (cur_g[0], rem)
        t += dt
        flow += done * t

    for job, kind in schedule.solo_tail:
        setting = governor(
            job if kind is DeviceKind.CPU else None,
            job if kind is DeviceKind.GPU else None,
        )
        f = setting.cpu_ghz if kind is DeviceKind.CPU else setting.gpu_ghz
        solo_s = predictor.solo_time(job.uid, kind, f)
        t += solo_s
        flow += t
        if track_energy:
            energy += solo_s * predictor.solo_power_w(job.uid, kind, f)

    return t, energy, flow
