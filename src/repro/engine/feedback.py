"""Reactive power-cap enforcement (RAPL-style measurement feedback).

The paper's runtime enforces the cap *predictively*: it only launches
frequency settings whose predicted power fits the budget (Section V), which
is why measured power occasionally overshoots (Figure 9).  Real hardware
also offers the opposite strategy — RAPL's closed loop reacts to *measured*
power with no model at all.  This module implements that strategy on the
simulator so the two can be compared (``repro.experiments.capcontrol``):

every ``control_interval_s`` the controller compares the interval's mean
chip power against the cap and steps one frequency level:

* over the cap: step the sacrificial device down (CPU first under GPU
  bias), falling back to the favoured device at the floor;
* under the cap by more than ``headroom_w``: step the favoured device up,
  then the other.

Execution runs on :class:`~repro.engine.sim.SimCore`, like every fixed
replay of :func:`repro.engine.sim.run`: a :class:`FixedSchedulePolicy`
drains the two queues, and each control boundary is a timed ``CAP_CHANGE``
event whose ``on_event`` hook measures the interval and steps the
controller.  The results are therefore directly comparable with a
fixed-replay ``run()`` (``Scenario.from_queues``).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.hardware.frequency import FrequencySetting
from repro.hardware.processor import IntegratedProcessor
from repro.workload.program import Job
from repro.engine.events import EventKind
from repro.engine.sim import ExecutionResult, FixedSchedulePolicy, SimCore
from repro.util.validation import check_nonnegative, check_positive


@dataclass
class ReactiveCapController:
    """One-level-per-interval frequency stepping from measured power."""

    processor: IntegratedProcessor
    cap_w: float
    gpu_biased: bool = True
    headroom_w: float = 1.0

    def __post_init__(self) -> None:
        check_positive("cap_w", self.cap_w)
        check_nonnegative("headroom_w", self.headroom_w)
        self.setting = FrequencySetting(
            self.processor.cpu.domain.medium, self.processor.gpu.domain.medium
        )

    def _step_down(self) -> None:
        cpu_dom = self.processor.cpu.domain
        gpu_dom = self.processor.gpu.domain
        first, second = (
            (cpu_dom, gpu_dom) if self.gpu_biased else (gpu_dom, cpu_dom)
        )
        for dom in (first, second):
            current = (
                self.setting.cpu_ghz if dom is cpu_dom else self.setting.gpu_ghz
            )
            lower = dom.step_down(current)
            if lower is not None:
                if dom is cpu_dom:
                    self.setting = FrequencySetting(lower, self.setting.gpu_ghz)
                else:
                    self.setting = FrequencySetting(self.setting.cpu_ghz, lower)
                return

    def _step_up(self) -> None:
        cpu_dom = self.processor.cpu.domain
        gpu_dom = self.processor.gpu.domain
        first, second = (
            (gpu_dom, cpu_dom) if self.gpu_biased else (cpu_dom, gpu_dom)
        )
        for dom in (first, second):
            current = (
                self.setting.cpu_ghz if dom is cpu_dom else self.setting.gpu_ghz
            )
            higher = dom.step_up(current)
            if higher is not None:
                if dom is cpu_dom:
                    self.setting = FrequencySetting(higher, self.setting.gpu_ghz)
                else:
                    self.setting = FrequencySetting(self.setting.cpu_ghz, higher)
                return

    def observe(self, interval_mean_power_w: float) -> FrequencySetting:
        """Feed one control interval's measured power; returns the setting
        for the next interval."""
        if interval_mean_power_w > self.cap_w:
            self._step_down()
        elif interval_mean_power_w < self.cap_w - self.headroom_w:
            self._step_up()
        return self.setting


class _ControlTicks(FixedSchedulePolicy):
    """Fixed two-queue replay that steps a controller every control interval.

    Tick ``k`` is a timed ``CAP_CHANGE`` at ``k * interval_s``; its hook
    folds the power segments since the previous tick into one mean power,
    feeds it to the controller, and schedules tick ``k + 1``.
    """

    def __init__(
        self,
        cpu_queue: Sequence[Job],
        gpu_queue: Sequence[Job],
        controller: ReactiveCapController,
        interval_s: float,
    ):
        super().__init__(cpu_queue, gpu_queue)
        self.controller = controller
        self.interval_s = interval_s
        self.trace = [controller.setting]
        self._ticks = 1
        self._seen = 0

    def governor(self, cpu_job: Job | None, gpu_job: Job | None) -> FrequencySetting:
        return self.controller.setting

    def on_event(self, sim: SimCore, event) -> None:
        if event.kind is not EventKind.CAP_CHANGE:
            return
        segments = sim.segments_since(self._seen)
        self._seen += len(segments)
        energy = elapsed = 0.0
        for seg in segments:
            energy += seg.watts * seg.duration_s
            elapsed += seg.duration_s
        self.trace.append(self.controller.observe(energy / elapsed))
        self._ticks += 1
        sim.schedule_governor_change(self._ticks * self.interval_s, self.governor)


def execute_with_reactive_cap(
    processor: IntegratedProcessor,
    cpu_queue: Sequence[Job],
    gpu_queue: Sequence[Job],
    cap_w: float,
    *,
    gpu_biased: bool = True,
    control_interval_s: float = 1.0,
    headroom_w: float = 1.0,
) -> tuple[ExecutionResult, list[FrequencySetting]]:
    """Execute two queues under closed-loop cap control.

    Returns the execution record plus the per-interval setting trace.
    """
    from repro.analysis.invariants import maybe_check_execution

    check_positive("control_interval_s", control_interval_s)
    controller = ReactiveCapController(
        processor, cap_w, gpu_biased=gpu_biased, headroom_w=headroom_w
    )
    ticks = _ControlTicks(cpu_queue, gpu_queue, controller, control_interval_s)
    sim = SimCore(processor, ticks.governor)
    for job in (*cpu_queue, *gpu_queue):
        sim.add_arrival(job, 0.0)
    sim.schedule_governor_change(control_interval_s, ticks.governor)
    sim.advance(ticks)
    execution = sim.record()
    maybe_check_execution(execution, where="engine.feedback")
    return execution, ticks.trace
