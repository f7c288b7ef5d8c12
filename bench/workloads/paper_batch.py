"""``paper-batch``: the paper's use case as many small offline requests.

Each instance is a fresh seeded random workload of 8, 12 or 16 jobs, or
the eight-program Rodinia mix.  A unit profiles one instance and then
serves every (method, cap, objective) request on it: a ``schedule()``
call followed by executing the result on the simulator.  Per-request
layers dominate here — profiling, ``tensorize``, one ``PairTables`` build
per (cap, objective), context construction, HCS, single-schedule replay
and the fixed-schedule simulator.
"""

from __future__ import annotations

from repro.core.api import schedule
from repro.core.context import SchedulingContext
from repro.hardware.calibration import make_ivy_bridge
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.util.rng import default_rng
from repro.workload.generator import random_workload
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs

from bench.workloads import Workload
from bench.workloads.common import served_problems, simulate

METHODS = ("random", "hcs", "hcs+")
CAPS_W = (12.0, 15.0, 20.0)
OBJECTIVES = ("makespan", "energy")
#: One cycle of instance kinds; the pool repeats it.
KINDS = (8, 12, 16, "rodinia")
CYCLES = 6


class PaperBatch(Workload):
    name = "paper-batch"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(workdir)
        self.processor = make_ivy_bridge()
        self.space = characterize_space(self.processor)
        rng = default_rng(seed)
        kinds = KINDS if not smoke else (8, "rodinia")
        cycles = CYCLES if not smoke else 1
        self.instances = []
        for k in range(cycles * len(kinds)):
            kind = kinds[k % len(kinds)]
            if kind == "rodinia":
                jobs = make_jobs(rodinia_programs(self.processor))
            else:
                jobs = random_workload(kind, rng)
            self.instances.append((k, tuple(jobs), int(rng.integers(2**31))))
        self.requests = [
            (method, cap, objective)
            for method in METHODS
            for cap in (CAPS_W if not smoke else (15.0,))
            for objective in OBJECTIVES
        ]

    def units(self) -> list:
        return [
            lambda rec, inst=inst: self._instance(rec, *inst)
            for inst in self.instances
        ]

    def warmup(self) -> None:
        _, jobs, seed = self.instances[0]
        predictor = CoRunPredictor(
            self.processor, profile_workload(self.processor, jobs), self.space
        )
        self._serve(jobs, predictor, seed, *self.requests[-1])

    def _serve(self, jobs, predictor, seed, method, cap, objective):
        result = schedule(
            jobs, method, cap_w=cap, objective=objective,
            predictor=predictor, seed=seed,
        )
        return result, simulate(self.processor, result)

    def _instance(self, rec, index, jobs, seed) -> None:
        self.attempted += len(self.requests)
        served = []
        try:
            with rec.busy():
                table = profile_workload(self.processor, jobs)
            predictor = CoRunPredictor(self.processor, table, self.space)
            for request in self.requests:
                with rec.op():
                    served.append(self._serve(jobs, predictor, seed, *request))
        except Exception:
            self.crash(len(self.requests) - len(served))
            return
        with self.check():
            first = self.first_run(index)
            for request, (result, execution) in zip(self.requests, served):
                if first:
                    self._verify(jobs, predictor, request, result, execution)
                self.same_as_first(
                    (index, request),
                    (
                        result.schedule,
                        result.predicted_makespan_s,
                        execution.makespan_s,
                        len(execution.segments),
                    ),
                )
            if first:
                self._note_quality(served)

    def _verify(self, jobs, predictor, request, result, execution) -> None:
        _, cap, objective = request
        ctx = SchedulingContext.build(
            jobs, cap_w=cap, objective=objective, predictor=predictor
        )
        problems = served_problems(ctx, result, execution)
        if problems:
            self.fail(1, f"{request}: " + "; ".join(problems))

    def _note_quality(self, served) -> None:
        by_request = dict(zip(self.requests, served))
        for cap in {cap for _, cap, _ in self.requests}:
            random_ex = by_request[("random", cap, "makespan")][1]
            hcs_ex = by_request[("hcs+", cap, "makespan")][1]
            self.note("speedup", random_ex.makespan_s / hcs_ex.makespan_s)
        for (_, cap, _), (result, execution) in by_request.items():
            simulated = execution.makespan_s
            self.note(
                "model_error",
                abs(result.predicted_makespan_s - simulated) / simulated,
            )
            self.note(
                "overshoot", max(seg.watts for seg in execution.segments) - cap
            )
