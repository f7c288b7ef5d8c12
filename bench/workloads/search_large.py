"""``search-large``: portfolio solves of 48-64-job instances.

Each unit is one ``schedule(..., method="portfolio")`` call racing hcs,
hcs+ and a GA with population 128 over 60 generations, on a fresh
predictor so ``tensorize`` runs once per solve.  The population operators
and ``score_population`` do most of the work; the replay layer is used
through populations here, one schedule at a time in ``paper-batch``.

Two smaller solves per pass pin the per-schedule search trajectory
(``vectorized=False`` for hcs+ and the GA).  That is the path the tensor
gate of ``tools/check_bench.py`` measures, and the only default-reachable
caller of batched ``evaluate_all`` replay and delta resumption.
"""

from __future__ import annotations

from repro.core.api import schedule
from repro.core.context import SchedulingContext
from repro.core.genetic import GaConfig
from repro.hardware.calibration import make_ivy_bridge
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.util.rng import default_rng
from repro.workload.generator import random_workload

from bench.workloads import Workload
from bench.workloads.common import served_problems, simulate

CAPS_W = (15.0, 20.0)
#: Below the tensor limit: MAX_TENSOR_ELEMENTS / 160 settings => n <= 111.
#: Runs stop at pass boundaries, so a pass stays well under run_seconds.
SIZES = (48, 56, 64) * 2
PINNED_SIZES = (16,)
LARGE_OPTS = {
    "member_opts": {"genetic": {"config": GaConfig(population=128, generations=60)}}
}
SMOKE_OPTS = {
    "member_opts": {"genetic": {"config": GaConfig(population=16, generations=4)}}
}
PINNED_OPTS = {
    "member_opts": {
        "genetic": {
            "config": GaConfig(population=64, generations=15),
            "vectorized": False,
        },
        "hcs+": {"vectorized": False},
    }
}


class SearchLarge(Workload):
    name = "search-large"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(workdir)
        self.processor = make_ivy_bridge()
        self.space = characterize_space(self.processor)
        rng = default_rng(seed)
        large_opts = LARGE_OPTS if not smoke else SMOKE_OPTS
        plan = [(n, large_opts) for n in (SIZES if not smoke else (12,))]
        plan += [(n, PINNED_OPTS) for n in (PINNED_SIZES if not smoke else (8,))]
        self.solves = []
        for size, opts in plan:
            jobs = tuple(random_workload(size, rng))
            table = profile_workload(self.processor, jobs)
            seed_k = int(rng.integers(2**31))
            for cap in CAPS_W:
                key = len(self.solves)
                large = opts is large_opts
                self.solves.append((key, jobs, table, cap, seed_k, opts, large))

    def units(self) -> list:
        return [lambda rec, s=s: self._solve(rec, *s) for s in self.solves]

    def warmup(self) -> None:
        _, jobs, table, cap, seed, opts, _ = self.solves[-1]
        self._portfolio(jobs, table, cap, seed, opts)

    def _portfolio(self, jobs, table, cap, seed, opts):
        predictor = CoRunPredictor(self.processor, table, self.space)
        result = schedule(
            jobs, "portfolio", cap_w=cap, predictor=predictor, seed=seed, **opts
        )
        return predictor, result

    def _solve(self, rec, key, jobs, table, cap, seed, opts, large) -> None:
        self.attempted += 1
        try:
            with rec.op():
                predictor, result = self._portfolio(jobs, table, cap, seed, opts)
        except Exception:
            self.crash(1)
            return
        with self.check():
            if self.first_run(key):
                self._verify(jobs, predictor, cap, seed, result, large)
            self.same_as_first(
                key,
                (result.schedule, result.predicted_score, result.details["winner"]),
            )

    def _verify(self, jobs, predictor, cap, seed, result, large: bool) -> None:
        execution = simulate(self.processor, result)
        ctx = SchedulingContext.build(jobs, cap_w=cap, predictor=predictor)
        problems = served_problems(ctx, result, execution)
        if problems:
            self.fail(1, f"portfolio solve at {cap} W: " + "; ".join(problems))
            return
        if not large:
            return
        baseline = schedule(jobs, "random", cap_w=cap, predictor=predictor, seed=seed)
        simulated = execution.makespan_s
        self.note("speedup", simulate(self.processor, baseline).makespan_s / simulated)
        self.note(
            "model_error", abs(result.predicted_makespan_s - simulated) / simulated
        )
        self.note("overshoot", max(seg.watts for seg in execution.segments) - cap)
