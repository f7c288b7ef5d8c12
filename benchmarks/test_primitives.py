"""Micro-benchmarks of the library's core primitives.

These time the building blocks (not paper artifacts): the characterization
sweep, workload profiling, a pairwise co-run simulation, schedule
execution, and HCS scheduling itself.  Useful for tracking performance
regressions of the simulator.
"""

import pytest

from repro.hardware.calibration import make_ivy_bridge
from repro.hardware.device import DeviceKind
from repro.engine.corun import steady_degradation
from repro.engine.sim import Scenario, run
from repro.model.characterize import characterize_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.hcs import hcs_schedule
from repro.workload.program import make_jobs
from repro.workload.rodinia import rodinia_programs


@pytest.fixture(scope="module")
def env():
    processor = make_ivy_bridge()
    jobs = make_jobs(rodinia_programs())
    table = profile_workload(processor, jobs)
    space = characterize_space(processor)
    predictor = CoRunPredictor(processor, table, space)
    return processor, jobs, table, space, predictor


def _ctx(predictor, jobs):
    return SchedulingContext(jobs=jobs, cap_w=15.0, predictor=predictor)


def test_bench_characterize_space(benchmark):
    processor = make_ivy_bridge()
    space = benchmark(characterize_space, processor)
    assert space.cpu_grid.values.shape == (11, 11)


def test_bench_profile_workload(benchmark, env):
    processor, jobs = env[0], env[1]
    table = benchmark(profile_workload, processor, jobs)
    assert len(table.uids) == 8


def test_bench_steady_corun_simulation(benchmark, env):
    processor, jobs = env[0], env[1]
    by_name = {j.uid: j for j in jobs}
    d = benchmark(
        steady_degradation,
        processor,
        by_name["dwt2d"].profile,
        DeviceKind.CPU,
        by_name["streamcluster"].profile,
        processor.max_setting,
    )
    assert d > 0.5


def test_bench_hcs_scheduling(benchmark, env):
    processor, jobs, _, _, predictor = env
    result = benchmark(lambda: hcs_schedule(_ctx(predictor, jobs)))
    assert result.schedule.n_jobs == 8


def test_bench_hcs_plus_scheduling(benchmark, env):
    _, jobs, _, _, predictor = env
    result = benchmark(
        lambda: hcs_schedule(_ctx(predictor, jobs), refine=True)
    )
    assert result.schedule.n_jobs == 8


def test_bench_schedule_execution(benchmark, env):
    processor, jobs, _, _, predictor = env
    hcs = hcs_schedule(_ctx(predictor, jobs))
    governor = ModelGovernor(predictor, 15.0)
    scenario = Scenario.from_queues(
        hcs.schedule.cpu_queue,
        hcs.schedule.gpu_queue,
        solo_tail=hcs.schedule.solo_tail,
    )
    execution = benchmark(run, processor, scenario, governor=governor)
    assert execution.makespan_s > 0
