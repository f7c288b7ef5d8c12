"""Tests for the online scheduling policies."""

import pytest

from repro.hardware.device import DeviceKind
from repro.core.context import SchedulingContext
from repro.core.freqpolicy import Bias, BiasedGovernor, ModelGovernor
from repro.core.online import FifoOnlinePolicy, HcsOnlinePolicy
from repro.engine.sim import Scenario, run


@pytest.fixture(scope="module")
def ctx(predictor, rodinia_jobs):
    return SchedulingContext.build(rodinia_jobs, cap_w=15.0, predictor=predictor)


@pytest.fixture(scope="module")
def hcs_policy(ctx):
    return HcsOnlinePolicy(ctx)


class TestFifoOnlinePolicy:
    def test_takes_head_of_queue(self, rodinia_jobs):
        policy = FifoOnlinePolicy()
        job = policy(DeviceKind.CPU, list(rodinia_jobs), None, 0.0)
        assert job is rodinia_jobs[0]

    def test_empty_pool(self):
        assert FifoOnlinePolicy()(DeviceKind.GPU, [], None, 0.0) is None


class TestHcsOnlinePolicy:
    def test_cpu_takes_its_preferred_job(self, hcs_policy, rodinia_jobs):
        by_name = {j.uid: j for j in rodinia_jobs}
        pool = [by_name["dwt2d"], by_name["streamcluster"]]
        picked = hcs_policy(DeviceKind.CPU, pool, None, 0.0)
        assert picked.uid == "dwt2d"

    def test_cpu_declines_gpu_only_pool(self, hcs_policy, rodinia_jobs):
        """streamcluster is 3.6x slower on the capped CPU — beyond the
        steal-ratio limit, so the CPU waits."""
        by_name = {j.uid: j for j in rodinia_jobs}
        pool = [by_name["streamcluster"]]
        assert hcs_policy(DeviceKind.CPU, pool, None, 0.0) is None

    def test_gpu_accepts_the_same_pool(self, hcs_policy, rodinia_jobs):
        by_name = {j.uid: j for j in rodinia_jobs}
        pool = [by_name["streamcluster"]]
        picked = hcs_policy(DeviceKind.GPU, pool, None, 0.0)
        assert picked.uid == "streamcluster"

    def test_min_interference_pick_against_corunner(self, hcs_policy, rodinia_jobs):
        """With dwt2d on the CPU, the GPU should prefer a gentle partner
        over the heaviest streamer when both are available."""
        by_name = {j.uid: j for j in rodinia_jobs}
        pool = [by_name["streamcluster"], by_name["hotspot"]]
        picked = hcs_policy(DeviceKind.GPU, pool, by_name["dwt2d"], 0.0)
        assert picked.uid == "hotspot"

    def test_arrival_outside_the_context_is_rejected(self, predictor, rodinia_jobs):
        policy = HcsOnlinePolicy(
            SchedulingContext.build(rodinia_jobs[:4], cap_w=15.0, predictor=predictor)
        )
        with pytest.raises(ValueError, match="not among the context's jobs"):
            policy(DeviceKind.GPU, list(rodinia_jobs[3:5]), None, 0.0)

    def test_full_workload_drains_without_deadlock(
        self, ctx, processor, predictor, rodinia_jobs
    ):
        arrivals = [(job, 3.0 * i) for i, job in enumerate(rodinia_jobs)]
        result = run(
            processor,
            Scenario.from_arrivals(arrivals),
            policy=HcsOnlinePolicy(ctx),
            governor=ModelGovernor(predictor, 15.0),
        )
        assert len(result.completions) == len(rodinia_jobs)

    def test_beats_fifo_on_the_batch_case(
        self, ctx, processor, predictor, rodinia_jobs
    ):
        arrivals = [(job, 0.0) for job in rodinia_jobs]
        fifo = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=FifoOnlinePolicy(),
            governor=BiasedGovernor(predictor, 15.0, Bias.GPU),
        )
        hcs = run(
            processor, Scenario.from_arrivals(arrivals),
            policy=HcsOnlinePolicy(ctx),
            governor=ModelGovernor(predictor, 15.0),
        )
        assert hcs.makespan_s < fifo.makespan_s
        assert hcs.mean_turnaround_s < fifo.mean_turnaround_s


class TestArrivalsExperiment:
    def test_driver_shape(self):
        from repro.experiments import arrivals as driver

        h = driver.run(mean_gaps_s=(0.0, 10.0)).headline
        assert h["gap0_makespan_gain"] > 1.0
        assert h["gap0_turnaround_gain"] > 1.0
