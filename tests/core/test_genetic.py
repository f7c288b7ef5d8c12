"""Tests for the genetic-algorithm scheduler."""

import pytest

from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.genetic import GaConfig, GeneticScheduler, genetic_schedule
from repro.core.hcs import hcs_schedule
from repro.core.schedule import CoSchedule, predicted_makespan
from repro.workload.generator import random_workload


@pytest.fixture(scope="module")
def env(predictor, rodinia_jobs):
    ctx = SchedulingContext(jobs=rodinia_jobs, cap_w=15.0, predictor=predictor)
    return predictor, rodinia_jobs, ctx


class TestGaConfig:
    def test_defaults_valid(self):
        GaConfig()

    def test_bad_population(self):
        with pytest.raises(ValueError):
            GaConfig(population=1)

    def test_bad_elite(self):
        with pytest.raises(ValueError):
            GaConfig(population=4, elite=4)

    def test_bad_rates(self):
        with pytest.raises(ValueError):
            GaConfig(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GaConfig(mutation_rate=-0.1)


class TestGeneticScheduler:
    def test_schedules_every_job(self, env):
        predictor, jobs, ctx = env
        schedule, makespan = genetic_schedule(
            ctx.with_seed(1),
            config=GaConfig(population=10, generations=5),
        )
        assert sorted(schedule.all_uids()) == sorted(j.uid for j in jobs)
        assert makespan > 0

    def test_reported_fitness_matches_replay(self, env):
        predictor, jobs, ctx = env
        schedule, makespan = genetic_schedule(
            ctx.with_seed(2),
            config=GaConfig(population=10, generations=5),
        )
        governor = ModelGovernor(predictor, 15.0)
        assert predicted_makespan(schedule, predictor, governor) == pytest.approx(
            makespan
        )

    def test_deterministic_under_seed(self, env):
        predictor, jobs, ctx = env
        cfg = GaConfig(population=12, generations=6)
        a = genetic_schedule(ctx.with_seed(5), config=cfg)
        b = genetic_schedule(ctx.with_seed(5), config=cfg)
        assert a[1] == pytest.approx(b[1])
        assert a[0] == b[0]

    def test_more_generations_never_hurt(self, env):
        predictor, jobs, ctx = env
        short = genetic_schedule(
            ctx.with_seed(3),
            config=GaConfig(population=16, generations=2),
        )[1]
        long = genetic_schedule(
            ctx.with_seed(3),
            config=GaConfig(population=16, generations=25),
        )[1]
        assert long <= short + 1e-9

    def test_memetic_seeding_never_loses_to_hcs(self, env):
        """Seeding the population with HCS's schedule makes the GA a
        refiner: elitism guarantees it cannot come back worse."""
        predictor, jobs, ctx = env
        hcs = hcs_schedule(ctx)
        _, fitness = genetic_schedule(
            ctx.with_seed(4),
            config=GaConfig(population=16, generations=10, elite=2),
            seed_schedule=hcs.schedule,
        )
        assert fitness <= hcs.predicted_makespan_s + 1e-9

    def test_encode_decode_roundtrip(self, env):
        predictor, jobs, ctx = env
        hcs = hcs_schedule(ctx)
        ga = GeneticScheduler(ctx.with_seed(0))
        genome = ga._encode(hcs.schedule)
        decoded = ga._decode(genome)
        # Solo-tail jobs re-enter the GPU queue (the GA genome has no solo
        # notion), but queue contents and order must otherwise round-trip.
        assert [j.uid for j in decoded.cpu_queue] == [
            j.uid for j in hcs.schedule.cpu_queue
        ]

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_partial_seed_rejected(self, env, vectorized):
        """A seed missing GA jobs would give the genome duplicate
        priorities, which the population kernels cannot rank."""
        predictor, jobs, ctx = env
        seed = CoSchedule(cpu_queue=tuple(jobs[:3]), gpu_queue=tuple(jobs[3:5]))
        missing = sorted(j.uid for j in jobs[5:])
        with pytest.raises(ValueError, match="missing") as err:
            GeneticScheduler(ctx.with_seed(0), vectorized=vectorized).evolve(
                seed_schedule=seed
            )
        assert all(uid in str(err.value) for uid in missing)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_foreign_seed_rejected(self, env, vectorized):
        predictor, jobs, ctx = env
        (stranger,) = random_workload(1, seed=0)
        assert stranger.uid not in {j.uid for j in jobs}
        seed = CoSchedule(
            cpu_queue=tuple(jobs[:4]), gpu_queue=(*jobs[4:], stranger)
        )
        with pytest.raises(ValueError, match="foreign") as err:
            GeneticScheduler(ctx.with_seed(0), vectorized=vectorized).evolve(
                seed_schedule=seed
            )
        assert stranger.uid in str(err.value)

    def test_empty_jobs_rejected(self, env):
        predictor, _, _ = env
        with pytest.raises(ValueError):
            GeneticScheduler(
                SchedulingContext(jobs=[], cap_w=15.0, predictor=predictor)
            )
