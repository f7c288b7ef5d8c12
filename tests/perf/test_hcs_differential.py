"""HCS on the tables equals HCS on the scalar predictor, under Hypothesis.

On a tensor context the heuristic's three steps read the model's tables:
the theorem partition reduces the ``(rows, rows, settings)`` tensors, and
greedy pairing reads the minimum-interference matrix and the governor's
per-pair choices.  The scalar stack stays the referee: ``hcs`` and
``hcs+`` (scalar refinement passes) must give the byte-identical
partition, categorization, schedule and predicted makespan on a tensor
context and on its :func:`~tests.scalar.scalar_context`.

The job sets mix repeated programs (rows shared by several uids, so
candidates tie exactly) with distinct ones, a zero-demand program whose
degradation sum is 0.0 at every setting (so the setting argmin ties too),
and a tiny program that the theorem sends to the sequential set.  Caps
12, 15 and 20 W make some pairs and solos infeasible.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.context import SchedulingContext
from repro.core.fleet import Fleet, Node
from repro.core.hcs import hcs_schedule
from repro.core.objectives import Objective
from repro.errors import InfeasibleCapError
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import ProfileTable, extend_table
from repro.perf.cache import EvalCache
from repro.perf.tensor import PairTables
from repro.workload.generator import random_program
from repro.workload.program import Job
from repro.workload.rodinia import rodinia_programs
from tests.scalar import scalar_context

CAPS = (12.0, 15.0, 20.0)

HYPO = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _pool():
    rodinia = rodinia_programs()
    by_name = {p.name: p for p in rodinia}
    return (
        *rodinia,
        dataclasses.replace(rodinia[0], name="zero-demand", bytes_gb=0.0),
        by_name["streamcluster"].scaled(0.005, name="tiny"),
        *(random_program(seed, name=f"synth-{seed}") for seed in (3, 11)),
    )


POOL = _pool()

#: Program picks; repeats give several uids one profile row.
picks_st = st.lists(st.integers(0, len(POOL) - 1), min_size=2, max_size=10)

#: Sweeps shared by profile content across examples.
_SWEEPS = EvalCache()


def _predictor(processor, space, picks) -> tuple[list[Job], CoRunPredictor]:
    jobs = [Job(uid=f"{POOL[p].name}#{k}", profile=POOL[p]) for k, p in enumerate(picks)]
    empty = ProfileTable(processor=processor, jobs=(), _profiles={})
    table = extend_table(empty, jobs, cache=_SWEEPS)
    return jobs, CoRunPredictor(processor, table, space)


def _uids(jobs) -> tuple[str, ...]:
    return tuple(job.uid for job in jobs)


def _outcome(ctx, refine: bool):
    """Everything HCS decides, as plain values, or the error it raised."""
    try:
        result = hcs_schedule(ctx, refine=refine, vectorized=False)
    except InfeasibleCapError as exc:
        return ("infeasible", str(exc), exc.cap_w, exc.jobs)
    cat = result.categorized
    sched = result.schedule
    return (
        _uids(result.partition.co),
        _uids(result.partition.seq),
        _uids(cat.cpu_preferred),
        _uids(cat.gpu_preferred),
        _uids(cat.non_preferred),
        _uids(sched.cpu_queue),
        _uids(sched.gpu_queue),
        tuple((job.uid, kind) for job, kind in sched.solo_tail),
        result.predicted_makespan_s,
    )


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("objective", [o.value for o in Objective])
class TestHcsDifferential:
    @HYPO
    @given(picks=picks_st)
    def test_tables_equal_scalar(self, processor, space, cap, objective, picks):
        jobs, predictor = _predictor(processor, space, picks)
        tensor = SchedulingContext.build(
            jobs, cap_w=cap, objective=objective, predictor=predictor
        )
        scalar = scalar_context(tensor)
        # The tensor side really reads the tables.
        assert tensor.tensor is not None and scalar.tensor is None
        assert PairTables.serving(tensor.governor) is not None
        assert PairTables.serving(scalar.governor) is None
        for refine in (False, True):
            assert _outcome(tensor, refine) == _outcome(scalar, refine)


@pytest.mark.parametrize("speed, power", [(2.0, 1.3), (0.6, 0.5), (0.7, 1.0)])
@pytest.mark.parametrize("cap", CAPS)
def test_node_scaled_tables_equal_scalar(processor, space, speed, power, cap):
    """A node-scaled model divides its co-run times after the product, so
    the theorem partition recomputes the degraded lengths there."""
    jobs, predictor = _predictor(processor, space, list(range(len(POOL))) + [0, 8])
    fleet = Fleet(nodes=(Node("n", speed_scale=speed, power_scale=power, cap_w=cap),))
    tensor = SchedulingContext.build(jobs, fleet=fleet, predictor=predictor)
    scalar = scalar_context(tensor)
    assert PairTables.serving(tensor.governor) is not None
    assert PairTables.serving(scalar.governor) is None
    for refine in (False, True):
        assert _outcome(tensor, refine) == _outcome(scalar, refine)


def test_pool_forces_exact_ties(processor, space):
    """The pool's tie-makers do what the module docstring claims."""
    jobs, predictor = _predictor(processor, space, [8, 8, 0])
    zero_a, zero_b, other = (job.uid for job in jobs)
    for s in processor.settings():
        assert sum(predictor.degradations(zero_a, zero_b, s)) == 0.0
        assert sum(predictor.degradations(zero_a, other, s)) == 0.0
