"""Table-served governors equal their scalar selves.

On a tensor context the stock governors answer a cache miss — the
frequency choice for a running pair or solo, and Step 3's
``min_pair_interference`` — from their :class:`PairTables`.  For every
(cpu row, gpu row) pair and every solo, at each cap and objective, the
answers must equal a :class:`ModelGovernor` / :class:`EnergyAwareGovernor`
over the plain scalar predictor, infeasible combinations must raise the
identical :class:`InfeasibleCapError`, and anything the tables do not
cover must take the scalar path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.context import SchedulingContext
from repro.core.freqpolicy import ModelGovernor
from repro.core.greedy import _ScalarSource, _TableSource, pairing_source
from repro.core.objectives import Objective, governor_for
from repro.errors import InfeasibleCapError
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.perf.cache import EvalCache
from repro.perf.evaluator import CachingPredictor
from repro.perf.tensor import PairTables, tensorize
from repro.workload.program import Job
from repro.workload.rodinia import rodinia_programs
from tests.scalar import scalar_context

#: 9 W leaves some pairs and solos infeasible; 20 W admits nearly all.
CAPS = (9.0, 12.0, 15.0, 20.0)
OBJECTIVES = [o.value for o in Objective]


@pytest.fixture(scope="module")
def jobs():
    programs = rodinia_programs()
    # Two jobs of one program share a row; a zero-demand program's
    # degradation sum is 0.0 at every setting, so the ranking argmin ties.
    return [Job(p.name, p) for p in programs] + [
        Job("cfd#2", programs[1]),
        Job("zero", dataclasses.replace(programs[0], name="zero", bytes_gb=0.0)),
    ]


@pytest.fixture(scope="module")
def scalar_predictor(processor, space, jobs):
    return CoRunPredictor(processor, profile_workload(processor, jobs), space)


@pytest.fixture(scope="module")
def referee(scalar_predictor):
    """The scalar stack with its own cache, warm across the module."""
    return CachingPredictor(scalar_predictor, cache=EvalCache())


def _answer(fn, *args):
    try:
        return fn(*args)
    except InfeasibleCapError as exc:
        return ("infeasible", str(exc), exc.cap_w, exc.jobs)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("objective", OBJECTIVES)
def test_tables_answer_like_scalar(scalar_predictor, referee, jobs, cap, objective):
    ctx = SchedulingContext.build(
        jobs, cap_w=cap, objective=objective, predictor=scalar_predictor
    )
    served = ctx.governor
    assert PairTables.serving(served) is not None
    scalar = governor_for(referee, cap, objective)
    assert type(scalar) is type(served)

    chosen_by_scalar = []
    served._choose = lambda c, g: chosen_by_scalar.append((c, g)) or (
        type(served)._choose(served, c, g)
    )
    infeasible = 0
    for c in jobs:
        for g in jobs:
            got = _answer(served, c, g)
            assert got == _answer(scalar, c, g)
            infeasible += isinstance(got, tuple)
            assert served.min_pair_interference(c.uid, g.uid) == (
                scalar.min_pair_interference(c.uid, g.uid)
            )
    for job in jobs:
        for pair in ((job, None), (None, job)):
            got = _answer(served, *pair)
            assert got == _answer(scalar, *pair)
            infeasible += isinstance(got, tuple)
    # Only the infeasible combinations went down the scalar path (to
    # raise its error); every other answer came from the tables.
    assert len(chosen_by_scalar) == infeasible
    if cap == 9.0:
        assert infeasible > 0


def test_uncovered_uid_takes_the_scalar_path(scalar_predictor, jobs):
    full = tensorize(scalar_predictor)
    covered = {uid: row for uid, row in full.index.items() if uid != "lud"}
    governor = ModelGovernor(scalar_predictor, 15.0)
    assert PairTables.attach(governor, full.indexed(covered)) is not None
    scalar = ModelGovernor(scalar_predictor, 15.0)
    calls = []
    governor._choose = lambda c, g: calls.append((c, g)) or (
        ModelGovernor._choose(governor, c, g)
    )
    by_uid = {job.uid: job for job in jobs}
    lud, cfd = by_uid["lud"], by_uid["cfd"]
    assert governor(lud, cfd) == scalar(lud, cfd)
    assert governor(None, lud) == scalar(None, lud)
    assert governor(cfd, by_uid["srad"]) == scalar(cfd, by_uid["srad"])
    assert calls == [(lud, cfd), (None, lud)]
    assert governor.min_pair_interference("lud", "cfd") == (
        scalar.min_pair_interference("lud", "cfd")
    )


def test_subclassed_governor_takes_the_scalar_path(scalar_predictor, jobs):
    class Custom(ModelGovernor):
        pass

    governor = Custom(scalar_predictor, 15.0)
    assert PairTables.attach(governor, tensorize(scalar_predictor)) is None
    assert PairTables.serving(governor) is None
    calls = []
    governor._choose = lambda c, g: calls.append((c, g)) or (
        ModelGovernor._choose(governor, c, g)
    )
    scalar = ModelGovernor(scalar_predictor, 15.0)
    assert governor(jobs[0], jobs[1]) == scalar(jobs[0], jobs[1])
    assert calls == [(jobs[0], jobs[1])]
    assert governor.min_pair_interference(jobs[0].uid, jobs[1].uid) == (
        scalar.min_pair_interference(jobs[0].uid, jobs[1].uid)
    )


def test_greedy_reads_the_tables_only_when_they_answer(scalar_predictor, referee, jobs):
    ctx = SchedulingContext.build(jobs, cap_w=15.0, predictor=scalar_predictor)
    assert isinstance(pairing_source(ctx, ctx.governor), _TableSource)
    scalar = scalar_context(ctx)
    assert isinstance(pairing_source(scalar, scalar.governor), _ScalarSource)
    # A governor over another predictor, or at another cap, is not trusted.
    other = ModelGovernor(referee, 15.0)
    PairTables.attach(other, tensorize(referee))
    assert isinstance(pairing_source(ctx, other), _ScalarSource)
    assert isinstance(pairing_source(ctx.with_cap(12.0), ctx.governor), _ScalarSource)
