"""A growing service table reuses one tensor model per program set.

Every submission extends the session's profile table and swaps the
predictor behind its shared cache.  The tensor model is keyed by profile
content, so those swaps must not rebuild it, must not keep the swapped-out
predictors alive, and must not change a single completion.
"""

from __future__ import annotations

import gc
import weakref

from repro.perf.tensor import TensorModel
from repro.service.session import ServiceSession
from repro.util.rng import default_rng
from repro.workload.program import Job
from repro.workload.rodinia import rodinia_programs
from tests.scalar import scalar_context

N_SUBMISSIONS = 48
ARRIVAL_GAP_S = 12.0


def _script():
    """(job, arrival, advance-after?) steps over the 8 Rodinia programs."""
    rng = default_rng(3)
    programs = rodinia_programs()
    steps = []
    for k in range(N_SUBMISSIONS):
        program = programs[int(rng.integers(0, len(programs)))]
        job = Job(uid=f"s{k}", profile=program)
        steps.append((job, k * ARRIVAL_GAP_S, k % 3 == 2))
    return steps


def _run(session: ServiceSession, on_advance=lambda: None):
    completions = []
    for k, (job, arrival, advance) in enumerate(_script()):
        session.submit(job, arrival)
        if advance:
            if k % 12 == 11:
                session.set_cap(12.0 if (k // 12) % 2 else 15.0)
            done, _ = session.advance(arrival)
            completions.extend(done)
            on_advance()
    done, _ = session.drain()
    return completions + done


def _program_set(session: ServiceSession) -> frozenset:
    return frozenset(job.profile.name for job in session.table.jobs)


class TestTensorModelReuse:
    def test_one_build_per_program_set(self, monkeypatch):
        builds = []
        real_init = TensorModel.__init__

        def counting_init(self, *args):
            builds.append(args)
            real_init(self, *args)

        monkeypatch.setattr(TensorModel, "__init__", counting_init)
        session = ServiceSession()
        program_sets = set()
        completions = _run(session, lambda: program_sets.add(_program_set(session)))
        assert len(completions) == N_SUBMISSIONS
        assert 1 <= len(builds) <= len(program_sets)

    def test_completions_equal_scalar_backend(self):
        tensor = _run(ServiceSession())
        session = ServiceSession()
        build = session.policy.scheduler.context
        session.policy.scheduler.context = lambda jobs: scalar_context(build(jobs))
        scalar = _run(session)
        assert tensor == scalar

    def test_swapped_out_predictor_is_released(self):
        session = ServiceSession()
        refs = []
        _run(session, lambda: refs.append(weakref.ref(session._caching.inner)))
        assert len(refs) >= 10
        gc.collect()
        # Every predictor but the one in use is unreachable: nothing (the
        # tensor memo included) pins a table the session has grown past.
        live = [ref() for ref in refs if ref() is not None]
        assert live == [session._caching.inner]
