"""The ``TensorModel`` build evaluates its grids on un-broadcast coordinates.

:class:`~repro.perf.tensor.TensorModel` hands :func:`_grid_eval` the CPU
demands as an ``(n, 1, S)`` array and the GPU demands as ``(1, n, S)``,
so per-coordinate work runs on ``n * S`` cells and only the corner
gathers and the weighted sum fill the ``(n, n, S)`` cube.  These tests
hold every cube cell to the scalar chain: :meth:`BilinearGrid.__call__`
for the grid evaluation, and the predictor's own queries for every cell
of a model over a staged space.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.characterize import characterize_space, characterize_staged_space
from repro.model.predictor import CoRunPredictor
from repro.model.profiler import profile_workload
from repro.perf.tensor import TensorModel, _grid_eval, tensorize
from repro.workload.generator import random_workload


@pytest.fixture(scope="module")
def grids(processor):
    plain = characterize_space(processor)
    staged = characterize_staged_space(processor)
    return [plain.cpu_grid, plain.gpu_grid] + [
        g for a in staged.anchors for g in (a.cpu_grid, a.gpu_grid)
    ]


def _coordinate(grid_levels):
    """Clipped (below and above the grid), on-node and off-grid values."""
    lo, hi = float(grid_levels[0]), float(grid_levels[-1])
    return st.one_of(
        st.floats(lo - 5.0, lo, allow_nan=False),
        st.floats(hi, hi + 5.0, allow_nan=False),
        st.sampled_from([float(v) for v in grid_levels]),
        st.floats(lo, hi, allow_nan=False),
    )


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data(), n=st.integers(1, 4), S=st.integers(1, 5), which=st.integers(0, 7))
def test_broadcast_grid_eval_matches_the_scalar_call(grids, data, n, S, which):
    grid = grids[which % len(grids)]
    x = np.array(
        data.draw(st.lists(_coordinate(grid.x_levels), min_size=n * S, max_size=n * S))
    ).reshape(n, 1, S)
    y = np.array(
        data.draw(st.lists(_coordinate(grid.y_levels), min_size=n * S, max_size=n * S))
    ).reshape(1, n, S)
    got = _grid_eval(grid, x, y)
    assert got.shape == (n, n, S)
    for i in range(n):
        for j in range(n):
            for s in range(S):
                assert float(got[i, j, s]) == grid(float(x[i, 0, s]), float(y[0, j, s]))
    # The broadcast cube gives the same bytes as the un-broadcast pair.
    full = _grid_eval(
        grid, np.broadcast_to(x, (n, n, S)), np.broadcast_to(y, (n, n, S))
    )
    assert full.tobytes() == got.tobytes()


@pytest.mark.parametrize("kind", ["plain", "staged"])
def test_every_model_cell_equals_the_scalar_predictor(processor, kind):
    space = (
        characterize_space(processor)
        if kind == "plain"
        else characterize_staged_space(processor)
    )
    jobs = random_workload(5, seed=3)
    predictor = CoRunPredictor(processor, profile_workload(processor, jobs), space)
    model = tensorize(predictor)
    assert isinstance(model, TensorModel)
    settings_list = list(processor.settings())
    for c in jobs:
        for g in jobs:
            i, j = model.index[c.uid], model.index[g.uid]
            for s, setting in enumerate(settings_list):
                assert (model.deg_c[i, j, s], model.deg_g[i, j, s]) == (
                    predictor.degradations(c.uid, g.uid, setting)
                )
                # repro: noqa REP003 -- byte-identical backend contract
                assert (model.t_corun_c[i, j, s], model.t_corun_g[i, j, s]) == (
                    predictor.corun_times(c.uid, g.uid, setting)
                )
                # repro: noqa REP003 -- byte-identical backend contract
                assert model.pair_power[i, j, s] == predictor.pair_power_w(
                    c.uid, g.uid, setting
                )
    for tensor in (model.deg_c, model.deg_g, model.t_corun_c, model.t_corun_g,
                   model.pair_power):
        assert tensor.shape == (model.n_rows, model.n_rows, len(settings_list))
