"""Experiment registry: name -> driver, for the CLI and the benchmarks.

Drivers historically exposed heterogeneous keyword signatures (some take
``cap_w``, some ``seed``, some neither).  :func:`run_experiment` now
accepts one uniform set of overrides — ``seed``, ``cap_w``, ``objective``
(or a bundled :class:`ExperimentConfig`) — and routes each override only
to the drivers whose signature accepts it, so callers never need to know
which experiment takes what.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from collections.abc import Callable

from repro.experiments import (
    ablations,
    arrivals,
    capcontrol,
    crossplatform,
    fig2,
    fig5_fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    energy,
    overhead,
    scaling,
    splitting,
    robustness,
    sec3_example,
    table1,
)
from repro.experiments.common import ExperimentResult

#: All experiment drivers, in the order they appear in the paper.
EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {
    "fig2": fig2.run,
    "sec3": sec3_example.run,
    "fig5": fig5_fig6.run,
    "fig6": fig5_fig6.run,  # one sweep produces both surfaces
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "table1": table1.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "overhead": overhead.run,
    "ablations": ablations.run,
    "robustness": robustness.run,
    "energy": energy.run,
    "capcontrol": capcontrol.run,
    "splitting": splitting.run,
    "scaling": scaling.run,
    "crossplatform": crossplatform.run,
    "arrivals": arrivals.run,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Uniform experiment overrides.

    Every field defaults to "leave the driver's own default alone"; set a
    field to override it for any driver that supports it.
    """

    seed: int | None = None
    cap_w: float | None = None
    #: scheduling objective ("makespan"/"energy"/"edp") for drivers that
    #: construct schedules through the unified entry point
    objective: str | None = None

    def overrides(self) -> dict[str, object]:
        """The non-default fields as a kwargs dict."""
        out: dict[str, object] = {}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.cap_w is not None:
            out["cap_w"] = self.cap_w
        if self.objective is not None:
            out["objective"] = self.objective
        return out


def get_experiment(name: str) -> Callable[..., ExperimentResult]:
    """Look up a driver; raises ``KeyError`` with the available names."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        ) from None


def _accepted(driver: Callable[..., ExperimentResult]) -> set[str] | None:
    """Parameter names ``driver`` accepts (None = accepts anything)."""
    params = inspect.signature(driver).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
        return None
    return {
        name
        for name, p in params.items()
        if p.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    }


def run_experiment(
    name: str,
    *,
    seed: int | None = None,
    cap_w: float | None = None,
    objective: str | None = None,
    config: ExperimentConfig | None = None,
) -> ExperimentResult:
    """Run one experiment by name, with optional uniform overrides.

    ``seed``/``cap_w``/``objective`` (or an
    :class:`ExperimentConfig` bundling them — explicit keywords win over
    the bundle) are forwarded only to drivers whose signatures accept
    them; an override a driver does not understand is silently skipped
    rather than raising, so the same config can drive the whole suite.
    """
    driver = get_experiment(name)
    merged = ExperimentConfig(
        seed=seed if seed is not None else (config.seed if config else None),
        cap_w=cap_w if cap_w is not None else (config.cap_w if config else None),
        objective=objective
        if objective is not None
        else (config.objective if config else None),
    )
    kwargs = merged.overrides()
    accepted = _accepted(driver)
    if accepted is not None:
        kwargs = {k: v for k, v in kwargs.items() if k in accepted}
    return driver(**kwargs)
