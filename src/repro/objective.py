"""The scheduling objective: one enum and the one formula every layer scores with.

Definition 2.1 minimizes the makespan; the power-cap setting also raises
energy, energy-delay product, total flow time and the linear
makespan + energy combination.  Every layer — the predicted replays, the
event engine, the fleet aggregates, the tensor population kernels, the
energy-aware governor and its tables — turns its ``(makespan, energy,
flow)`` into a score through :meth:`Objective.score`, so a new objective
or a new :data:`MAKESPAN_ENERGY_RHO` is one edit here.

The module depends on the standard library and :mod:`repro.units` only,
so every layer may import it at load time.
"""

from __future__ import annotations

import enum

from repro.units import Joules, Seconds, SecondsPerJoule

#: Weight (seconds per joule) of the energy term in the MAKESPAN_ENERGY
#: bicriteria objective: ``score = makespan_s + RHO * energy_j``.  One is
#: the natural scale on this platform — a 15 W cap makes a joule cost about
#: as much slack as a fifteenth of a second of span — and keeping it one
#: module constant keeps every layer's fingerprints comparable.
MAKESPAN_ENERGY_RHO: SecondsPerJoule = 1.0


class Objective(enum.Enum):
    """What a schedule is scored on (lower is better)."""

    MAKESPAN = "makespan"
    ENERGY = "energy"
    EDP = "edp"
    #: Sum of job completion times (total flow with release dates at zero),
    #: the classic speed-scaling bicriteria baseline.
    FLOW_TIME = "flow_time"
    #: Linear makespan + energy combination (``makespan_s + RHO * energy_j``
    #: with :data:`MAKESPAN_ENERGY_RHO`), the other bicriteria baseline.
    MAKESPAN_ENERGY = "makespan_energy"

    @classmethod
    def coerce(cls, value: "Objective | str") -> "Objective":
        """Accept an :class:`Objective` or its string value."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                known = ", ".join(o.value for o in cls)
                raise ValueError(
                    f"unknown objective {value!r}; known: {known}"
                ) from None
        raise TypeError(
            f"objective must be an Objective or str, got {type(value).__name__}"
        )

    def score(
        self,
        makespan_s: Seconds,
        energy_j: Joules,
        flow_s: Seconds | None = None,
    ) -> float:
        """Combine the base metrics into this objective's scalar.

        Works element-wise on NumPy arrays as well as on floats.
        """
        # Dispatch on ``_value_``: it runs once per scored schedule, and an
        # enum class-attribute lookup (``Objective.EDP``) costs ~150 ns on
        # CPython 3.11.
        name = self._value_
        if name == "makespan":
            return makespan_s
        if name == "energy":
            return energy_j
        if name == "edp":
            return energy_j * makespan_s
        if name == "makespan_energy":
            return makespan_s + MAKESPAN_ENERGY_RHO * energy_j
        if flow_s is None:
            raise ValueError(
                "the flow_time objective needs per-job completion times; "
                "this metric source does not track them"
            )
        return flow_s
