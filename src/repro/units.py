"""Dimension aliases and sanctioned unit conversions.

The whole contract of the reproduction is dimensional: power caps in
watts, energy in joules, makespans and flow times in seconds — and the
fleet layer added a *second* time dimension (a scaled node's **native**
seconds vs the fleet-wide **wall** clock, related by
``wall = native / speed_scale``) plus a power rescale (``power_scale``)
that every predictor, simulator, and service path must thread exactly
once.  A dropped ``/ speed_scale`` or a watts-vs-joules comparison is a
silent correctness bug until a cap happens to be violated at runtime.

This module is the vocabulary the static dimensional-analysis pass
(:mod:`repro.analysis.dims`, lint rules REP010/REP011) checks against:

* **Dimension aliases** — ``NewType``-style names for annotating
  signatures and dataclass fields.  They are plain ``float`` aliases
  (zero runtime cost, no call-site friction), but the dims checker reads
  the alias *names* in annotations and treats them as ground truth.
* **Conversion helpers** — the sanctioned ways to move between
  dimensions.  Each helper's body is itself dimension-checked, and the
  checker knows their signatures, so calling one with swapped or
  already-converted arguments is flagged at the call site.

Naming conventions the checker also understands (no annotation needed):
``*_w`` watts, ``*_j`` joules, ``*_s`` seconds (``wall``/``native`` in
the name selects the flavor), ``*_hz``/``*_ghz`` frequency,
``speed_scale``/``power_scale``/``*_scale`` scale factors, and
``MAKESPAN_ENERGY_RHO`` (seconds per joule).  See docs/ANALYSIS.md.
"""

from __future__ import annotations

from typing import TypeAlias

#: Instantaneous power, e.g. a chip draw, a node cap, a fleet budget.
Watts: TypeAlias = float

#: Energy, e.g. the predicted cost to complete a pair of jobs.
Joules: TypeAlias = float

#: A duration with no node-clock flavor attached (single-node world, or
#: code generic over the flavor).  Compatible with both flavors below.
Seconds: TypeAlias = float

#: Fleet-wide wall-clock seconds: what the fleet simulator, service
#: timeline, and cross-node comparisons run on.
WallSeconds: TypeAlias = float

#: A node's own clock: the calibrated APU's profiled seconds *before*
#: dividing by the node's ``speed_scale``.  Never compare or add these
#: against wall seconds — convert with :func:`wall_from_native`.
NativeSeconds: TypeAlias = float

#: Frequency (the DVFS level axis).  ``*_ghz`` names are the same
#: dimension; the checker does not track SI prefixes.
Hertz: TypeAlias = float

#: A dimensionless multiplier (generic).
Scale: TypeAlias = float

#: A node's throughput multiplier: ``wall = native / speed_scale``.
SpeedScale: TypeAlias = float

#: A node's power-rating multiplier: ``scaled_w = power_w * power_scale``.
PowerScale: TypeAlias = float

#: The bicriteria exchange rate of ``Objective.MAKESPAN_ENERGY``
#: (:data:`repro.objective.MAKESPAN_ENERGY_RHO`, its one definition):
#: multiplying joules by it yields comparable seconds.
SecondsPerJoule: TypeAlias = float


# ----------------------------------------------------------------------
# Sanctioned conversions.  The dims checker knows these signatures; a
# call site mixing up the argument dimensions is flagged (REP010/REP011).
# ----------------------------------------------------------------------
def wall_from_native(native_s: NativeSeconds, speed_scale: SpeedScale) -> WallSeconds:
    """Convert a scaled node's native duration to wall-clock seconds."""
    return native_s / speed_scale


def native_from_wall(wall_s: WallSeconds, speed_scale: SpeedScale) -> NativeSeconds:
    """Convert a wall-clock duration back to a node's native clock."""
    return wall_s * speed_scale


def energy_j(power_w: Watts, dt_s: Seconds) -> Joules:
    """Energy of drawing ``power_w`` for ``dt_s`` (``W x s -> J``)."""
    return power_w * dt_s


def mean_power_w(total_j: Joules, dt_s: Seconds) -> Watts:
    """Average power over a window (``J / s -> W``)."""
    return total_j / dt_s


def duration_s(total_j: Joules, power_w: Watts) -> Seconds:
    """How long ``total_j`` lasts at a constant draw (``J / W -> s``)."""
    return total_j / power_w


def scaled_power_w(power_w: Watts, power_scale: PowerScale) -> Watts:
    """Apply a node's power rating to a calibrated-APU draw, exactly once."""
    return power_w * power_scale


def unscaled_power_w(scaled_w: Watts, power_scale: PowerScale) -> Watts:
    """Undo :func:`scaled_power_w` (back to calibrated-APU watts)."""
    return scaled_w / power_scale


__all__ = [
    "Hertz",
    "Joules",
    "NativeSeconds",
    "PowerScale",
    "Scale",
    "Seconds",
    "SecondsPerJoule",
    "SpeedScale",
    "WallSeconds",
    "Watts",
    "duration_s",
    "energy_j",
    "mean_power_w",
    "native_from_wall",
    "scaled_power_w",
    "unscaled_power_w",
    "wall_from_native",
]
