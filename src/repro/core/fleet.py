"""Heterogeneous fleet model: nodes, budgets, and the node-scaled predictor.

The paper's runtime manages exactly one Ivy Bridge APU under one scalar
power cap.  This module generalizes that world to the fleet setting of the
power/energy-constrained scheduling literature: a :class:`Fleet` is a tuple
of :class:`Node`\\ s, each a *scaled copy* of the calibrated APU — its own
speed scaling (times divide by ``speed_scale``) and power rating (powers
multiply by ``power_scale``) — under either per-node caps or a shared
fleet-wide budget split proportionally to power rating.

Two invariants anchor the design:

* ``Fleet.single(cap_w)`` reproduces today's one-APU world **byte for
  byte**: a trivial single-node fleet never wraps the predictor, never
  rescales a float, and takes exactly the pre-fleet code path through
  every scheduler and backend (the equivalence suite pins this under
  ``REPRO_SANITIZE=1``).
* All scaling happens in the *model* layer.  The calibrated
  :class:`~repro.hardware.processor.IntegratedProcessor` stays untouched;
  :class:`NodePredictor` mirrors the
  :class:`~repro.model.predictor.CoRunPredictor` algorithms on scaled
  values, comparing ``power * scale <= cap`` directly (never delegating
  ``cap / scale`` inward, which would move float boundary cases).

Cap arithmetic for a fleet lives here and in
:mod:`repro.core.feasibility` — everything else goes through
``SchedulingContext.fleet`` / :func:`repro.core.feasibility.context_cap`
(lint rule REP009 referees that).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import InfeasibleCapError
from repro.hardware.device import DeviceKind
from repro.units import Hertz, PowerScale, Seconds, SpeedScale, Watts


@dataclass(frozen=True)
class Node:
    """One machine in a fleet: a scaled copy of the calibrated APU.

    ``speed_scale`` multiplies throughput (all predicted times divide by
    it); ``power_scale`` multiplies every predicted power draw.  ``cap_w``
    is this node's own power cap, or ``None`` to draw a share of the
    fleet's shared budget (see :meth:`Fleet.node_caps`).
    """

    name: str
    speed_scale: SpeedScale = 1.0
    power_scale: PowerScale = 1.0
    cap_w: Watts | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a node needs a non-empty name")
        # `not (x > 0)` also refuses NaN, which `x <= 0` lets through.
        if not (self.speed_scale > 0 and math.isfinite(self.speed_scale)):
            raise ValueError(f"{self.name}: speed_scale must be finite and positive")
        if not (self.power_scale > 0 and math.isfinite(self.power_scale)):
            raise ValueError(f"{self.name}: power_scale must be finite and positive")
        cap = self.cap_w
        if cap is not None and not (cap > 0 and math.isfinite(cap)):
            raise ValueError(f"{self.name}: cap_w must be finite and positive")

    @property
    def trivial(self) -> bool:
        """Does this node leave the calibrated APU's numbers untouched?"""
        # repro: noqa REP003 -- exact identity gate: only a literal 1.0 scale skips wrapping
        return self.speed_scale == 1.0 and self.power_scale == 1.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "speed_scale": self.speed_scale,
            "power_scale": self.power_scale,
            "cap_w": self.cap_w,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Node":
        return cls(
            name=d["name"],
            speed_scale=float(d.get("speed_scale", 1.0)),
            power_scale=float(d.get("power_scale", 1.0)),
            cap_w=None if d.get("cap_w") is None else float(d["cap_w"]),
        )


@dataclass(frozen=True)
class Fleet:
    """An ordered tuple of nodes under per-node caps or a shared budget.

    Every node must end up with a resolvable cap: either its own
    ``cap_w`` or a share of ``budget_w``.  With a shared budget, nodes
    that carry an explicit cap keep it; the remaining budget is split
    among the capless nodes proportionally to ``power_scale`` (a bigger
    machine earns a bigger slice).
    """

    nodes: tuple[Node, ...]
    budget_w: Watts | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("a fleet needs at least one node")
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"node names must be unique, got {names}")
        budget = self.budget_w
        if budget is not None and not (budget > 0 and math.isfinite(budget)):
            raise ValueError("budget_w must be finite and positive")
        capless = [n for n in self.nodes if n.cap_w is None]
        if self.budget_w is None:
            if capless:
                raise ValueError(
                    "nodes without an explicit cap_w need a fleet budget_w: "
                    + ", ".join(n.name for n in capless)
                )
        else:
            explicit = sum(n.cap_w for n in self.nodes if n.cap_w is not None)
            if capless and self.budget_w - explicit <= 0:
                raise ValueError(
                    f"explicit node caps ({explicit} W) exhaust the "
                    f"{self.budget_w} W fleet budget with capless nodes left"
                )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def single(cls, cap_w: Watts, name: str = "node0") -> "Fleet":
        """The one-APU world: a single trivial node with its own cap.

        Contexts built over this fleet take the exact pre-fleet code path
        — no predictor wrapping, no rescaling — so schedules and metrics
        are byte-identical to the scalar ``cap_w`` era.
        """
        return cls(nodes=(Node(name=name, cap_w=cap_w),))

    @classmethod
    def parse(cls, spec: str, budget_w: Watts | None = None) -> "Fleet":
        """Build a fleet from a compact CLI spec.

        ``spec`` is a comma-separated list of node descriptors, each
        ``name[:speed[:power[:cap]]]`` — e.g.
        ``big:2.0:1.3,small:0.6:0.5,edge:1.0:1.0:8``.  Omitted fields
        default to 1.0 scaling and a shared-budget cap.  A bare integer
        spec (``"4"``) expands to that many uniform trivial nodes.
        """
        spec = spec.strip()
        if spec.isdigit():
            return cls.uniform(int(spec), budget_w=budget_w)
        nodes = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            bits = part.split(":")
            if len(bits) > 4:
                raise ValueError(
                    f"bad node spec {part!r}: want name[:speed[:power[:cap]]]"
                )
            nodes.append(Node(
                name=bits[0],
                speed_scale=float(bits[1]) if len(bits) > 1 else 1.0,
                power_scale=float(bits[2]) if len(bits) > 2 else 1.0,
                cap_w=float(bits[3]) if len(bits) > 3 else None,
            ))
        return cls(nodes=tuple(nodes), budget_w=budget_w)

    @classmethod
    def uniform(
        cls,
        n: int,
        *,
        node_cap_w: Watts | None = None,
        budget_w: Watts | None = None,
        prefix: str = "node",
    ) -> "Fleet":
        """``n`` identical trivial nodes, per-node capped or shared-budget."""
        if n < 1:
            raise ValueError("a fleet needs at least one node")
        nodes = tuple(
            Node(name=f"{prefix}{i}", cap_w=node_cap_w) for i in range(n)
        )
        return cls(nodes=nodes, budget_w=budget_w)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    @property
    def is_single(self) -> bool:
        return len(self.nodes) == 1

    @property
    def is_trivial_single(self) -> bool:
        """One node, unscaled, explicitly capped — the pre-fleet world."""
        return (
            self.is_single
            and self.nodes[0].trivial
            and self.nodes[0].cap_w is not None
        )

    def node(self, name: str) -> Node:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r} in the fleet")

    def index(self, name: str) -> int:
        for i, n in enumerate(self.nodes):
            if n.name == name:
                return i
        raise KeyError(f"no node named {name!r} in the fleet")

    def node_caps(self) -> tuple[Watts, ...]:
        """Effective per-node caps, resolving shared-budget shares.

        Explicit caps are kept verbatim; capless nodes split the budget
        remaining after the explicit ones, proportionally to their power
        rating.
        """
        if self.budget_w is None:
            return tuple(n.cap_w for n in self.nodes)
        capless = [n for n in self.nodes if n.cap_w is None]
        if not capless:
            return tuple(n.cap_w for n in self.nodes)
        explicit = sum(n.cap_w for n in self.nodes if n.cap_w is not None)
        remaining = self.budget_w - explicit
        total_scale = sum(n.power_scale for n in capless)
        return tuple(
            n.cap_w
            if n.cap_w is not None
            else remaining * (n.power_scale / total_scale)
            for n in self.nodes
        )

    def cap_of(self, name: str) -> Watts:
        return self.node_caps()[self.index(name)]

    def total_cap_w(self) -> Watts:
        """The fleet-wide power ceiling (shared budget, or summed caps)."""
        if self.budget_w is not None:
            return self.budget_w
        return sum(self.node_caps())

    def describe(self) -> str:
        caps = self.node_caps()
        lines = []
        for n, cap in zip(self.nodes, caps):
            tag = "" if n.cap_w is not None else " (budget share)"
            lines.append(
                f"{n.name}: speed x{n.speed_scale:g}, power x{n.power_scale:g}, "
                f"cap {cap:g} W{tag}"
            )
        if self.budget_w is not None:
            lines.append(f"shared budget: {self.budget_w:g} W")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "nodes": [n.to_dict() for n in self.nodes],
            "budget_w": self.budget_w,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Fleet":
        return cls(
            nodes=tuple(Node.from_dict(nd) for nd in d["nodes"]),
            budget_w=(
                None if d.get("budget_w") is None else float(d["budget_w"])
            ),
        )


class NodePredictor:
    """A predictor view of the calibrated model through one node's scaling.

    Mirrors the :class:`~repro.model.predictor.CoRunPredictor` protocol —
    degradations, co-run times, powers, cap feasibility, ``best_solo`` —
    with times divided by the node's ``speed_scale`` and powers multiplied
    by its ``power_scale``.  Degradations are contention ratios and do not
    scale.

    Two deliberate non-features:

    * no ``cache`` attribute — a :class:`~repro.perf.evaluator.EvalCache`
      keys on (uids, setting) without node identity, so sharing one across
      differently-scaled views would serve wrong answers.  Per-node
      contexts each get a fresh cache.
    * feasibility compares ``scaled_power <= cap_w`` directly instead of
      delegating ``cap_w / power_scale`` to the wrapped predictor; the
      division would move IEEE boundary cases and break bitwise agreement
      with the scaled tensor path.
    """

    def __init__(self, inner, node: Node) -> None:
        self.inner = inner
        self.node = node

    # -- delegated identity -------------------------------------------------
    @property
    def processor(self):
        return self.inner.processor

    @property
    def table(self):
        return self.inner.table

    @property
    def space(self):
        return self.inner.space

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NodePredictor({self.node.name!r}, {self.inner!r})"

    # -- performance --------------------------------------------------------
    def degradations(self, cpu_uid, gpu_uid, setting):
        return self.inner.degradations(cpu_uid, gpu_uid, setting)

    def degradation(self, uid, kind, partner_uid, setting):
        if kind is DeviceKind.CPU:
            return self.degradations(uid, partner_uid, setting)[0]
        return self.degradations(partner_uid, uid, setting)[1]

    def corun_times(self, cpu_uid, gpu_uid, setting) -> tuple[Seconds, Seconds]:
        t_c, t_g = self.inner.corun_times(cpu_uid, gpu_uid, setting)
        s = self.node.speed_scale
        return t_c / s, t_g / s

    def solo_time(self, uid, kind, f_ghz: Hertz) -> Seconds:
        return self.inner.solo_time(uid, kind, f_ghz) / self.node.speed_scale

    # -- power --------------------------------------------------------------
    def pair_power_w(self, cpu_uid, gpu_uid, setting) -> Watts:
        return (
            self.inner.pair_power_w(cpu_uid, gpu_uid, setting)
            * self.node.power_scale
        )

    def solo_power_w(self, uid, kind, f_ghz: Hertz) -> Watts:
        return (
            self.inner.solo_power_w(uid, kind, f_ghz) * self.node.power_scale
        )

    # -- cap feasibility (mirrors CoRunPredictor on scaled values) ----------
    def feasible_pair_settings(self, cpu_uid, gpu_uid, cap_w: Watts):
        return [
            s
            for s in self.processor.settings()
            if self.pair_power_w(cpu_uid, gpu_uid, s) <= cap_w
        ]

    def feasible_solo_levels(self, uid, kind, cap_w: Watts):
        domain = self.processor.device(kind).domain
        return [
            f for f in domain.levels if self.solo_power_w(uid, kind, f) <= cap_w
        ]

    def best_solo(self, uid, kind, cap_w: Watts) -> tuple[Hertz, Seconds]:
        feasible = self.feasible_solo_levels(uid, kind, cap_w)
        if not feasible:
            raise InfeasibleCapError(
                f"{uid} cannot run on {kind} under a {cap_w} W cap at any "
                f"level on node {self.node.name}",
                cap_w=cap_w,
                jobs=(uid,),
                node=self.node.name,
            )
        best_f = min(feasible, key=lambda f: self.solo_time(uid, kind, f))
        return best_f, self.solo_time(uid, kind, best_f)


def node_predictor(base, node: Node):
    """A predictor for ``node``: the base itself when the node is trivial.

    The trivial shortcut is what makes ``Fleet.single()`` byte-identical —
    no wrapper ever sits between the schedulers and the calibrated model.
    """
    if node.trivial:
        return base
    return NodePredictor(base, node)
