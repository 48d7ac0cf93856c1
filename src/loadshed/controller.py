"""Shedding controllers: the staged baseline and the mission-weighted optimizer.

A controller turns telemetry into intent. It is driven one snapshot at a time
and keeps its ``intent``, the statuses it commands, as a tuple in fleet order:
the same tuple object while no status changes. The control node diffs the
intent into command batches; no controller builds commands. The advanced
controller reads the fleet model of the weight set in force and the zone
limits from the run's mission schedule, which builds each weight set's model
once, and solves the shedding optimization within its per-tick deadline.
While a certificate shows it is still the optimum, it keeps the branch
statuses of its last computed plan without solving and only refills the
plan's continuous loads at the tick's budget, through the leaf ``solve``
returned with the plan (see ``_Leaf`` in the optimizer). The control period
is the run's tick, which the engine passes in.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .baseline import BaselineController
from .model import LoadSpec, MissionWeightSet, SystemSnapshot, ZoneLimit
from .optimizer import FleetModel, ShedPlan, solve
from .plant import PlantEvent, ZoneLimitChange

log = logging.getLogger(__name__)

ALGORITHMS = ("baseline", "advanced")


@dataclass(frozen=True)
class ControllerConfig:
    algorithm: str = "advanced"
    solve_deadline_s: float = 0.05  # must also lie inside the tick; see validate_scenario
    stale_limit: int = 5  # ticks of telemetry age before the failsafe engages

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not self.solve_deadline_s > 0:
            raise ValueError("solve deadline must be positive")
        if self.stale_limit < 1:
            raise ValueError("stale limit must be at least one tick")


class Segment(NamedTuple):
    """The model of the weight set in force, and the declared zones' limits
    in declared order."""

    model: FleetModel
    limits_w: tuple[float, ...]


class MissionDatabase:
    """The controller's "dynamic database": the run's mission schedule, built once.

    The schedule is a sorted tuple of segment start times and the segments.
    A weight set of the mission applies from its ``valid_from_s`` (the first
    declared wins a tie), a scenario ``ZoneLimitChange`` from its time (in
    declared order at one time), and neither from a NaN time. Each weight set
    in force gets one :class:`FleetModel`, which every segment of that set
    shares; building it raises ``ConfigurationError`` if the set lacks a
    load. Telemetry carries no zone limits, and only the controller enforces
    them; load failures reach it as zero demand. Zone membership is fixed, so
    a change to an undeclared zone is ignored.
    """

    def __init__(self, fleet: Sequence[LoadSpec], mission_id: int,
                 weight_sets: Sequence[MissionWeightSet],
                 zones: Sequence[ZoneLimit] = (), events: Iterable[PlantEvent] = ()):
        zones = tuple({zl.zone: zl for zl in zones}.values())
        index = {zl.zone: zi for zi, zl in enumerate(zones)}
        limits = [zl.limit_w for zl in zones]
        limits_w = tuple(limits)  # the declared limits, in force until the first change
        steps: dict[float, tuple[float, ...]] = {}  # the limits in force from each change time
        for ev in sorted((ev for ev in events if isinstance(ev, ZoneLimitChange)
                          and ev.zone in index and not math.isnan(ev.time_s)),
                         key=lambda ev: ev.time_s):
            limits[index[ev.zone]] = ev.limit_w
            steps[ev.time_s] = tuple(limits)
        by_start: dict[float, MissionWeightSet] = {}
        for ws in weight_sets:
            if ws.mission_id == mission_id and not math.isnan(ws.valid_from_s):
                by_start.setdefault(ws.valid_from_s, ws)
        segments: dict[float, Segment] = {}
        model = None
        for t in sorted(by_start.keys() | steps.keys()):
            if t in by_start:
                model = FleetModel.of_fleet(fleet, by_start[t], zones)
            limits_w = steps.get(t, limits_w)
            if model is not None:
                segments[t] = Segment(model, limits_w)
        self._starts, self._segments = tuple(segments), tuple(segments.values())

    def segment_at(self, time_s: float) -> Segment | None:
        """The segment in force at ``time_s``; None for a NaN time or a time
        before the mission's first weight set."""
        k = bisect_right(self._starts, time_s) - 1
        return self._segments[k] if k >= 0 and self._starts[k] <= time_s else None


class AdvancedController:
    """Per-tick re-solve of the mission-weighted shedding optimization.

    ``last_plan`` is the last plan ``solve`` computed, with the leaf it
    proved optimal (None if the deadline cut it), and ``intent`` the statuses
    this tick commands: the last plan's, or its branch statuses with the
    continuous loads refilled at this tick's budget on a tick the certificate
    in :meth:`on_telemetry` kept.
    """

    def __init__(self, fleet: Sequence[LoadSpec], database: MissionDatabase,
                 config: ControllerConfig):
        self.fleet = tuple(fleet)
        self.database = database
        self.config = config
        self.intent: tuple[float, ...] = (1.0,) * len(self.fleet)
        self.last_plan: ShedPlan | None = None
        self._fill: list[float] = []  # the continuous fill intent holds, in leaf.prep.cont order

    def on_telemetry(self, snapshot: SystemSnapshot) -> None:
        """Solve this tick's problem, unless the last computed plan's branch
        statuses, refilled at this tick's budget, are certifiably its optimum.

        The plan's leaf is kept, with no solve, while ``solve`` returned one
        (it proved the plan optimal), ``FleetModel.prepared`` returns the very
        search data the leaf names (equal caps and zone limits give the same
        object), and the leaf's ``refill`` returns a fill: the certificate
        ``_Leaf`` states. While the snapshot carries the last tick's demand
        tuple, these steps read no load but the continuous fill (see the
        optimizer's module docstring). The leaf's budget stays that of the
        last solve: a kept tick moves nothing but ``intent``, and copies the
        statuses only when the fill differs from the one ``intent`` holds.
        """
        segment = self.database.segment_at(snapshot.time_s)
        if segment is None:
            log.warning("no weights for mission %d at t=%.1f s; holding last commands",
                        snapshot.mission_id, snapshot.time_s)
            return
        model = segment.model
        instance = model.instance(snapshot, segment.limits_w)
        leaf = self.last_plan and self.last_plan.leaf
        if leaf is not None and leaf.prep is model.prepared(instance.caps, instance.zone_limits_w):
            fill = leaf.refill(instance.capacity_budget_w)
            if fill is not None:
                if fill != self._fill:  # else the intent already holds this leaf
                    self._fill = fill
                    if fill == leaf.fill:
                        self.intent = leaf.statuses
                    else:
                        statuses = list(leaf.statuses)
                        for (i, _, _, _), status in zip(leaf.prep.cont, fill):
                            statuses[i] = status
                        self.intent = tuple(statuses)
                return
        plan = self.last_plan = solve(instance, self.config.solve_deadline_s)
        leaf = plan.leaf
        if leaf is None:
            statuses = tuple(plan.statuses.values())  # the model lists the fleet in order
        else:
            statuses, self._fill = leaf.statuses, leaf.fill
        if statuses != self.intent:  # else every tick since the last change shares one tuple
            self.intent = statuses


Controller = AdvancedController | BaselineController


def make_controller(
    fleet: Sequence[LoadSpec],
    config: ControllerConfig,
    database: MissionDatabase | None,
    tick_s: float,
) -> Controller:
    """The configured controller; ``database`` is the run's mission schedule
    (the advanced controller's), ``tick_s`` the control period of the run."""
    if config.algorithm == "baseline":
        return BaselineController(fleet, tick_s)
    if database is None:
        raise ValueError("the advanced controller needs a mission database")
    return AdvancedController(fleet, database, config)
