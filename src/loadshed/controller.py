"""Shedding controllers: the staged baseline and the mission-weighted optimizer.

Controllers are driven one telemetry snapshot at a time and reply with the
commands whose statuses changed. The advanced controller consults a mission
database (weight schedule plus scheduled constraint updates) and solves the
shedding optimization within its per-tick deadline. The control period is
the run's tick, which the engine passes in.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .baseline import BaselineState, baseline_reset, baseline_step
from .metrics import DEFAULT_TICK_S
from .model import (
    LoadSpec,
    MissionWeightSet,
    ShedCommand,
    SystemSnapshot,
    ZoneLimit,
)
from .optimizer import FleetModel, ShedPlan, solve
from .plant import LoadFailure, PlantEvent, ZoneLimitChange

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


class MissionDatabase:
    """Dynamic mission data: weight sets over time plus constraint updates.

    Mirrors the controller-side "dynamic database": telemetry never carries
    zone limits or failed-load sets, so the scenario's ``ZoneLimitChange`` and
    ``LoadFailure`` events are, by configuration, known to the controller as
    well as to the plant. Only the controller enforces zone limits.
    """

    def __init__(
        self,
        weight_sets: Sequence[MissionWeightSet],
        zones: Sequence[ZoneLimit] = (),
        events: Iterable[PlantEvent] = (),
    ):
        self._weight_sets = tuple(weight_sets)
        self._zones = {zl.zone: zl for zl in zones}
        events = sorted(events, key=lambda ev: ev.time_s)
        self._zone_updates = [ev for ev in events if isinstance(ev, ZoneLimitChange)]
        self._forced_updates = [ev for ev in events if isinstance(ev, LoadFailure)]

    def weights_at(self, mission_id: int, time_s: float) -> MissionWeightSet | None:
        candidates = [
            ws
            for ws in self._weight_sets
            if ws.mission_id == mission_id and ws.valid_from_s <= time_s
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda ws: ws.valid_from_s)

    def zones_at(self, time_s: float) -> tuple[ZoneLimit, ...]:
        zones = dict(self._zones)
        for upd in self._zone_updates:
            if upd.time_s > time_s:
                break
            current = zones.get(upd.zone)
            members = current.members if current is not None else ()
            zones[upd.zone] = ZoneLimit(upd.zone, upd.limit_w, members)
        return tuple(zones.values())

    def forced_off_at(self, time_s: float) -> frozenset[int]:
        return frozenset(u.load_id for u in self._forced_updates if u.time_s <= time_s)


class AdvancedController:
    """Per-tick re-solve of the mission-weighted shedding optimization."""

    def __init__(self, fleet: Sequence[LoadSpec], database: MissionDatabase,
                 config: ControllerConfig):
        self.fleet = tuple(fleet)
        self.database = database
        self.config = config
        self.intent: dict[int, float] = {spec.id: 1.0 for spec in self.fleet}
        self.last_plan: ShedPlan | None = None
        # one static model per (weight set, zone membership); the database
        # holds every weight set as long as the controller, so the set's
        # identity is a stable key
        self._models: dict[tuple, FleetModel] = {}

    @property
    def last_solve_time_s(self) -> float:
        return self.last_plan.solve_time_s if self.last_plan is not None else 0.0

    def on_telemetry(self, snapshot: SystemSnapshot) -> tuple[ShedCommand, ...]:
        weights = self.database.weights_at(snapshot.mission_id, snapshot.time_s)
        if weights is None:
            log.warning(
                "no weights for mission %d at t=%.1f s; holding last commands",
                snapshot.mission_id, snapshot.time_s,
            )
            return ()
        zones = self.database.zones_at(snapshot.time_s)
        key = (id(weights), tuple((zl.zone, zl.members) for zl in zones))
        model = self._models.get(key)
        if model is None:
            model = self._models[key] = FleetModel.of_fleet(self.fleet, weights, zones)
        instance = model.instance(snapshot, zones, self.database.forced_off_at(snapshot.time_s))
        plan = solve(instance, self.config.solve_deadline_s)
        self.last_plan = plan
        commands = []
        for spec in self.fleet:
            status = plan.statuses[spec.id]
            if status != self.intent[spec.id]:
                self.intent[spec.id] = status
                commands.append(ShedCommand(spec.id, status))
        return tuple(commands)


class BaselineController:
    """Wrapper giving the staged baseline the same driving surface."""

    def __init__(self, fleet: Sequence[LoadSpec], config: ControllerConfig, tick_s: float):
        self.fleet = tuple(fleet)
        self.config = config
        self.tick_s = tick_s
        self.state: BaselineState = baseline_reset()
        self.intent: dict[int, float] = {spec.id: 1.0 for spec in self.fleet}

    @property
    def last_solve_time_s(self) -> float:
        return 0.0  # rule evaluation, no optimization solve

    def on_telemetry(self, snapshot: SystemSnapshot) -> tuple[ShedCommand, ...]:
        self.state, commands = baseline_step(self.state, snapshot, self.fleet, self.tick_s)
        for cmd in commands:
            self.intent[cmd.load_id] = cmd.status
        return commands


Controller = AdvancedController | BaselineController


def make_controller(
    fleet: Sequence[LoadSpec],
    config: ControllerConfig,
    database: MissionDatabase | None = None,
    tick_s: float = DEFAULT_TICK_S,
) -> Controller:
    """The configured controller; ``tick_s`` is the control period of the run."""
    if config.algorithm == "baseline":
        return BaselineController(fleet, config, tick_s)
    if database is None:
        raise ValueError("the advanced controller needs a mission database")
    return AdvancedController(fleet, database, config)
