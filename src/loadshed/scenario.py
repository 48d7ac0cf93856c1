"""Scenario configuration: fleet, generation, profiles, events, run window.

Scenarios serialize to JSON (SI units throughout). ``default_scenario``
builds the bundled 600 s generation-contingency study: demand ramps to about
85 MW, the 36 MW main generator module MPGM2 trips at t=310 s leaving 60 MW
of capacity, demand stays above 60 MW until it falls away at t=395 s.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .controller import ControllerConfig
from .link import MAX_ID, MAX_TELEMETRY_LOADS, MAX_TIMESTAMP_MS, ImpairmentConfig
from .metrics import MissionWindow
from .model import (
    GenerationModule,
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    ValidationIssue,
    ValidationReport,
    Variability,
    ZoneLimit,
    fleet_issues,
    weight_issues,
)
from .plant import (
    GeneratorRestore,
    GeneratorTrip,
    LoadFailure,
    LoadProfile,
    PlantEvent,
    ZoneLimitChange,
)

DEFAULT_MISSION_ID = 1

# Table-derived default weights per load group.
DEFAULT_GROUP_WEIGHTS = {
    LoadGroup.ACLC_VITAL: 5.0,
    LoadGroup.ACLC_NONVITAL: 2.5,
    LoadGroup.MW_CLASS: 8.0,
    LoadGroup.IPNC: 5.0,
    LoadGroup.PMM: 5.0,
}

MW = 1e6


@dataclass(frozen=True)
class PlantConfig:
    tau_s: float = 0.2
    loss_fraction: float = 0.02


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    window: MissionWindow
    fleet: tuple[LoadSpec, ...]
    generation: tuple[GenerationModule, ...]
    zones: tuple[ZoneLimit, ...]
    weight_sets: tuple[MissionWeightSet, ...]
    profiles: Mapping[int, LoadProfile]
    events: tuple[PlantEvent, ...]
    plant: PlantConfig = PlantConfig()
    impairment: ImpairmentConfig = ImpairmentConfig()
    controller: ControllerConfig = ControllerConfig()
    mission_id: int = DEFAULT_MISSION_ID


def validate_scenario(sc: ScenarioConfig) -> ValidationReport:
    """Fleet validation plus scenario-level consistency checks.

    Also checks what the run and the wire assume: the solve deadline lies
    inside the tick (the control period), every weight set of the mission
    covers the fleet, none starts at a NaN time and one is valid from the
    window start, the plant constants, link impairment and module ratings
    are finite numbers in range, module ids are unique, and every id, the
    fleet size and the last tick's time fit the datagrams.
    """
    issues, by_id = fleet_issues(sc.fleet, sc.zones)

    def bad(code: str, subject: str, message: str) -> None:
        issues.append(ValidationIssue(code, subject, message))

    mission_sets = [ws for ws in sc.weight_sets if ws.mission_id == sc.mission_id]
    for ws in mission_sets:
        issues.extend(weight_issues(sc.fleet, ws))
    if not mission_sets:
        bad("missing-weights", f"mission {sc.mission_id}", "no weight set declared")
    starts = [ws.valid_from_s for ws in mission_sets if not math.isnan(ws.valid_from_s)]
    if len(starts) < len(mission_sets):  # a NaN start never applies
        bad("weights-start", f"mission {sc.mission_id}", "a weight set starts at t=nan")
    if starts and min(starts) > sc.window.t_start_s:
        bad("weights-start", f"mission {sc.mission_id}",
            f"no weight set is valid at the window start t={sc.window.t_start_s}")
    if sc.controller.solve_deadline_s >= sc.window.tick_s:
        bad("solve-deadline", "controller", f"deadline {sc.controller.solve_deadline_s} s "
            f"does not fit inside the {sc.window.tick_s} s tick")
    for name, value in (("tau_s", sc.plant.tau_s), ("loss_fraction", sc.plant.loss_fraction)):
        if not 0 <= value < math.inf:  # also NaN
            bad("plant-constant", "plant", f"{name} must be finite and >= 0, got {value}")
    imp = sc.impairment
    if not 0 <= imp.loss_probability <= 1:
        bad("impairment", "impairment",
            f"loss_probability must lie in [0, 1], got {imp.loss_probability}")
    for name, value in (("latency_ms", imp.latency_ms), ("jitter_ms", imp.jitter_ms)):
        if not 0 <= value < math.inf:
            bad("impairment", "impairment", f"{name} must be finite and >= 0 ms, got {value}")
    module_ids: set[int] = set()
    for m in sc.generation:
        subject = f"module {m.id}"
        if m.id in module_ids:
            bad("duplicate-module", subject, "id appears more than once in the generation")
        module_ids.add(m.id)
        if not 0 <= m.rated_power_w < math.inf:
            bad("module-rating", subject,
                f"rating must be finite and >= 0 W, got {m.rated_power_w}")
    if not 0 <= sc.mission_id <= MAX_ID:
        bad("wire-id", f"mission {sc.mission_id}", f"id outside 0-{MAX_ID}")
    if len(sc.fleet) > MAX_TELEMETRY_LOADS:
        bad("wire-fleet-size", "fleet", f"{len(sc.fleet)} loads exceed the "
            f"{MAX_TELEMETRY_LOADS} one telemetry message can carry")
    last_tick_s = sc.window.t_start_s + sc.window.n_ticks * sc.window.tick_s  # as the plant adds
    if not last_tick_s * 1000.0 <= MAX_TIMESTAMP_MS:  # exact: a float and an int compare exactly
        bad("wire-time", "window", f"the last tick's time {last_tick_s} s exceeds the "
            f"{MAX_TIMESTAMP_MS} ms a telemetry timestamp can carry")
    for lid, profile in sc.profiles.items():
        subject = f"profile for load {lid}"
        spec = by_id.get(lid)
        if spec is None:
            bad("profile-unknown-load", subject, "load not in fleet")
            continue
        times = profile.times
        for t, status in profile.breakpoints:
            if not spec.variability.contains(status):
                bad("profile-domain", subject,
                    f"status {status} at t={t} outside the load's domain")
        if times and (times[0] < sc.window.t_start_s or times[-1] > sc.window.t_end_s):
            bad("profile-window", subject, "breakpoints fall outside the window")
    for spec in sc.fleet:
        if not 0 <= spec.id <= MAX_ID:
            bad("wire-id", f"load {spec.id}", f"id outside 0-{MAX_ID}")
        if spec.id not in sc.profiles:
            bad("missing-profile", f"load {spec.id}", "no demand profile declared")
    zone_names = {zl.zone for zl in sc.zones}
    for ev in sc.events:
        subject = f"event at t={ev.time_s}"
        if not sc.window.t_start_s <= ev.time_s <= sc.window.t_end_s:
            bad("event-window", subject, "outside the run window")
        if isinstance(ev, (GeneratorTrip, GeneratorRestore)) and ev.module_id not in module_ids:
            bad("event-module", subject, f"unknown module {ev.module_id}")
        if isinstance(ev, LoadFailure) and ev.load_id not in by_id:
            bad("event-load", subject, f"unknown load {ev.load_id}")
        if isinstance(ev, ZoneLimitChange):
            if ev.zone not in zone_names:
                bad("event-zone", subject, f"undeclared zone {ev.zone!r}")
            if not ev.limit_w >= 0:  # also NaN
                bad("zone-limit", subject, f"limit must be >= 0 W, got {ev.limit_w}")
    return ValidationReport(tuple(issues))


# ---------------------------------------------------------------------------
# bundled scenario


def _ramp(t0: float, v0: float, t1: float, v1: float, step_s: float) -> list[tuple[float, float]]:
    """Piecewise-constant staircase from (t0, v0) to (t1, v1)."""
    n = round((t1 - t0) / step_s)
    return [(t0 + k * step_s, v0 + (v1 - v0) * k / n) for k in range(n + 1)]


def default_fleet() -> tuple[LoadSpec, ...]:
    """42 loads: 16+12 ACLC, 4 MW-class, 6 IPNC, 4 PMM (continuous)."""
    fleet: list[LoadSpec] = []

    def add(name: str, group: LoadGroup, rated_w: float, variability: Variability) -> None:
        fleet.append(LoadSpec(len(fleet) + 1, name, group, rated_w, variability))

    for k in range(16):
        add(f"ACLC-V-{k + 1:02d}", LoadGroup.ACLC_VITAL, 1.0 * MW, Variability.binary())
    for k in range(12):
        add(f"ACLC-NV-{k + 1:02d}", LoadGroup.ACLC_NONVITAL, 1.0 * MW, Variability.binary())
    for k in range(4):
        add(f"MW-{k + 1:02d}", LoadGroup.MW_CLASS, 2.0 * MW, Variability.binary())
    for k in range(6):
        add(f"IPNC-{k + 1:02d}", LoadGroup.IPNC, 0.5 * MW, Variability.binary())
    for k in range(4):
        add(f"PMM-{k + 1:02d}", LoadGroup.PMM, 18.0 * MW, Variability.continuous())
    return tuple(fleet)


def default_generation() -> tuple[GenerationModule, ...]:
    return (
        GenerationModule(1, "MPGM1", 36.0 * MW),
        GenerationModule(2, "MPGM2", 36.0 * MW),
        GenerationModule(3, "APGM1", 12.0 * MW),
        GenerationModule(4, "APGM2", 12.0 * MW),
    )


def default_weights(fleet: Sequence[LoadSpec]) -> MissionWeightSet:
    return MissionWeightSet(
        mission_id=DEFAULT_MISSION_ID,
        weights={spec.id: DEFAULT_GROUP_WEIGHTS[spec.group] for spec in fleet},
        valid_from_s=0.0,
    )


def default_scenario() -> ScenarioConfig:
    """The bundled MPGM2-trip study on the 42-load notional fleet."""
    fleet = default_fleet()
    profiles: dict[int, LoadProfile] = {}
    by_group: dict[LoadGroup, list[LoadSpec]] = {}
    for spec in fleet:
        by_group.setdefault(spec.group, []).append(spec)

    for spec in by_group[LoadGroup.ACLC_VITAL]:
        profiles[spec.id] = LoadProfile(((0.0, 1.0),))
    for spec in by_group[LoadGroup.IPNC]:
        profiles[spec.id] = LoadProfile(((0.0, 1.0),))
    # ship-service non-vital loads come online in a stagger through t=130 s
    for k, spec in enumerate(by_group[LoadGroup.ACLC_NONVITAL]):
        profiles[spec.id] = LoadProfile(((0.0, 0.0), (20.0 + 10.0 * k, 1.0)))
    # MW-class pulses before the trip, then a sustained block through t=450 s
    mw_pulses = [(140.0, 180.0), (160.0, 210.0), (220.0, 270.0), (230.0, 280.0)]
    for (on, off), spec in zip(mw_pulses, by_group[LoadGroup.MW_CLASS]):
        profiles[spec.id] = LoadProfile(
            ((0.0, 0.0), (on, 1.0), (off, 0.0), (295.0, 1.0), (450.0, 0.0))
        )
    # propulsion ramps up to 0.64, eases off after the trip, drops away at 395 s
    for spec in by_group[LoadGroup.PMM]:
        points = [(0.0, 0.2)]
        points += _ramp(30.0, 0.2, 300.0, 0.64, 10.0)[1:]
        points += _ramp(330.0, 0.64, 394.0, 0.32, 2.0)[1:]
        points.append((395.0, 0.14))
        profiles[spec.id] = LoadProfile(tuple(points))

    return ScenarioConfig(
        name="mpgm2-trip",
        window=MissionWindow(0.0, 600.0, 0.1),
        fleet=fleet,
        generation=default_generation(),
        zones=(),
        weight_sets=(default_weights(fleet),),
        profiles=profiles,
        events=(GeneratorTrip(310.0, 2),),
        plant=PlantConfig(tau_s=0.2, loss_fraction=0.02),
        impairment=ImpairmentConfig(),
        controller=ControllerConfig(algorithm="advanced"),
    )


# ---------------------------------------------------------------------------
# JSON serialization


def _variability_to_json(v: Variability):
    if v.kind == "stepped":
        return {"stepped": list(v.levels)}
    return v.kind


def _variability_from_json(raw) -> Variability:
    if isinstance(raw, str):
        return Variability(raw)
    return Variability.stepped(raw["stepped"])


def _event_to_json(ev: PlantEvent) -> dict:
    if isinstance(ev, GeneratorTrip):
        return {"time_s": ev.time_s, "kind": "generator_trip", "module": ev.module_id}
    if isinstance(ev, GeneratorRestore):
        return {"time_s": ev.time_s, "kind": "generator_restore", "module": ev.module_id}
    if isinstance(ev, LoadFailure):
        return {"time_s": ev.time_s, "kind": "load_failure", "load": ev.load_id}
    return {"time_s": ev.time_s, "kind": "zone_limit_change", "zone": ev.zone,
            "limit_w": ev.limit_w}


def _event_from_json(raw: dict) -> PlantEvent:
    kind = raw["kind"]
    if kind == "generator_trip":
        return GeneratorTrip(raw["time_s"], raw["module"])
    if kind == "generator_restore":
        return GeneratorRestore(raw["time_s"], raw["module"])
    if kind == "load_failure":
        return LoadFailure(raw["time_s"], raw["load"])
    if kind == "zone_limit_change":
        return ZoneLimitChange(raw["time_s"], raw["zone"], raw["limit_w"])
    raise ValueError(f"unknown event kind {kind!r}")


def scenario_to_json(sc: ScenarioConfig) -> dict:
    return {
        "format": "loadshed-scenario-1",
        "name": sc.name,
        "mission_id": sc.mission_id,
        "window": {
            "t_start_s": sc.window.t_start_s,
            "t_end_s": sc.window.t_end_s,
            "tick_s": sc.window.tick_s,
        },
        "fleet": [
            {
                "id": s.id,
                "name": s.name,
                "group": s.group.value,
                "rated_power_w": s.rated_power_w,
                "variability": _variability_to_json(s.variability),
                "zone": s.zone,
            }
            for s in sc.fleet
        ],
        "generation": [
            {"id": m.id, "name": m.name, "rated_power_w": m.rated_power_w, "online": m.online}
            for m in sc.generation
        ],
        "zones": [
            {"zone": z.zone, "limit_w": z.limit_w, "members": list(z.members)}
            for z in sc.zones
        ],
        "weights": [
            {
                "mission_id": ws.mission_id,
                "valid_from_s": ws.valid_from_s,
                "weights": {str(lid): w for lid, w in ws.weights.items()},
            }
            for ws in sc.weight_sets
        ],
        "profiles": {
            str(lid): [[t, v] for t, v in profile.breakpoints]
            for lid, profile in sc.profiles.items()
        },
        "events": [_event_to_json(ev) for ev in sc.events],
        "plant": asdict(sc.plant),
        "impairment": asdict(sc.impairment),
        "controller": asdict(sc.controller),
    }


class ScenarioFormatError(Exception):
    pass


def _config_from_json(cls, raw: dict):
    """``cls`` from the keys of ``raw`` that name its fields; the rest default."""
    return cls(**{f.name: raw[f.name] for f in fields(cls) if f.name in raw})


def scenario_from_json(raw: dict) -> ScenarioConfig:
    if raw.get("format") != "loadshed-scenario-1":
        raise ScenarioFormatError(f"unsupported scenario format {raw.get('format')!r}")
    window = MissionWindow(
        raw["window"]["t_start_s"], raw["window"]["t_end_s"], raw["window"]["tick_s"]
    )
    fleet = tuple(
        LoadSpec(
            id=item["id"],
            name=item["name"],
            group=LoadGroup(item["group"]),
            rated_power_w=item["rated_power_w"],
            variability=_variability_from_json(item["variability"]),
            zone=item.get("zone"),
        )
        for item in raw["fleet"]
    )
    generation = tuple(
        GenerationModule(m["id"], m["name"], m["rated_power_w"], m.get("online", True))
        for m in raw["generation"]
    )
    zones = tuple(
        ZoneLimit(z["zone"], z["limit_w"], tuple(z["members"])) for z in raw.get("zones", [])
    )
    weight_sets = tuple(
        MissionWeightSet(
            mission_id=w["mission_id"],
            weights={int(lid): val for lid, val in w["weights"].items()},
            valid_from_s=w.get("valid_from_s", 0.0),
        )
        for w in raw["weights"]
    )
    profiles = {
        int(lid): LoadProfile(tuple((t, v) for t, v in points))
        for lid, points in raw["profiles"].items()
    }
    events = tuple(_event_from_json(ev) for ev in raw.get("events", []))
    ctrl_raw = raw.get("controller", {})
    # the control period is the window tick; older files also state it here
    if ctrl_raw.get("period_s", window.tick_s) != window.tick_s:
        raise ScenarioFormatError(
            f"controller.period_s {ctrl_raw['period_s']} differs from window.tick_s "
            f"{window.tick_s}; the control period is the tick"
        )
    return ScenarioConfig(
        name=raw.get("name", "scenario"),
        window=window,
        fleet=fleet,
        generation=generation,
        zones=zones,
        weight_sets=weight_sets,
        profiles=profiles,
        events=events,
        plant=_config_from_json(PlantConfig, raw.get("plant", {})),
        impairment=_config_from_json(ImpairmentConfig, raw.get("impairment", {})),
        controller=_config_from_json(ControllerConfig, ctrl_raw),
        mission_id=raw.get("mission_id", DEFAULT_MISSION_ID),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    with Path(path).open() as fh:
        return scenario_from_json(json.load(fh))


def save_scenario(sc: ScenarioConfig, path: str | Path) -> None:
    with Path(path).open("w") as fh:
        json.dump(scenario_to_json(sc), fh, indent=2)
        fh.write("\n")
