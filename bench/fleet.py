"""Seeded generator for the fleet-scale workload.

The scenario is ``COPIES`` copies of the bundled 42-load fleet on one bus,
with the bundled group weights (so many loads tie on weight density) and
four zones with line-flow limits. Generation is scaled with the fleet and
MPGM2 trips 5 s into a 30 s window, so 250 of the 300 ticks need shedding.
Every demand profile is resampled into the window, which is what
``validate_scenario`` requires.

The seed decides the load ids (a shuffle, which reorders ties in the
solver's search), which zone each copy of a load joins, and a +-2% level
for each copy's propulsion loads. It does not change the fleet size, the
zone count or the tick count, so the cost of a run barely depends on it.

``COPIES`` stays below the 50 ms solve deadline: at 4 copies (168 loads)
one solve in a few runs already overran it on a 2-vCPU host, and then
operability depends on timing instead of on the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import replace

from loadshed.metrics import MissionWindow
from loadshed.model import GenerationModule, LoadSpec, MissionWeightSet, ZoneLimit
from loadshed.plant import GeneratorTrip, LoadProfile, sample_profile
from loadshed.scenario import ScenarioConfig, default_scenario, validate_scenario

COPIES = 3
ZONE_SHARES = (0.20, 0.24, 0.28, 0.32)  # zone limit as a share of post-trip capacity
T_START_S, T_END_S, TRIP_S = 305.0, 335.0, 310.0
TRIPPED_MODULE = 2  # MPGM2
LEVEL_JITTER = 0.02


class GeneratorError(Exception):
    """The generated scenario does not validate."""


def generate(seed: int) -> ScenarioConfig:
    rng = random.Random(f"fleet-scale/{seed}")
    base = default_scenario()
    base_weights = base.weight_sets[0].weights
    n_base = len(base.fleet)
    ids = list(range(1, COPIES * n_base + 1))
    rng.shuffle(ids)
    zone_names = [f"Z{z + 1}" for z in range(len(ZONE_SHARES))]
    level = [1.0 + rng.uniform(-LEVEL_JITTER, LEVEL_JITTER) for _ in range(COPIES)]

    fleet: list[LoadSpec] = []
    members: dict[str, list[int]] = {z: [] for z in zone_names}
    weights: dict[int, float] = {}
    profiles: dict[int, LoadProfile] = {}
    for k, spec in enumerate(base.fleet):
        # the copies of one load land in distinct zones, rotated so that
        # every zone holds a similar mix of groups
        slots = list(range(COPIES))
        rng.shuffle(slots)
        for c in range(COPIES):
            lid = ids[c * n_base + k]
            zone = zone_names[(slots[c] + k) % len(zone_names)]
            fleet.append(replace(spec, id=lid, name=f"{spec.name}-{c + 1}", zone=zone))
            members[zone].append(lid)
            weights[lid] = base_weights[spec.id]
            src = base.profiles[spec.id]
            points = [(T_START_S, sample_profile(src, T_START_S))]
            points += [(t, v) for t, v in src.breakpoints if T_START_S < t <= T_END_S]
            if spec.variability.kind == "continuous":
                points = [(t, min(1.0, v * level[c])) for t, v in points]
            profiles[lid] = LoadProfile(tuple(points))
    fleet.sort(key=lambda s: s.id)

    generation = tuple(
        GenerationModule(m.id, m.name, m.rated_power_w * COPIES) for m in base.generation
    )
    post_trip_w = sum(m.rated_power_w for m in generation if m.id != TRIPPED_MODULE)
    zones = tuple(
        ZoneLimit(z, share * post_trip_w, tuple(sorted(members[z])))
        for z, share in zip(zone_names, ZONE_SHARES)
    )
    sc = replace(
        base,
        name=f"fleet-scale-{seed}",
        window=MissionWindow(T_START_S, T_END_S, base.window.tick_s),
        fleet=tuple(fleet),
        generation=generation,
        zones=zones,
        weight_sets=(MissionWeightSet(base.mission_id, weights, T_START_S),),
        profiles=profiles,
        events=(GeneratorTrip(TRIP_S, TRIPPED_MODULE),),
    )
    checked = validate_scenario(sc)
    if not checked.ok:
        raise GeneratorError(f"fleet-scale seed {seed} does not validate:\n{checked}")
    return sc
