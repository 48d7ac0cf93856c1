"""Shared test utilities: random instance generation and small scenarios."""

from __future__ import annotations

import random
from dataclasses import replace

from loadshed.controller import ControllerConfig
from loadshed.link import ImpairmentConfig
from loadshed.metrics import MissionWindow
from loadshed.model import (
    GenerationModule,
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    Variability,
    ZoneLimit,
)
from loadshed.optimizer import InstanceEntry, ShedInstance
from loadshed.plant import GeneratorTrip, LoadFailure, LoadProfile, ZoneLimitChange
from loadshed.scenario import PlantConfig, ScenarioConfig

MW = 1e6
MAX_GEN_COMBOS = 1 << 20


def random_instance(
    seed: int,
    max_discrete: int = 20,
    max_continuous: int = 2,
    min_discrete: int = 3,
    allow_zones: bool = True,
    allow_forced: bool = True,
    allow_stepped: bool = True,
) -> ShedInstance:
    """Seeded random shedding instance within the oracle's size limits."""
    rng = random.Random(seed)
    n_disc = rng.randint(min_discrete, max_discrete)
    n_cont = rng.randint(0, max_continuous)
    zone_pool: list[str] = []
    if allow_zones and rng.random() < 0.5:
        zone_pool = [f"Z{z + 1}" for z in range(rng.randint(1, 2))]

    entries: list[InstanceEntry] = []
    combos = 1
    lid = 1
    for _ in range(n_disc):
        if allow_stepped and rng.random() < 0.2:
            k = rng.randint(1, 3)
            levels = sorted(round(rng.uniform(0.05, 0.95), 3) for _ in range(k)) + [1.0]
            var = Variability.stepped(levels)
        else:
            var = Variability.binary()
        card = 2 if var.kind == "binary" else len(var.levels) + 1
        if combos * card > MAX_GEN_COMBOS:
            break
        combos *= card
        demand = 1.0 if rng.random() < 0.9 else 0.0
        if var.kind == "stepped" and demand == 1.0 and rng.random() < 0.3:
            demand = rng.choice(var.levels)
        zone = rng.choice(zone_pool) if zone_pool and rng.random() < 0.5 else None
        entries.append(
            InstanceEntry(lid, rng.uniform(0.5, 10.0), rng.uniform(1.0, 40.0) * MW,
                          demand, var, False, zone)
        )
        lid += 1
    for _ in range(n_cont):
        zone = rng.choice(zone_pool) if zone_pool and rng.random() < 0.5 else None
        entries.append(
            InstanceEntry(lid, rng.uniform(0.5, 10.0), rng.uniform(1.0, 40.0) * MW,
                          rng.uniform(0.2, 1.0), Variability.continuous(), False, zone)
        )
        lid += 1

    if allow_forced and entries:
        n_forced = rng.randint(0, min(3, len(entries)))
        for pos in rng.sample(range(len(entries)), k=n_forced):
            entries[pos] = replace(entries[pos], forced_off=True)

    total_required = sum(e.status_cap * e.rated_power_w for e in entries)
    budget = rng.uniform(0.0, total_required) if total_required > 0 else 0.0
    zone_limits = []
    for zname in zone_pool:
        members = tuple(e.load_id for e in entries if e.zone == zname)
        if not members:
            continue
        zcap = sum(e.status_cap * e.rated_power_w for e in entries if e.zone == zname)
        zone_limits.append(ZoneLimit(zname, rng.uniform(0.2, 1.1) * max(zcap, 1.0), members))
    return ShedInstance(tuple(entries), budget, tuple(zone_limits))


def assert_plans_agree(instance: ShedInstance, a, b, tol: float = 1e-9) -> None:
    """Objectives within relative tolerance, plans identical under the tie-break.

    Discrete statuses must match exactly; continuous fills may differ by
    float-path noise up to ``tol``.
    """
    scale = max(1.0, abs(a.objective), abs(b.objective))
    assert abs(a.objective - b.objective) <= tol * scale, (
        f"objectives differ: {a.objective} vs {b.objective}"
    )
    for e in instance.entries:
        sa, sb = a.statuses[e.load_id], b.statuses[e.load_id]
        if e.variability.kind == "continuous":
            assert abs(sa - sb) <= tol, f"load {e.load_id}: {sa} vs {sb}"
        else:
            assert sa == sb, f"load {e.load_id}: {sa} vs {sb}"


def small_fleet() -> tuple[LoadSpec, ...]:
    fleet = [
        LoadSpec(1, "V-1", LoadGroup.ACLC_VITAL, 1.0 * MW, Variability.binary()),
        LoadSpec(2, "V-2", LoadGroup.ACLC_VITAL, 1.0 * MW, Variability.binary()),
        LoadSpec(3, "V-3", LoadGroup.ACLC_VITAL, 1.0 * MW, Variability.binary()),
        LoadSpec(4, "V-4", LoadGroup.ACLC_VITAL, 1.0 * MW, Variability.binary()),
        LoadSpec(5, "NV-1", LoadGroup.ACLC_NONVITAL, 1.0 * MW, Variability.binary()),
        LoadSpec(6, "NV-2", LoadGroup.ACLC_NONVITAL, 1.0 * MW, Variability.binary()),
        LoadSpec(7, "PMM-1", LoadGroup.PMM, 6.0 * MW, Variability.continuous()),
        LoadSpec(8, "PMM-2", LoadGroup.PMM, 6.0 * MW, Variability.continuous()),
    ]
    return tuple(fleet)


def small_scenario(
    loss: float = 0.0,
    latency_ms: float = 0.0,
    seed: int = 0,
    tau_s: float = 0.1,
    stale_limit: int = 3,
) -> ScenarioConfig:
    """Fast 30 s trip scenario on an 8-load fleet (for mode/impairment tests)."""
    fleet = small_fleet()
    weights = MissionWeightSet(
        1, {1: 5.0, 2: 5.0, 3: 5.0, 4: 5.0, 5: 2.5, 6: 2.5, 7: 5.0, 8: 5.0}
    )
    profiles = {
        1: LoadProfile(((0.0, 1.0),)),
        2: LoadProfile(((0.0, 1.0),)),
        3: LoadProfile(((0.0, 1.0),)),
        4: LoadProfile(((0.0, 1.0),)),
        5: LoadProfile(((0.0, 0.0), (2.0, 1.0))),
        6: LoadProfile(((0.0, 0.0), (4.0, 1.0))),
        7: LoadProfile(((0.0, 0.3), (6.0, 0.6), (8.0, 0.9), (20.0, 0.5))),
        8: LoadProfile(((0.0, 0.3), (6.0, 0.6), (8.0, 0.9), (20.0, 0.5))),
    }
    return ScenarioConfig(
        name="small-trip",
        window=MissionWindow(0.0, 30.0, 0.1),
        fleet=fleet,
        generation=(
            GenerationModule(1, "G1", 10.0 * MW),
            GenerationModule(2, "G2", 12.0 * MW),
        ),
        zones=(),
        weight_sets=(weights,),
        profiles=profiles,
        events=(GeneratorTrip(10.0, 2),),
        plant=PlantConfig(tau_s=tau_s, loss_fraction=0.02),
        impairment=ImpairmentConfig(loss_probability=loss, latency_ms=latency_ms, seed=seed),
        controller=ControllerConfig(algorithm="advanced", stale_limit=stale_limit),
    )


def failure_scenario() -> ScenarioConfig:
    """:func:`small_scenario` with a zone around loads 5 and 7 whose limit
    drops at 17 s, a second weight set from 14 s, and loads 6 and 7 failing
    at 20 and 22 s."""
    sc = small_scenario()
    fleet = tuple(replace(s, zone="Z1") if s.id in (5, 7) else s for s in sc.fleet)
    first = sc.weight_sets[0]
    later = MissionWeightSet(first.mission_id,
                             {1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 8.0, 6: 8.0, 7: 9.0, 8: 1.0},
                             valid_from_s=14.0)
    return replace(sc, fleet=fleet, zones=(ZoneLimit("Z1", 6 * MW, (5, 7)),),
                   weight_sets=(first, later),
                   events=sc.events + (ZoneLimitChange(17.0, "Z1", 2.5 * MW),
                                       LoadFailure(20.0, 6), LoadFailure(22.0, 7)))
