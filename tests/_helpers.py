"""Shared test utilities: random instance generation and small scenarios."""

from __future__ import annotations

import random
from dataclasses import replace

from loadshed.controller import ControllerConfig
from loadshed.link import ImpairmentConfig
from loadshed.metrics import MissionWindow
from loadshed.model import (
    STATUS_TOL,
    GenerationModule,
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    Variability,
    ZoneLimit,
)
from loadshed.optimizer import FleetModel, ModelInstance
from loadshed.plant import GeneratorTrip, LoadFailure, LoadProfile, ZoneLimitChange
from loadshed.scenario import PlantConfig, ScenarioConfig

MW = 1e6
MAX_GEN_COMBOS = 1 << 20


def counting(base: type) -> type:
    """A subclass of ``base`` (a tuple or list type) whose instances add to its
    ``reads`` each read of their items: by index, by iteration (unpacking and
    ``tuple()`` included) or by comparison."""

    class Counting(base):
        reads = 0
        __hash__ = base.__hash__

        def __getitem__(self, k):
            Counting.reads += 1
            return super().__getitem__(k)

        def __iter__(self):
            Counting.reads += 1
            return super().__iter__()

        def __eq__(self, other):
            Counting.reads += 1
            return super().__eq__(other)

        def __ne__(self, other):
            Counting.reads += 1
            return super().__ne__(other)

    return Counting


def served_sums(weights, demands, served) -> tuple[float, float]:
    """The reference weighted (demanded, served) totals: ``w * ds`` and
    ``w * min(s, ds)`` added from ``0.0`` over the loads whose demand status
    is not within ``STATUS_TOL`` of zero, in the order given, one load at a
    time."""
    den = num = 0.0
    for w, ds, s in zip(weights, demands, served):
        if -STATUS_TOL <= ds <= STATUS_TOL:
            continue
        den += w * ds
        num += w * (ds if ds < s else s)
    return den, num


def measured_sum(weights, demands, measured_pu) -> float:
    """The reference weighted measured status: ``w * m`` added from ``0.0``
    over the loads whose demand status is not within ``STATUS_TOL`` of zero,
    in the order given, one load at a time."""
    total = 0.0
    for w, ds, m in zip(weights, demands, measured_pu):
        if not -STATUS_TOL <= ds <= STATUS_TOL:
            total += w * m
    return total


def model_instance(rows, budget: float, zones=()) -> ModelInstance:
    """The problem over ``(id, weight, rated, demand, variability, zone)``
    rows under ``zones`` (ZoneLimits), each demand clamped to [0, 1] as
    :meth:`FleetModel.instance` clamps it."""
    model = FleetModel([(lid, w, r, v, z) for lid, w, r, _, v, z in rows], zones)
    caps = [0.0 if d < 0.0 else 1.0 if d > 1.0 else d for _, _, _, d, _, _ in rows]
    return ModelInstance(model, caps, budget, [zl.limit_w for zl in zones])


def random_instance(
    seed: int,
    max_discrete: int = 20,
    max_continuous: int = 2,
    min_discrete: int = 3,
    allow_zones: bool = True,
    allow_failed: bool = True,
    allow_stepped: bool = True,
) -> ModelInstance:
    """Seeded random shedding instance within the oracle's size limits. Up
    to three loads may have failed: they demand 0."""
    rng = random.Random(seed)
    n_disc = rng.randint(min_discrete, max_discrete)
    n_cont = rng.randint(0, max_continuous)
    zone_pool: list[str] = []
    if allow_zones and rng.random() < 0.5:
        zone_pool = [f"Z{z + 1}" for z in range(rng.randint(1, 2))]

    rows: list[list] = []  # id, weight, rated, demand, variability, zone
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
        rows.append([lid, rng.uniform(0.5, 10.0), rng.uniform(1.0, 40.0) * MW, demand, var, zone])
        lid += 1
    for _ in range(n_cont):
        zone = rng.choice(zone_pool) if zone_pool and rng.random() < 0.5 else None
        rows.append([lid, rng.uniform(0.5, 10.0), rng.uniform(1.0, 40.0) * MW,
                     rng.uniform(0.2, 1.0), Variability.continuous(), zone])
        lid += 1

    if allow_failed and rows:
        n_failed = rng.randint(0, min(3, len(rows)))
        for pos in rng.sample(range(len(rows)), k=n_failed):
            rows[pos][3] = 0.0

    total_required = sum(d * r for _, _, r, d, _, _ in rows)
    budget = rng.uniform(0.0, total_required) if total_required > 0 else 0.0
    zone_limits = []
    for zname in zone_pool:
        members = tuple(row[0] for row in rows if row[5] == zname)
        if not members:
            continue
        zcap = sum(d * r for _, _, r, d, _, z in rows if z == zname)
        zone_limits.append(ZoneLimit(zname, rng.uniform(0.2, 1.1) * max(zcap, 1.0), members))
    return model_instance(rows, budget, zone_limits)


def assert_plans_agree(instance: ModelInstance, a, b, tol: float = 1e-9) -> None:
    """Objectives within relative tolerance, plans identical under the tie-break.

    Discrete statuses must match exactly; continuous fills may differ by
    float-path noise up to ``tol``.
    """
    scale = max(1.0, abs(a.objective), abs(b.objective))
    assert abs(a.objective - b.objective) <= tol * scale, (
        f"objectives differ: {a.objective} vs {b.objective}"
    )
    for lid, variability in zip(instance.model.ids, instance.model.variability):
        sa, sb = a.statuses[lid], b.statuses[lid]
        if variability.kind == "continuous":
            assert abs(sa - sb) <= tol, f"load {lid}: {sa} vs {sb}"
        else:
            assert sa == sb, f"load {lid}: {sa} vs {sb}"


def milp_objective(instance: ModelInstance) -> float:
    """The optimal objective of ``instance`` by HiGHS (``scipy.optimize.milp``),
    an oracle with no code in common with ``solve``: one binary column per
    (discrete load, status under its cap), one row per discrete load choosing
    exactly one of them, a column per continuous load bounded by its cap, then
    the budget row and one row per zone. Powers are in MW. It checks the
    objective only; the tie-break is the brute-force oracle's job."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = instance.model
    gain, power, integral, zone_of, choices = [], [], [], [], []
    for i, (variability, cap) in enumerate(zip(m.variability, instance.caps)):
        table = variability.discrete_statuses(cap)
        statuses = [cap] if table is None else table
        if table is not None:
            choices.append(range(len(gain), len(gain) + len(table)))
        for s in statuses:
            gain.append(m.weight[i] * s)
            power.append(m.rated[i] * s / 1e6)
            integral.append(table is not None)
            zone_of.append(m.zone_of[i])
    n = len(gain)
    rows, lower, ub = [power], [-np.inf], [instance.capacity_budget_w / 1e6]
    for zi, limit in enumerate(instance.zone_limits_w):
        rows.append([p if z == zi else 0.0 for p, z in zip(power, zone_of)])
        lower.append(-np.inf)
        ub.append(max(0.0, limit) / 1e6)
    for cols in choices:
        rows.append([1.0 if k in cols else 0.0 for k in range(n)])
        lower.append(1.0)
        ub.append(1.0)
    cost, constraints = -np.array(gain), LinearConstraint(np.array(rows), lower, ub)
    res = milp(cost, integrality=np.array(integral, dtype=int),
               bounds=Bounds(0.0, 1.0), constraints=constraints,
               options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    # HiGHS lets a binary stray 1e-6 from 0 or 1: fix each discrete load's
    # chosen status exactly, then fill the continuous columns by an LP
    low, high = np.zeros(n), np.ones(n)
    for cols in choices:
        chosen = max(cols, key=lambda k: res.x[k])
        high[cols.start:cols.stop] = 0.0
        low[chosen] = high[chosen] = 1.0
    res = milp(cost, bounds=Bounds(low, high), constraints=constraints)
    assert res.success, res.message
    return -res.fun


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
