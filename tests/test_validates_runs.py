"""Property: a scenario that ``validate_scenario`` accepts runs to completion.

Small random scenarios (a few loads, modules, zones, events and weight sets
over a window of a few seconds, with occasional edge values) are drawn;
each one that validates is run lockstep with both algorithms. Every run
must finish with finite ``run.csv`` fields, and every fresh tick of the
advanced controller must keep its commanded intent within the capacity
budget and each zone's limit.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, event, given, settings, strategies as st

from loadshed.controller import ControllerConfig, MissionDatabase
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
from loadshed.plant import (
    GeneratorRestore,
    GeneratorTrip,
    LoadFailure,
    LoadProfile,
    ZoneLimitChange,
)
from loadshed.records import RunRecord
from loadshed.scenario import PlantConfig, ScenarioConfig, validate_scenario
from loadshed.sim import run_lockstep

MW = 1e6
TICK_S = 0.1
ZONES = ("Z1", "Z2")


def with_edges(values, *edges):
    """``values``, or now and then one of the edge values."""
    return st.one_of(values, values, values, st.sampled_from(edges))


@st.composite
def variabilities(draw):
    kind = draw(st.sampled_from(("binary", "stepped", "continuous")))
    if kind != "stepped":
        return Variability(kind)
    inner = draw(st.lists(st.sampled_from((0.25, 0.5, 0.75)), max_size=2, unique=True))
    return Variability.stepped(sorted(inner) + [1.0])


@st.composite
def profiles(draw, variability, t_end):
    if variability.kind == "continuous":
        statuses = with_edges(st.floats(0.0, 1.0), 0.0, 1.0)
    else:
        statuses = st.sampled_from((0.0,) + (variability.levels or (1.0,)))
    times = draw(st.lists(st.integers(0, round(t_end / TICK_S)), min_size=1, max_size=4,
                          unique=True))
    return LoadProfile(tuple((k * TICK_S, draw(statuses)) for k in sorted(times)))


@st.composite
def scenarios(draw):
    t_end = draw(st.integers(5, 30)) * TICK_S
    n = draw(st.integers(1, 6))
    fleet = tuple(
        LoadSpec(lid, f"L{lid}", draw(st.sampled_from(list(LoadGroup))),
                 draw(st.floats(0.1, 10.0)) * MW, draw(variabilities()),
                 draw(st.sampled_from((None,) + ZONES)))
        for lid in range(1, n + 1)
    )
    zones = []
    for name in ZONES:
        members = tuple(spec.id for spec in fleet if spec.zone == name)
        if members and draw(st.booleans()):
            zones.append(ZoneLimit(name, draw(with_edges(st.floats(0.0, 20.0), 0.0, math.inf))
                                   * MW, members))
    generation = tuple(
        GenerationModule(mid, f"G{mid}", draw(with_edges(st.floats(0.5, 30.0), 0.0)) * MW)
        for mid in range(1, draw(st.integers(1, 3)) + 1)
    )
    weights = st.fixed_dictionaries(
        {spec.id: with_edges(st.floats(0.01, 10.0), 0.0, 1.0) for spec in fleet})
    times = st.integers(0, round(t_end / TICK_S)).map(lambda k: k * TICK_S)
    weight_sets = [
        MissionWeightSet(1, draw(weights), draw(with_edges(start, math.nan, t_end + 1.0)))
        for start in [st.just(0.0)] + [times] * draw(st.integers(0, 2))
    ]
    module_ids = st.integers(1, len(generation))
    kinds = [
        st.builds(GeneratorTrip, times, module_ids),
        st.builds(GeneratorRestore, times, module_ids),
        st.builds(LoadFailure, times, st.integers(1, n)),
    ]
    if zones:
        kinds.append(st.builds(ZoneLimitChange, times, st.sampled_from([zl.zone for zl in zones]),
                               with_edges(st.floats(0.0, 20.0), 0.0).map(lambda x: x * MW)))
    events = draw(st.lists(st.one_of(kinds), max_size=4))
    return ScenarioConfig(
        name="property",
        window=MissionWindow(0.0, t_end, TICK_S),
        fleet=fleet,
        generation=generation,
        zones=tuple(zones),
        weight_sets=tuple(weight_sets),
        profiles={spec.id: draw(profiles(spec.variability, t_end)) for spec in fleet},
        events=tuple(events),
        plant=PlantConfig(tau_s=draw(with_edges(st.floats(0.0, 1.0), 0.0)),
                          loss_fraction=draw(with_edges(st.floats(0.0, 0.1), 0.0))),
        impairment=ImpairmentConfig(
            loss_probability=draw(with_edges(st.floats(0.0, 0.5), 0.0, 1.0)),
            latency_ms=draw(st.sampled_from((0.0, 50.0, 250.0))),
            jitter_ms=draw(st.sampled_from((0.0, 80.0))),
            seed=draw(st.integers(0, 1000))),
        controller=ControllerConfig(stale_limit=draw(st.integers(1, 3))),
    )


def nonfinite_fields(row: RunRecord) -> list[str]:
    """Fields of one run.csv row that are not finite numbers.

    Loading is +inf, by the plant's convention, when no capacity is online
    but power is drawn; that is a finite fact, not a corrupted one.
    """
    bad = []
    for name in RunRecord._fields:
        if name in ("degraded", "solve_time_s"):
            continue
        value = getattr(row, name)
        for x in value if isinstance(value, tuple) else (value,):
            if name == "loading_pu" and x == math.inf and row.capacity_w == 0.0:
                continue
            if not math.isfinite(x):
                bad.append(f"t={row.time_s}: {name} = {x}")
    return bad


def limit_breaches(sc: ScenarioConfig, result) -> list[str]:
    """Fresh ticks whose intent exceeds the budget or a zone limit in force.

    Tick ``k``'s intent was built from the telemetry of tick ``used_seq[k]``,
    so demands and the limits in force are taken at that tick.
    """
    db = MissionDatabase(sc.fleet, sc.mission_id, sc.weight_sets, sc.zones, sc.events)
    rated = {spec.id: spec.rated_power_w for spec in sc.fleet}
    ids = [spec.id for spec in sc.fleet]
    problems = []
    for k, (row, seq) in enumerate(zip(result.rows, result.used_seq)):
        if seq is None:
            continue
        budget, intent = result.budget_w[k], result.intent_power_w[k]
        if intent > budget * (1 + 1e-9) + 1e-6:
            problems.append(f"tick {k + 1}: intent {intent} W over budget {budget} W")
        used = result.rows[seq - 1]
        served = {lid: min(c, d) * rated[lid]
                  for lid, c, d in zip(ids, row.commanded, used.demands)}
        segment = db.segment_at(used.time_s)
        if segment is None:
            problems.append(f"tick {k + 1}: no weight set in force at t={used.time_s}")
            continue
        for zl, limit in zip(sc.zones, segment.limits_w):  # validation refuses duplicates
            total = sum(served[lid] for lid in zl.members)
            if total > limit * (1 + 1e-9) + 1e-6:
                problems.append(f"tick {k + 1}: zone {zl.zone} serves {total} W over {limit} W")
    return problems


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(scenarios())
def test_a_scenario_that_validates_runs(sc):
    if not validate_scenario(sc).ok:
        event("rejected")
        return
    event("validated")
    for algorithm in ("baseline", "advanced"):
        result = run_lockstep(sc, algorithm=algorithm)
        assert len(result.rows) == sc.window.n_ticks
        assert [x for row in result.rows for x in nonfinite_fields(row)] == []
    assert limit_breaches(sc, result) == []


def test_a_vanishing_demand_keeps_rows_finite():
    # a case the property found: load 5's demand falls from 1 to a subnormal
    # status while its measured power still lags near 1 MW; counted as demand,
    # it made measured operability overflow to inf. A demand status within
    # STATUS_TOL of 0 counts as none, as every status domain reads it.
    fleet = tuple(LoadSpec(lid, f"L{lid}", LoadGroup.ACLC_VITAL, 1 * MW,
                           Variability("binary" if lid < 3 else "continuous"))
                  for lid in range(1, 6))
    profiles = {lid: LoadProfile(((0.0, 0.0),)) for lid in range(1, 5)}
    profiles[5] = LoadProfile(((0.0, 1.0), (0.1, 2.225073858507e-311)))
    sc = ScenarioConfig(
        name="vanishing-demand",
        window=MissionWindow(0.0, 0.5, TICK_S),
        fleet=fleet,
        generation=(GenerationModule(1, "G1", 1 * MW),),
        zones=(),
        weight_sets=(MissionWeightSet(1, {lid: 1.0 for lid in range(1, 6)}),),
        profiles=profiles,
        events=(),
        plant=PlantConfig(tau_s=1.0, loss_fraction=0.0),
        impairment=ImpairmentConfig(),
        controller=ControllerConfig(stale_limit=1),
    )
    assert validate_scenario(sc).ok
    for algorithm in ("baseline", "advanced"):
        result = run_lockstep(sc, algorithm=algorithm)
        assert [x for row in result.rows for x in nonfinite_fields(row)] == []
