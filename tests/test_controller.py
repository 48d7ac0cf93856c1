import logging
import math
from dataclasses import replace

import pytest

from _helpers import failure_scenario
from loadshed.controller import (
    AdvancedController,
    BaselineController,
    ControllerConfig,
    MissionDatabase,
    make_controller,
)
from loadshed.model import MissionWeightSet, SystemSnapshot, ZoneLimit
from loadshed.optimizer import ConfigurationError, FleetModel, solve
from loadshed.plant import LoadFailure, ZoneLimitChange
from loadshed.scenario import default_fleet, default_scenario, default_weights, validate_scenario
from loadshed.sim import _ControlNode, run_lockstep

MW = 1e6
FLEET = default_fleet()
WEIGHTS = default_weights(FLEET)


def snapshot(demands, capacity_w, t=0.0, mission_id=1, loss_fraction=0.02):
    measured = tuple(d * s.rated_power_w for s, d in zip(FLEET, demands))
    loss = loss_fraction * sum(measured)
    loading = (sum(measured) + loss) / capacity_w
    return SystemSnapshot(t, mission_id, tuple(s.id for s in FLEET), tuple(demands), measured,
                          capacity_w, loss, loading)


def full_demand():
    return [1.0 if s.variability.kind == "binary" else 0.64 for s in FLEET]


class TestControllerConfig:
    def test_defaults_are_valid(self):
        cfg = ControllerConfig()
        assert cfg.solve_deadline_s == 0.05

    def test_deadline_must_fit_period(self):
        sc = replace(default_scenario(), controller=ControllerConfig(solve_deadline_s=0.2))
        assert "solve-deadline" in {i.code for i in validate_scenario(sc)}

    def test_stale_limit_minimum(self):
        with pytest.raises(ValueError):
            ControllerConfig(stale_limit=0)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            ControllerConfig(algorithm="psychic")


class TestAdvancedController:
    def make(self):
        db = MissionDatabase([WEIGHTS])
        return AdvancedController(FLEET, db, ControllerConfig())

    def test_ample_capacity_restores_every_demand(self):
        ctrl = self.make()
        commands = ctrl.on_telemetry(snapshot(full_demand(), 96 * MW))
        # every load tracks its demand status exactly
        assert ctrl.intent == tuple(full_demand())
        # first tick emits commands only for loads below full permission
        assert {c.load_id for c in commands} == {s.id for s in FLEET
                                                 if s.variability.kind == "continuous"}

    def test_trip_throttles_pmm_only(self):
        ctrl = self.make()
        commands = ctrl.on_telemetry(snapshot(full_demand(), 60 * MW, t=310.0))
        pmm = [s.group.value == "PMM" for s in FLEET]
        assert commands, "shortfall must produce commands"
        for s, is_pmm, status in zip(FLEET, pmm, ctrl.intent):
            if not is_pmm:
                assert status == 1.0, f"non-PMM load {s.id} was curtailed"
        pmm_total = sum(status * 18 * MW for is_pmm, status in zip(pmm, ctrl.intent) if is_pmm)
        assert pmm_total < 0.64 * 4 * 18 * MW

    def test_no_commands_when_nothing_changes(self):
        ctrl = self.make()
        snap = snapshot(full_demand(), 96 * MW)
        ctrl.on_telemetry(snap)
        assert ctrl.on_telemetry(snap) == ()

    def test_unknown_mission_holds(self, caplog):
        ctrl = self.make()
        snap = snapshot(full_demand(), 60 * MW, mission_id=9)
        with caplog.at_level(logging.WARNING):
            assert ctrl.on_telemetry(snap) == ()
        assert any("mission 9" in rec.message for rec in caplog.records)

    def test_never_commands_above_demand(self):
        ctrl = self.make()
        demands = [0.0 if k % 3 == 0 else d for k, d in enumerate(full_demand())]
        ctrl.on_telemetry(snapshot(demands, 96 * MW))
        for status, d in zip(ctrl.intent, demands):
            assert status <= d

    def test_solve_time_tracked(self):
        ctrl = self.make()
        ctrl.on_telemetry(snapshot(full_demand(), 60 * MW))
        assert ctrl.last_solve_time_s > 0.0


def reference_weights(weight_sets, mission_id, t):
    """The latest weight set valid at ``t``; the first declared wins a tie."""
    candidates = [ws for ws in weight_sets if ws.mission_id == mission_id and ws.valid_from_s <= t]
    return max(candidates, key=lambda ws: ws.valid_from_s) if candidates else None


def reference_zones(zones, events, t):
    """Declared zones with every limit change up to ``t`` applied in time order."""
    current = {zl.zone: zl for zl in zones}
    for ev in sorted(events, key=lambda ev: ev.time_s):
        if isinstance(ev, ZoneLimitChange) and ev.time_s <= t:
            current[ev.zone] = ZoneLimit(ev.zone, ev.limit_w, current[ev.zone].members)
    return tuple(current.values())


class TestCachedModel:
    """The controller's cached fleet model gives, on every tick, the plan that
    solving a freshly built instance gives, with the weights and zones a linear
    scan of the mission data finds."""

    @staticmethod
    def snapshots(monkeypatch, sc):
        seen = []
        on_telemetry = AdvancedController.on_telemetry

        def spy(self, snap):
            seen.append(snap)
            return on_telemetry(self, snap)

        with monkeypatch.context() as m:
            m.setattr(AdvancedController, "on_telemetry", spy)
            run_lockstep(sc, algorithm="advanced")
        return seen

    def check_every_tick(self, monkeypatch, sc):
        db = MissionDatabase(sc.weight_sets, sc.zones, sc.events)
        ctrl = AdvancedController(sc.fleet, db, ControllerConfig(solve_deadline_s=60.0))
        failed = {ev.load_id for ev in sc.events if isinstance(ev, LoadFailure)}
        up, down = set(), set()  # failed loads seen with demand; seen dropping to 0
        shed = 0
        for snap in self.snapshots(monkeypatch, sc):
            t = snap.time_s
            ctrl.on_telemetry(snap)
            weights = reference_weights(sc.weight_sets, snap.mission_id, t)
            zones = reference_zones(sc.zones, sc.events, t)
            # a fresh model each tick shares no model or search data with the controller
            model = FleetModel.of_fleet(sc.fleet, weights, zones)
            fresh = solve(model.instance(snap, [zl.limit_w for zl in zones]), None)
            plan = ctrl.last_plan
            assert plan.optimal
            assert (plan.statuses, plan.objective, plan.served_power_w) == (
                fresh.statuses, fresh.objective, fresh.served_power_w), f"t={t}"
            for lid, d in zip(snap.load_ids, snap.demands):
                if lid in failed and d > 0.0:
                    up.add(lid)
                elif lid in up:
                    down.add(lid)
            intent = dict(zip(snap.load_ids, ctrl.intent))
            for lid in down:
                assert plan.statuses[lid] == 0.0 and intent[lid] == 0.0, f"t={t}"
            shed += any(plan.statuses[lid] < d for lid, d in zip(snap.load_ids, snap.demands))
        assert shed > 0, "the window must shed for the check to mean anything"
        assert down == failed, "every failed load must drop to 0 demand in the window"

    def test_bundled_window_around_the_trip(self, monkeypatch):
        sc = default_scenario()
        self.check_every_tick(monkeypatch, replace(sc, window=replace(sc.window,
                                                                      t_start_s=305.0,
                                                                      t_end_s=320.0)))

    def test_weight_switch_zone_change_and_failure(self, monkeypatch):
        sc = failure_scenario()
        assert validate_scenario(sc).ok
        self.check_every_tick(monkeypatch, sc)

    def test_demands_must_line_up_with_the_fleet(self):
        ctrl = AdvancedController(FLEET, MissionDatabase([WEIGHTS]), ControllerConfig())
        snap = snapshot(full_demand(), 60 * MW)
        ids, demands = snap.load_ids, snap.demands
        for changed in (dict(load_ids=ids[:-1], demands=demands[:-1]),
                        dict(load_ids=ids[1:] + ids[:1], demands=demands[1:] + demands[:1]),
                        dict(demands=demands[:-1])):
            with pytest.raises(ConfigurationError):
                ctrl.on_telemetry(replace(snap, **changed))


class TestPlanReuse:
    """A tick whose problem (model, caps, budget, zone limits) equals the one
    behind the last plan, when that plan was proven optimal, keeps the plan
    and solves nothing."""

    @pytest.fixture
    def solves(self, monkeypatch):
        plans = []

        def counting(instance, deadline_s=0.05):
            plans.append(solve(instance, deadline_s))
            return plans[-1]

        monkeypatch.setattr("loadshed.controller.solve", counting)
        return plans

    @staticmethod
    def make(db=None, fleet=FLEET, deadline_s=0.05):
        return AdvancedController(fleet, db or MissionDatabase([WEIGHTS]),
                                  ControllerConfig(solve_deadline_s=deadline_s))

    def test_identical_snapshots_solve_once(self, solves):
        ctrl = self.make()
        snap = snapshot(full_demand(), 60 * MW)
        assert ctrl.on_telemetry(snap)
        assert ctrl.last_solve_time_s == solves[0].solve_time_s
        # the same snapshot, then an equal one built anew (as a decoded one is)
        assert ctrl.on_telemetry(snap) == ()
        assert ctrl.on_telemetry(replace(snap, demands=tuple(list(snap.demands)))) == ()
        assert len(solves) == 1 and ctrl.last_plan is solves[0]
        assert ctrl.last_solve_time_s == 0.0

    def test_a_deadline_cut_plan_is_solved_again(self, solves):
        ctrl = self.make(deadline_s=1e-12)
        snap = snapshot(full_demand(), 60 * MW)
        ctrl.on_telemetry(snap)
        assert not solves[0].optimal, "the check needs a plan the deadline cut"
        ctrl.on_telemetry(snap)
        assert len(solves) == 2

    def test_a_budget_one_ulp_away_is_solved_again(self, solves):
        ctrl = self.make()
        snap = snapshot(full_demand(), 60 * MW, loss_fraction=0.0)
        nudged = snapshot(full_demand(), math.nextafter(60 * MW, math.inf), loss_fraction=0.0)
        assert nudged.budget_w == math.nextafter(snap.budget_w, math.inf)
        for s in (snap, nudged, nudged):
            ctrl.on_telemetry(s)
        assert len(solves) == 2

    def test_a_zone_limit_change_is_solved_again(self, solves):
        fleet = tuple(replace(s, zone="Z1") if s.group.value == "PMM" else s for s in FLEET)
        members = tuple(s.id for s in fleet if s.zone == "Z1")
        db = MissionDatabase([WEIGHTS], [ZoneLimit("Z1", 40 * MW, members)],
                             events=[ZoneLimitChange(1.0, "Z1", 20 * MW)])
        ctrl = self.make(db, fleet)
        for t in (0.5, 1.0, 1.5):
            ctrl.on_telemetry(snapshot(full_demand(), 60 * MW, t=t))
        assert len(solves) == 2

    def test_a_new_weight_set_is_solved_again(self, solves):
        later = MissionWeightSet(1, dict(WEIGHTS.weights), valid_from_s=1.0)
        ctrl = self.make(MissionDatabase([WEIGHTS, later]))
        for t in (0.5, 1.0, 1.5):
            ctrl.on_telemetry(snapshot(full_demand(), 60 * MW, t=t))
        assert len(solves) == 2

    def test_a_reuse_tick_records_its_own_decision_time(self, solves):
        node = _ControlNode(self.make(), stale_limit=3, fleet=FLEET)
        snap = snapshot(full_demand(), 60 * MW)
        solved = node.exchange(1, [(1, snap)])
        reused = node.exchange(2, [(2, snap)])
        assert len(solves) == 1
        assert solved.solve_time_s == solves[0].solve_time_s
        assert reused.solve_time_s > 0.0 and reused.solve_time_s != solved.solve_time_s
        assert reused.optimal and reused.batch == ()
        assert reused.intent_power_w == solved.intent_power_w


class TestBaselineControllerWrapper:
    def test_no_overload_no_commands(self):
        ctrl = BaselineController(FLEET, tick_s=0.1)
        demands = full_demand()
        snap = snapshot(demands, 96 * MW)
        assert snap.loading_pu < 1.0
        assert ctrl.on_telemetry(snap) == ()

    def test_sheds_track_intent(self):
        ctrl = BaselineController(FLEET, tick_s=0.1)
        overload = snapshot(full_demand(), 60 * MW)
        assert overload.loading_pu > 1.0
        sheds = []
        for k in range(10):
            sheds += list(ctrl.on_telemetry(overload))
        assert sheds, "sustained overload must shed"
        intent = dict(zip((s.id for s in FLEET), ctrl.intent))
        for cmd in sheds:
            assert intent[cmd.load_id] == 0.0


class TestMissionDatabase:
    def test_weight_schedule_selects_latest_valid(self):
        early = MissionWeightSet(1, {1: 1.0}, valid_from_s=0.0)
        late = MissionWeightSet(1, {1: 2.0}, valid_from_s=100.0)
        other = MissionWeightSet(2, {1: 9.0}, valid_from_s=0.0)
        db = MissionDatabase([early, late, other])
        assert db.segment_at(1, 50.0).weights is early
        assert db.segment_at(1, 100.0).weights is late
        assert db.segment_at(2, 500.0).weights is other
        assert db.segment_at(3, 0.0) is None

    def test_zone_updates_apply_in_time_order(self):
        base = ZoneLimit("Z1", 10 * MW, (1, 2))
        db = MissionDatabase([WEIGHTS], zones=[base],
                             events=[ZoneLimitChange(50.0, "Z1", 4 * MW)])
        assert db.zones == (base,)
        assert db.segment_at(1, 10.0).limits_w == (10 * MW,)
        assert db.segment_at(1, 50.0).limits_w == (4 * MW,)
        assert db.zones[0].members == (1, 2)

    def test_equal_start_first_declared_wins(self):
        first = MissionWeightSet(1, {1: 1.0}, valid_from_s=10.0)
        second = MissionWeightSet(1, {1: 2.0}, valid_from_s=10.0)
        db = MissionDatabase([MissionWeightSet(1, {1: 3.0}), first, second])
        assert db.segment_at(1, 10.0).weights is first
        assert db.segment_at(1, 99.0).weights is first
        assert reference_weights([first, second], 1, 10.0) is first

    def test_zone_changes_at_one_time_apply_in_declared_order(self):
        zones = [ZoneLimit("Z1", 10 * MW, (1,)), ZoneLimit("Z2", 8 * MW, (2,))]
        db = MissionDatabase([WEIGHTS], zones, events=[
            ZoneLimitChange(20.0, "Z2", 3 * MW), ZoneLimitChange(20.0, "Z1", 2 * MW),
            ZoneLimitChange(20.0, "Z2", 1 * MW), ZoneLimitChange(20.0, "Z1", 5 * MW)])
        assert db.segment_at(1, 19.9).limits_w == (10 * MW, 8 * MW)
        assert db.segment_at(1, 20.0).limits_w == (5 * MW, 1 * MW)

    def test_zone_change_before_the_first_weight_set(self):
        weights = MissionWeightSet(1, {1: 1.0}, valid_from_s=10.0)
        db = MissionDatabase([weights], [ZoneLimit("Z1", 10 * MW, (1,))],
                             events=[ZoneLimitChange(5.0, "Z1", 2 * MW)])
        assert db.segment_at(1, 7.0) is None
        assert db.segment_at(1, 10.0) == (weights, (2 * MW,))

    def test_no_segment_before_the_first_weight_set(self):
        db = MissionDatabase([MissionWeightSet(1, {1: 1.0}, valid_from_s=10.0)])
        assert db.segment_at(1, 9.99) is None
        assert db.segment_at(1, -1.0) is None
        assert db.segment_at(1, math.nan) is None
        assert db.segment_at(1, 10.0) is not None


def test_make_controller_dispatch():
    db = MissionDatabase([WEIGHTS])
    assert isinstance(make_controller(FLEET, ControllerConfig(algorithm="baseline")),
                      BaselineController)
    assert isinstance(make_controller(FLEET, ControllerConfig(), db), AdvancedController)
    with pytest.raises(ValueError):
        make_controller(FLEET, ControllerConfig())
