import math
import random
from dataclasses import replace

import numpy as np
import pytest

from _helpers import MW, assert_plans_agree, random_instance
from loadshed.model import (
    STATUS_TOL,
    LoadGroup,
    LoadSpec,
    MissionWeightSet,
    SystemSnapshot,
    Variability,
    ZoneLimit,
)
from loadshed.optimizer import (
    ConfigurationError,
    FleetModel,
    InstanceEntry,
    InstanceTooLargeError,
    ModelInstance,
    ShedInstance,
    _prepare,
    brute_force_solve,
    build_instance,
    plan_violations,
    solve,
)


def binary_entry(lid, weight, power_w, demand=1.0, forced=False, zone=None):
    return InstanceEntry(lid, weight, power_w, demand, Variability.binary(), forced, zone)


def cont_entry(lid, weight, power_w, demand=1.0, zone=None):
    return InstanceEntry(lid, weight, power_w, demand, Variability.continuous(), False, zone)


class TestSolveExamples:
    def test_binary_knapsack(self):
        inst = ShedInstance(
            (binary_entry(1, 8, 10 * MW), binary_entry(2, 5, 20 * MW),
             binary_entry(3, 2.5, 5 * MW)),
            25 * MW,
        )
        plan = solve(inst)
        assert plan.statuses == {1: 1.0, 2: 0.0, 3: 1.0}
        assert plan.objective == pytest.approx(10.5)
        assert plan.optimal

    def test_unconstrained_serves_every_demand(self):
        inst = ShedInstance(
            (binary_entry(1, 8, 10 * MW), binary_entry(2, 5, 20 * MW),
             cont_entry(3, 2.5, 5 * MW, demand=0.8)),
            100 * MW,
        )
        plan = solve(inst)
        assert plan.statuses == {1: 1.0, 2: 1.0, 3: 0.8}
        assert plan.objective == pytest.approx(8 + 5 + 2.5 * 0.8)

    def test_forced_off_excluded(self):
        inst = ShedInstance(
            (binary_entry(1, 8, 10 * MW, forced=True), binary_entry(2, 5, 20 * MW),
             binary_entry(3, 2.5, 5 * MW)),
            25 * MW,
        )
        plan = solve(inst)
        assert plan.statuses == {1: 0.0, 2: 1.0, 3: 1.0}
        assert plan.objective == pytest.approx(7.5)

    def test_continuous_fill_after_binary(self):
        inst = ShedInstance(
            (binary_entry(1, 8, 10 * MW), cont_entry(2, 5, 20 * MW)),
            20 * MW,
        )
        plan = solve(inst)
        assert plan.statuses[1] == 1.0
        assert plan.statuses[2] == pytest.approx(0.5)
        assert plan.objective == pytest.approx(10.5)

    def test_stepped_one_of_k(self):
        stepped = InstanceEntry(1, 6.0, 10 * MW, 1.0, Variability.stepped([0.25, 0.5, 1.0]))
        inst = ShedInstance((stepped, binary_entry(2, 5, 4 * MW)), 9 * MW)
        plan = solve(inst)
        # serving the binary (5) plus the 0.5 step (3) beats the 1.0 step alone (6)
        assert plan.statuses == {1: 0.5, 2: 1.0}
        assert plan.objective == pytest.approx(8.0)

    def test_zone_limit_binds(self):
        inst = ShedInstance(
            (binary_entry(1, 5, 10 * MW, zone="Z1"), binary_entry(2, 4, 10 * MW, zone="Z1"),
             binary_entry(3, 1, 10 * MW)),
            100 * MW,
            (ZoneLimit("Z1", 10 * MW, (1, 2)),),
        )
        plan = solve(inst)
        assert plan.statuses == {1: 1.0, 2: 0.0, 3: 1.0}

    def test_single_binary_too_big_for_budget(self):
        inst = ShedInstance((binary_entry(1, 5, 10 * MW),), 9 * MW)
        assert solve(inst).statuses == {1: 0.0}


class TestBruteForce:
    def test_empty_instance(self):
        plan = brute_force_solve(ShedInstance((), 10 * MW))
        assert plan.statuses == {} and plan.objective == 0.0

    def test_single_infeasible_binary(self):
        plan = brute_force_solve(ShedInstance((binary_entry(1, 5, 10 * MW),), 9 * MW))
        assert plan.statuses == {1: 0.0}

    def test_size_guard_on_combinations(self):
        entries = tuple(binary_entry(i, 1.0, MW) for i in range(1, 27))
        with pytest.raises(InstanceTooLargeError):
            brute_force_solve(ShedInstance(entries, 5 * MW))

    def test_size_guard_on_continuous(self):
        entries = tuple(cont_entry(i, 1.0, MW) for i in range(1, 7))
        with pytest.raises(InstanceTooLargeError):
            brute_force_solve(ShedInstance(entries, 5 * MW))

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_solve_on_random_instances(self, seed):
        inst = random_instance(seed, max_discrete=14)
        fast = solve(inst, deadline_s=None)
        oracle = brute_force_solve(inst)
        assert fast.optimal
        assert_plans_agree(inst, fast, oracle)
        assert plan_violations(inst, fast) == []
        assert plan_violations(inst, oracle) == []


def tied_zoned_instance(seed: int) -> ShedInstance:
    """Fleet-shaped instance: group weights 2.5/5/8 on a few ratings, so many
    densities tie; 1-2 zones whose limits bind; continuous loads whose density
    falls between the branch items'; stepped loads whose demand caps their
    top level."""
    rng = random.Random(f"tied/{seed}")
    zones = [f"Z{z + 1}" for z in range(rng.randint(1, 2))]
    entries = []
    for lid in range(1, rng.randint(9, 12) + 1):
        weight = rng.choice((2.5, 5.0, 8.0))
        rated = rng.choice((0.5, 1.0, 2.0)) * MW
        zone = rng.choice(zones + [None])
        if rng.random() < 0.25:
            demand = rng.choice((0.5, 0.75, 1.0))
            var = Variability.stepped([0.25, 0.5, 1.0])
            entries.append(InstanceEntry(lid, weight, rated, demand, var, False, zone))
        else:
            entries.append(binary_entry(lid, weight, rated, zone=zone))
    # densities 2.5/1.5, 5/1.5 and 8/3 W^-1 MW lie between the branch densities
    for lid in range(len(entries) + 1, len(entries) + rng.randint(1, 3) + 1):
        weight, rated = rng.choice(((2.5, 1.5), (5.0, 1.5), (8.0, 3.0)))
        entries.append(cont_entry(lid, weight, rated * MW, demand=rng.uniform(0.4, 1.0),
                                  zone=rng.choice(zones + [None])))
    limits = []
    for z in zones:
        members = tuple(e.load_id for e in entries if e.zone == z)
        zone_w = sum(e.status_cap * e.rated_power_w for e in entries if e.zone == z)
        if members:
            limits.append(ZoneLimit(z, rng.uniform(0.3, 0.7) * zone_w, members))
    total = sum(e.status_cap * e.rated_power_w for e in entries)
    return ShedInstance(tuple(entries), rng.uniform(0.4, 0.8) * total, tuple(limits))


class TestTiedZonedInstances:
    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_brute_force(self, seed):
        inst = tied_zoned_instance(seed)
        fast = solve(inst, deadline_s=None)
        oracle = brute_force_solve(inst)
        assert fast.optimal
        assert_plans_agree(inst, fast, oracle)
        assert plan_violations(inst, fast) == []
        assert plan_violations(inst, oracle) == []


class TestStatusTableBoundary:
    """Demand at a level, within STATUS_TOL below it and just beyond it: a
    discrete load whose cap reaches its top status keeps its whole status
    table, any lower cap gets exactly ``discrete_statuses(cap)``."""

    @staticmethod
    def instance(level, offset, budget_share):
        stepped = Variability.stepped([0.25, 0.5, 1.0])
        demand = level - offset
        entries = (
            InstanceEntry(1, 6.0, 4 * MW, demand, stepped),
            InstanceEntry(2, 5.0, 3 * MW, demand, Variability.binary()),
            InstanceEntry(3, 4.0, 2 * MW, demand, stepped, False, "Z1"),
            binary_entry(4, 3.0, 2 * MW, zone="Z1"),
            binary_entry(5, 2.0, 1 * MW),
            cont_entry(6, 1.0, 2 * MW, demand=0.7),
        )
        total = sum(e.status_cap * e.rated_power_w for e in entries)
        zones = (ZoneLimit("Z1", 3.5 * MW, (3, 4)),)
        return ShedInstance(entries, budget_share * total, zones)

    @pytest.mark.parametrize("budget_share", [0.45, 0.7, 2.0])
    @pytest.mark.parametrize("offset", [0.0, STATUS_TOL / 2, STATUS_TOL, 2 * STATUS_TOL])
    @pytest.mark.parametrize("level", [0.5, 1.0])
    def test_agrees_with_brute_force(self, level, offset, budget_share):
        inst = self.instance(level, offset, budget_share)
        fast = solve(inst, deadline_s=None)
        oracle = brute_force_solve(inst)
        assert fast.optimal
        assert_plans_agree(inst, fast, oracle)
        assert plan_violations(inst, fast) == []
        if budget_share > 1:  # ample: loads outside the zone take their highest status
            for e in inst.entries[:2]:
                top = max(e.variability.discrete_statuses(e.status_cap))
                assert fast.statuses[e.load_id] == top
            assert (fast.statuses[1] == level) == (offset <= STATUS_TOL)


def chain_instance(seed: int) -> ShedInstance:
    """Binary, stepped and continuous loads, 0-3 zones whose limits bind or
    not, and a budget from tight to ample, so that chain siblings meet every
    way the root relaxation's fill can end."""
    rng = random.Random(f"chain/{seed}")
    zones = [f"Z{z + 1}" for z in range(rng.randint(0, 3))]
    entries = []
    for lid in range(1, rng.randint(6, 14) + 1):
        zone = rng.choice(zones + [None])
        weight, rated = rng.uniform(0.5, 10.0), rng.uniform(0.5, 4.0) * MW
        if rng.random() < 0.2:
            entries.append(cont_entry(lid, weight, rated, rng.uniform(0.3, 1.0), zone))
        elif rng.random() < 0.2:
            var = Variability.stepped([0.25, 0.5, 1.0])
            entries.append(InstanceEntry(lid, weight, rated, 1.0, var, False, zone))
        else:
            entries.append(binary_entry(lid, weight, rated, zone=zone))
    limits = []
    for z in zones:
        members = tuple(e.load_id for e in entries if e.zone == z)
        zone_w = sum(e.status_cap * e.rated_power_w for e in entries if e.zone == z)
        if members:
            limits.append(ZoneLimit(z, rng.uniform(0.2, 1.2) * zone_w, members))
    total = sum(e.status_cap * e.rated_power_w for e in entries)
    return ShedInstance(tuple(entries), rng.uniform(0.3, 1.2) * total, tuple(limits))


def chain_siblings(inst: ShedInstance):
    """Each sibling of the root relaxation's chain: its case, its resumed
    bound and its bound from scratch. The chain gives the first ``whole``
    branch items the top status the root relaxation took whole; a sibling
    gives the last of them a lower status."""
    prep = _prepare(inst)
    snaps = {}
    budget = inst.capacity_budget_w
    _, whole = prep.relax_bound(0, 0, budget, 0.0, list(prep.zone_limits), snaps)
    rem, obj, zrem = budget, 0.0, list(prep.zone_limits)
    for level in range(whole):
        _, weight, rated, zi, downward, top = prep.steps[level]
        start = snaps.get(zi, snaps[-1])[0]
        if start == len(prep.relax):
            case = "nothing-cut"
        elif zi < 0:
            case = "no-zone"
        elif zi in snaps:
            case = "zone-cut-first"
        else:
            case = "budget-cut-first"
        for status in downward[1:]:
            room = list(zrem)
            if zi >= 0:
                room[zi] -= status * rated
            scratch, _ = prep.relax_bound(0, level + 1, rem - status * rated,
                                          obj + weight * status, room)
            yield case, prep.resumed_bound(snaps, level, status), scratch
        rem -= top * rated
        obj += weight * top
        if zi >= 0:
            zrem[zi] -= top * rated


class TestResumedBound:
    """A chain sibling's bound, resumed from the root relaxation, equals the
    relaxation bound computed from scratch, in each way the fill can end:
    nothing cut; the freed power's zone cut before the budget; the budget
    cut before that zone; the load in no zone."""

    @pytest.mark.parametrize("case", ["nothing-cut", "zone-cut-first", "budget-cut-first",
                                      "no-zone"])
    def test_matches_the_bound_from_scratch(self, case):
        checked = 0
        for seed in range(300):
            for sibling_case, resumed, scratch in chain_siblings(chain_instance(seed)):
                if sibling_case == case:
                    assert abs(resumed - scratch) <= 1e-9 * (1.0 + abs(scratch)), (
                        f"seed {seed}: resumed {resumed} vs from scratch {scratch}")
                    checked += 1
        assert checked >= 50, f"only {checked} siblings of case {case}"


class TestContinuousFillAgainstLinprog:
    """Independent check of the greedy density fill with an LP solver."""

    @pytest.mark.parametrize("seed", range(60))
    def test_pure_continuous_instances(self, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(9000 + seed)
        n = rng.randint(1, 6)
        zone_names = ["Z1", "Z2"][: rng.randint(0, 2)]
        entries = []
        for lid in range(1, n + 1):
            zone = rng.choice(zone_names) if zone_names and rng.random() < 0.6 else None
            entries.append(
                cont_entry(lid, rng.uniform(0.5, 10.0), rng.uniform(1.0, 40.0) * MW,
                           demand=rng.uniform(0.1, 1.0), zone=zone)
            )
        total = sum(e.status_cap * e.rated_power_w for e in entries)
        zones = []
        for zn in zone_names:
            members = tuple(e.load_id for e in entries if e.zone == zn)
            if members:
                zones.append(ZoneLimit(zn, rng.uniform(0.1, 1.0) * total, members))
        inst = ShedInstance(tuple(entries), rng.uniform(0.0, total), tuple(zones))

        plan = solve(inst, deadline_s=None)

        c = [-e.weight for e in entries]
        bounds = [(0.0, e.status_cap) for e in entries]
        a_ub = [[e.rated_power_w for e in entries]]
        b_ub = [inst.capacity_budget_w]
        for zl in zones:
            a_ub.append([e.rated_power_w if e.zone == zl.zone else 0.0 for e in entries])
            b_ub.append(zl.limit_w)
        lp = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert lp.status == 0
        assert plan.objective == pytest.approx(-lp.fun, rel=1e-7, abs=1e-7)


class TestBuildInstance:
    def snapshot(self, fleet, demands, capacity_w, loss_w, t=310.0):
        measured = tuple(d * s.rated_power_w for s, d in zip(fleet, demands))
        return SystemSnapshot(t, 1, tuple(s.id for s in fleet), tuple(demands), measured,
                              capacity_w, loss_w, (sum(measured) + loss_w) / capacity_w)

    def fleet(self):
        return (
            LoadSpec(1, "A", LoadGroup.ACLC_VITAL, 10 * MW, Variability.binary()),
            LoadSpec(5, "B", LoadGroup.PMM, 20 * MW, Variability.continuous()),
        )

    def test_budget_is_capacity_minus_losses(self):
        fleet = self.fleet()
        snap = self.snapshot(fleet, [1.0, 1.0], 60 * MW, 1.2 * MW)
        weights = MissionWeightSet(1, {1: 5.0, 5: 5.0})
        inst = build_instance(snap, weights, fleet)
        assert inst.capacity_budget_w == pytest.approx(58.8 * MW)

    def test_zero_demand_gives_zero_required_power(self):
        fleet = self.fleet()
        snap = self.snapshot(fleet, [0.0, 0.0], 60 * MW, 0.0)
        inst = build_instance(snap, MissionWeightSet(1, {1: 5.0, 5: 5.0}), fleet)
        assert all(e.demand_status * e.rated_power_w == 0.0 for e in inst.entries)

    def test_forced_off_passthrough(self):
        fleet = self.fleet()
        snap = self.snapshot(fleet, [1.0, 1.0], 60 * MW, 0.0)
        inst = build_instance(snap, MissionWeightSet(1, {1: 5.0, 5: 5.0}), fleet,
                              forced_off={5})
        assert [e.forced_off for e in inst.entries] == [False, True]
        plan = solve(inst)
        assert plan.statuses[5] == 0.0

    def test_missing_weight_is_configuration_error(self):
        fleet = self.fleet()
        snap = self.snapshot(fleet, [1.0, 1.0], 60 * MW, 0.0)
        with pytest.raises(ConfigurationError):
            build_instance(snap, MissionWeightSet(1, {1: 5.0}), fleet)

    def test_missing_demand_is_configuration_error(self):
        fleet = self.fleet()
        snap = self.snapshot(fleet[:1], [1.0], 60 * MW, 0.0)
        with pytest.raises(ConfigurationError, match="no demand for load 5"):
            build_instance(snap, MissionWeightSet(1, {1: 5.0, 5: 5.0}), fleet)

    def test_id_mismatch_is_configuration_error(self):
        fleet = self.fleet()
        model = FleetModel.of_fleet(fleet, MissionWeightSet(1, {1: 5.0, 5: 5.0}), ())
        snap = self.snapshot(fleet, [1.0, 0.5], 60 * MW, 0.0)
        assert model.instance(snap, ()).caps == [1.0, 0.5]
        for changed in (dict(load_ids=(5, 1)), dict(load_ids=(1,), demands=(1.0,)),
                        dict(demands=(1.0,))):
            with pytest.raises(ConfigurationError):
                model.instance(replace(snap, **changed), ())


class TestPreparedMemo:
    """A model keeps the search data of the last caps and zone limits."""

    def test_equal_caps_and_limits_share_one(self):
        fleet = (LoadSpec(1, "A", LoadGroup.ACLC_VITAL, 10 * MW, Variability.binary(), "Z1"),
                 LoadSpec(5, "B", LoadGroup.PMM, 20 * MW, Variability.continuous()))
        zones = (ZoneLimit("Z1", 8 * MW, (1,)),)
        model = FleetModel.of_fleet(fleet, MissionWeightSet(1, {1: 5.0, 5: 5.0}), zones)
        first = model.prepared([1.0, 0.5], (8 * MW,))
        assert model.prepared([1.0, 0.5], [8 * MW]) is first
        changed = model.prepared([1.0, 0.25], (8 * MW,))
        assert changed is not first
        assert model.prepared([1.0, 0.25], (9 * MW,)) is not changed

    @pytest.mark.parametrize("seed", range(20))
    def test_one_model_across_budgets_gives_the_fresh_plans(self, seed):
        inst = random_instance(seed + 700, max_discrete=10)
        entries = inst.entries
        model = FleetModel([(e.load_id, e.weight, e.rated_power_w, e.variability, e.zone)
                            for e in entries], inst.zone_limits)
        caps = [e.status_cap for e in entries]
        limits = [zl.limit_w for zl in inst.zone_limits]
        total = sum(c * e.rated_power_w for c, e in zip(caps, entries))
        for share in (0.3, 0.9, 0.5, 1.5, 0.3):
            shared = solve(ModelInstance(model, caps, share * total, limits), None)
            fresh = solve(replace(inst, capacity_budget_w=share * total), None)
            assert (shared.statuses, shared.objective) == (fresh.statuses, fresh.objective)


class TestProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_capacity_monotonicity(self, seed):
        inst = random_instance(seed + 500, max_discrete=12)
        lower = solve(inst, deadline_s=None)
        bigger = ShedInstance(inst.entries, inst.capacity_budget_w * 1.3 + MW,
                              inst.zone_limits)
        higher = solve(bigger, deadline_s=None)
        assert higher.objective >= lower.objective - 1e-9

    @pytest.mark.parametrize("seed,c", [(1, 3.0), (2, 0.25), (3, 17.0)])
    def test_weight_scaling_keeps_the_plan(self, seed, c):
        inst = random_instance(seed + 700, max_discrete=12)
        base = solve(inst, deadline_s=None)
        scaled_entries = tuple(replace(e, weight=e.weight * c) for e in inst.entries)
        scaled = solve(ShedInstance(scaled_entries, inst.capacity_budget_w,
                                    inst.zone_limits), deadline_s=None)
        assert scaled.statuses == base.statuses
        assert scaled.objective == pytest.approx(base.objective * c, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_saturation_when_budget_covers_everything(self, seed):
        inst = random_instance(seed + 900, max_discrete=12, allow_zones=False,
                               allow_forced=False)
        total = sum(e.status_cap * e.rated_power_w for e in inst.entries)
        rich = ShedInstance(inst.entries, total * 1.01 + 1.0, ())
        plan = solve(rich, deadline_s=None)
        for e in inst.entries:
            assert plan.statuses[e.load_id] == pytest.approx(e.status_cap, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_shortfall_absorbed_by_pmm_not_vital_loads(self, seed):
        # Table-style weights: equal vital/PMM weight, PMM rated far larger.
        rng = random.Random(seed)
        entries = []
        lid = 1
        for _ in range(rng.randint(4, 10)):
            entries.append(binary_entry(lid, 5.0, rng.uniform(0.5, 2.0) * MW))
            lid += 1
        pmm_ids = []
        for _ in range(rng.randint(2, 4)):
            entries.append(cont_entry(lid, 5.0, rng.uniform(12.0, 20.0) * MW,
                                      demand=rng.uniform(0.6, 1.0)))
            pmm_ids.append(lid)
            lid += 1
        demand_total = sum(e.status_cap * e.rated_power_w for e in entries)
        pmm_demand = sum(e.status_cap * e.rated_power_w for e in entries
                         if e.load_id in pmm_ids)
        shortfall = rng.uniform(0.05, 0.9) * min(pmm_demand, demand_total) * 0.9
        inst = ShedInstance(tuple(entries), demand_total - shortfall, ())
        plan = solve(inst, deadline_s=None)
        for e in inst.entries:
            if e.load_id not in pmm_ids:
                assert plan.statuses[e.load_id] == e.status_cap, "vital load was shed"
        assert plan.served_power_w == pytest.approx(inst.capacity_budget_w, rel=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_every_plan_is_feasible(self, seed):
        inst = random_instance(seed + 2000)
        assert plan_violations(inst, solve(inst, deadline_s=None)) == []


class TestDeepSearch:
    """The search keeps one level per branch load without recursing, so a
    fleet deeper than the interpreter's recursion limit solves to optimality."""

    @pytest.mark.parametrize("zoned", [False, True], ids=["no-zone", "one-zone"])
    def test_1500_binary_loads(self, zoned):
        n = 1500
        zone = "Z1" if zoned else None
        entries = tuple(binary_entry(i + 1, 2 - i / n, MW, zone=zone) for i in range(n))
        limits = (ZoneLimit("Z1", 1100 * MW, tuple(e.load_id for e in entries)),) if zoned else ()
        inst = ShedInstance(entries, 1000 * MW, limits)
        plan = solve(inst, None)
        assert plan.optimal
        assert plan.objective == math.fsum(e.weight for e in entries[:1000])
        assert plan_violations(inst, plan) == []


class TestTieBreak:
    def test_equal_loads_prefer_lower_id_at_higher_status(self):
        inst = ShedInstance(
            (binary_entry(2, 5.0, 10 * MW), binary_entry(1, 5.0, 10 * MW)),
            10 * MW,
        )
        fast = solve(inst)
        oracle = brute_force_solve(inst)
        assert fast.statuses == oracle.statuses == {1: 1.0, 2: 0.0}

    def test_zero_weight_load_still_served_for_power(self):
        # equal objective either way; greater served power wins the tie
        inst = ShedInstance(
            (binary_entry(1, 0.0, 10 * MW), binary_entry(2, 5.0, 10 * MW)),
            25 * MW,
        )
        fast = solve(inst)
        oracle = brute_force_solve(inst)
        assert fast.statuses == oracle.statuses == {1: 1.0, 2: 1.0}

    def test_continuous_tie_spreads_to_lowest_id_first(self):
        inst = ShedInstance(
            (cont_entry(3, 5.0, 10 * MW), cont_entry(2, 5.0, 10 * MW)),
            10 * MW,
        )
        plan = solve(inst)
        assert plan.statuses == {2: 1.0, 3: 0.0}


class TestDeadline:
    def test_expiry_returns_feasible_incumbent(self):
        # equal weight density everywhere keeps the relaxation bound tight, so
        # the search cannot prune and must run into the deadline
        rng = random.Random(4)
        powers = [rng.uniform(1.0, 3.0) * MW for _ in range(35)]
        entries = tuple(
            binary_entry(i + 1, p / MW, p) for i, p in enumerate(powers)
        )
        budget = sum(powers) * 0.5
        inst = ShedInstance(entries, budget)
        plan = solve(inst, deadline_s=1e-4)
        assert not plan.optimal
        assert plan_violations(inst, plan) == []

    def test_deadline_is_checked_at_every_node(self, monkeypatch):
        # a clock that advances 1 ms per read. The first dive (11 nodes, one
        # read each after the start) always completes; a 5 ms deadline must
        # then stop the search at the next node, well short of its 21 nodes.
        reads = []

        def clock():
            reads.append(None)
            return len(reads) * 1e-3

        monkeypatch.setattr("loadshed.optimizer.time.perf_counter", clock)
        inst = ShedInstance(tuple(binary_entry(i, 5.0, MW) for i in range(1, 11)), 20 * MW)
        plan = solve(inst, deadline_s=5e-3)
        assert not plan.optimal
        assert len(reads) <= 14  # start, 11 dive nodes, the stopping node, the end
        assert plan_violations(inst, plan) == []

    def test_one_clock_read_per_node(self, monkeypatch):
        # every load fits: the first dive inherits the root's bound down all
        # 10 levels (11 nodes), then each level's sibling is pruned on its
        # resumed bound (10 nodes); each node reads the clock once
        reads = []

        def clock():
            reads.append(None)
            return 0.0

        monkeypatch.setattr("loadshed.optimizer.time.perf_counter", clock)
        inst = ShedInstance(tuple(binary_entry(i, 5.0, MW) for i in range(1, 11)), 20 * MW)
        assert solve(inst, deadline_s=None).optimal
        assert len(reads) == 2 + 21  # the start and end reads, and 21 nodes

    def test_solve_time_is_recorded(self):
        inst = random_instance(11, max_discrete=10)
        plan = solve(inst, deadline_s=None)
        assert plan.solve_time_s > 0.0
