import math
import random
import sys
from dataclasses import replace

import pytest

from _helpers import MW, assert_plans_agree, counting, model_instance, random_instance
from _oracle import InstanceTooLargeError, brute_force_solve
from loadshed import optimizer
from loadshed.controller import AdvancedController, ControllerConfig, MissionDatabase
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
    ModelInstance,
    ShedPlan,
    plan_violations,
    solve,
)


def binary_row(lid, weight, power_w, demand=1.0, zone=None):
    return (lid, weight, power_w, demand, Variability.binary(), zone)


def cont_row(lid, weight, power_w, demand=1.0, zone=None):
    return (lid, weight, power_w, demand, Variability.continuous(), zone)


def reweighted(inst: ModelInstance, weight=lambda k, w: w, rated=lambda k, r: r) -> ModelInstance:
    """``inst`` with the weight w of the load at model position k replaced
    by ``weight(k, w)`` and its rating r by ``rated(k, r)``: the same loads
    and zones, each zone named by its index."""
    m = inst.model
    zones = [ZoneLimit(str(zi), limit, tuple(lid for lid, z in zip(m.ids, m.zone_of) if z == zi))
             for zi, limit in enumerate(inst.zone_limits_w)]
    loads = [(lid, weight(k, w), rated(k, r), v, str(z)) for k, (lid, w, r, v, z)
             in enumerate(zip(m.ids, m.weight, m.rated, m.variability, m.zone_of))]
    return replace(inst, model=FleetModel(loads, zones))


class TestSolveExamples:
    def test_binary_knapsack(self):
        inst = model_instance(
            (binary_row(1, 8, 10 * MW), binary_row(2, 5, 20 * MW),
             binary_row(3, 2.5, 5 * MW)),
            25 * MW,
        )
        plan = solve(inst)
        assert plan.statuses == {1: 1.0, 2: 0.0, 3: 1.0}
        assert plan.objective == pytest.approx(10.5)
        assert plan.optimal

    def test_unconstrained_serves_every_demand(self):
        inst = model_instance(
            (binary_row(1, 8, 10 * MW), binary_row(2, 5, 20 * MW),
             cont_row(3, 2.5, 5 * MW, demand=0.8)),
            100 * MW,
        )
        plan = solve(inst)
        assert plan.statuses == {1: 1.0, 2: 1.0, 3: 0.8}
        assert plan.objective == pytest.approx(8 + 5 + 2.5 * 0.8)

    def test_failed_load_excluded(self):
        inst = model_instance(
            (binary_row(1, 8, 10 * MW, demand=0.0), binary_row(2, 5, 20 * MW),
             binary_row(3, 2.5, 5 * MW)),
            25 * MW,
        )
        plan = solve(inst)
        assert plan.statuses == {1: 0.0, 2: 1.0, 3: 1.0}
        assert plan.objective == pytest.approx(7.5)

    def test_continuous_fill_after_binary(self):
        inst = model_instance(
            (binary_row(1, 8, 10 * MW), cont_row(2, 5, 20 * MW)),
            20 * MW,
        )
        plan = solve(inst)
        assert plan.statuses[1] == 1.0
        assert plan.statuses[2] == pytest.approx(0.5)
        assert plan.objective == pytest.approx(10.5)

    def test_stepped_one_of_k(self):
        stepped = (1, 6.0, 10 * MW, 1.0, Variability.stepped([0.25, 0.5, 1.0]), None)
        inst = model_instance((stepped, binary_row(2, 5, 4 * MW)), 9 * MW)
        plan = solve(inst)
        # serving the binary (5) plus the 0.5 step (3) beats the 1.0 step alone (6)
        assert plan.statuses == {1: 0.5, 2: 1.0}
        assert plan.objective == pytest.approx(8.0)

    def test_zone_limit_binds(self):
        inst = model_instance(
            (binary_row(1, 5, 10 * MW, zone="Z1"), binary_row(2, 4, 10 * MW, zone="Z1"),
             binary_row(3, 1, 10 * MW)),
            100 * MW,
            (ZoneLimit("Z1", 10 * MW, (1, 2)),),
        )
        plan = solve(inst)
        assert plan.statuses == {1: 1.0, 2: 0.0, 3: 1.0}

    def test_single_binary_too_big_for_budget(self):
        inst = model_instance((binary_row(1, 5, 10 * MW),), 9 * MW)
        assert solve(inst).statuses == {1: 0.0}


class TestBruteForce:
    def test_empty_instance(self):
        plan = brute_force_solve(model_instance((), 10 * MW))
        assert plan.statuses == {} and plan.objective == 0.0

    def test_single_infeasible_binary(self):
        plan = brute_force_solve(model_instance((binary_row(1, 5, 10 * MW),), 9 * MW))
        assert plan.statuses == {1: 0.0}

    def test_size_guard_on_combinations(self):
        rows = tuple(binary_row(i, 1.0, MW) for i in range(1, 27))
        with pytest.raises(InstanceTooLargeError):
            brute_force_solve(model_instance(rows, 5 * MW))

    def test_size_guard_on_continuous(self):
        rows = tuple(cont_row(i, 1.0, MW) for i in range(1, 7))
        with pytest.raises(InstanceTooLargeError):
            brute_force_solve(model_instance(rows, 5 * MW))

    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_solve_on_random_instances(self, seed):
        inst = random_instance(seed, max_discrete=14)
        fast = solve(inst, deadline_s=None)
        oracle = brute_force_solve(inst)
        assert fast.optimal
        assert_plans_agree(inst, fast, oracle)
        assert plan_violations(inst, fast) == []
        assert plan_violations(inst, oracle) == []


def tied_zoned_instance(seed: int) -> ModelInstance:
    """Fleet-shaped instance: group weights 2.5/5/8 on a few ratings, so many
    densities tie; 1-2 zones whose limits bind; continuous loads whose density
    falls between the branch items'; stepped loads whose demand caps their
    top level."""
    rng = random.Random(f"tied/{seed}")
    zones = [f"Z{z + 1}" for z in range(rng.randint(1, 2))]
    rows = []
    for lid in range(1, rng.randint(9, 12) + 1):
        weight = rng.choice((2.5, 5.0, 8.0))
        rated = rng.choice((0.5, 1.0, 2.0)) * MW
        zone = rng.choice(zones + [None])
        if rng.random() < 0.25:
            demand = rng.choice((0.5, 0.75, 1.0))
            var = Variability.stepped([0.25, 0.5, 1.0])
            rows.append((lid, weight, rated, demand, var, zone))
        else:
            rows.append(binary_row(lid, weight, rated, zone=zone))
    # densities 2.5/1.5, 5/1.5 and 8/3 W^-1 MW lie between the branch densities
    for lid in range(len(rows) + 1, len(rows) + rng.randint(1, 3) + 1):
        weight, rated = rng.choice(((2.5, 1.5), (5.0, 1.5), (8.0, 3.0)))
        rows.append(cont_row(lid, weight, rated * MW, demand=rng.uniform(0.4, 1.0),
                             zone=rng.choice(zones + [None])))
    limits = []
    for z in zones:
        members = tuple(row[0] for row in rows if row[5] == z)
        zone_w = sum(d * r for _, _, r, d, _, zone in rows if zone == z)
        if members:
            limits.append(ZoneLimit(z, rng.uniform(0.3, 0.7) * zone_w, members))
    total = sum(d * r for _, _, r, d, _, _ in rows)
    return model_instance(tuple(rows), rng.uniform(0.4, 0.8) * total, tuple(limits))


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
        rows = (
            (1, 6.0, 4 * MW, demand, stepped, None),
            (2, 5.0, 3 * MW, demand, Variability.binary(), None),
            (3, 4.0, 2 * MW, demand, stepped, "Z1"),
            binary_row(4, 3.0, 2 * MW, zone="Z1"),
            binary_row(5, 2.0, 1 * MW),
            cont_row(6, 1.0, 2 * MW, demand=0.7),
        )
        total = sum(d * r for _, _, r, d, _, _ in rows)
        zones = (ZoneLimit("Z1", 3.5 * MW, (3, 4)),)
        return model_instance(rows, budget_share * total, zones)

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
            for lid, variability, cap in zip(inst.model.ids[:2], inst.model.variability,
                                             inst.caps):
                assert fast.statuses[lid] == max(variability.discrete_statuses(cap))
            assert (fast.statuses[1] == level) == (offset <= STATUS_TOL)


def chain_instance(seed: int) -> ModelInstance:
    """Binary, stepped and continuous loads, 0-3 zones whose limits bind or
    not, and a budget from tight to ample, so that chain siblings meet every
    way the root relaxation's fill can end."""
    rng = random.Random(f"chain/{seed}")
    zones = [f"Z{z + 1}" for z in range(rng.randint(0, 3))]
    rows = []
    for lid in range(1, rng.randint(6, 14) + 1):
        zone = rng.choice(zones + [None])
        weight, rated = rng.uniform(0.5, 10.0), rng.uniform(0.5, 4.0) * MW
        if rng.random() < 0.2:
            rows.append(cont_row(lid, weight, rated, rng.uniform(0.3, 1.0), zone))
        elif rng.random() < 0.2:
            var = Variability.stepped([0.25, 0.5, 1.0])
            rows.append((lid, weight, rated, 1.0, var, zone))
        else:
            rows.append(binary_row(lid, weight, rated, zone=zone))
    limits = []
    for z in zones:
        members = tuple(row[0] for row in rows if row[5] == z)
        zone_w = sum(d * r for _, _, r, d, _, zone in rows if zone == z)
        if members:
            limits.append(ZoneLimit(z, rng.uniform(0.2, 1.2) * zone_w, members))
    total = sum(d * r for _, _, r, d, _, _ in rows)
    return model_instance(tuple(rows), rng.uniform(0.3, 1.2) * total, tuple(limits))


def tied_density_instance(seed: int) -> ModelInstance:
    """Binary, stepped and continuous loads whose densities take one of three
    values, exactly (each weight is a whole multiple of its rating in MW), so
    a branch item often ties the item where the root relaxation's fill is
    cut: a chain sibling whose ceiling ties the plan's objective, which
    ``solve`` searches rather than prunes."""
    rng = random.Random(f"tied-density/{seed}")
    zones = [f"Z{z + 1}" for z in range(rng.randint(0, 2))]
    rows = []
    for lid in range(1, rng.randint(4, 10) + 1):
        zone = rng.choice(zones + [None, None])
        m = rng.randint(1, 4)
        weight, rated = rng.choice((1.0, 2.0, 3.0)) * m, m * MW
        kind = rng.random()
        if kind < 0.3:
            rows.append(cont_row(lid, weight, rated, rng.choice((1.0, 0.5)), zone))
        elif kind < 0.45:
            rows.append((lid, weight, rated, 1.0, Variability.stepped([0.5, 1.0]), zone))
        else:
            rows.append(binary_row(lid, weight, rated, zone=zone))
    limits = []
    for z in zones:
        members = tuple(row[0] for row in rows if row[5] == z)
        zone_w = sum(d * r for _, _, r, d, _, zone in rows if zone == z)
        if members:
            limits.append(ZoneLimit(z, rng.uniform(0.5, 1.2) * zone_w, members))
    total = sum(d * r for _, _, r, d, _, _ in rows)
    return model_instance(tuple(rows), rng.uniform(0.3, 1.1) * total, tuple(limits))


def signed_instance(seed: int) -> ModelInstance:
    # weights validation refuses but a direct caller may pass: fills meet
    # items of negative density, and a freed watt may earn less than 0
    return reweighted(chain_instance(seed), lambda k, w: -w if k % 3 == 1 else w)


def chain_ceilings(inst: ModelInstance):
    """Each sibling of the root relaxation's chain: the ceiling ``solve``
    checks it against, the slack it allows that check, and the sibling's
    bound, filled from scratch as ``solve`` fills it. The chain gives the
    first ``whole`` branch items the top status the root relaxation took
    whole; a sibling gives the last of them a lower status."""
    prep = inst.model.prepared(inst.caps, inst.zone_limits_w)
    budget, cuts = inst.capacity_budget_w, {}
    root, whole = prep.relax_bound(0, budget, 0.0, list(prep.zone_limits), cuts)
    rates = prep.resume_rates(cuts)
    rem, obj, zrem = budget, 0.0, list(prep.zone_limits)
    for level in range(whole):
        i, weight, rated, zi, downward, top = prep.steps[level]
        for status in downward[1:]:
            room = list(zrem)
            if zi >= 0:
                room[zi] -= status * rated
            bound, _ = prep.relax_bound(level + 1, rem - status * rated,
                                        obj + weight * status, room)
            ceiling = root - (top - status) * rated * (inst.model.density[i] - rates[zi])
            yield ceiling, inst.model.ceiling_slack, bound
        rem -= top * rated
        obj += weight * top
        if zi >= 0:
            zrem[zi] -= top * rated


def count_fills(monkeypatch) -> list:
    """Patch ``_Prepared.relax_bound`` to append to the list it returns."""
    calls = []
    relax_bound = optimizer._Prepared.relax_bound

    def counted(prep, *args):
        calls.append(args)
        return relax_bound(prep, *args)

    monkeypatch.setattr(optimizer._Prepared, "relax_bound", counted)
    return calls


class TestResumeCeiling:
    """Before it fills a chain sibling's relaxation, ``solve`` checks an O(1)
    ceiling on the bound that fill would give: the root bound less the freed
    power times the density the load gives up over the best density left
    where the root fill first fell short for lack of that power's room."""

    # margins: how many plans at least have a finite margin over one ceiling;
    # searched: how many of those have a highest ceiling that ``solve`` could
    # not prune (within the tie tolerance and slack of the objective), so the
    # margin must count a sibling the search filled
    @pytest.mark.parametrize("family, margins, searched", [
        (lambda seed: random_instance(seed, max_discrete=14), 2, 0),
        (tied_zoned_instance, 0, 0),
        (chain_instance, 20, 0),
        (tied_density_instance, 20, 5),
        (signed_instance, 0, 0),
    ], ids=["random", "tied-zoned", "chain", "tied-density", "signed"])
    def test_bounds_every_sibling_bound(self, family, margins, searched):
        checked = finite = unpruned = 0
        for seed in range(300):
            inst = family(seed)
            ceilings = []
            for ceiling, slack, bound in chain_ceilings(inst):
                assert ceiling + slack >= bound, f"seed {seed}: {ceiling} < {bound}"
                ceilings.append(ceiling)
                checked += 1
            if not inst.model.fill_monotone:  # solve refuses the signed family
                continue
            # the optimal plan's margin is the objective less the highest of
            # those ceilings and the slack, bit for bit, where the root
            # relaxation took every branch item whole and the plan is all-top
            plan = solve(inst, None)
            prep = plan.leaf.prep
            _, whole = prep.relax_bound(0, inst.capacity_budget_w, 0.0, list(prep.zone_limits))
            if whole == len(prep.steps) and all(
                    plan.leaf.statuses[i] == top for i, _, _, _, _, top in prep.steps):
                highest = max(ceilings, default=-math.inf)
                expected = plan.objective - highest - inst.model.ceiling_slack
                finite += bool(ceilings)
                unpruned += highest >= (plan.objective - optimizer._tie_tol(plan.objective)
                                        - inst.model.ceiling_slack)
            else:
                expected = -math.inf
            assert plan.leaf.margin.hex() == expected.hex(), f"seed {seed}"
        assert checked >= 300, f"only {checked} siblings"
        assert finite >= margins, f"only {finite} finite margins"
        assert unpruned >= searched, f"only {unpruned} margins over a searched sibling"

    def test_prunes_every_sibling_when_every_load_fits(self, monkeypatch):
        # test_one_clock_read_per_node's instance: the fill ends uncut, so a
        # freed watt earns nothing and each sibling's ceiling is the root
        # bound less the lowered load's weight, below the greedy plan's value:
        # the root's is the only fill
        calls = count_fills(monkeypatch)
        inst = model_instance(tuple(binary_row(i, 5.0, MW) for i in range(1, 11)), 20 * MW)
        assert solve(inst, deadline_s=None).optimal
        assert len(calls) == 1

    def test_tied_density_falls_back_to_the_siblings_fill(self, monkeypatch):
        # every load earns 1 per MW, and the budget cuts load 3: a watt freed
        # by lowering load 1 or 2 earns what it gave up, so the ceiling stays
        # at the root bound 2.5, above the greedy plan's 2, and the sibling's
        # own fill decides (bound 2, a tie, so the sibling is searched)
        calls = count_fills(monkeypatch)
        inst = model_instance(tuple(binary_row(i, 1.0, MW) for i in (1, 2, 3)), 2.5 * MW)
        fast = solve(inst, deadline_s=None)
        assert len(calls) > 1
        assert fast.optimal
        assert_plans_agree(inst, fast, brute_force_solve(inst))


class TestContinuousFillAgainstLinprog:
    """Independent check of the greedy density fill with an LP solver."""

    @pytest.mark.parametrize("seed", range(60))
    def test_pure_continuous_instances(self, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(9000 + seed)
        n = rng.randint(1, 6)
        zone_names = ["Z1", "Z2"][: rng.randint(0, 2)]
        rows = []
        for lid in range(1, n + 1):
            zone = rng.choice(zone_names) if zone_names and rng.random() < 0.6 else None
            rows.append(
                cont_row(lid, rng.uniform(0.5, 10.0), rng.uniform(1.0, 40.0) * MW,
                         demand=rng.uniform(0.1, 1.0), zone=zone)
            )
        total = sum(d * r for _, _, r, d, _, _ in rows)
        zones = []
        for zn in zone_names:
            members = tuple(row[0] for row in rows if row[5] == zn)
            if members:
                zones.append(ZoneLimit(zn, rng.uniform(0.1, 1.0) * total, members))
        inst = model_instance(tuple(rows), rng.uniform(0.0, total), tuple(zones))

        plan = solve(inst, deadline_s=None)

        model = inst.model
        c = [-w for w in model.weight]
        bounds = [(0.0, cap) for cap in inst.caps]
        a_ub = [list(model.rated)]
        b_ub = [inst.capacity_budget_w]
        for zi, limit in enumerate(inst.zone_limits_w):
            a_ub.append([r if z == zi else 0.0 for r, z in zip(model.rated, model.zone_of)])
            b_ub.append(limit)
        lp = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert lp.status == 0
        assert plan.objective == pytest.approx(-lp.fun, rel=1e-7, abs=1e-7)


class TestBuildInstance:
    """A tick's problem: the fleet's model under a weight set, then its caps
    and budget from a snapshot."""

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
        model = FleetModel.of_fleet(fleet, MissionWeightSet(1, {1: 5.0, 5: 5.0}), ())
        assert model.instance(snap, ()).capacity_budget_w == pytest.approx(58.8 * MW)

    def test_zero_demand_gives_zero_required_power(self):
        fleet = self.fleet()
        snap = self.snapshot(fleet, [0.0, 0.0], 60 * MW, 0.0)
        model = FleetModel.of_fleet(fleet, MissionWeightSet(1, {1: 5.0, 5: 5.0}), ())
        assert model.instance(snap, ()).caps == [0.0, 0.0]

    def test_missing_weight_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="no weight for load 5"):
            FleetModel.of_fleet(self.fleet(), MissionWeightSet(1, {1: 5.0}), ())

    def test_missing_demand_is_configuration_error(self):
        fleet = self.fleet()
        snap = self.snapshot(fleet[:1], [1.0], 60 * MW, 0.0)
        model = FleetModel.of_fleet(fleet, MissionWeightSet(1, {1: 5.0, 5: 5.0}), ())
        with pytest.raises(ConfigurationError, match="do not list the fleet's loads"):
            model.instance(snap, ())

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

    def test_the_very_caps_and_limits_are_not_compared(self):
        # asked again for the objects of the last call, the model reads none of
        # their items; new objects of equal values are compared by value
        fleet = (LoadSpec(1, "A", LoadGroup.ACLC_VITAL, 10 * MW, Variability.binary(), "Z1"),
                 LoadSpec(5, "B", LoadGroup.PMM, 20 * MW, Variability.continuous()))
        zones = (ZoneLimit("Z1", 8 * MW, (1,)),)
        model = FleetModel.of_fleet(fleet, MissionWeightSet(1, {1: 5.0, 5: 5.0}), zones)
        Caps, Limits = counting(list), counting(tuple)
        caps, limits = Caps([1.0, 0.5]), Limits((8 * MW,))
        first = model.prepared(caps, limits)
        Caps.reads = Limits.reads = 0
        assert model.prepared(caps, limits) is first
        assert Caps.reads == Limits.reads == 0
        assert model.prepared([1.0, 0.5], [8 * MW]) is first
        assert model.prepared(caps, limits) is first
        assert Caps.reads > 0 and Limits.reads > 0  # the last call's objects were others

    @pytest.mark.parametrize("seed", range(20))
    def test_one_model_across_budgets_gives_the_fresh_plans(self, seed):
        inst = random_instance(seed + 700, max_discrete=10)
        total = sum(c * r for c, r in zip(inst.caps, inst.model.rated))
        for share in (0.3, 0.9, 0.5, 1.5, 0.3):
            shared = solve(replace(inst, capacity_budget_w=share * total), None)
            # a fresh model, with no search data kept from an earlier budget
            fresh_inst = random_instance(seed + 700, max_discrete=10)
            fresh = solve(replace(fresh_inst, capacity_budget_w=share * total), None)
            assert (shared.statuses, shared.objective) == (fresh.statuses, fresh.objective)


def stepped_zoned_instance(seed: int) -> ModelInstance:
    """Stepped and continuous loads, most of them in one of 1-3 zones whose
    limits bind, some stepped loads capped below their top level, and a
    budget from tight to ample."""
    rng = random.Random(f"stepped-zoned/{seed}")
    zones = [f"Z{z + 1}" for z in range(rng.randint(1, 3))]
    rows = []
    for lid in range(1, rng.randint(6, 12) + 1):
        zone = rng.choice(zones + zones + [None])
        weight, rated = rng.uniform(0.5, 10.0), rng.uniform(0.5, 4.0) * MW
        if rng.random() < 0.35:
            rows.append(cont_row(lid, weight, rated, rng.uniform(0.3, 1.0), zone))
        else:
            levels = sorted(rng.sample((0.2, 0.4, 0.5, 0.6, 0.8), rng.randint(1, 3))) + [1.0]
            demand = rng.choice((1.0, rng.uniform(0.3, 1.0)))
            rows.append((lid, weight, rated, demand, Variability.stepped(levels), zone))
    limits = []
    for z in zones:
        members = tuple(row[0] for row in rows if row[5] == z)
        zone_w = sum(d * r for _, _, r, d, _, zone in rows if zone == z)
        if members:
            limits.append(ZoneLimit(z, rng.uniform(0.3, 0.9) * zone_w, members))
    total = sum(d * r for _, _, r, d, _, _ in rows)
    return model_instance(tuple(rows), rng.uniform(0.3, 1.1) * total, tuple(limits))


class TestBudgetCertificate:
    """The advanced controller keeps its last plan's branch statuses, with no
    solve, while the plan was proven optimal, the caps and zone limits are
    unchanged and the leaf ``solve`` returned certifies a fill: at the plan's own
    budget, or within the radius of the plan's margin where its branch loads
    fit the tick's budget. A kept tick's intent must be the plan an unbounded
    fresh ``solve`` gives. ``solve`` refuses a load that weighs negative."""

    FAMILIES = [
        lambda seed: random_instance(seed, max_discrete=14),
        tied_zoned_instance,
        chain_instance,
        stepped_zoned_instance,
    ]
    IDS = ["random", "tied-zoned", "chain", "stepped-zoned"]

    @staticmethod
    def controller(inst: ModelInstance):
        """An advanced controller over ``inst``'s loads, weights and zones, and
        a function from a budget to the snapshot that gives it ``inst`` there."""
        m = inst.model
        zone_names = [None if z < 0 else str(z) for z in m.zone_of]
        fleet = [LoadSpec(lid, f"L{lid}", LoadGroup.ACLC_VITAL, r, v, z)
                 for lid, r, v, z in zip(m.ids, m.rated, m.variability, zone_names)]
        zones = [ZoneLimit(str(zi), limit, tuple(lid for lid, z in zip(m.ids, m.zone_of)
                                                 if z == zi) or (m.ids[0],))
                 for zi, limit in enumerate(inst.zone_limits_w)]
        db = MissionDatabase(fleet, 1, [MissionWeightSet(1, dict(zip(m.ids, m.weight)))], zones)
        ctrl = AdvancedController(fleet, db, ControllerConfig(solve_deadline_s=60.0))
        measured = tuple(c * r for c, r in zip(inst.caps, m.rated))

        def snapshot(budget_w):
            return SystemSnapshot(0.0, 1, m.ids, tuple(inst.caps), measured, budget_w, 0.0, 0.5)

        return ctrl, snapshot

    @staticmethod
    def radius(plan: ShedPlan) -> float:
        """How far from its solved budget the margin of ``plan`` keeps its
        leaf: the margin over the densest item's density."""
        margin, d_max = plan.leaf.margin, plan.leaf.prep.d_max
        if margin <= 0.0:
            return 0.0
        return margin / d_max if d_max > 0.0 else math.inf

    @staticmethod
    def budgets(budget_w: float, plan: ShedPlan, radius: float) -> list[float]:
        """Around the plan's budget B0, in this order: one ulp below and above;
        half the radius below and above (a tenth of B0 where the radius is 0 or
        infinite); half the plan's slack below, exactly its served power and
        one ulp under that; B0 again; then 1.5 times the radius above and
        below, outside it. None is negative."""
        served = plan.served_power_w
        r = radius if 0.0 < radius < math.inf else 0.1 * budget_w
        return [max(0.0, b) for b in (
            math.nextafter(budget_w, -math.inf), math.nextafter(budget_w, math.inf),
            budget_w - r / 2, budget_w + r / 2, budget_w - (budget_w - served) / 2,
            served, math.nextafter(served, -math.inf), budget_w,
            budget_w + 1.5 * r, budget_w - 1.5 * r)]

    @pytest.mark.parametrize("family", FAMILIES, ids=IDS)
    def test_every_plan_replays_at_its_own_budget(self, family):
        # the leaf's branch powers, taken from the budget in level order, and
        # its zone rooms give ``fill`` the remainders ``solve``'s leaf filled
        for seed in range(300):
            inst = family(seed)
            leaf = solve(inst, None).leaf
            prep = leaf.prep
            rem = inst.capacity_budget_w
            for power in leaf.powers:
                rem -= power
            assert prep.fill(rem, leaf.rooms) == leaf.fill, f"seed {seed}"

    # ticks above the solved budget that only the margin keeps: on tied-zoned
    # instances a branch density ties the cut item's, which leaves no margin
    @pytest.mark.parametrize("family, margin_kept", zip(FAMILIES, (10, 0, 40, 50)), ids=IDS)
    def test_a_kept_plan_is_the_fresh_optimum(self, family, margin_kept, solves):
        repeats = above = 0
        for seed in range(300):
            inst = family(seed)
            ctrl, snapshot = self.controller(inst)
            ctrl.on_telemetry(snapshot(inst.capacity_budget_w))
            plan = ctrl.last_plan
            assert plan.optimal
            solved_at = inst.capacity_budget_w
            for budget_w in self.budgets(solved_at, plan, self.radius(plan)):
                before = len(solves)
                ctrl.on_telemetry(snapshot(budget_w))
                fresh = solve(replace(inst, capacity_budget_w=budget_w), None)
                assert ctrl.intent == tuple(fresh.statuses[lid] for lid in inst.model.ids), (
                    f"seed {seed}, budget {budget_w!r}")
                if len(solves) > before:
                    solved_at = budget_w
                else:
                    repeats += budget_w == solved_at
                    above += budget_w > solved_at  # only the margin keeps a plan there
        assert repeats >= 100, f"only {repeats} kept ticks at the solved budget"
        assert above >= margin_kept, f"only {above} kept ticks above the solved budget"

    # zeros: how many demands at least are given as -0.0 (only the random
    # family has failed loads)
    @pytest.mark.parametrize("family, zeros", zip(FAMILIES, (1000, 0, 0, 0)), ids=IDS)
    def test_one_demand_tuple_keeps_the_fresh_optimum(self, family, zeros, solves):
        # the budgets above, first with one demand tuple shared by every tick
        # (the model reuses its caps and search data with no comparison), then
        # each with a new tuple of equal values, every zero given as -0.0
        # (clamped again and compared by value)
        kept, negated = [0, 0], 0
        for seed in range(150):
            inst = family(seed)
            ctrl, snapshot = self.controller(inst)
            shared = tuple(inst.caps)
            ctrl.on_telemetry(replace(snapshot(inst.capacity_budget_w), demands=shared))
            plan = ctrl.last_plan
            budgets = self.budgets(inst.capacity_budget_w, plan, self.radius(plan))
            for copied in (False, True):
                for budget_w in budgets:
                    demands = shared
                    if copied:
                        demands = tuple(-0.0 if d == 0.0 else d for d in shared)
                        negated += sum(math.copysign(1.0, d) < 0.0 for d in demands)
                    before = len(solves)
                    ctrl.on_telemetry(replace(snapshot(budget_w), demands=demands))
                    fresh = solve(replace(inst, capacity_budget_w=budget_w), None)
                    assert ctrl.intent == tuple(fresh.statuses[lid] for lid in inst.model.ids), (
                        f"seed {seed}, budget {budget_w!r}, copied {copied}")
                    kept[copied] += len(solves) == before
        assert min(kept) >= 50, f"kept ticks (shared, copied): {kept}"
        assert negated >= zeros, f"only {negated} demands given as -0.0"

    def test_a_negative_continuous_weight_keeps_no_plan(self, solves):
        # no plan to keep: the first tick is refused, and nothing is solved
        negative = 0
        for seed in range(300):
            inst = signed_instance(seed)
            if inst.model.fill_monotone:
                continue
            negative += 1
            ctrl, snapshot = self.controller(inst)
            with pytest.raises(ConfigurationError):
                ctrl.on_telemetry(snapshot(inst.capacity_budget_w))
            assert ctrl.last_plan is None, f"seed {seed}"
        assert not solves
        assert negative >= 50, f"only {negative} instances weigh a load negative"

    def test_a_higher_budget_is_solved_again(self, solves):
        # at 3 MW load 2 (5 MW) does not fit; at 10 MW the kept plan still
        # refills to itself, but load 2 now fits and ranks first. Load 2 is
        # off, so the plan has no margin.
        inst = model_instance((binary_row(1, 10.0, 1 * MW), binary_row(2, 5.0, 5 * MW),
                               cont_row(3, 1.0, 1 * MW)), 3 * MW)
        leaf = solve(inst, None).leaf
        assert leaf.statuses == (1.0, 0.0, 1.0) and leaf.budget_w == 3 * MW
        assert leaf._replace(margin=math.inf).refill(10 * MW) == leaf.fill == [1.0]
        assert leaf.margin == -math.inf
        ctrl, snapshot = self.controller(inst)
        ctrl.on_telemetry(snapshot(3 * MW))
        assert ctrl.intent == (1.0, 0.0, 1.0)
        ctrl.on_telemetry(snapshot(10 * MW))
        assert len(solves) == 2 and ctrl.intent == (1.0, 1.0, 1.0)

    def test_replays_refuses_a_path_over_a_limit(self):
        zones = (ZoneLimit("Z1", 4 * MW, (1, 2)),)
        inst = model_instance((binary_row(1, 5.0, 3 * MW, zone="Z1"),
                               binary_row(2, 4.0, 2 * MW, zone="Z1"),
                               cont_row(3, 1.0, 2 * MW)), 6 * MW, zones)
        leaf = solve(inst, None).leaf
        assert leaf.statuses == (1.0, 0.0, 1.0) and leaf.budget_w == 6 * MW
        assert leaf.rooms == [1 * MW]  # load 1 leaves 1 MW of the 4 MW zone, at any budget
        assert leaf.refill(6 * MW) == [1.0]
        # load 2 is off, so the leaf has no margin; an infinite one exposes the walk
        assert leaf.refill(4 * MW) is None
        walked = leaf._replace(margin=math.inf)
        assert walked.refill(4 * MW) == [0.5]  # the fill is cut to 0.5
        assert walked.refill(2 * MW) is None  # load 1 alone is over budget

    def test_a_lower_budget_can_switch_on_a_negative_weight(self, solves):
        # at 21 MW load 2 would stay off (objective 9 against 8.75); that plan
        # refills unchanged at 16 MW, where load 3 can only half fill if load
        # 2 is on, which would then rank first (9.25 against 9). The search's
        # bounds do not hold with such weights, so solve refuses them
        inst = model_instance((binary_row(1, 10.0, 1 * MW), binary_row(2, -0.25, 10 * MW),
                               cont_row(3, -1.0, 10 * MW)), 21 * MW)
        assert not inst.model.fill_monotone
        with pytest.raises(ConfigurationError, match="negative"):
            solve(inst, None)
        ctrl, snapshot = self.controller(inst)
        for budget_w in (21 * MW, 16 * MW):
            with pytest.raises(ConfigurationError, match="negative"):
                ctrl.on_telemetry(snapshot(budget_w))
        assert not solves and ctrl.last_plan is None

    def test_a_fall_past_the_radius_is_solved_again(self, solves):
        # at 2 MW load 1 (density 1 per MW) is on and load 2 (density 5 per
        # MW) fills its zone's 1 MW: objective 6. Lowering load 1 frees 1 MW
        # that only the budget wanted, so the margin is 1 and the radius 0.2 MW.
        # At 1.9 MW the refilled leaf (1, 0.45) still ranks first; at 1.7 MW
        # load 2 alone (objective 5) beats it (4.5), and the tick is solved.
        zones = (ZoneLimit("Z1", 1 * MW, (2,)),)
        inst = model_instance((binary_row(1, 1.0, 1 * MW), cont_row(2, 10.0, 2 * MW, zone="Z1")),
                              2 * MW, zones)
        plan = solve(inst, None)
        assert self.radius(plan) == pytest.approx(0.2 * MW)
        ctrl, snapshot = self.controller(inst)
        ctrl.on_telemetry(snapshot(2 * MW))
        solved = ctrl.intent
        assert solved == (1.0, 0.5)
        ctrl.on_telemetry(snapshot(1.9 * MW))
        assert len(solves) == 1 and ctrl.intent == pytest.approx((1.0, 0.45))
        assert ctrl.last_plan is solves[0]
        ctrl.on_telemetry(snapshot(2.1 * MW))  # a rise: the zone keeps the fill as solved
        assert len(solves) == 1 and ctrl.intent is solved
        ctrl.on_telemetry(snapshot(1.7 * MW))
        assert len(solves) == 2 and ctrl.intent == (0.0, 0.5)

    @pytest.mark.parametrize("budget_w, toward", [(1929808.3321605793, math.inf),
                                                 (1929808.3321605772, -math.inf)])
    def test_a_density_tie_leaves_no_margin(self, budget_w, toward, solves):
        # load 4 (binary) and load 3 (continuous) both earn 2 per MW, so the
        # plan that lowers load 4 and fills load 3 instead ties this one. The
        # objective clears that sibling's ceiling only by rounding (under
        # 2e-15), and one ulp away the rounding ranks the other plan first:
        # the slack must leave the margin below 0
        inst = model_instance((cont_row(1, 1.95, 1_500_000.0), cont_row(2, 1.5, 300_000.0),
                               cont_row(3, 4.0, 2_000_000.0), binary_row(4, 2.2, 1_100_000.0)),
                              budget_w)
        plan = solve(inst, None)
        nudged = math.nextafter(budget_w, toward)
        fresh = solve(replace(inst, capacity_budget_w=nudged), None)
        assert (plan.statuses[4], fresh.statuses[4]) == (1.0, 0.0)
        ctrl, snapshot = self.controller(inst)
        ctrl.on_telemetry(snapshot(budget_w))
        ctrl.on_telemetry(snapshot(nudged))
        assert ctrl.intent == tuple(fresh.statuses.values())
        assert len(solves) == 2 and self.radius(plan) == 0.0


class TestKeptTick:
    """A tick that keeps its plan costs O(1) in the fleet size while the
    snapshot carries the very demand tuple of the last one: ``instance``
    reuses its caps, ``prepared`` its search data with no comparison, and
    ``refill`` checks integer branch powers with one exact subtraction."""

    def test_a_shared_demand_tuple_reads_no_load(self, solves):
        # binary loads of 1-3 MW, all on at 8.5 MW, and load 5 cut: the
        # margin's radius is 0.6875 MW, and each budget below lies inside it
        rows = (binary_row(1, 10.0, 1 * MW), binary_row(2, 9.0, 2 * MW),
                binary_row(3, 8.0, 3 * MW), binary_row(4, 7.0, 1 * MW),
                cont_row(5, 0.5, 4 * MW, 0.75), cont_row(6, 0.2, 2 * MW))
        inst = model_instance(rows, 8.5 * MW)
        ctrl, snapshot = TestBudgetCertificate.controller(inst)
        Demands, Powers = counting(tuple), counting(tuple)
        demands = Demands(inst.caps)
        ctrl.on_telemetry(replace(snapshot(8.5 * MW), demands=demands))
        leaf = ctrl.last_plan.leaf
        ctrl.last_plan = replace(ctrl.last_plan, leaf=leaf._replace(powers=Powers(leaf.powers)))
        Demands.reads = Powers.reads = 0
        for budget_w in (8.4 * MW, 8.7 * MW, 8.5 * MW, 7.9 * MW):
            ctrl.on_telemetry(replace(snapshot(budget_w), demands=demands))
            fresh = solve(replace(inst, capacity_budget_w=budget_w), None)
            assert ctrl.intent == tuple(fresh.statuses.values()), f"budget {budget_w!r}"
        assert len(solves) == 1
        assert (Demands.reads, Powers.reads) == (0, 0)
        assert leaf.branch_w == 7 * MW  # the refill subtracted it


class TestExactRefill:
    """Where every branch power is an integer in [0, 2**53), ``refill``
    subtracts their sum S from a budget 0 < B < 2**53 once in place of the
    walk; any other leaf or budget takes the walk."""

    FAMILIES = [
        chain_instance,
        stepped_zoned_instance,
        # the same with whole-watt ratings: integer powers, but for a stepped
        # status times an odd rating
        lambda seed: reweighted(chain_instance(seed), rated=lambda k, r: float(round(r))),
        lambda seed: reweighted(stepped_zoned_instance(seed), rated=lambda k, r: float(round(r))),
    ]

    @staticmethod
    def walk(leaf, budget_w: float) -> float | None:
        """The remainder the branch walk leaves, or None where it fails."""
        rem = budget_w
        for power in leaf.powers:
            if power > rem:
                return None
            rem -= power
        return rem

    def test_the_subtraction_is_the_walk(self):
        subtracted = walked = 0
        for family in self.FAMILIES:
            for seed in range(150):
                # an infinite margin exposes the check at every budget
                leaf = solve(family(seed), None).leaf._replace(margin=math.inf)
                exact = all(0.0 <= p < 2.0 ** 53 and p.is_integer() for p in leaf.powers)
                assert leaf.branch_w == (math.fsum(leaf.powers) if exact else None)
                total = math.fsum(leaf.powers)
                for budget_w in (leaf.budget_w * 0.9, leaf.budget_w * 1.1, total, total / 2,
                                 math.nextafter(total, -math.inf), math.nextafter(total, math.inf),
                                 total + 0.5, 2.0 ** 53, math.nextafter(2.0 ** 53, 0.0), 1e300,
                                 0.0, 5e-324, math.inf):
                    fill = leaf.refill(budget_w)
                    by_walk = leaf._replace(branch_w=None).refill(budget_w)
                    assert (fill is None) == (by_walk is None), f"seed {seed}, {budget_w!r}"
                    if fill is not None:
                        assert [x.hex() for x in fill] == [x.hex() for x in by_walk]
                    if leaf.branch_w is not None and 0.0 < budget_w < 2.0 ** 53:
                        subtracted += 1
                        rem = self.walk(leaf, budget_w)
                        diff = budget_w - leaf.branch_w
                        assert (rem is None) == (diff < 0.0)
                        assert rem is None or rem.hex() == diff.hex(), f"seed {seed}"
                    else:
                        walked += 1
        assert subtracted >= 1000 and walked >= 1000, (subtracted, walked)

    def test_from_2_to_the_53_the_walk_is_taken(self):
        # two 1 W loads and a continuous 2**55 W one that the budget cuts: from
        # 2**53 on a remainder rounds, and the walk, taking 1 W twice from
        # 2**54 + 4 W, leaves it unchanged, where B - S would round to 2**54
        rows = (binary_row(1, 1.0, 1.0), binary_row(2, 1.0, 1.0), cont_row(3, 1.0, 2.0 ** 55))
        leaf = solve(model_instance(rows, 2.0 ** 54), None).leaf._replace(margin=math.inf)
        assert leaf.branch_w == 2.0
        budget_w = 2.0 ** 54 + 4
        assert self.walk(leaf, budget_w) == budget_w != budget_w - leaf.branch_w
        assert leaf.refill(budget_w) == [budget_w / 2.0 ** 55]
        # three binary loads of 2**52 W: their sum 3 * 2**52 exceeds every
        # budget below 2**53, so the subtraction and the walk both fail there
        rows = tuple(binary_row(i, 1.0, 2.0 ** 52) for i in (1, 2, 3))
        leaf = solve(model_instance(rows, 2.0 ** 54), None).leaf._replace(margin=math.inf)
        assert leaf.branch_w == 3 * 2.0 ** 52
        assert leaf.refill(math.nextafter(2.0 ** 53, 0.0)) is None
        assert leaf.refill(3 * 2.0 ** 52) == []
        # a power of 2**53 W or more takes the walk at every budget
        leaf = solve(model_instance((binary_row(1, 1.0, 2.0 ** 53),), 2.0 ** 54), None).leaf
        assert leaf.powers == (2.0 ** 53,) and leaf.branch_w is None


class TestProperties:
    @pytest.mark.parametrize("seed", range(15))
    def test_capacity_monotonicity(self, seed):
        inst = random_instance(seed + 500, max_discrete=12)
        lower = solve(inst, deadline_s=None)
        bigger = replace(inst, capacity_budget_w=inst.capacity_budget_w * 1.3 + MW)
        higher = solve(bigger, deadline_s=None)
        assert higher.objective >= lower.objective - 1e-9

    @pytest.mark.parametrize("seed,c", [(1, 3.0), (2, 0.25), (3, 17.0)])
    def test_weight_scaling_keeps_the_plan(self, seed, c):
        inst = random_instance(seed + 700, max_discrete=12)
        base = solve(inst, deadline_s=None)
        scaled = solve(reweighted(inst, lambda k, w: w * c), deadline_s=None)
        assert scaled.statuses == base.statuses
        assert scaled.objective == pytest.approx(base.objective * c, rel=1e-9)

    @pytest.mark.parametrize("seed", range(10))
    def test_saturation_when_budget_covers_everything(self, seed):
        inst = random_instance(seed + 900, max_discrete=12, allow_zones=False,
                               allow_failed=False)
        total = sum(c * r for c, r in zip(inst.caps, inst.model.rated))
        rich = replace(inst, capacity_budget_w=total * 1.01 + 1.0)
        plan = solve(rich, deadline_s=None)
        for lid, cap in zip(inst.model.ids, inst.caps):
            assert plan.statuses[lid] == pytest.approx(cap, abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_shortfall_absorbed_by_pmm_not_vital_loads(self, seed):
        # Table-style weights: equal vital/PMM weight, PMM rated far larger.
        rng = random.Random(seed)
        rows = []
        lid = 1
        for _ in range(rng.randint(4, 10)):
            rows.append(binary_row(lid, 5.0, rng.uniform(0.5, 2.0) * MW))
            lid += 1
        pmm_ids = []
        for _ in range(rng.randint(2, 4)):
            rows.append(cont_row(lid, 5.0, rng.uniform(12.0, 20.0) * MW,
                                 demand=rng.uniform(0.6, 1.0)))
            pmm_ids.append(lid)
            lid += 1
        demand_total = sum(d * r for _, _, r, d, _, _ in rows)
        pmm_demand = sum(d * r for lid, _, r, d, _, _ in rows if lid in pmm_ids)
        shortfall = rng.uniform(0.05, 0.9) * min(pmm_demand, demand_total) * 0.9
        inst = model_instance(tuple(rows), demand_total - shortfall, ())
        plan = solve(inst, deadline_s=None)
        for lid, cap in zip(inst.model.ids, inst.caps):
            if lid not in pmm_ids:
                assert plan.statuses[lid] == cap, "vital load was shed"
        assert plan.served_power_w == pytest.approx(inst.capacity_budget_w, rel=1e-9)

    @pytest.mark.parametrize("seed", range(25))
    def test_every_plan_is_feasible(self, seed):
        inst = random_instance(seed + 2000)
        assert plan_violations(inst, solve(inst, deadline_s=None)) == []


class TestPlanViolations:
    """Each broken constraint of a small zoned instance yields its one message."""

    @staticmethod
    def instance():
        rows = (
            binary_row(1, 5.0, 4 * MW, zone="Z1"),
            binary_row(2, 4.0, 3 * MW, zone="Z1"),
            cont_row(3, 2.0, 8 * MW, demand=0.5),
            binary_row(4, 1.0, 1 * MW),
        )
        return model_instance(rows, 7.5 * MW, (ZoneLimit("Z1", 5 * MW, (1, 2)),))

    @pytest.mark.parametrize("statuses,expected", [
        ({1: 1.0, 2: 0.0, 3: 0.25, 4: 1.0}, []),
        ({1: 1.0, 2: 0.0, 3: 0.5, 4: 1.0},
         ["capacity: served 9000000.0 W exceeds budget 7500000.0 W"]),
        ({1: 1.0, 2: 1.0, 3: 0.0, 4: 0.0},
         ["zone 0: served 7000000.0 W exceeds limit 5000000.0 W"]),
        ({1: 0.0, 2: 0.0, 3: 0.75, 4: 0.0}, ["load 3: status 0.75 exceeds demand 0.5"]),
        ({1: 0.0, 2: 0.0, 3: 0.0, 4: 0.5}, ["load 4: status 0.5 outside its domain"]),
    ], ids=["feasible", "over-budget", "over-zone", "over-cap", "half-binary"])
    def test_reports_exactly_the_broken_constraint(self, statuses, expected):
        plan = ShedPlan(statuses, 0.0, 0.0, 0.0, True)
        assert plan_violations(self.instance(), plan) == expected

    @pytest.mark.parametrize("over_w, flagged", [(0.5e-6, False), (2e-6, True)])
    def test_slack_is_one_microwatt(self, over_w, flagged):
        # 7 MW served, 4 MW of it in Z1, against a budget or a limit over_w below that
        plan = ShedPlan({1: 1.0, 2: 0.0, 3: 0.25, 4: 1.0}, 0.0, 0.0, 0.0, True)
        inst = self.instance()
        over_budget = plan_violations(replace(inst, capacity_budget_w=7 * MW - over_w), plan)
        over_zone = plan_violations(replace(inst, zone_limits_w=[4 * MW - over_w]), plan)
        assert [p.split(":")[0] for p in over_budget] == (["capacity"] if flagged else [])
        assert [p.split(":")[0] for p in over_zone] == (["zone 0"] if flagged else [])


class TestDeepSearch:
    """The search keeps one level per branch load without recursing, so a
    fleet deeper than the interpreter's recursion limit solves to optimality."""

    @pytest.mark.parametrize("zoned", [False, True], ids=["no-zone", "one-zone"])
    def test_1500_binary_loads(self, zoned):
        n = 1500
        zone = "Z1" if zoned else None
        rows = tuple(binary_row(i + 1, 2 - i / n, MW, zone=zone) for i in range(n))
        limits = (ZoneLimit("Z1", 1100 * MW, tuple(row[0] for row in rows)),) if zoned else ()
        inst = model_instance(rows, 1000 * MW, limits)
        plan = solve(inst, None)
        assert plan.optimal
        assert plan.objective == math.fsum(row[1] for row in rows[:1000])
        assert plan_violations(inst, plan) == []


class TestZeroBudget:
    def test_dive_without_room_is_linear(self):
        # with no budget no item fits, so no node's fill scans the relaxation
        # items (the root reads one, the rate at the budget's cut): the dive
        # costs O(n), not O(n^2). Each item counts its own reads, by index or
        # by unpacking, so the count does not depend on how a fill loops.
        CountingItem = counting(tuple)
        n = 2000
        rows = tuple(binary_row(i + 1, 2 - i / n, MW) for i in range(n))
        inst = model_instance(rows, 0.0)
        prep = inst.model.prepared(inst.caps, inst.zone_limits_w)
        prep.relax = [CountingItem(item) for item in prep.relax]
        plan = solve(inst, deadline_s=None)
        assert plan.optimal
        assert plan.objective == 0.0 and set(plan.statuses.values()) == {0.0}
        assert 0 < CountingItem.reads <= n

    def test_a_cut_first_dive_is_linear(self):
        # 2,000 binary 1 MW loads at 0.5 MW: the budget cuts the first free
        # item at every level, so each of the n + 1 fills takes that one item.
        # A fill starts at its own level, so the dive reads O(n) items and
        # runs O(n) loop iterations; starting at item 0 and skipping the fixed
        # items would run n^2 / 2. The loop's lines are counted with a trace
        # function, which stops the solve once they pass the bound.
        class TooManyLines(Exception):
            pass

        CountingItem = counting(tuple)
        n = 2000
        rows = tuple(binary_row(i + 1, 2 - i / n, MW) for i in range(n))
        inst = model_instance(rows, 0.5 * MW)
        prep = inst.model.prepared(inst.caps, inst.zone_limits_w)
        prep.relax = [CountingItem(item) for item in prep.relax]
        code, lines, limit = optimizer._Prepared.relax_bound.__code__, 0, 40 * (n + 1)

        def count(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
                if lines > limit:
                    raise TooManyLines
            return count

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: count if frame.f_code is code else None)
        try:
            plan = solve(inst, deadline_s=None)
        finally:
            sys.settrace(previous)
        assert plan.optimal and plan.objective == 0.0
        assert n + 1 <= CountingItem.reads <= 2 * (n + 1)
        assert lines <= limit


class TestTieBreak:
    def test_equal_loads_prefer_lower_id_at_higher_status(self):
        inst = model_instance(
            (binary_row(2, 5.0, 10 * MW), binary_row(1, 5.0, 10 * MW)),
            10 * MW,
        )
        fast = solve(inst)
        oracle = brute_force_solve(inst)
        assert fast.statuses == oracle.statuses == {1: 1.0, 2: 0.0}

    def test_zero_weight_load_still_served_for_power(self):
        # equal objective either way; greater served power wins the tie
        inst = model_instance(
            (binary_row(1, 0.0, 10 * MW), binary_row(2, 5.0, 10 * MW)),
            25 * MW,
        )
        fast = solve(inst)
        oracle = brute_force_solve(inst)
        assert fast.statuses == oracle.statuses == {1: 1.0, 2: 1.0}

    def test_continuous_tie_spreads_to_lowest_id_first(self):
        inst = model_instance(
            (cont_row(3, 5.0, 10 * MW), cont_row(2, 5.0, 10 * MW)),
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
        rows = tuple(
            binary_row(i + 1, p / MW, p) for i, p in enumerate(powers)
        )
        budget = sum(powers) * 0.5
        inst = model_instance(rows, budget)
        plan = solve(inst, deadline_s=1e-4)
        assert not plan.optimal
        assert plan.leaf is None
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
        inst = model_instance(tuple(binary_row(i, 5.0, MW) for i in range(1, 11)), 20 * MW)
        plan = solve(inst, deadline_s=5e-3)
        assert not plan.optimal
        assert len(reads) <= 14  # start, 11 dive nodes, the stopping node, the end
        assert plan_violations(inst, plan) == []

    def test_one_clock_read_per_node(self, monkeypatch):
        # every load fits: the first dive inherits the root's bound down all
        # 10 levels (11 nodes), then each level's sibling is pruned on its
        # ceiling (10 nodes); each node reads the clock once
        reads = []

        def clock():
            reads.append(None)
            return 0.0

        monkeypatch.setattr("loadshed.optimizer.time.perf_counter", clock)
        inst = model_instance(tuple(binary_row(i, 5.0, MW) for i in range(1, 11)), 20 * MW)
        assert solve(inst, deadline_s=None).optimal
        assert len(reads) == 2 + 21  # the start and end reads, and 21 nodes

    def test_solve_time_is_recorded(self):
        inst = random_instance(11, max_discrete=10)
        plan = solve(inst, deadline_s=None)
        assert plan.solve_time_s > 0.0
