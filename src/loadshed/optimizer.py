"""Mission-weighted load shedding optimizer.

``solve`` maximizes total weighted operating status subject to the capacity
budget, per-zone line-flow limits and each load's demand (a failed load
demands 0), by depth-first branch and bound over the discrete loads in
weight-density order, highest status first. A node's upper bound is the
linear (Dantzig) relaxation: the free loads filled greedily by density. A
child that takes the top status of a load the relaxation took whole inherits
its parent's bound, which is exact for it (the greedy forward move of
Martello & Toth, *Knapsack Problems*, 1990, ch. 2). The root relaxation
also records where its fill first falls short: before the
item the budget cuts and before each zone's first cut. A sibling of the root's
chain (lowering a load the root relaxation took whole, below ancestors that
all followed it) resumes the fill there with the freed power instead of
refilling from scratch (the forward move of Horowitz & Sahni, JACM 1974), so
proving the first dive optimal costs about one fill, not one per level. A leaf
fills the continuous loads greedily by density. Zone limits are disjoint per
load (each load sits in at most one zone), so the constraint family is laminar
and the greedy fill is exact. The clock is read at every node, so once the
first leaf is reached a solve stops within one node of its deadline.

Preparation is split in two. A :class:`FleetModel` holds what the fleet, its
weight set and its zone membership fix: the canonical id order, the density
order of all loads, each load's zone, weight, rating and density, and each
discrete load's status table. It is built once and reused while those hold.
The search data (``_Prepared``) is the model refreshed with a tick's caps and
zone limits, not its budget, which ``solve`` hands to the root node: one walk
of the cached density order picks out the branch, continuous and relaxation
items, with no sorting, and calls ``discrete_statuses`` only for a load capped
below its top status. The model keeps the last search data it built and
returns it again while the caps and limits are equal, which they are on most
ticks; the search only reads it. A :class:`ModelInstance`, a model with one
tick's caps, budget and zone limits, is the one input of ``solve``,
``brute_force_solve`` and ``plan_violations``.

``brute_force_solve`` is the verification oracle: it enumerates every
discrete assignment outright (vectorized, in blocks) and fills the
continuous loads per combination. It shares no search code with ``solve``.

Ties are broken deterministically: higher objective, then higher served
power, then lexicographically by ascending load id preferring the higher
status. Objectives and served power are compared via exactly rounded sums
(``math.fsum``) so both solvers rank candidate plans identically.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    STATUS_TOL,
    LoadSpec,
    MissionWeightSet,
    SystemSnapshot,
    Variability,
    ZoneLimit,
)

OBJ_REL_TOL = 1e-9  # tie window for objective comparisons
FEASIBILITY_TOL_W = 1e-6  # allowed constraint slack when auditing plans
_BLOCK = 1 << 16
MAX_BRUTE_COMBOS = 1 << 24
MAX_BRUTE_CONTINUOUS = 4


class ConfigurationError(Exception):
    """The instance cannot be built from the given fleet/weights/snapshot."""


class InstanceTooLargeError(Exception):
    """The instance exceeds what brute-force enumeration will attempt."""


@dataclass(frozen=True)
class ShedPlan:
    statuses: dict[int, float]
    objective: float
    served_power_w: float
    solve_time_s: float
    optimal: bool


def _weight(weights: MissionWeightSet, load_id: int) -> float:
    if load_id not in weights.weights:
        raise ConfigurationError(f"mission {weights.mission_id} has no weight for load {load_id}")
    return weights.weights[load_id]


# ---------------------------------------------------------------------------
# static model, per-tick refresh and plan bookkeeping


class FleetModel:
    """What a fleet, its weight set and its zone membership fix, built once.

    Loads keep the order given (the fleet's). ``canonical`` is ascending load
    id, ``order`` descending weight density with ties by ascending id.
    ``downward`` is each discrete load's status table highest first (None for
    a continuous load) and ``top`` its highest status. ``zone_of`` is each
    load's zone index, -1 outside every limit.
    """

    def __init__(self, loads: Sequence[tuple[int, float, float, Variability, str | None]],
                 zones: Sequence[ZoneLimit]):
        cols = [list(col) for col in zip(*loads)] or [[] for _ in range(5)]
        ids, self.weight, self.rated, self.variability, zone_names = cols
        self.ids = tuple(ids)
        self.n = len(self.ids)
        self.density = [w / r for w, r in zip(self.weight, self.rated)]
        self.canonical = sorted(range(self.n), key=self.ids.__getitem__)
        self.order = sorted(range(self.n), key=lambda i: (-self.density[i], self.ids[i]))
        limits = {zl.zone: (zi, set(zl.members)) for zi, zl in enumerate(zones)}
        # a load whose declared zone has a limit but lists it as no member is in none
        self.zone_of = [limits[z][0] if z in limits and lid in limits[z][1] else -1
                        for lid, z in zip(self.ids, zone_names)]
        tables = [v.discrete_statuses() for v in self.variability]
        self.downward = [None if t is None else t[::-1] for t in tables]
        self.top = [None if t is None else max(t) for t in tables]
        self.zero_key = (0.0, 0.0, (0.0,) * self.n)  # the all-shed plan's key
        self._prepared_key: tuple[tuple[float, ...], tuple[float, ...]] | None = None
        self._prepared: _Prepared | None = None

    @classmethod
    def of_fleet(cls, fleet: Sequence[LoadSpec], weights: MissionWeightSet,
                 zones: Sequence[ZoneLimit]) -> FleetModel:
        """The model of ``fleet`` under ``weights``; every load must be weighted."""
        return cls([(spec.id, _weight(weights, spec.id), spec.rated_power_w,
                     spec.variability, spec.zone) for spec in fleet], zones)

    def instance(self, snapshot: SystemSnapshot, limits_w: Sequence[float]) -> ModelInstance:
        """This tick's problem: caps read straight from the snapshot's demands,
        whose ids must be the model's in order, and ``limits_w`` this tick's
        limits of the model's zones, in the same order."""
        demands = snapshot.demands
        if snapshot.load_ids != self.ids or len(demands) != self.n:
            raise ConfigurationError("snapshot demands do not list the fleet's loads in order")
        # each demand clamped to [0, 1] exactly as min(max(x, 0.0), 1.0) clamps it
        caps = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in demands]
        return ModelInstance(self, caps, snapshot.budget_w, limits_w)

    def prepared(self, caps: Sequence[float], zone_limits_w: Sequence[float]) -> _Prepared:
        """The search data for these caps and zone limits: the last one built
        while they are equal to its own (by value, so a decoded snapshot
        qualifies), else a new one, which is kept instead."""
        key = (tuple(caps), tuple(zone_limits_w))
        if key != self._prepared_key:
            self._prepared = _Prepared(self, key[0], key[1])
            self._prepared_key = key
        return self._prepared

    def plan_key(self, statuses: Sequence[float]) -> tuple[float, float, tuple[float, ...]]:
        """Total-order key: (objective, served power, lexicographic statuses)."""
        obj = math.fsum(self.weight[i] * statuses[i] for i in self.canonical)
        served = math.fsum(self.rated[i] * statuses[i] for i in self.canonical)
        lex = tuple(statuses[i] for i in self.canonical)
        return (obj, served, lex)

    def to_plan(self, statuses: Sequence[float], key: tuple[float, float, tuple[float, ...]],
                solve_time_s: float, optimal: bool) -> ShedPlan:
        """The plan of ``statuses``, whose ``plan_key`` is ``key``."""
        return ShedPlan(dict(zip(self.ids, statuses)), key[0], key[1], solve_time_s, optimal)


@dataclass(frozen=True)
class ModelInstance:
    """One tick's problem over a :class:`FleetModel`, with no per-load objects:
    each load's status cap (demand clamped to [0, 1]; a failed load reports
    0) in model order, the capacity budget and each model zone's limit."""

    model: FleetModel
    caps: Sequence[float]
    capacity_budget_w: float
    zone_limits_w: Sequence[float]


# a relaxation's state where its fill first falls short of an item: the item's
# index, the bound so far, the budget left and each zone's room left
_Snapshot = tuple[int, float, float, tuple[float, ...]]


class _Prepared:
    """The search data of a model under one set of caps and zone limits (see
    the module docstring); it does not depend on the budget. Branch loads are
    those with a real discrete choice under their cap."""

    def __init__(self, model: FleetModel, caps: Sequence[float],
                 zone_limits_w: Sequence[float]):
        self.model = model
        self.zone_limits = [max(0.0, limit) for limit in zone_limits_w]
        # per search level: load, weight, rating, zone, statuses highest first, top status
        self.steps: list[tuple[int, float, float, int, tuple[float, ...], float]] = []
        # continuous loads with room to move: load, zone, rating, power at the cap
        self.cont: list[tuple[int, int, float, float]] = []
        # relaxation items in density order: every branchable and continuous
        # load, capped at the highest status it could take. Branch positions
        # below the search level are fixed; continuous items sit past every
        # level.
        self.relax: list[tuple[int, float, float, int]] = []
        rated, density, zone_of = model.rated, model.density, model.zone_of
        for i in model.order:
            cap = caps[i]
            downward = model.downward[i]
            if downward is None:
                if cap > 0.0:
                    power = cap * rated[i]
                    self.cont.append((i, zone_of[i], rated[i], power))
                    self.relax.append((model.n, power, density[i], zone_of[i]))
                continue
            top = model.top[i]
            if not top <= cap + STATUS_TOL:
                table = model.variability[i].discrete_statuses(cap)
                downward, top = table[::-1], max(table)
            if len(downward) > 1:
                self.relax.append((len(self.steps), top * rated[i], density[i], zone_of[i]))
                self.steps.append((i, model.weight[i], rated[i], zone_of[i], downward, top))

    def relax_bound(self, start: int, level: int, rem: float, bound: float,
                    zrem: list[float], snaps: dict[int, _Snapshot] | None = None,
                    ) -> tuple[float, int]:
        """Dantzig bound: ``bound`` plus the greedy fill by density of the
        relaxation items from index ``start`` on that are free at ``level``,
        into ``rem`` watts and the zone rooms ``zrem`` (a list it uses up);
        and how many branch items from ``level`` on it takes whole at their
        top status, one after another.

        ``snaps``, when given, receives the fill's state (item index, bound,
        ``rem``, zone rooms) where the fill first falls short of an item:
        under key -1 before the item the budget cuts, or where the fill ends;
        under a zone's index before that zone's first cut, if it comes
        earlier. :meth:`resumed_bound` continues from there.
        """
        head = level
        relax = self.relax
        for k in range(start, len(relax)):
            pos, max_power, density, zi = relax[k]
            if pos < level:
                continue
            room = zrem[zi] if zi >= 0 and zrem[zi] < rem else rem
            if max_power <= room:
                take = max_power
                if pos == head:
                    head += 1
            else:
                if snaps is not None:
                    cut = zi if room < rem else -1  # room < rem: the zone cuts it
                    if cut not in snaps:
                        snaps[cut] = (k, bound, rem, tuple(zrem))
                if room > 0.0:
                    take = room
                else:
                    continue
            bound += take * density
            rem -= take
            if zi >= 0:
                zrem[zi] -= take
            if rem <= 0.0:
                stop = k + 1
                break
        else:
            stop = len(relax)
        if snaps is not None and -1 not in snaps:
            snaps[-1] = (stop, bound, rem, tuple(zrem))
        return bound, head - level

    def resumed_bound(self, snaps: dict[int, _Snapshot], level: int, status: float) -> float:
        """The bound of the node that gives branch item ``level`` a
        ``status`` below its top, where the relaxation that recorded
        ``snaps`` took every free branch item up to ``level`` whole and the
        node's ancestors gave each of them its top status. Lowering the item
        frees Δ watts of budget and of its zone's room. That changes no take
        before the first item the fill fell short of for lack of that room:
        the budget's cut, or an earlier first cut of the item's own zone. So
        the fill resumes there with Δ more room, from the bound less the
        value the item gives up."""
        i, weight, rated, zi, _, top = self.steps[level]
        start, bound, rem, zrem = snaps.get(zi, snaps[-1])
        freed = (top - status) * rated
        zrem = list(zrem)
        if zi >= 0:
            zrem[zi] += freed
        bound += weight * status - top * rated * self.model.density[i]
        return self.relax_bound(start, level + 1, rem + freed, bound, zrem)[0]


def _tie_tol(ref: float) -> float:
    return OBJ_REL_TOL * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# exact branch-and-bound solver


class _DeadlineExpired(Exception):
    pass


def solve(instance: ModelInstance, deadline_s: float | None = 0.05) -> ShedPlan:
    """Maximize weighted status; exact unless the deadline expires first.

    The root relaxation is filled once and records where its fill first falls
    short (see :meth:`_Prepared.relax_bound`). While the search follows that
    relaxation, each child that takes the top status of an item it took whole
    inherits its bound, and each sibling that lowers such an item resumes the
    fill there (:meth:`_Prepared.resumed_bound`) instead of refilling it from
    scratch. A resumed bound that does not prune, and every node off that
    chain, computes ``relax_bound`` in full.

    The search is a loop over a list of paused visits (generators), not a
    recursion, so its depth (a level per branch load) is bounded by memory,
    not by the interpreter's recursion limit.

    The clock is read at every node, pruned siblings included, but the
    deadline holds only from the first leaf on: the first dive (the greedy
    plan, which nothing prunes) is always completed, so an expired solve
    returns at least that plan, never the all-zero one, flagged
    ``optimal=False``.
    """
    t0 = time.perf_counter()
    prep = instance.model.prepared(instance.caps, instance.zone_limits_w)
    model = prep.model

    statuses = [0.0] * model.n
    best_statuses = list(statuses)
    best_key = model.zero_key
    cutoff = best_key[0] - _tie_tol(best_key[0])  # a bound below it is pruned
    stop_at = math.inf if deadline_s is None else t0 + deadline_s
    deadline = math.inf  # becomes stop_at at the first leaf
    steps = prep.steps
    n_branch = len(steps)
    zone_rem = list(prep.zone_limits)
    root: dict[int, _Snapshot] = {}  # the root relaxation's resume points

    def leaf(rem: float) -> None:
        """Fill the continuous loads, keep the plan if it ranks first, undo the fill."""
        nonlocal best_key, best_statuses, cutoff, deadline
        deadline = stop_at
        filled = []
        for i, zi, rated, power in prep.cont:
            room = rem if zi < 0 else min(rem, zone_rem[zi])
            take = min(power, max(room, 0.0))
            if take > 0.0:
                statuses[i] = take / rated
                filled.append((i, zi, take))
                rem -= take
                if zi >= 0:
                    zone_rem[zi] -= take
        key = model.plan_key(statuses)
        if key > best_key:
            best_key = key
            best_statuses = list(statuses)
            cutoff = key[0] - _tie_tol(key[0])
        for i, zi, take in filled:
            statuses[i] = 0.0
            if zi >= 0:
                zone_rem[zi] += take

    def visit(level: int, rem: float, obj_acc: float):
        """Bound a node, search the line of first children that inherit its
        bound, then yield the visit of each other child, deepest first."""
        if time.perf_counter() > deadline:
            raise _DeadlineExpired
        chain = level == 0  # the root and its line: ``root`` describes their relaxation
        bound, whole = prep.relax_bound(0, level, rem, obj_acc, list(zone_rem),
                                        root if chain else None)
        if bound < cutoff:
            return
        # The relaxation took the next ``whole`` branch items whole, so a child
        # giving one its top status inherits the bound: exact there (up to
        # rounding), and it passed the incumbent, which no leaf has changed since.
        line = [(level, rem, obj_acc, whole)]
        while whole and level < n_branch:
            i, weight, rated, zi, _, top = steps[level]
            power = top * rated
            if power > rem or zi >= 0 and power > zone_rem[zi]:
                break
            if time.perf_counter() > deadline:
                raise _DeadlineExpired
            statuses[i] = top
            if zi >= 0:
                zone_rem[zi] -= power
            level, rem, obj_acc, whole = level + 1, rem - power, obj_acc + weight * top, whole - 1
            line.append((level, rem, obj_acc, whole))
        if level == n_branch:
            leaf(rem)
            line.pop()
        for level, rem, obj_acc, whole in reversed(line):
            i, weight, rated, zi, downward, top = steps[level]
            if statuses[i]:  # the top status, taken on the way down
                statuses[i] = 0.0
                if zi >= 0:
                    zone_rem[zi] += top * rated
            for status in downward:
                power = status * rated
                if whole and status == top or power > rem or zi >= 0 and power > zone_rem[zi]:
                    continue
                if whole and chain and prep.resumed_bound(root, level, status) < cutoff:
                    # a pruned chain sibling: no relax_bound, but its clock read
                    if time.perf_counter() > deadline:
                        raise _DeadlineExpired
                    continue
                statuses[i] = status
                if zi >= 0:
                    zone_rem[zi] -= power
                yield visit(level + 1, rem - power, obj_acc + weight * status)
                if zi >= 0:
                    zone_rem[zi] += power
                statuses[i] = 0.0

    # the visits from the root down to the current one, each paused where it
    # yielded the visit of a child
    path = [visit(0, instance.capacity_budget_w, 0.0)]
    optimal = True
    try:
        while path:
            for child in path[-1]:
                path.append(child)
                break
            else:
                path.pop()
    except _DeadlineExpired:
        optimal = False
    return model.to_plan(best_statuses, best_key, time.perf_counter() - t0, optimal)


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_solve(instance: ModelInstance) -> ShedPlan:
    """Exhaustively enumerate all discrete assignments (vectorized in blocks).

    Continuous loads are filled per combination in weight-density order,
    which is exact because each load belongs to at most one zone. Raises
    :class:`InstanceTooLargeError` beyond 2**24 combinations or more than
    4 continuous loads.
    """
    t0 = time.perf_counter()
    prep = instance.model.prepared(instance.caps, instance.zone_limits_w)
    model = prep.model
    if len(prep.cont) > MAX_BRUTE_CONTINUOUS:
        raise InstanceTooLargeError(f"{len(prep.cont)} continuous loads exceed the oracle limit")
    cards = [len(step[4]) for step in prep.steps]
    total = 1
    for c in cards:
        total *= c
        if total > MAX_BRUTE_COMBOS:
            raise InstanceTooLargeError(f"more than {MAX_BRUTE_COMBOS} discrete combinations")

    budget = instance.capacity_budget_w
    n_zones = len(prep.zone_limits)
    choice_arrays = [np.asarray(step[4][::-1], dtype=np.float64) for step in prep.steps]
    strides = [1] * len(cards)
    for i in range(len(cards) - 2, -1, -1):
        strides[i] = strides[i + 1] * cards[i + 1]

    best_statuses = [0.0] * model.n
    best_key = model.zero_key

    for start in range(0, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        m = idx.size
        disc = [choice_arrays[k][(idx // strides[k]) % cards[k]] for k in range(len(cards))]
        power = np.zeros(m)
        obj = np.zeros(m)
        zone_used = [np.zeros(m) for _ in range(n_zones)]
        for k, (_, weight, rated, zi, _, _) in enumerate(prep.steps):
            p = disc[k] * rated
            power += p
            obj += disc[k] * weight
            if zi >= 0:
                zone_used[zi] += p
        feasible = power <= budget
        for zi in range(n_zones):
            feasible &= zone_used[zi] <= prep.zone_limits[zi]
        rem = np.maximum(budget - power, 0.0)
        zrem = [np.maximum(prep.zone_limits[zi] - zone_used[zi], 0.0) for zi in range(n_zones)]
        cont_status = []
        for i, zi, rated, cap_power in prep.cont:
            room = rem if zi < 0 else np.minimum(rem, zrem[zi])
            take = np.minimum(cap_power, room)
            rem = rem - take
            if zi >= 0:
                zrem[zi] = zrem[zi] - take
            obj += take * model.density[i]
            cont_status.append(take / rated)
        obj = np.where(feasible, obj, -np.inf)
        block_max = float(obj.max())
        ref = max(block_max, best_key[0])
        candidates = np.nonzero(obj >= ref - _tie_tol(ref))[0]
        for row in candidates:
            statuses = [0.0] * model.n
            for k, step in enumerate(prep.steps):
                statuses[step[0]] = float(disc[k][row])
            for k, item in enumerate(prep.cont):
                statuses[item[0]] = float(cont_status[k][row])
            key = model.plan_key(statuses)
            if key > best_key:
                best_key = key
                best_statuses = statuses

    return model.to_plan(best_statuses, best_key, time.perf_counter() - t0, True)


# ---------------------------------------------------------------------------
# plan audit


def plan_violations(
    instance: ModelInstance,
    plan: ShedPlan,
    tol_w: float = FEASIBILITY_TOL_W,
) -> list[str]:
    """Every constraint the plan violates beyond ``tol_w`` watts of slack.
    A zone is named by its index in ``zone_limits_w``; a failed load's cap
    is 0, so serving it shows as exceeding demand 0."""
    model = instance.model
    problems = []
    served_total = 0.0
    zone_served = [0.0] * len(instance.zone_limits_w)
    for lid, rated, variability, zi, cap in zip(model.ids, model.rated, model.variability,
                                                 model.zone_of, instance.caps):
        s = plan.statuses.get(lid, 0.0)
        p = s * rated
        served_total += p
        if zi >= 0:
            zone_served[zi] += p
        if s > cap + 1e-9:
            problems.append(f"load {lid}: status {s} exceeds demand {cap}")
        if not variability.contains(s):
            problems.append(f"load {lid}: status {s} outside its domain")
    if served_total > instance.capacity_budget_w + tol_w:
        problems.append(
            f"capacity: served {served_total} W exceeds budget {instance.capacity_budget_w} W"
        )
    for zi, (served, limit) in enumerate(zip(zone_served, instance.zone_limits_w)):
        if served > limit + tol_w:
            problems.append(f"zone {zi}: served {served} W exceeds limit {limit} W")
    return problems
