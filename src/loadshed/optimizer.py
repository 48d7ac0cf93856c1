"""Mission-weighted load shedding optimizer.

``solve`` maximizes total weighted operating status subject to the capacity
budget, per-zone line-flow limits and forced-off loads, by depth-first branch
and bound over the discrete loads in weight-density order, highest status
first. A node's upper bound is the linear (Dantzig) relaxation: the free loads
filled greedily by density. Its loop starts at the first load the search has
not fixed, and a child that takes the top status of a load the relaxation
took whole inherits its parent's bound, which is exact for it (the greedy
forward move of Martello & Toth, *Knapsack Problems*, 1990, ch. 2). A leaf
fills the continuous loads greedily by density. Zone limits are disjoint per
load (each load sits in at most one zone), so the constraint family is
laminar and the greedy fill is exact. The clock is read at every node, so
once the first leaf is reached a solve stops within one node of its deadline.

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
from collections.abc import Sequence, Set
from dataclasses import dataclass

import numpy as np

from .model import (
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
class InstanceEntry:
    """One load as seen by the optimizer at a single tick."""

    load_id: int
    weight: float
    rated_power_w: float
    demand_status: float
    variability: Variability
    forced_off: bool = False
    zone: str | None = None

    @property
    def required_power_w(self) -> float:
        return self.demand_status * self.rated_power_w

    @property
    def status_cap(self) -> float:
        if self.forced_off:
            return 0.0
        return min(max(self.demand_status, 0.0), 1.0)


@dataclass(frozen=True)
class ShedInstance:
    entries: tuple[InstanceEntry, ...]
    capacity_budget_w: float
    zone_limits: tuple[ZoneLimit, ...] = ()


@dataclass(frozen=True)
class ShedPlan:
    statuses: dict[int, float]
    objective: float
    served_power_w: float
    solve_time_s: float
    optimal: bool


def build_instance(
    snapshot: SystemSnapshot,
    weights: MissionWeightSet,
    fleet: Sequence[LoadSpec],
    zones: Sequence[ZoneLimit] = (),
    forced_off: Set[int] = frozenset(),
) -> ShedInstance:
    """Assemble the per-tick optimization problem from telemetry and config."""
    demand = snapshot.demand_by_id()
    entries = []
    for spec in fleet:
        if spec.id not in weights.weights:
            raise ConfigurationError(
                f"mission {weights.mission_id} has no weight for load {spec.id}"
            )
        if spec.id not in demand:
            raise ConfigurationError(f"snapshot carries no demand for load {spec.id}")
        entries.append(
            InstanceEntry(
                load_id=spec.id,
                weight=weights.weights[spec.id],
                rated_power_w=spec.rated_power_w,
                demand_status=min(max(demand[spec.id], 0.0), 1.0),
                variability=spec.variability,
                forced_off=spec.id in forced_off,
                zone=spec.zone,
            )
        )
    budget = max(0.0, snapshot.total_capacity_w - snapshot.total_loss_w)
    return ShedInstance(tuple(entries), budget, tuple(zones))


# ---------------------------------------------------------------------------
# shared preparation and plan bookkeeping


class _Prepared:
    """Index structures shared by both solvers (data only, no search logic)."""

    def __init__(self, instance: ShedInstance):
        entries = instance.entries
        self.entries = entries
        self.n = len(entries)
        # canonical evaluation order: ascending load id
        self.canonical = sorted(range(self.n), key=lambda i: entries[i].load_id)
        self.zone_limits = [max(0.0, zl.limit_w) for zl in instance.zone_limits]
        zone_index = {zl.zone: zi for zi, zl in enumerate(instance.zone_limits)}
        zone_members = [set(zl.members) for zl in instance.zone_limits]
        self.zone_of = []
        for e in entries:
            zi = zone_index.get(e.zone, -1) if e.zone is not None else -1
            if zi >= 0 and e.load_id not in zone_members[zi]:
                zi = -1  # declared zone has a limit but this load is not a member
            self.zone_of.append(zi)

        def density_key(i: int) -> tuple[float, int]:
            e = entries[i]
            return (-e.weight / e.rated_power_w, e.load_id)

        self.branch: list[int] = []  # entry indices with a real discrete choice
        self.choices: dict[int, tuple[float, ...]] = {}
        self.cont: list[int] = []  # continuous entries with room to move
        for i, e in enumerate(entries):
            cap = e.status_cap
            disc = e.variability.discrete_statuses(cap)
            if disc is None:
                if cap > 0.0:
                    self.cont.append(i)
                continue
            if len(disc) > 1:
                self.branch.append(i)
                self.choices[i] = disc
        self.branch.sort(key=density_key)
        self.cont.sort(key=density_key)

        # relaxation items in density order: every branchable and continuous
        # load, capped at the highest status it could take. Branch positions
        # below the search level are fixed; continuous items sit past every
        # level. The first ``lead`` items are branch positions 0, 1, ..., so
        # the first item not fixed at a level is at index min(level, lead).
        n_branch = len(self.branch)
        relax = [(i, pos, max(self.choices[i])) for pos, i in enumerate(self.branch)]
        relax += [(i, n_branch + 1, entries[i].status_cap) for i in self.cont]
        relax.sort(key=lambda item: density_key(item[0]))
        self.relax = [(pos, top * entries[i].rated_power_w,
                       entries[i].weight / entries[i].rated_power_w, self.zone_of[i])
                      for i, pos, top in relax]
        lead = next((j for j, item in enumerate(self.relax) if item[0] > n_branch), len(self.relax))
        self.first = [min(level, lead) for level in range(n_branch + 1)]

    def plan_key(self, statuses: Sequence[float]) -> tuple[float, float, tuple[float, ...]]:
        """Total-order key: (objective, served power, lexicographic statuses)."""
        obj = math.fsum(self.entries[i].weight * statuses[i] for i in self.canonical)
        served = math.fsum(self.entries[i].rated_power_w * statuses[i] for i in self.canonical)
        lex = tuple(statuses[i] for i in self.canonical)
        return (obj, served, lex)

    def to_plan(self, statuses: Sequence[float], solve_time_s: float, optimal: bool) -> ShedPlan:
        obj, served, _ = self.plan_key(statuses)
        by_id = {self.entries[i].load_id: statuses[i] for i in range(self.n)}
        return ShedPlan(by_id, obj, served, solve_time_s, optimal)


def _tie_tol(ref: float) -> float:
    return OBJ_REL_TOL * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# exact branch-and-bound solver


class _DeadlineExpired(Exception):
    pass


def solve(instance: ShedInstance, deadline_s: float | None = 0.05) -> ShedPlan:
    """Maximize weighted status; exact unless the deadline expires first.

    The clock is read at every node, but the deadline holds only from the
    first leaf on: the first dive (the greedy plan, which nothing prunes) is
    always completed, so an expired solve returns at least that plan, never
    the all-zero one, flagged ``optimal=False``.
    """
    t0 = time.perf_counter()
    prep = _Prepared(instance)
    entries = prep.entries

    statuses = [0.0] * prep.n
    best_statuses = list(statuses)
    best_key = prep.plan_key(statuses)
    stop_at = math.inf if deadline_s is None else t0 + deadline_s
    deadline = math.inf  # becomes stop_at at the first leaf
    n_branch = len(prep.branch)
    zone_rem = list(prep.zone_limits)
    # per search level: entry, weight, rating, zone, statuses highest first, top status
    steps = [(i, entries[i].weight, entries[i].rated_power_w, prep.zone_of[i],
              prep.choices[i][::-1], max(prep.choices[i])) for i in prep.branch]

    def relax_bound(level: int, rem: float, obj_acc: float) -> tuple[float, int]:
        """Dantzig bound over the free items, and how many branch items from
        ``level`` on it takes whole at their top status, one after another."""
        bound = obj_acc
        head = level
        if prep.zone_limits:
            zrem = list(zone_rem)
            for pos, max_power, density, zi in prep.relax[prep.first[level]:]:
                if pos < level:
                    continue
                room = zrem[zi] if zi >= 0 and zrem[zi] < rem else rem
                if max_power <= room:
                    take = max_power
                    if pos == head:
                        head += 1
                elif room > 0.0:
                    take = room
                else:
                    continue
                bound += take * density
                rem -= take
                if zi >= 0:
                    zrem[zi] -= take
                if rem <= 0.0:
                    break
        else:
            for pos, max_power, density, _ in prep.relax[prep.first[level]:]:
                if pos < level:
                    continue
                if max_power >= rem:  # the critical item: fill what is left
                    bound += rem * density
                    break
                bound += max_power * density
                rem -= max_power
                if pos == head:
                    head += 1
        return bound, head - level

    def leaf(rem: float) -> None:
        """Fill the continuous loads, keep the plan if it ranks first, undo the fill."""
        nonlocal best_key, best_statuses, deadline
        deadline = stop_at
        filled = []
        for i in prep.cont:
            e = entries[i]
            zi = prep.zone_of[i]
            room = rem if zi < 0 else min(rem, zone_rem[zi])
            take = min(e.status_cap * e.rated_power_w, max(room, 0.0))
            if take > 0.0:
                statuses[i] = take / e.rated_power_w
                filled.append((i, zi, take))
                rem -= take
                if zi >= 0:
                    zone_rem[zi] -= take
        key = prep.plan_key(statuses)
        if key > best_key:
            best_key = key
            best_statuses = list(statuses)
        for i, zi, take in filled:
            statuses[i] = 0.0
            if zi >= 0:
                zone_rem[zi] += take

    def recurse(level: int, rem: float, obj_acc: float, whole: int | None) -> None:
        # whole=None: compute the bound. Otherwise this node took the top status
        # of a branch item its parent's relaxation took whole, so that bound is
        # exact here (up to rounding) and already passed the incumbent, which
        # no leaf has changed since; ``whole`` counts the next branch items the
        # same relaxation took whole.
        if time.perf_counter() > deadline:
            raise _DeadlineExpired
        if whole is None:
            bound, whole = relax_bound(level, rem, obj_acc)
            if bound < best_key[0] - _tie_tol(best_key[0]):
                return
        if level == n_branch:
            leaf(rem)
            return
        i, weight, rated, zi, downward, top = steps[level]
        for status in downward:
            power = status * rated
            if power > rem or zi >= 0 and power > zone_rem[zi]:
                continue
            statuses[i] = status
            if zi >= 0:
                zone_rem[zi] -= power
            recurse(level + 1, rem - power, obj_acc + weight * status,
                    whole - 1 if whole and status == top else None)
            if zi >= 0:
                zone_rem[zi] += power
            statuses[i] = 0.0

    optimal = True
    try:
        recurse(0, instance.capacity_budget_w, 0.0, None)
    except _DeadlineExpired:
        optimal = False
    return prep.to_plan(best_statuses, time.perf_counter() - t0, optimal)


# ---------------------------------------------------------------------------
# brute-force oracle


def brute_force_solve(instance: ShedInstance) -> ShedPlan:
    """Exhaustively enumerate all discrete assignments (vectorized in blocks).

    Continuous loads are filled per combination in weight-density order,
    which is exact because each load belongs to at most one zone. Raises
    :class:`InstanceTooLargeError` beyond 2**24 combinations or more than
    4 continuous loads.
    """
    t0 = time.perf_counter()
    prep = _Prepared(instance)
    entries = prep.entries
    if len(prep.cont) > MAX_BRUTE_CONTINUOUS:
        raise InstanceTooLargeError(f"{len(prep.cont)} continuous loads exceed the oracle limit")
    cards = [len(prep.choices[i]) for i in prep.branch]
    total = 1
    for c in cards:
        total *= c
        if total > MAX_BRUTE_COMBOS:
            raise InstanceTooLargeError(f"more than {MAX_BRUTE_COMBOS} discrete combinations")

    budget = instance.capacity_budget_w
    n_zones = len(prep.zone_limits)
    choice_arrays = [np.asarray(prep.choices[i], dtype=np.float64) for i in prep.branch]
    strides = [1] * len(cards)
    for i in range(len(cards) - 2, -1, -1):
        strides[i] = strides[i + 1] * cards[i + 1]

    best_statuses = [0.0] * prep.n
    best_key = prep.plan_key(best_statuses)

    for start in range(0, total, _BLOCK):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        m = idx.size
        disc = [choice_arrays[k][(idx // strides[k]) % cards[k]] for k in range(len(cards))]
        power = np.zeros(m)
        obj = np.zeros(m)
        zone_used = [np.zeros(m) for _ in range(n_zones)]
        for k, i in enumerate(prep.branch):
            e = entries[i]
            p = disc[k] * e.rated_power_w
            power += p
            obj += disc[k] * e.weight
            zi = prep.zone_of[i]
            if zi >= 0:
                zone_used[zi] += p
        feasible = power <= budget
        for zi in range(n_zones):
            feasible &= zone_used[zi] <= prep.zone_limits[zi]
        rem = np.maximum(budget - power, 0.0)
        zrem = [np.maximum(prep.zone_limits[zi] - zone_used[zi], 0.0) for zi in range(n_zones)]
        cont_status = []
        for i in prep.cont:
            e = entries[i]
            zi = prep.zone_of[i]
            room = rem if zi < 0 else np.minimum(rem, zrem[zi])
            take = np.minimum(e.status_cap * e.rated_power_w, room)
            rem = rem - take
            if zi >= 0:
                zrem[zi] = zrem[zi] - take
            obj += take * (e.weight / e.rated_power_w)
            cont_status.append(take / e.rated_power_w)
        obj = np.where(feasible, obj, -np.inf)
        block_max = float(obj.max())
        ref = max(block_max, best_key[0])
        candidates = np.nonzero(obj >= ref - _tie_tol(ref))[0]
        for row in candidates:
            statuses = [0.0] * prep.n
            for k, i in enumerate(prep.branch):
                statuses[i] = float(disc[k][row])
            for k, i in enumerate(prep.cont):
                statuses[i] = float(cont_status[k][row])
            key = prep.plan_key(statuses)
            if key > best_key:
                best_key = key
                best_statuses = statuses

    return prep.to_plan(best_statuses, time.perf_counter() - t0, True)


# ---------------------------------------------------------------------------
# plan audit


def plan_violations(
    instance: ShedInstance,
    plan: ShedPlan,
    tol_w: float = FEASIBILITY_TOL_W,
) -> list[str]:
    """Every constraint the plan violates beyond ``tol_w`` watts of slack."""
    problems = []
    served_total = 0.0
    zone_served: dict[str, float] = {zl.zone: 0.0 for zl in instance.zone_limits}
    zone_members = {zl.zone: set(zl.members) for zl in instance.zone_limits}
    for e in instance.entries:
        s = plan.statuses.get(e.load_id, 0.0)
        p = s * e.rated_power_w
        served_total += p
        if e.zone in zone_served and e.load_id in zone_members[e.zone]:
            zone_served[e.zone] += p
        if e.forced_off and abs(s) > 1e-9:
            problems.append(f"load {e.load_id}: forced off but status {s}")
        if s > e.status_cap + 1e-9:
            problems.append(f"load {e.load_id}: status {s} exceeds demand {e.status_cap}")
        if not e.variability.contains(s):
            problems.append(f"load {e.load_id}: status {s} outside its domain")
    if served_total > instance.capacity_budget_w + tol_w:
        problems.append(
            f"capacity: served {served_total} W exceeds budget {instance.capacity_budget_w} W"
        )
    for zl in instance.zone_limits:
        if zone_served[zl.zone] > zl.limit_w + tol_w:
            problems.append(
                f"zone {zl.zone}: served {zone_served[zl.zone]} W exceeds limit {zl.limit_w} W"
            )
    return problems
