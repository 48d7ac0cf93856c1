"""Mission-weighted load shedding optimizer.

``solve`` maximizes total weighted operating status subject to the capacity
budget, per-zone line-flow limits and each load's demand (a failed load
demands 0), by depth-first branch and bound over the discrete loads in
weight-density order, highest status first. A node's upper bound is the
linear (Dantzig) relaxation: the free loads filled greedily by density. A
child that takes the top status of a load the relaxation took whole inherits
its parent's bound, which is exact for it (the greedy forward move of
Martello & Toth, *Knapsack Problems*, 1990, ch. 2). The root relaxation
also records where its fill first falls short: at the item the budget cuts
and at each zone's first cut. A sibling of the root's chain (lowering a load
the root relaxation took whole, below ancestors that all followed it) can
send the watts it frees only to items from that point on, whose density is
at most that point's, so its bound is at most the root bound less the freed
watts times the density it gives up over that point's (the critical-item
bound, Martello & Toth ch. 2). ``solve`` prunes a sibling on that O(1)
ceiling only where the sibling's own fill would prune it too; every other
node that is not pruned computes its own fill. The search tree is that of
plain branch and bound with inherited bounds. A leaf fills the continuous
loads greedily by density. Zone limits are disjoint per load (each load sits
in at most one zone), so the constraint family is laminar and the greedy fill
is exact. The clock is read at every node, so once the first leaf is reached
a solve stops within one node of its deadline.

Preparation is split in two. A :class:`FleetModel` holds what the fleet, its
weight set and its zone membership fix: the canonical id order, the density
order of all loads, each load's zone, weight, rating and density, and each
discrete load's status table. It is built once and reused while those hold.
The search data (``_Prepared``) is the model refreshed with a tick's caps and
zone limits, not its budget, which ``solve`` hands to the root node: one walk
of the cached density order picks out the branch, continuous and relaxation
items, with no sorting, and calls ``discrete_statuses`` only for a load capped
below its top status. It also records where each level's fill starts, so a
node's fill reads only the items free at its level. The model keeps the last
search data it built and returns it again while the caps and limits are
equal, which they are on most ticks; the search only reads it. A
:class:`ModelInstance`, a model with one tick's caps, budget and zone limits,
is the one input of ``solve`` and ``plan_violations``.

A tick whose snapshot carries the very demand tuple of the last one (the
plant hands one tuple on while no demand changes) costs the model O(1) in
the fleet size: ``instance`` reuses the caps list it clamped from that tuple,
and ``prepared``, asked again for those very caps and limits objects, returns
its search data with no comparison. A new tuple of equal values, such as a
decoded snapshot's, is clamped again and compared by value. A plan's
:class:`_Leaf` checks its branch powers against a new budget with one exact
subtraction where they are integers (see :meth:`_Leaf.refill`).

Ties are broken deterministically: higher objective, then higher served
power, then lexicographically by ascending load id preferring the higher
status. Objectives and served power are compared via exactly rounded sums
(``math.fsum``), through :meth:`FleetModel.plan_key`, so any solver that
ranks plans by that key, the tests' brute-force oracle among them, ranks
candidate plans identically.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

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


class ConfigurationError(Exception):
    """The instance cannot be built from the given fleet/weights/snapshot."""


@dataclass(frozen=True)
class ShedPlan:
    statuses: dict[int, float]
    objective: float
    served_power_w: float
    solve_time_s: float
    optimal: bool
    # the leaf ``solve`` proved optimal; None if its deadline cut it, or outside ``solve``
    leaf: _Leaf | None = field(default=None, compare=False, repr=False)


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
    load's zone index, -1 outside every limit. ``fill_monotone`` is whether
    no load weighs negative (or NaN), as validation requires and ``solve``
    enforces: then each bound of the search is a true relaxation bound, which
    rises with the budget at no more than the densest item's rate (see
    :class:`_Leaf`).
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
        self.fill_monotone = all(w >= 0 for w in self.weight)
        self.zero_key = (0.0, 0.0, (0.0,) * self.n)  # the all-shed plan's key
        # How far a chain sibling's own fill may round above the ceiling
        # ``solve`` prunes it on. Take u = 2**-53, m relaxation items (at most
        # n), P the sum of their powers (at most the sum of ratings: no status
        # exceeds 1 by more than STATUS_TOL, which the margin below absorbs)
        # and V = P × (largest |density|), which bounds any fill's sum of
        # |take × density|:
        # - the root fill adds up to m rounded products; the sibling adds up
        #   to m, its ancestors' weight × top and its own weight × status
        #   included, every term and partial sum at most 3V: 12(m + 1)uV;
        # - the root fill subtracts each take from the budget and a zone's
        #   room; the sibling's path and fill subtract its ancestors' powers,
        #   its own status × rated and each take: 2(m + 1) roundings each. A
        #   room of 2P or more cannot cut any later item; a smaller one
        #   rounds by at most 2uP, which moves the fill's value by at most
        #   2uV: 8(m + 1)uV over both fills;
        # - the ceiling's five operations and the cutoff less the slack: 18uV;
        #   each density w/r rounds once, so the sibling's weight × status for
        #   its fixed loads, where the root counts status × rated × density,
        #   adds at most 2uV.
        # That totals 20(m + 2)uV; the slack takes 32(n + 2)uV for margin. It
        # scales with the loads, not with the bound, so it holds for any
        # finite weights.
        reach = sum(map(abs, self.rated)) * max(map(abs, self.density), default=0.0)
        self.ceiling_slack = 32 * (self.n + 2) * 2.0 ** -53 * reach
        self._demands: Sequence[float] | None = None  # the demand tuple ``_caps`` clamps
        self._caps: list[float] = []
        # the caps and limits objects ``prepared`` was last asked for; the
        # values it built its search data from
        self._asked: tuple[Sequence[float] | None, Sequence[float] | None] = (None, None)
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
        limits of the model's zones, in the same order.

        The ids are checked on every call, first. The model keeps the caps of
        the last demand tuple it clamped, and a reference to that tuple, so
        its id cannot be reused; while a snapshot carries that very tuple,
        which the plant hands on while no demand changes, the caps list is
        reused with no clamping. It is shared, so no caller may change it."""
        demands = snapshot.demands
        if snapshot.load_ids != self.ids or len(demands) != self.n:
            raise ConfigurationError("snapshot demands do not list the fleet's loads in order")
        if demands is not self._demands:
            # each demand clamped to [0, 1] exactly as min(max(x, 0.0), 1.0) clamps it
            self._caps = [0.0 if x < 0.0 else 1.0 if x > 1.0 else x for x in demands]
            self._demands = demands
        return ModelInstance(self, self._caps, snapshot.budget_w, limits_w)

    def prepared(self, caps: Sequence[float], zone_limits_w: Sequence[float]) -> _Prepared:
        """The search data for these caps and zone limits: the last one built
        while they are the very objects of the last call (with no comparison:
        a caller must not change a list it has passed) or equal to its own by
        value (so a decoded snapshot qualifies), else a new one, which is kept
        instead."""
        if caps is not self._asked[0] or zone_limits_w is not self._asked[1]:
            key = (tuple(caps), tuple(zone_limits_w))
            if key != self._prepared_key:
                self._prepared = _Prepared(self, key[0], key[1])
                self._prepared_key = key
            self._asked = (caps, zone_limits_w)
        return self._prepared

    def plan_key(self, statuses: Sequence[float]) -> tuple[float, float, tuple[float, ...]]:
        """Total-order key: (objective, served power, lexicographic statuses)."""
        obj = math.fsum(self.weight[i] * statuses[i] for i in self.canonical)
        served = math.fsum(self.rated[i] * statuses[i] for i in self.canonical)
        lex = tuple(statuses[i] for i in self.canonical)
        return (obj, served, lex)

    def to_plan(self, statuses: Sequence[float], key: tuple[float, float, tuple[float, ...]],
                solve_time_s: float, optimal: bool, leaf: _Leaf | None = None) -> ShedPlan:
        """The plan of ``statuses``, whose ``plan_key`` is ``key``."""
        return ShedPlan(dict(zip(self.ids, statuses)), key[0], key[1], solve_time_s, optimal,
                        leaf)


@dataclass(frozen=True)
class ModelInstance:
    """One tick's problem over a :class:`FleetModel`, with no per-load objects:
    each load's status cap (demand clamped to [0, 1]; a failed load reports
    0) in model order, the capacity budget and each model zone's limit."""

    model: FleetModel
    caps: Sequence[float]
    capacity_budget_w: float
    zone_limits_w: Sequence[float]


class _Prepared:
    """The search data of a model under one set of caps and zone limits (see
    the module docstring); it does not depend on the budget. Branch loads are
    those with a real discrete choice under their cap. ``d_max`` is the
    densest relaxation item's density, at least 0: no relaxation bound rises
    faster than that with the budget.

    :meth:`fill` is the continuous fill of every leaf, in the search and out
    of it. ``solve`` hands back the plan it proved optimal with its
    :class:`_Leaf`, which names this data and refills the plan at other
    budgets.
    """

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
        # where a fill at each level, and past the last, starts: the relaxation
        # index of that level's item and how many continuous items precede it
        self.starts: list[tuple[int, int]] = []
        self.cont_at: list[int] = []  # the relaxation index of each continuous item
        rated, density, zone_of = model.rated, model.density, model.zone_of
        for i in model.order:
            cap = caps[i]
            downward = model.downward[i]
            if downward is None:
                if cap > 0.0:
                    power = cap * rated[i]
                    self.cont.append((i, zone_of[i], rated[i], power))
                    self.cont_at.append(len(self.relax))
                    self.relax.append((model.n, power, density[i], zone_of[i]))
                continue
            top = model.top[i]
            if not top <= cap + STATUS_TOL:
                table = model.variability[i].discrete_statuses(cap)
                downward, top = table[::-1], max(table)
            if len(downward) > 1:
                self.starts.append((len(self.relax), len(self.cont_at)))
                self.relax.append((len(self.steps), top * rated[i], density[i], zone_of[i]))
                self.steps.append((i, model.weight[i], rated[i], zone_of[i], downward, top))
        self.starts.append((len(self.relax), len(self.cont_at)))
        self.d_max = max(0.0, self.relax[0][2]) if self.relax else 0.0

    def relax_bound(self, level: int, rem: float, bound: float, zrem: list[float],
                    cuts: dict[int, int] | None = None) -> tuple[float, int]:
        """Dantzig bound: ``bound`` plus the greedy fill by density of the
        relaxation items free at ``level``, into ``rem`` watts and the zone
        rooms ``zrem`` (a list it uses up); and how many branch items from
        ``level`` on it takes whole at their top status, one after another.
        The free items are the continuous ones before ``level``'s item, then
        every item from it on, so the fill reads no item fixed above
        ``level``, and visits the free ones in density order.

        ``cuts``, when given, receives the index of the item where the fill
        first falls short: under key -1 the item the budget cuts, or where
        the fill ends; under a zone's index that zone's first cut, if it
        comes earlier. :meth:`resume_rates` reads them.
        """
        if rem <= 0.0:  # no room for any item, whose power is positive: nothing to scan
            if cuts is not None:
                cuts[-1] = 0
            return bound, 0
        head = level
        relax = self.relax
        start, before = self.starts[level]
        for k in chain(self.cont_at[:before], range(start, len(relax))):
            pos, max_power, density, zi = relax[k]
            room = zrem[zi] if zi >= 0 and zrem[zi] < rem else rem
            if max_power <= room:
                take = max_power
                if pos == head:
                    head += 1
            else:
                if cuts is not None:
                    cuts.setdefault(zi if room < rem else -1, k)  # room < rem: the zone cuts it
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
        if cuts is not None:
            cuts.setdefault(-1, stop)
        return bound, head - level

    def resume_rates(self, cuts: dict[int, int]) -> list[float]:
        """Per zone index, then for the budget (index -1), the most a watt
        freed there can add to the fill of a sibling on the chain of the
        relaxation that recorded ``cuts``: the density of the item where that
        fill first fell short for lack of the room (the zone's first cut, if
        it comes before the budget's, else the budget's), which no later item
        exceeds, but at least 0 (the freed watt may go unused); 0 where the
        fill ended uncut."""
        relax = self.relax

        def rate(k: int) -> float:
            return max(0.0, relax[k][2]) if k < len(relax) else 0.0

        budget = cuts[-1]
        return [rate(cuts.get(zi, budget)) for zi in range(len(self.zone_limits))] + [rate(budget)]

    def fill(self, rem: float, rooms: Sequence[float]) -> list[float]:
        """The continuous statuses, in ``cont`` order, of the greedy fill by
        density into ``rem`` watts and a copy of the zone rooms ``rooms``."""
        rooms = list(rooms)
        fill = []
        for _, zi, rated, power in self.cont:
            room = rem if zi < 0 else min(rem, rooms[zi])
            take = min(power, max(room, 0.0))
            if take > 0.0:
                fill.append(take / rated)
                rem -= take
                if zi >= 0:
                    rooms[zi] -= take
            else:
                fill.append(0.0)
        return fill


class _Leaf(NamedTuple):
    """A plan ``solve`` proved optimal at ``budget_w`` (B0) on the search data
    ``prep``, kept to be refilled at other budgets: its statuses, its branch
    powers in level order and the zone rooms the search reached it with,
    neither of which depends on the budget, its continuous statuses in
    ``prep.cont`` order, and the margin by which it beats every other leaf at
    B0. The search records the rooms and the fill as it fills the leaf.
    ``branch_w`` is the branch powers' sum S, by ``math.fsum``, where every
    power is an integer in [0, 2**53), else None (see :meth:`refill`).

    ``solve`` refuses a model where a load weighs negative
    (``FleetModel.fill_monotone``), so the search's bounds are true relaxation
    bounds. :meth:`refill` certifies the refilled leaf (the same branch
    statuses, with the fill ``solve``'s leaf gives them at budget B) as the
    plan ``solve`` returns at B in one of two cases (sensitivity analysis for
    branch and bound: Schrage & Wolsey, *Operations Research* 33(5), 1985):

    - B = B0. The caps and zone limits are the plan's, so the problem is the
      one ``solve`` proved the plan optimal on, and its fill is ``fill``.
    - |B - B0|·d_max < ``margin``, d_max being ``_Prepared.d_max``, and the
      branch powers fit B. The margin is finite only where every branch load
      sits at its top status and the root relaxation at B0 took them all
      whole. Then every other leaf lies under a sibling of the root's chain,
      whose bound at B0 is at most its ceiling (see ``solve``) and, a greedy
      relaxation, rises with the budget by at most d_max per watt. The
      refilled leaf's fill is monotone in the budget and loses at most a watt
      per watt, each worth at most d_max. The margin is the plan's objective
      less the highest ceiling the search computed, over every branch level
      and lower status, pruned or searched, less ``FleetModel.ceiling_slack``;
      so inside that radius every other leaf's objective is strictly below
      the refilled leaf's, and the first dive reaches it.

    The slack covers the rounding of that argument, with u = 2**-53 and P and V
    as in ``FleetModel``: the ceilings' 20(m + 2)uV, as in ``solve``; 2uV for
    each of the two objectives, sums of rounded products; each of the two
    fills, walked in floating point, strays from the exact one by at most
    2(n + 1)uP watts, worth 2(n + 1)uV; and forming the margin and the radius
    test rounds by at most 13uV. That totals at most (24n + 61)uV, under the
    slack's 32(n + 2)uV.
    """

    prep: _Prepared
    statuses: tuple[float, ...]
    budget_w: float
    powers: tuple[float, ...]
    branch_w: float | None
    rooms: list[float]
    fill: list[float]
    margin: float

    def refill(self, budget_w: float) -> list[float] | None:
        """The continuous statuses, in ``prep.cont`` order, that make this
        leaf's branch statuses, so refilled, the plan ``solve`` returns at
        ``budget_w``, where the certificate above shows it; else None.

        At the leaf's own budget they are its own fill. Elsewhere the budget
        must lie within the radius of the margin, and the branch powers must
        fit it: they are subtracted in level order with the search's own
        check and arithmetic, then ``prep.fill`` fills the continuous loads as
        ``solve``'s leaf does. Zone rooms need no check: they do not depend on
        the budget, and the search met them on its way to the leaf. The search
        puts back each room it lowered as the value it was, not as a sum, so a
        node's rooms depend on its path alone, and ``rooms`` are the leaf's at
        any budget.

        Where ``branch_w`` holds S and 0 < B < 2**53, one subtraction B - S
        stands for that walk, bit for bit. B is a multiple of ulp(B), which is
        at most 1, so every integer is one too. While the walk's check passes,
        each remainder, B less the powers so far, is exact by induction: a
        multiple of ulp(B) in [0, B] is a float. So each check compares exact
        values, and as the powers are non-negative the walk fails exactly
        where their exact sum exceeds B. ``math.fsum`` rounds correctly, so S
        is that sum where it is below 2**53 and at least 2**53 > B where it
        is not; the walk fails exactly where B - S, rounded, is negative (a
        rounded difference keeps its sign), and else ends at B - S, which is
        exact. With B > 0 no remainder is -0.0. Any other leaf or budget
        takes the walk.
        """
        if budget_w == self.budget_w:
            return self.fill
        prep = self.prep
        if not abs(budget_w - self.budget_w) * prep.d_max < self.margin:
            return None
        if self.branch_w is not None and 0.0 < budget_w < 2.0 ** 53:
            rem = budget_w - self.branch_w
            if rem < 0.0:
                return None
        else:
            rem = budget_w
            for power in self.powers:
                if power > rem:
                    return None
                rem -= power
        return prep.fill(rem, self.rooms)


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
    inherits its bound. Every other node that is not pruned computes
    ``relax_bound`` in full.

    A sibling that lowers such an item is first checked against a ceiling on
    its bound, in O(1). Lowering load L from its top status to s frees
    Δ = (top - s)·rated watts of budget and of L's zone. Every item before
    L's cut point (its zone's first cut in the root fill, if that comes
    before the budget's, else the budget's) that shares L's zone or no zone
    was taken whole, and no other zone's room grew, so the sibling's fill
    takes every item before that point as the root fill did, and the freed
    watts can only go to items from that point on. Those have at most the
    density d⁺ of the item there (taken as at least 0; 0 where the fill ended
    uncut), and they take at most Δ more watts in all. So the sibling's bound
    is at most R - Δ·(density_L - d⁺), R the root bound. A sibling whose
    ceiling falls below the cutoff by more than ``FleetModel.ceiling_slack``,
    which covers the rounding of both sides, is one its own fill would prune
    too, so it is pruned without one: the search tree, and so every plan, is
    the one the fills alone give. Where a density ties d⁺ the ceiling cannot
    decide, and the sibling's own fill does.

    The search is a loop over a list of paused visits (generators), not a
    recursion, so its depth (a level per branch load) is bounded by memory,
    not by the interpreter's recursion limit.

    The clock is read once at every node, siblings the ceiling prunes
    included, so the ceiling leaves each solve's clock reads as the fills
    alone make them. The deadline holds only from the first leaf on: the
    first dive (the greedy plan, which nothing prunes) is always completed,
    so an expired solve returns at least that plan, never the all-zero one,
    flagged ``optimal=False``.

    A plan proven optimal carries its :class:`_Leaf`, recorded as the search
    runs: the zone rooms and fill of the leaf that ranked first, whether the
    root relaxation took every branch item whole, and the highest ceiling of a
    chain sibling, pruned or searched, from which the margin follows.
    """
    t0 = time.perf_counter()
    model = instance.model
    if not model.fill_monotone:
        raise ConfigurationError("a load weighs negative or NaN: the search's bounds fail")
    prep = model.prepared(instance.caps, instance.zone_limits_w)

    statuses = [0.0] * model.n
    best_statuses = list(statuses)
    best_key = model.zero_key
    cutoff = best_key[0] - _tie_tol(best_key[0])  # a bound below it is pruned
    stop_at = math.inf if deadline_s is None else t0 + deadline_s
    deadline = math.inf  # becomes stop_at at the first leaf
    steps, cont = prep.steps, prep.cont
    n_branch = len(steps)
    density, slack = model.density, model.ceiling_slack
    zone_rem = list(prep.zone_limits)
    best_rooms, best_fill = list(zone_rem), [0.0] * len(cont)  # the all-shed plan's
    root: dict[int, int] = {}  # where the root relaxation's fill first falls short
    root_whole = False  # whether the root relaxation took every branch item whole
    top_ceiling = -math.inf  # the highest ceiling of a sibling of the root's chain

    def leaf(rem: float) -> None:
        """Fill the continuous loads, keep the plan, its zone rooms and its fill
        if it ranks first, undo the fill."""
        nonlocal best_key, best_statuses, best_rooms, best_fill, cutoff, deadline
        deadline = stop_at
        fill = prep.fill(rem, zone_rem)
        for (i, _, _, _), status in zip(cont, fill):
            statuses[i] = status
        key = model.plan_key(statuses)
        if key > best_key:
            best_key = key
            best_statuses = list(statuses)
            best_rooms, best_fill = list(zone_rem), fill
            cutoff = key[0] - _tie_tol(key[0])
        for i, _, _, _ in cont:
            statuses[i] = 0.0

    def visit(level: int, rem: float, obj_acc: float):
        """Bound a node, search the line of first children that inherit its
        bound, then yield the visit of each other child, deepest first."""
        nonlocal root_whole, top_ceiling
        if time.perf_counter() > deadline:
            raise _DeadlineExpired
        chain = level == 0  # the root and its line: ``root`` describes their relaxation
        bound, whole = prep.relax_bound(level, rem, obj_acc, list(zone_rem),
                                        root if chain else None)
        if bound < cutoff:
            return
        if chain:
            rates, root_whole = prep.resume_rates(root), whole == n_branch
        # The relaxation took the next ``whole`` branch items whole, so a child
        # giving one its top status inherits the bound: exact there (up to
        # rounding), and it passed the incumbent, which no leaf has changed since.
        line = [(level, rem, obj_acc, whole)]
        rooms = []  # the zone room each zoned load on the line took its top status from
        while whole and level < n_branch:
            i, weight, rated, zi, _, top = steps[level]
            power = top * rated
            if power > rem or zi >= 0 and power > zone_rem[zi]:
                break
            if time.perf_counter() > deadline:
                raise _DeadlineExpired
            statuses[i] = top
            if zi >= 0:
                rooms.append(zone_rem[zi])
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
                    zone_rem[zi] = rooms.pop()
            for status in downward:
                power = status * rated
                if whole and status == top or power > rem or zi >= 0 and power > zone_rem[zi]:
                    continue
                if whole and chain:
                    ceiling = bound - (top - status) * rated * (density[i] - rates[zi])
                    top_ceiling = max(top_ceiling, ceiling)
                    # its own fill would prune it too: pruned unfilled, with its clock read
                    if ceiling < cutoff - slack:
                        if time.perf_counter() > deadline:
                            raise _DeadlineExpired
                        continue
                statuses[i] = status
                if zi >= 0:
                    room = zone_rem[zi]
                    zone_rem[zi] = room - power
                yield visit(level + 1, rem - power, obj_acc + weight * status)
                if zi >= 0:
                    zone_rem[zi] = room
                statuses[i] = 0.0

    # the visits from the root down to the current one, each paused where it
    # yielded the visit of a child
    path = [visit(0, instance.capacity_budget_w, 0.0)]
    try:
        while path:
            for child in path[-1]:
                path.append(child)
                break
            else:
                path.pop()
    except _DeadlineExpired:
        return model.to_plan(best_statuses, best_key, time.perf_counter() - t0, False)
    margin = -math.inf
    if root_whole and all(best_statuses[i] == top for i, _, _, _, _, top in steps):
        margin = best_key[0] - top_ceiling - slack
    powers = tuple(best_statuses[i] * rated for i, _, rated, _, _, _ in steps)
    exact = all(0.0 <= p < 2.0 ** 53 and p.is_integer() for p in powers)
    branch_w = math.fsum(powers) if exact else None
    proven = _Leaf(prep, tuple(best_statuses), instance.capacity_budget_w, powers, branch_w,
                   best_rooms, best_fill, margin)
    return model.to_plan(best_statuses, best_key, time.perf_counter() - t0, True, proven)


# ---------------------------------------------------------------------------
# plan audit


def plan_violations(
    instance: ModelInstance,
    plan: ShedPlan,
) -> list[str]:
    """Every constraint the plan violates beyond ``FEASIBILITY_TOL_W`` watts of slack.
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
    if served_total > instance.capacity_budget_w + FEASIBILITY_TOL_W:
        problems.append(
            f"capacity: served {served_total} W exceeds budget {instance.capacity_budget_w} W"
        )
    for zi, (served, limit) in enumerate(zip(zone_served, instance.zone_limits_w)):
        if served > limit + FEASIBILITY_TOL_W:
            problems.append(f"zone {zi}: served {served} W exceeds limit {limit} W")
    return problems
