"""Discrete-time plant: demand playback, actuator lag, generation events.

The plant owns the physical truth of a run. Each tick it advances the clock,
fires any due events, plays the demand breakpoints that have come due, moves
each load's measured power one first-order-lag step toward its target (the
commanded status capped by demand), and emits a telemetry snapshot.

A tick does only what changed. All profiles' breakpoints are merged into one
time-ordered schedule read with a cursor. The demand tuple is rebuilt only
when a breakpoint or a load failure touches it, so unchanged ticks share one
tuple. Only loads whose lag may still move are stepped: a load joins that set
when its command, its demand or the tick length changes, and leaves it when a
step returns its power bit for bit (the step is then a fixed point). The
total, the measured tuple and the loading are recomputed only when some load
moved, and online capacity only when an event fired.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from .model import GenerationModule, LoadSpec, ShedCommand, SystemSnapshot

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LoadProfile:
    """Piecewise-constant demand schedule: (time, demand status) breakpoints."""

    breakpoints: tuple[tuple[float, float], ...]
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        times = tuple(t for t, _ in self.breakpoints)
        if any(math.isnan(t) for t in times) or any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("profile breakpoints must be strictly ascending in time")
        object.__setattr__(self, "times", times)  # bisected by sample_profile


def sample_profile(profile: LoadProfile, t: float) -> float:
    """Demand status at time ``t``: latest breakpoint at or before ``t``, else 0."""
    k = bisect_right(profile.times, t)
    if k == 0:
        return 0.0
    return profile.breakpoints[k - 1][1]


@dataclass(frozen=True)
class GeneratorTrip:
    time_s: float
    module_id: int


@dataclass(frozen=True)
class GeneratorRestore:
    time_s: float
    module_id: int


@dataclass(frozen=True)
class LoadFailure:
    time_s: float
    load_id: int


@dataclass(frozen=True)
class ZoneLimitChange:
    """A scheduled zone limit; the controller enforces it, the plant ignores it."""

    time_s: float
    zone: str
    limit_w: float


PlantEvent = GeneratorTrip | GeneratorRestore | LoadFailure | ZoneLimitChange


def _same_float(new: float, old: float) -> bool:
    """Whether ``new``, a float, has the bits of ``old``: equal, the same
    type, and for zero the same sign (``0.0 == -0.0`` but they print apart)."""
    return new == old and type(old) is float and (
        new != 0.0 or math.copysign(1.0, new) == math.copysign(1.0, old))


class Plant:
    """Single-owner plant state machine; snapshots are immutable copies."""

    def __init__(
        self,
        fleet: Sequence[LoadSpec],
        generation: Sequence[GenerationModule],
        profiles: Mapping[int, LoadProfile],
        events: Iterable[PlantEvent] = (),
        tau_s: float = 0.2,
        loss_fraction: float = 0.02,
        mission_id: int = 1,
        t_start_s: float = 0.0,
    ):
        if tau_s < 0:
            raise ValueError("actuator time constant must be >= 0")
        self.fleet = tuple(fleet)
        self.load_ids = tuple(spec.id for spec in self.fleet)  # every snapshot shares it
        self._index = {lid: i for i, lid in enumerate(self.load_ids)}
        self._rated = tuple(spec.rated_power_w for spec in self.fleet)
        self.tau_s = tau_s
        self.loss_fraction = loss_fraction
        self.mission_id = mission_id
        self.clock_s = t_start_s
        # clock is derived as base + ticks*dt, not accumulated, so a 600 s run
        # of 0.1 s ticks lands exactly on the grid that events are keyed to
        self._base_t = t_start_s
        self._base_ticks = 0
        self._dt: float | None = None
        self._alpha = 1.0  # the lag's step fraction at the current dt
        self._online = {m.id: m.online for m in generation}
        self._modules = tuple(generation)
        self._capacity: float | None = None  # online rating; None: add it up again
        self._events = sorted(events, key=lambda e: e.time_s)
        self._next_event = 0
        self.forced_off: set[int] = set()
        # every profile's breakpoints in time order (a stable sort keeps each
        # load's own order): times, and (load index, demand status) pairs
        schedule = sorted(((t, i, status) for i, lid in enumerate(self.load_ids)
                           if lid in profiles for t, status in profiles[lid].breakpoints),
                          key=lambda bp: bp[0])
        self._bp_times = [t for t, _, _ in schedule]
        self._bp_points = [(i, status) for _, i, status in schedule]
        self._next_bp = 0
        # per load in fleet order: demand status (0 before its first breakpoint,
        # without a profile, or once failed), commanded status, measured power (W)
        self._level: list[float] = [0.0] * len(self.fleet)
        self.commanded = [1.0] * len(self.fleet)
        self._moving = set(range(len(self.fleet)))  # loads whose lag may still move
        self._play_profiles(t_start_s)
        self.demands = tuple(self._level)
        # start in steady state: measured power equals the initial target
        self.measured_w = [min(1.0, d) * r for d, r in zip(self.demands, self._rated)]
        # what the next snapshot reports, each rebuilt only when its inputs change
        self._measured: tuple[float, ...] | None = None
        self._total = 0.0

    def _play_profiles(self, t: float) -> bool:
        """Apply the breakpoints due by ``t`` to the demand levels; whether any
        was due. A failed load keeps demanding 0."""
        times, points, ids, forced = self._bp_times, self._bp_points, self.load_ids, self.forced_off
        k = start = self._next_bp
        while k < len(times) and times[k] <= t:
            i, status = points[k]
            k += 1
            if ids[i] not in forced:
                self._level[i] = status
                self._moving.add(i)
        self._next_bp = k
        return k > start

    def apply_commands(self, commands: Iterable[ShedCommand]) -> None:
        """Update commanded statuses; a command for an unknown load id, or with a
        status outside its load's domain (NaN included), is logged and skipped."""
        for cmd in commands:
            i = self._index.get(cmd.load_id)
            if i is None:
                log.warning("ignoring command for unknown load %d", cmd.load_id)
                continue
            if not self.fleet[i].variability.contains(cmd.status):
                log.warning("ignoring status %r outside the domain of load %d",
                            cmd.status, cmd.load_id)
                continue
            self.commanded[i] = cmd.status
            self._moving.add(i)

    def _boundary_slack(self) -> float:
        # a nanosecond of relative slack: grid times and event times are both
        # rounded floats, and anything within rounding of the boundary
        # belongs to the tick that ends there
        return 1e-9 * (1.0 + abs(self.clock_s))

    def _fire_due_events(self) -> bool:
        """Fire the events due by the clock; whether a load failed."""
        due = self.clock_s + self._boundary_slack()
        failed = False
        while self._next_event < len(self._events) and (
            self._events[self._next_event].time_s <= due
        ):
            ev = self._events[self._next_event]
            self._next_event += 1
            self._capacity = None
            if isinstance(ev, GeneratorTrip):
                self._online[ev.module_id] = False
            elif isinstance(ev, GeneratorRestore):
                self._online[ev.module_id] = True
            elif isinstance(ev, LoadFailure):
                self.forced_off.add(ev.load_id)
                i = self._index.get(ev.load_id)
                if i is not None:
                    self._level[i] = 0.0
                    self._moving.add(i)
                    failed = True
            # a ZoneLimitChange is the controller's to enforce, not the plant's
        return failed

    def _step_lags(self) -> bool:
        """Move each load that may still move one lag step toward its target
        (its commanded status capped by demand); whether any power changed."""
        alpha, rated = self._alpha, self._rated
        measured, commanded, level = self.measured_w, self.commanded, self._level
        settled = []
        moved = False
        for i in self._moving:
            p = measured[i]
            c, d = commanded[i], level[i]
            q = p + ((d if d < c else c) * rated[i] - p) * alpha  # min(c, d)
            if _same_float(q, p):
                settled.append(i)  # a fixed point until its inputs change
            else:
                measured[i] = q
                moved = True
        self._moving.difference_update(settled)
        return moved

    def tick(self, dt: float) -> SystemSnapshot:
        """Advance the plant by ``dt`` seconds and return the new telemetry."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if dt != self._dt:
            self._base_t = self.clock_s
            self._base_ticks = 0
            self._dt = dt
            self._alpha = 1.0 if self.tau_s == 0.0 else 1.0 - math.exp(-dt / self.tau_s)
            self._moving.update(range(len(self.fleet)))
        self._base_ticks += 1
        self.clock_s = self._base_t + self._base_ticks * dt
        failed = self._fire_due_events()
        # a breakpoint that fires rebuilds the tuple even if its value is
        # equal: 0.0 and -0.0 are equal but are written differently
        if self._play_profiles(self.clock_s + self._boundary_slack()) or failed:
            self.demands = tuple(self._level)
        if self._step_lags() or self._measured is None:
            total = 0.0  # added in order: from Python 3.12 on, sum() rounds floats differently
            for p in self.measured_w:
                total += p
            self._total = total
            self._measured = tuple(self.measured_w)
        capacity = self._capacity
        if capacity is None:
            capacity = self._capacity = sum(
                m.rated_power_w for m in self._modules if self._online[m.id])
        total = self._total
        loss = self.loss_fraction * total
        if capacity > 0:
            loading = (total + loss) / capacity
        else:
            loading = 0.0 if total + loss <= 0 else math.inf
        return SystemSnapshot(self.clock_s, self.mission_id, self.load_ids, self.demands,
                              self._measured, capacity, loss, loading)
