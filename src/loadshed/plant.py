"""Discrete-time plant: demand playback, actuator lag, generation events.

The plant owns the physical truth of a run. Each tick it advances the clock,
fires any due events, samples the demand profiles, moves every load's
measured power one first-order-lag step toward its target (the commanded
status capped by demand), and emits a telemetry snapshot.
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
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("profile breakpoints must be strictly ascending in time")
        object.__setattr__(self, "times", times)  # bisected every tick


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
        self._online = {m.id: m.online for m in generation}
        self._modules = tuple(generation)
        self._profiles = tuple(profiles.get(lid) for lid in self.load_ids)
        self._events = sorted(events, key=lambda e: e.time_s)
        self._next_event = 0
        self.forced_off: set[int] = set()
        # per load in fleet order: commanded status, measured power (W)
        self.commanded = [1.0] * len(self.fleet)
        # start in steady state: measured power equals the initial target
        self.measured_w = [min(1.0, d) * r for d, r in zip(self._demands(t_start_s), self._rated)]

    def _demands(self, t: float) -> tuple[float, ...]:
        """Each load's demand status at ``t``; a failed load demands 0."""
        forced = self.forced_off
        return tuple(0.0 if profile is None or lid in forced else sample_profile(profile, t)
                     for lid, profile in zip(self.load_ids, self._profiles))

    def apply_commands(self, commands: Iterable[ShedCommand]) -> None:
        """Update commanded statuses; unknown load ids are logged and skipped."""
        for cmd in commands:
            i = self._index.get(cmd.load_id)
            if i is None:
                log.warning("ignoring command for unknown load %d", cmd.load_id)
                continue
            self.commanded[i] = cmd.status

    def _boundary_slack(self) -> float:
        # a nanosecond of relative slack: grid times and event times are both
        # rounded floats, and anything within rounding of the boundary
        # belongs to the tick that ends there
        return 1e-9 * (1.0 + abs(self.clock_s))

    def _fire_due_events(self) -> None:
        due = self.clock_s + self._boundary_slack()
        while self._next_event < len(self._events) and (
            self._events[self._next_event].time_s <= due
        ):
            ev = self._events[self._next_event]
            self._next_event += 1
            if isinstance(ev, GeneratorTrip):
                self._online[ev.module_id] = False
            elif isinstance(ev, GeneratorRestore):
                self._online[ev.module_id] = True
            elif isinstance(ev, LoadFailure):
                self.forced_off.add(ev.load_id)
            # a ZoneLimitChange is the controller's to enforce, not the plant's

    def tick(self, dt: float) -> SystemSnapshot:
        """Advance the plant by ``dt`` seconds and return the new telemetry."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if dt != self._dt:
            self._base_t = self.clock_s
            self._base_ticks = 0
            self._dt = dt
        self._base_ticks += 1
        self.clock_s = self._base_t + self._base_ticks * dt
        self._fire_due_events()
        alpha = 1.0 if self.tau_s == 0.0 else 1.0 - math.exp(-dt / self.tau_s)
        sample_t = self.clock_s + self._boundary_slack()
        demands = self._demands(sample_t)
        measured = self.measured_w
        total = 0.0  # added in order: from Python 3.12 on, sum() rounds floats differently
        for i, (c, d, rated) in enumerate(zip(self.commanded, demands, self._rated)):
            p = measured[i]
            measured[i] = p = p + (min(c, d) * rated - p) * alpha  # first-order lag to target
            total += p
        capacity = sum(m.rated_power_w for m in self._modules if self._online[m.id])
        loss = self.loss_fraction * total
        if capacity > 0:
            loading = (total + loss) / capacity
        else:
            loading = 0.0 if total + loss <= 0 else math.inf
        return SystemSnapshot(
            time_s=self.clock_s,
            mission_id=self.mission_id,
            load_ids=self.load_ids,
            demands=demands,
            measured_w=tuple(measured),
            total_capacity_w=capacity,
            total_loss_w=loss,
            loading_pu=loading,
        )
