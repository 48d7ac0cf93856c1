"""Stage-based baseline load shedding.

A single timer tracks continuous per-unit overload. Past 250 ms the
controller starts cutting non-vital loads, past 2.5 s semi-vital loads,
past 5.0 s vital loads, one load per control tick, in declaration order
within each category. Loads are cut to zero and never restored within a
run; the timer resets whenever loading drops to 1.0 pu or below.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .model import Category, LoadSpec, SystemSnapshot

# Stage opening thresholds, in escalation order (seconds of sustained overload).
STAGE_THRESHOLDS_S: tuple[tuple[Category, float], ...] = (
    (Category.NON_VITAL, 0.25),
    (Category.SEMI_VITAL, 2.5),
    (Category.VITAL, 5.0),
)

# The timer accumulates tick-sized float increments; without slack, 25 ticks of
# 0.1 s sum a hair above 2.5 and would open a stage one tick early. Drift over
# any plausible run is far below a microsecond.
_BOUNDARY_SLACK_S = 1e-6


class BaselineController:
    """The staged rule: each overloaded tick advances the timer and cuts at
    most one load, from the first open stage whose category has one left.

    ``intent`` is the statuses it commands, in fleet order; it stays the same
    tuple object while no load is cut. There is no optimization solve, so
    ``last_plan`` stays None.
    """

    last_plan = None

    def __init__(self, fleet: Sequence[LoadSpec], tick_s: float):
        self.fleet = tuple(fleet)
        self.tick_s = tick_s
        self.intent: tuple[float, ...] = (1.0,) * len(self.fleet)
        self.overload_timer_s = 0.0
        # per stage, the fleet positions of its category's uncut loads, in declaration order
        self._uncut = tuple(
            deque(k for k, spec in enumerate(self.fleet) if spec.group.category is cat)
            for cat, _ in STAGE_THRESHOLDS_S)

    def on_telemetry(self, snapshot: SystemSnapshot) -> None:
        if snapshot.loading_pu <= 1.0:
            self.overload_timer_s = 0.0
            return
        self.overload_timer_s += self.tick_s
        for (_, threshold), uncut in zip(STAGE_THRESHOLDS_S, self._uncut):
            if uncut and self.overload_timer_s > threshold + _BOUNDARY_SLACK_S:
                intent = list(self.intent)
                intent[uncut.popleft()] = 0.0
                self.intent = tuple(intent)
                return
