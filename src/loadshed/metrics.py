"""Mission-weighted operability metrics.

The instantaneous value is the weighted fraction of demanded load service
actually delivered: ``operability(num, den)``. A run's recorder owns one
:class:`ServiceSums`, which gives each row the weighted demand ``den``, the
commanded and measured service and their two operabilities from the row's
aligned per-load columns: the weights as the run's fleet model holds them,
and the statuses and powers as telemetry carries them. It keeps its sums
between rows and recomputes only those whose inputs changed.

The mission-period value is the ratio of the two time-integrals (weighted
service over weighted demand), approximated by left-rectangle sums on the
control grid. Numerator and denominator are integrated separately and
divided once, so a time-varying demand profile is handled correctly.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count
from operator import add, is_not

from .model import STATUS_TOL


DEFAULT_TICK_S = 0.1  # the paper's 100 ms control period


class IncompleteSeriesError(Exception):
    """The sample series does not cover the mission window at the tick spacing."""


@dataclass(frozen=True)
class MissionWindow:
    t_start_s: float
    t_end_s: float
    tick_s: float = DEFAULT_TICK_S  # the control period as well as the sample spacing

    def __post_init__(self) -> None:
        if self.t_end_s <= self.t_start_s:
            raise ValueError("mission window must end after it starts")
        if self.tick_s <= 0:
            raise ValueError("tick must be positive")
        span = self.t_end_s - self.t_start_s
        ticks = span / self.tick_s
        if abs(ticks - round(ticks)) > 1e-6:
            raise ValueError(f"window span {span} is not a multiple of tick {self.tick_s}")

    @property
    def n_ticks(self) -> int:
        return round((self.t_end_s - self.t_start_s) / self.tick_s)


NO_WEIGHTS = (0.0, 0.0, 0.0, 1.0, 1.0)  # a row before the mission's first weight set


class ServiceSums:
    """A run's per-row service sums, for one fleet's ratings ``r``.

    A call takes one row's aligned columns in fleet order: the weights, the
    demand statuses, the commanded statuses and the measured powers (W). It
    returns ``(den, num_cmd, num_meas, op_cmd, op_meas)``: the weighted
    demand ``w * ds``, commanded service ``w * min(s, ds)`` and measured
    service ``w * (m / r)``, each added over the counted loads, then the two
    operabilities. A load counts when its demand status is not within
    ``STATUS_TOL`` of zero, which every status domain reads as 0: a measured
    status over such a demand would make the ratio unbounded. Weights of
    None (no weight set in force yet) give :data:`NO_WEIGHTS`.

    The engine keeps the counted loads, each one's measured term, and the
    objects it took them from, and does only what their change needs:

    - new weights or demands: count the loads and add every sum again;
    - a new commanded tuple: add the commanded sum again;
    - a new measured tuple: compute the terms of the counted loads whose
      measured float is another object than in the last tuple (the plant
      hands on the float of a load that did not move), and add the terms
      again if there were any; a tuple of another length computes every term.

    Each sum adds from ``0.0`` in fleet order, the operations a plain loop
    over the loads does, so the bits do not depend on what changed or on the
    Python version. A caller must not change a list or tuple it has passed.
    """

    def __init__(self, rated_w: Sequence[float]):
        self._rated = tuple(rated_w)
        self._weights = self._demands = self._commanded = self._measured = None
        self._counted: list[int] = []  # the counted loads' indices, in fleet order
        self._slot: list[int] = []  # per load: its term's index in _terms, -1 if not counted
        self._terms: list[float] = []  # the counted loads' measured terms, in fleet order
        self._den = self._num_meas = 0.0
        self._cmd = (0.0, 1.0)  # the commanded sum and its operability
        self._sums = NO_WEIGHTS

    def __call__(self, weights: Sequence[float] | None, demands: Sequence[float],
                 commanded: Sequence[float], measured_w: Sequence[float]) -> tuple:
        if weights is None:
            return NO_WEIGHTS
        old = self._measured
        if weights is not self._weights or demands is not self._demands:
            tol = STATUS_TOL
            counted = self._counted = [i for i, ds in enumerate(demands) if not -tol <= ds <= tol]
            slot = self._slot = [-1] * len(demands)
            den = 0.0
            for j, i in enumerate(counted):
                slot[i] = j
                den += weights[i] * demands[i]
            self._weights, self._demands, self._den = weights, demands, den
            self._commanded = old = None
        new_cmd = commanded is not self._commanded
        if new_cmd:
            self._commanded = commanded
            num = 0.0
            for i in self._counted:
                ds, s = demands[i], commanded[i]
                num += weights[i] * (ds if ds < s else s)  # min(s, ds) without the call overhead
            self._cmd = (num, operability(num, self._den))
        if measured_w is not old:
            self._measured = measured_w
            rated, terms = self._rated, self._terms
            if old is not None and len(measured_w) == len(old):
                slot, moved = self._slot, False
                for i in compress(count(), map(is_not, measured_w, old)):
                    j = slot[i]
                    if j >= 0:
                        terms[j] = weights[i] * (measured_w[i] / rated[i])
                        moved = True
                if not (moved or new_cmd):  # only loads that do not count moved
                    return self._sums
            else:
                terms[:] = [weights[i] * (measured_w[i] / rated[i]) for i in self._counted]
            self._num_meas = reduce(add, terms, 0.0)  # ((0.0 + t0) + t1) + ..., as a loop adds
        elif not new_cmd:
            return self._sums
        den, num_meas = self._den, self._num_meas
        num_cmd, op_cmd = self._cmd
        self._sums = (den, num_cmd, num_meas, op_cmd, operability(num_meas, den))
        return self._sums


def operability(num: float, den: float) -> float:
    """Weighted service over weighted demand; 1.0 when nothing is demanded."""
    return 1.0 if den <= 0.0 else num / den


def integral_operability(
    samples: Iterable[tuple[float, float, float]],
    window: MissionWindow,
) -> float:
    """Mission-period operability from (time, numerator, denominator) ticks.

    Each sample must sit on the window grid; a missing tick raises
    :class:`IncompleteSeriesError`. Ticks with zero denominator contribute
    nothing to either integral.
    """
    tick = window.tick_s
    expected = window.n_ticks
    covered = [False] * expected
    num_total = 0.0
    den_total = 0.0
    for t, num, den in samples:
        k = (t - window.t_start_s) / tick
        idx = round(k) - 1
        if abs(k - round(k)) > 1e-6 * max(1.0, abs(k)):
            raise IncompleteSeriesError(f"sample at t={t} is off the {tick} s grid")
        if idx < 0 or idx >= expected:
            continue  # outside the window
        if covered[idx]:
            raise IncompleteSeriesError(f"duplicate sample at t={t}")
        covered[idx] = True
        if den > 0.0:
            num_total += num * tick
            den_total += den * tick
    if not all(covered):
        first = covered.index(False)
        t_missing = window.t_start_s + (first + 1) * tick
        raise IncompleteSeriesError(f"no sample for tick ending at t={t_missing}")
    return operability(num_total, den_total)
