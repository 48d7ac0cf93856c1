"""Mission-weighted operability metrics.

The instantaneous value is the weighted fraction of demanded load service
actually delivered: ``operability(num, den)``, where ``served_sums`` gives
the weighted demand ``den`` and commanded service ``num``, and a
:class:`MeasuredSum` the measured service. Both take aligned per-load
columns in fleet order: the weights as the run's fleet model holds them, and
the statuses and powers as telemetry carries them. The run recorder calls
them each tick; its :class:`MeasuredSum` keeps each load's term between rows
and recomputes only those of the loads whose measured power moved.

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


def served_sums(weights: Iterable[float], demands: Iterable[float],
                served: Iterable[float]) -> tuple[float, float]:
    """Weighted (demanded, served) totals in one pass over the loads.

    ``weights``, ``demands`` and ``served`` are aligned columns, one entry
    per load. A served status counts up to its load's demand status. Loads
    whose demand status is within ``STATUS_TOL`` of zero, which every status
    domain reads as 0, add to neither sum: a measured status over such a
    demand would make the ratio unbounded.
    """
    den = num = 0.0
    tol = STATUS_TOL
    for w, ds, s in zip(weights, demands, served):
        if -tol <= ds <= tol:
            continue
        den += w * ds
        num += w * (ds if ds < s else s)  # min(s, ds) without the call overhead
    return den, num


class MeasuredSum:
    """Weighted measured status, ``w * (m / r)`` added over the loads that
    :func:`served_sums` counts, in fleet order, for one fleet's ratings ``r``.

    A call takes the weights, demand statuses and measured powers (W) of one
    row. The sum keeps each counted load's term and the objects it took them
    from, and does only what their change needs:

    - the same weights, demands and measured objects as the last call: the
      last sum;
    - a new measured tuple only: the terms of the loads whose measured float
      is another object than in the last tuple (the plant hands on the float
      of a load that did not move), then the terms added again;
    - new weights or demands: every term.

    The terms are added from ``0.0`` in fleet order, the operations a plain
    loop over the loads does, so the bits do not depend on which loads moved
    or on the Python version. A caller must not change a list or tuple it
    has passed.
    """

    def __init__(self, rated_w: Sequence[float]):
        self._rated = tuple(rated_w)
        self._weights = self._demands = self._measured = None
        self._slot: list[int] = []  # per load: its term's index in _terms, -1 if not counted
        self._terms: list[float] = []  # the counted loads' terms, in fleet order
        self._total = 0.0

    def __call__(self, weights: Sequence[float], demands: Sequence[float],
                 measured_w: Sequence[float]) -> float:
        old = self._measured
        if measured_w is old and weights is self._weights and demands is self._demands:
            return self._total
        self._measured = measured_w
        rated, terms, slot = self._rated, self._terms, self._slot
        if (weights is self._weights and demands is self._demands
                and len(measured_w) == len(old)):
            moved = False
            for i in compress(count(), map(is_not, measured_w, old)):
                j = slot[i]
                if j >= 0:
                    terms[j] = weights[i] * (measured_w[i] / rated[i])
                    moved = True
            if not moved:
                return self._total
        else:
            self._weights, self._demands = weights, demands
            tol = STATUS_TOL
            slot[:] = [-1] * len(measured_w)
            terms.clear()
            for i, (w, ds, m, r) in enumerate(zip(weights, demands, measured_w, rated)):
                if not -tol <= ds <= tol:
                    slot[i] = len(terms)
                    terms.append(w * (m / r))
        self._total = reduce(add, terms, 0.0)  # ((0.0 + t0) + t1) + ..., as a loop adds
        return self._total


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
