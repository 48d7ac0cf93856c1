"""Core domain model: loads, generation modules, mission weights, snapshots.

Everything here is an immutable value type, safe to copy between the plant,
the link layer, and the controllers. The per-tick :class:`SystemSnapshot` is
a ``typing.NamedTuple``, which builds several times faster than a frozen
dataclass; derive a changed copy with ``snapshot._replace(...)``. The other
types are frozen dataclasses. Validation is report-style: a bad fleet never
raises, it produces a :class:`ValidationReport` listing every problem.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

STATUS_TOL = 1e-9


class Category(Enum):
    """Shedding priority category used by the staged baseline controller."""

    NON_VITAL = "non_vital"
    SEMI_VITAL = "semi_vital"
    VITAL = "vital"


class LoadGroup(Enum):
    ACLC_VITAL = "ACLC_Vital"
    ACLC_NONVITAL = "ACLC_NonVital"
    MW_CLASS = "MWClass"
    IPNC = "IPNC"
    PMM = "PMM"

    @property
    def category(self) -> Category:
        return _GROUP_CATEGORY[self]


# Total mapping: every group has exactly one baseline category.
_GROUP_CATEGORY = {
    LoadGroup.ACLC_VITAL: Category.VITAL,
    LoadGroup.ACLC_NONVITAL: Category.NON_VITAL,
    LoadGroup.MW_CLASS: Category.VITAL,
    LoadGroup.IPNC: Category.SEMI_VITAL,
    LoadGroup.PMM: Category.VITAL,
}


@dataclass(frozen=True)
class Variability:
    """Feasible operating statuses of a load.

    ``binary`` loads run at 0 or 1, ``stepped`` loads at 0 or one of their
    levels, ``continuous`` loads anywhere in [0, 1].
    """

    kind: str  # "binary" | "stepped" | "continuous"
    levels: tuple[float, ...] = ()

    @staticmethod
    def binary() -> "Variability":
        return Variability("binary")

    @staticmethod
    def continuous() -> "Variability":
        return Variability("continuous")

    @staticmethod
    def stepped(levels: Sequence[float]) -> "Variability":
        return Variability("stepped", tuple(float(x) for x in levels))

    def contains(self, status: float) -> bool:
        """Whether ``status`` is feasible, to within ``STATUS_TOL``."""
        if self.kind == "continuous":
            return -STATUS_TOL <= status <= 1.0 + STATUS_TOL
        if self.kind == "binary":
            return abs(status) <= STATUS_TOL or abs(status - 1.0) <= STATUS_TOL
        if abs(status) <= STATUS_TOL:
            return True
        return any(abs(status - lvl) <= STATUS_TOL for lvl in self.levels)

    def discrete_statuses(self, cap: float = 1.0) -> tuple[float, ...] | None:
        """Statuses available up to ``cap``, or None for a continuous load."""
        if self.kind == "continuous":
            return None
        if self.kind == "binary":
            feasible = [s for s in (0.0, 1.0) if s <= cap + STATUS_TOL]
        else:
            feasible = [0.0] + [lvl for lvl in self.levels if lvl <= cap + STATUS_TOL]
        return tuple(feasible)


@dataclass(frozen=True)
class LoadSpec:
    """One shedable load: identity, rating, group and status domain."""

    id: int
    name: str
    group: LoadGroup
    rated_power_w: float
    variability: Variability
    zone: str | None = None


@dataclass(frozen=True)
class MissionWeightSet:
    """Per-load importance weights for one mission, active from ``valid_from_s``."""

    mission_id: int
    weights: Mapping[int, float]
    valid_from_s: float = 0.0


@dataclass(frozen=True)
class GenerationModule:
    id: int
    name: str
    rated_power_w: float
    online: bool = True


@dataclass(frozen=True)
class ZoneLimit:
    """Maximum power deliverable into one damage-control zone."""

    zone: str
    limit_w: float
    members: tuple[int, ...]


class SystemSnapshot(NamedTuple):
    """Plant telemetry for one control tick.

    ``load_ids``, ``demands`` and ``measured_w`` are aligned columns, one
    entry per fleet load in declaration order: the load's id, the maximum
    operating status it demands right now, and its measured power in watts.
    The plant shares one ``load_ids`` tuple across all its snapshots. It is
    built once per tick, so it is a named tuple, not a frozen dataclass.
    """

    time_s: float
    mission_id: int
    load_ids: tuple[int, ...]
    demands: tuple[float, ...]
    measured_w: tuple[float, ...]
    total_capacity_w: float
    total_loss_w: float
    loading_pu: float

    @property
    def budget_w(self) -> float:
        """Power the loads may draw: online capacity less distribution losses."""
        return max(0.0, self.total_capacity_w - self.total_loss_w)


@dataclass(frozen=True)
class ShedCommand:
    """Controller order: set one load to ``status``."""

    load_id: int
    status: float


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def __iter__(self):
        return iter(self.issues)

    def __str__(self) -> str:
        if self.ok:
            return "configuration ok"
        return "\n".join(str(i) for i in self.issues)


def fleet_issues(
    fleet: Sequence[LoadSpec], zones: Sequence[ZoneLimit]
) -> tuple[list[ValidationIssue], dict[int, LoadSpec]]:
    """The fleet and zone issues, and the fleet by load id (the last of a
    duplicated id wins)."""
    issues: list[ValidationIssue] = []

    def bad(code: str, subject: str, message: str) -> None:
        issues.append(ValidationIssue(code, subject, message))

    by_id: dict[int, LoadSpec] = {}
    for spec in fleet:
        subject = f"load {spec.id}"
        if spec.id in by_id:
            bad("duplicate-id", subject, "id appears more than once in the fleet")
        by_id[spec.id] = spec
        if not 0 < spec.rated_power_w < math.inf:
            bad("rated-power", subject,
                f"rated power must be finite and > 0 W, got {spec.rated_power_w}")
        if spec.variability.kind == "stepped":
            levels = spec.variability.levels
            if not levels:
                bad("stepped-levels", subject, "stepped load declares no levels")
            else:
                if any(b <= a for a, b in zip(levels, levels[1:])):
                    bad("stepped-levels", subject, f"levels not strictly ascending: {list(levels)}")
                if any(not (0.0 < lvl <= 1.0) for lvl in levels):
                    bad("stepped-levels", subject, f"levels must lie in (0, 1]: {list(levels)}")
                if abs(levels[-1] - 1.0) > STATUS_TOL:
                    bad("stepped-levels", subject, f"last level must be 1.0, got {levels[-1]}")
        elif spec.variability.kind not in ("binary", "continuous"):
            bad("variability", subject, f"unknown variability kind {spec.variability.kind!r}")

    seen_zones: set[str] = set()
    for zl in zones:
        subject = f"zone {zl.zone}"
        if zl.zone in seen_zones:
            bad("duplicate-zone", subject, "zone limit declared more than once")
        seen_zones.add(zl.zone)
        if not zl.limit_w >= 0:  # also NaN; an infinite limit is no limit
            bad("zone-limit", subject, f"limit must be >= 0 W, got {zl.limit_w}")
        if not zl.members:
            bad("zone-members", subject, "member set is empty")
        for lid in zl.members:
            spec = by_id.get(lid)
            if spec is None:
                bad("zone-members", subject, f"member load {lid} is not in the fleet")
            elif spec.zone != zl.zone:
                bad("zone-members", subject, f"member load {lid} declares zone {spec.zone!r}")

    return issues, by_id


def weight_issues(fleet: Sequence[LoadSpec],
                  weights: MissionWeightSet) -> list[ValidationIssue]:
    """Every load weighted, every weight finite and not negative, one positive."""
    subject = f"mission {weights.mission_id} weights from t={weights.valid_from_s}"
    w = weights.weights
    issues = [ValidationIssue("missing-weight", subject, f"load {spec.id} has no weight")
              for spec in fleet if spec.id not in w]
    issues += [ValidationIssue("negative-weight", subject, f"load {lid} weight {x} is negative")
               for lid, x in w.items() if x < 0]
    issues += [ValidationIssue("nonfinite-weight", subject, f"load {lid} weight {x} is not finite")
               for lid, x in w.items() if not math.isfinite(x)]
    if w and not any(x > 0 for x in w.values()):
        issues.append(ValidationIssue("all-zero-weights", subject,
                                      "at least one weight must be positive"))
    return issues

