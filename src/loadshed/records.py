"""Per-tick run records and their CSV serialization.

``run.csv`` holds everything deterministic about a run and is byte-identical
across repeats of the same seeded lockstep scenario. Wall-clock solve times
are written to a ``timing.csv`` sidecar instead, since they vary run to run.
The CSV schema is versioned in comment lines so downstream tooling can rely
on it.

The writers stream: each row is rendered and written as it is reached, so no
whole file is built in memory. Every number is written as its ``repr``, which
never needs CSV quoting, so a line is a plain comma-joined string and ``csv``
readers parse it back exactly.
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

RUN_CSV_VERSION = "loadshed-run-csv v1"


@dataclass(frozen=True)
class RunRecord:
    """One control tick: plant truth plus the controller's response to it.

    ``commanded`` is the controller's intent after processing this tick's
    telemetry (it takes physical effect one tick later). ``wsum_*`` are the
    mission-weighted service sums feeding the operability integrals.
    """

    time_s: float
    capacity_w: float
    loss_w: float
    loading_pu: float
    wsum_demand: float
    wsum_commanded: float
    wsum_measured: float
    op_commanded: float
    op_measured: float
    degraded: bool
    demands: tuple[float, ...]
    commanded: tuple[float, ...]
    measured_w: tuple[float, ...]
    solve_time_s: float = 0.0  # wall clock; kept out of run.csv


@dataclass(frozen=True)
class RunMeta:
    tick_s: float
    t_start_s: float
    t_end_s: float
    algorithm: str
    mode: str
    seed: int
    mission_id: int
    fleet: tuple[tuple[int, str, float], ...]  # (load id, group name, rated watts)

    @property
    def load_ids(self) -> tuple[int, ...]:
        return tuple(lid for lid, _, _ in self.fleet)


def _columns(load_ids: Sequence[int]) -> list[str]:
    cols = [
        "time_s", "capacity_w", "loss_w", "loading_pu",
        "wsum_demand", "wsum_commanded", "wsum_measured",
        "op_commanded", "op_measured", "degraded",
    ]
    cols += [f"demand_{lid}" for lid in load_ids]
    cols += [f"cmd_{lid}" for lid in load_ids]
    cols += [f"meas_w_{lid}" for lid in load_ids]
    return cols


class _FloatReprs(dict):
    """``repr`` of floats, memoised by value.

    Only nonzero, non-NaN floats are kept: ``0.0`` and ``-0.0`` are equal keys
    with different reprs, and a NaN key is never found again. Equal ints and
    floats are equal keys too, so look up only values whose type is ``float``.
    Once ``MAX_ENTRIES`` values are kept, new ones are rendered but not kept.
    """

    MAX_ENTRIES = 1 << 13

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value and value == value and len(self) < self.MAX_ENTRIES:
            self[value] = text
        return text


def write_run_csv(path: str | Path, meta: RunMeta, rows: Sequence[RunRecord]) -> None:
    fleet_desc = ",".join(f"{lid}:{group}:{rated!r}" for lid, group, rated in meta.fleet)
    # measured powers repeat once each actuator lag settles on its target;
    # demands and statuses are not memoised, as they may hold ints
    measured_repr = _FloatReprs().__getitem__
    only_float = {float}
    cmd_obj = cmd_text = demand_obj = demand_text = meas_obj = meas_text = None
    with Path(path).open("w", newline="") as fh:
        write = fh.write
        write(f"# {RUN_CSV_VERSION}\n")
        write(
            f"# meta tick_s={meta.tick_s!r} t_start_s={meta.t_start_s!r}"
            f" t_end_s={meta.t_end_s!r} algorithm={meta.algorithm}"
            f" mode={meta.mode} seed={meta.seed} mission_id={meta.mission_id}\n"
        )
        write(f"# fleet {fleet_desc}\n")
        write(",".join(_columns(meta.load_ids)) + "\n")
        for r in rows:
            # the controllers pass their intent tuple on uncopied, and the
            # plant its demand and measured tuples while they are unchanged,
            # so a row often holds the previous row's tuples: render them once
            if r.commanded is not cmd_obj:
                cmd_obj = r.commanded
                cmd_text = "," + ",".join(map(repr, cmd_obj)) if cmd_obj else ""
            if r.demands is not demand_obj:
                demand_obj = r.demands
                demand_text = "," + ",".join(map(repr, demand_obj)) if demand_obj else ""
            if r.measured_w is not meas_obj:
                meas_obj = measured = r.measured_w
                if measured:
                    to_text = measured_repr if set(map(type, measured)) <= only_float else repr
                    meas_text = "," + ",".join(map(to_text, measured))
                else:
                    meas_text = ""
            write(
                f"{r.time_s!r},{r.capacity_w!r},{r.loss_w!r},{r.loading_pu!r},"
                f"{r.wsum_demand!r},{r.wsum_commanded!r},{r.wsum_measured!r},"
                f"{r.op_commanded!r},{r.op_measured!r},{int(r.degraded)}"
                f"{demand_text}{cmd_text}{meas_text}\n"
            )


def write_timing_csv(path: str | Path, rows: Sequence[RunRecord]) -> None:
    with Path(path).open("w", newline="") as fh:
        write = fh.write
        write("tick,time_s,solve_time_s\n")
        for k, r in enumerate(rows, start=1):
            write(f"{k},{r.time_s!r},{r.solve_time_s!r}\n")


def read_timing_csv(path: str | Path) -> list[float]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [float(row[2]) for row in reader]


class RunCsvError(Exception):
    pass


def read_run_csv(path: str | Path) -> tuple[RunMeta, list[RunRecord]]:
    path = Path(path)
    with path.open(newline="") as fh:
        version = fh.readline().strip()
        if version != f"# {RUN_CSV_VERSION}":
            raise RunCsvError(f"{path}: unsupported run file ({version!r})")
        meta_line = fh.readline().strip()
        fleet_line = fh.readline().strip()
        if not meta_line.startswith("# meta ") or not fleet_line.startswith("# fleet "):
            raise RunCsvError(f"{path}: malformed header comments")
        kv = dict(item.split("=", 1) for item in meta_line[len("# meta "):].split())
        fleet = []
        for item in fleet_line[len("# fleet "):].split(","):
            lid, group, rated = item.split(":")
            fleet.append((int(lid), group, float(rated)))
        meta = RunMeta(
            tick_s=float(kv["tick_s"]),
            t_start_s=float(kv["t_start_s"]),
            t_end_s=float(kv["t_end_s"]),
            algorithm=kv["algorithm"],
            mode=kv["mode"],
            seed=int(kv["seed"]),
            mission_id=int(kv["mission_id"]),
            fleet=tuple(fleet),
        )
        reader = csv.reader(fh)
        header = next(reader)
        if header != _columns(meta.load_ids):
            raise RunCsvError(f"{path}: column layout does not match the fleet header")
        n = len(meta.load_ids)
        rows = []
        for raw in reader:
            if len(raw) != len(header):
                line = reader.line_num + 3  # after the version, meta and fleet lines
                raise RunCsvError(f"{path}: line {line} has {len(raw)} fields, "
                                  f"the header {len(header)}")
            fixed = raw[:10]
            per_load = raw[10:]
            rows.append(
                RunRecord(
                    time_s=float(fixed[0]),
                    capacity_w=float(fixed[1]),
                    loss_w=float(fixed[2]),
                    loading_pu=float(fixed[3]),
                    wsum_demand=float(fixed[4]),
                    wsum_commanded=float(fixed[5]),
                    wsum_measured=float(fixed[6]),
                    op_commanded=float(fixed[7]),
                    op_measured=float(fixed[8]),
                    degraded=bool(int(fixed[9])),
                    demands=tuple(map(float, per_load[:n])),
                    commanded=tuple(map(float, per_load[n : 2 * n])),
                    measured_w=tuple(map(float, per_load[2 * n :])),
                )
            )
    return meta, rows
