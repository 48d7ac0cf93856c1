"""Run artifacts: summary text, side-by-side comparison, per-group series.

All post-run analysis works from ``run.csv`` (plus the ``timing.csv``
sidecar when present), so comparisons can be made across processes and
machines without the original scenario object.

Artifacts are streamed: the group series of every grouping are built in one
pass over the rows and written line by line, each number as its ``repr``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from contextlib import ExitStack
from functools import reduce
from itertools import compress, count
from operator import add, is_not
from pathlib import Path

from .metrics import MissionWindow, integral_operability
from .model import LoadGroup
from .records import (
    RunMeta,
    RunRecord,
    read_run_csv,
    read_timing_csv,
    write_run_csv,
    write_timing_csv,
)
from .scenario import ScenarioConfig, validate_scenario
from .sim import run_lockstep, run_networked

GROUPINGS = ("TOTAL",) + tuple(g.value for g in LoadGroup)


class IncompatibleRunsError(Exception):
    """The two runs do not share a tick grid and fleet."""


def run_window(meta: RunMeta) -> MissionWindow:
    return MissionWindow(meta.t_start_s, meta.t_end_s, meta.tick_s)


def integral_ops(meta: RunMeta, rows: Sequence[RunRecord]) -> tuple[float, float]:
    """Mission-period operability (commanded, measured) for one run."""
    window = run_window(meta)
    cmd = integral_operability(
        ((r.time_s, r.wsum_commanded, r.wsum_demand) for r in rows), window
    )
    meas = integral_operability(
        ((r.time_s, r.wsum_measured, r.wsum_demand) for r in rows), window
    )
    return cmd, meas


def _group_lines(meta: RunMeta, rows: Sequence[RunRecord]) -> Iterator[tuple[str, list[str]]]:
    """Per row: the ``repr`` of its time, and per grouping of ``GROUPINGS``
    the rest of its line, ``,<demanded W>,<served W>\n``.

    Served power is the physically measured power; TOTAL covers the fleet.
    Each sum starts from int 0 and adds its members' powers in fleet order,
    left to right, as ``sum`` did before Python 3.12 (it compensates from
    3.12 on), so the bytes written do not depend on the Python version.

    Only what moved is rendered again. The demand sums and their ``repr``s
    are taken once per demand tuple object. Of the served sums, a row takes
    again only those of the groupings that hold a load whose measured float
    is another object than in the last row (TOTAL whenever any load's is), as
    the plant hands on the float of a load that did not move. The list of
    line ends is updated in place, so a caller reads it before the next row.
    """
    count_g = len(GROUPINGS)
    groups = list(LoadGroup)
    slots = [1 + groups.index(LoadGroup(group)) for _, group, _ in meta.fleet]  # in GROUPINGS
    members = [[i for i, k in enumerate(slots) if k == g] for g in range(count_g)]  # TOTAL: []
    rated = [r for _, _, r in meta.fleet]
    ends = [""] * count_g
    demand_text, served_text = [""] * count_g, [""] * count_g
    demands = measured = None
    for r in rows:
        stale: Iterable[int] = ()  # groupings whose line end is rendered again
        if r.demands is not demands:
            demands = r.demands
            demand = [0] * count_g
            for k, d, rated_w in zip(slots, demands, rated):
                p = d * rated_w
                demand[k] += p
                demand[0] += p
            demand_text = list(map(repr, demand))
            stale = range(count_g)
        if r.measured_w is not measured:
            last, measured = measured, r.measured_w
            if last is not None and len(measured) == len(last) == len(slots):
                moved = {slots[i] for i in compress(count(), map(is_not, measured, last))}
                if moved:
                    pick = measured.__getitem__
                    for k in moved:
                        served_text[k] = repr(reduce(add, map(pick, members[k]), 0))
                    served_text[0] = repr(reduce(add, measured, 0))
                    moved.add(0)
                    stale = stale or moved
            else:
                served = [0] * count_g
                for k, m in zip(slots, measured):
                    served[k] += m
                    served[0] += m
                served_text = list(map(repr, served))
                stale = range(count_g)
        for k in stale:
            ends[k] = f",{demand_text[k]},{served_text[k]}\n"
        yield repr(r.time_s), ends


def shed_summary(meta: RunMeta, rows: Sequence[RunRecord]) -> dict[str, dict[str, float]]:
    """Per-group service: demanded/served energy and loads ever cut to zero.

    Rows mostly repeat the demands and commanded statuses of the row before,
    so each run of rows with equal ones is summed once, times its length.
    """
    scale = meta.tick_s / 3.6e9  # watt-ticks to MWh
    runs: list[list] = []  # [length, demands, commanded] per run of equal rows
    for r in rows:
        if runs and r.demands == runs[-1][1] and r.commanded == runs[-1][2]:
            runs[-1][0] += 1
        else:
            runs.append([1, r.demands, r.commanded])
    out: dict[str, dict[str, float]] = {}
    for g in LoadGroup:
        members = [(i, lid, rated) for i, (lid, group, rated) in enumerate(meta.fleet)
                   if LoadGroup(group) is g]
        if not members:
            continue
        demand_mwh = served_mwh = 0.0
        cut: set[int] = set()
        for length, demands, commanded in runs:
            demand_w = served_w = 0.0
            for i, lid, rated in members:
                d, c = demands[i], commanded[i]
                demand_w += d * rated
                served_w += (d if d < c else c) * rated  # min(c, d)
                if d > 0.0 and c == 0.0:
                    cut.add(lid)
            demand_mwh += demand_w * length
            served_mwh += served_w * length
        out[g.value] = {
            "demand_mwh": demand_mwh * scale,
            "served_mwh": served_mwh * scale,
            "ratio": (served_mwh / demand_mwh) if demand_mwh > 0 else 1.0,
            "loads_cut": len(cut),
        }
    return out


def solve_time_stats(times: Sequence[float]) -> tuple[float, float]:
    """(max, p99) of the per-tick solve times, in seconds.

    p99 interpolates linearly between the closest ranks (Hyndman & Fan's
    type 7, the usual default), stepping from the lower rank when the
    fraction is below one half and back from the upper one otherwise, the
    arithmetic that array libraries use, so summaries keep the same bits.
    """
    if not times:
        return 0.0, 0.0
    xs = sorted(times)
    pos = (len(xs) - 1) * 0.99
    lo = int(pos)
    a, b = xs[lo], xs[min(lo + 1, len(xs) - 1)]
    t = pos - lo
    p99 = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return float(xs[-1]), float(p99)


def run_metrics(meta: RunMeta, rows: Sequence[RunRecord],
                solve_times: Sequence[float] | None) -> dict:
    """The per-run figures that ``summarize`` and ``compare_runs`` report.

    Without ``solve_times`` (a run read back without its ``timing.csv``) the
    solve time figures are None.
    """
    op_cmd, op_meas = integral_ops(meta, rows)
    t_max_ms = t_p99_ms = None
    if solve_times is not None:
        t_max, t_p99 = solve_time_stats(solve_times)
        t_max_ms, t_p99_ms = t_max * 1e3, t_p99 * 1e3
    return {
        "algorithm": meta.algorithm,
        "op_cmd": op_cmd,
        "op_meas": op_meas,
        "t_max_ms": t_max_ms,
        "t_p99_ms": t_p99_ms,
        "degraded": sum(r.degraded for r in rows),
        "sheds": shed_summary(meta, rows),
    }


def summarize(meta: RunMeta, rows: Sequence[RunRecord]) -> str:
    m = run_metrics(meta, rows, [r.solve_time_s for r in rows])
    lines = [
        f"run: algorithm={meta.algorithm} mode={meta.mode} seed={meta.seed}",
        f"window: [{meta.t_start_s}, {meta.t_end_s}] s at {meta.tick_s} s ticks"
        f" ({len(rows)} rows)",
        f"integral operability (commanded): {m['op_cmd']:.4f}",
        f"integral operability (measured):  {m['op_meas']:.4f}",
        f"solve time: max {m['t_max_ms']:.2f} ms, p99 {m['t_p99_ms']:.2f} ms",
        f"degraded ticks: {m['degraded']}",
        "per-group service (commanded basis):",
    ]
    for name, stats in m["sheds"].items():
        lines.append(
            f"  {name:13s} served {stats['served_mwh']:8.2f} / "
            f"{stats['demand_mwh']:8.2f} MWh  ratio {stats['ratio']:.4f}  "
            f"loads cut {stats['loads_cut']:.0f}"
        )
    return "\n".join(lines) + "\n"


def write_run_artifacts(result, out_dir: str | Path) -> Path:
    """Write run.csv, timing.csv, summary.txt and per-group series CSVs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_run_csv(out / "run.csv", result.meta, result.rows)
    write_timing_csv(out / "timing.csv", result.rows)
    (out / "summary.txt").write_text(summarize(result.meta, result.rows))
    groups_dir = out / "groups"
    groups_dir.mkdir(exist_ok=True)
    write_group_csv(result.meta, result.rows, GROUPINGS, groups_dir)
    return out


class ScenarioValidationError(Exception):
    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


def run_scenario(
    scenario: ScenarioConfig,
    out_dir: str | Path,
    mode: str = "lockstep",
    seed: int | None = None,
    algorithm: str | None = None,
    realtime: bool = False,
) -> Path:
    """Validate and run a scenario, then write its artifacts.

    ``realtime`` paces a networked run at the control period. Raises
    :class:`ScenarioValidationError` for an invalid scenario and
    ``ValueError`` for an unknown mode.
    """
    checked = validate_scenario(scenario)
    if not checked.ok:
        raise ScenarioValidationError(checked)
    if mode == "lockstep":
        result = run_lockstep(scenario, algorithm=algorithm, seed=seed)
    elif mode == "networked":
        result = run_networked(scenario, algorithm=algorithm, seed=seed, realtime=realtime)
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'lockstep' or 'networked'")
    return write_run_artifacts(result, out_dir)


def write_group_csv(meta: RunMeta, rows: Sequence[RunRecord], groupings: Sequence[str],
                    out_dir: str | Path) -> list[Path]:
    """Write ``<grouping>.csv`` for each grouping, in one pass over the rows."""
    for grouping in groupings:
        if grouping not in GROUPINGS:
            raise ValueError(f"unknown grouping {grouping!r}; choose from {GROUPINGS}")
    indices = [GROUPINGS.index(grouping) for grouping in groupings]
    paths = [Path(out_dir) / f"{grouping}.csv" for grouping in groupings]
    with ExitStack() as stack:
        writes = [stack.enter_context(path.open("w", newline="")).write for path in paths]
        for write, grouping in zip(writes, groupings):
            write(f"# loadshed-group-csv v1 grouping={grouping} served=measured\n")
            write("time_s,demand_w,served_w\n")
        for t_text, ends in _group_lines(meta, rows):
            for write, k in zip(writes, indices):
                write(t_text + ends[k])
    return paths


def emit_plot_data(run_csv: str | Path, grouping: str, out_dir: str | Path) -> Path:
    meta, rows = read_run_csv(run_csv)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return write_group_csv(meta, rows, (grouping,), out_dir)[0]


def compare_runs(run_a_csv: str | Path, run_b_csv: str | Path) -> str:
    """Side-by-side evaluation table for two runs on the same grid and fleet.

    Solve times come from the ``timing.csv`` beside each ``run.csv``; a run
    without one shows ``n/a`` for them.
    """
    meta_a, rows_a = read_run_csv(run_a_csv)
    meta_b, rows_b = read_run_csv(run_b_csv)
    if meta_a.fleet != meta_b.fleet:
        raise IncompatibleRunsError("runs describe different fleets")
    if (meta_a.tick_s, meta_a.t_start_s, meta_a.t_end_s) != (
        meta_b.tick_s, meta_b.t_start_s, meta_b.t_end_s,
    ) or len(rows_a) != len(rows_b):
        raise IncompatibleRunsError("runs use different tick grids")

    def metrics_of(path, meta, rows):
        timing = Path(path).with_name("timing.csv")
        times = read_timing_csv(timing) if timing.exists() else None
        commands = sum(
            1
            for prev, cur in zip(rows, rows[1:])
            for a, b in zip(prev.commanded, cur.commanded)
            if a != b
        )
        return {**run_metrics(meta, rows, times), "commands": commands}

    a = metrics_of(run_a_csv, meta_a, rows_a)
    b = metrics_of(run_b_csv, meta_b, rows_b)
    w = 28

    def ms(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.2f}"

    lines = [
        f"{'metric':30s} {'run A':>{w}} {'run B':>{w}}",
        f"{'algorithm':30s} {a['algorithm']:>{w}} {b['algorithm']:>{w}}",
        f"{'integral operability (cmd)':30s} {a['op_cmd']:>{w}.4f} {b['op_cmd']:>{w}.4f}",
        f"{'integral operability (meas)':30s} {a['op_meas']:>{w}.4f} {b['op_meas']:>{w}.4f}",
        f"{'solve time p99 (ms)':30s} {ms(a['t_p99_ms']):>{w}} {ms(b['t_p99_ms']):>{w}}",
        f"{'solve time max (ms)':30s} {ms(a['t_max_ms']):>{w}} {ms(b['t_max_ms']):>{w}}",
        f"{'command changes':30s} {a['commands']:>{w}d} {b['commands']:>{w}d}",
        f"{'degraded ticks':30s} {a['degraded']:>{w}d} {b['degraded']:>{w}d}",
    ]
    for gname in a["sheds"]:
        sa, sb = a["sheds"][gname], b["sheds"][gname]
        lines.append(
            f"{gname + ' service ratio':30s} {sa['ratio']:>{w}.4f} {sb['ratio']:>{w}.4f}"
        )
        lines.append(
            f"{gname + ' loads cut':30s} {sa['loads_cut']:>{w}.0f} {sb['loads_cut']:>{w}.0f}"
        )
    return "\n".join(lines) + "\n"
