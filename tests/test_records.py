"""The artifact writers: exact bytes for every value, and bounded memory."""

from __future__ import annotations

import csv
import math
import tracemalloc
from dataclasses import replace

from loadshed.records import RunMeta, RunRecord, read_run_csv, write_run_csv
from loadshed.report import GROUPINGS, write_group_csv, write_run_artifacts

# values whose repr or equality a value-keyed shortcut could get wrong:
# equal zeros with different signs, ints equal to floats, NaN, infinities,
# the smallest subnormal and a float whose repr switches to exponent form
VALUES = (-0.0, 0.0, 0, 1, 1.0, math.nan, math.inf, -math.inf, 5e-324, 1e16)
FLOATS = tuple(v for v in VALUES if type(v) is float)


def rotated(k: int, values: tuple = VALUES) -> tuple:
    k %= len(values)
    return values[k:] + values[:k]


def reference_run_csv(path, meta: RunMeta, rows) -> None:
    """The writer as a ``csv.writer`` over ``repr`` strings."""
    fleet_desc = ",".join(f"{lid}:{group}:{rated!r}" for lid, group, rated in meta.fleet)
    with open(path, "w", newline="") as fh:
        fh.write("# loadshed-run-csv v1\n")
        fh.write(
            f"# meta tick_s={meta.tick_s!r} t_start_s={meta.t_start_s!r}"
            f" t_end_s={meta.t_end_s!r} algorithm={meta.algorithm}"
            f" mode={meta.mode} seed={meta.seed} mission_id={meta.mission_id}\n"
        )
        fh.write(f"# fleet {fleet_desc}\n")
        writer = csv.writer(fh, lineterminator="\n")
        ids = meta.load_ids
        writer.writerow(
            ["time_s", "capacity_w", "loss_w", "loading_pu", "wsum_demand",
             "wsum_commanded", "wsum_measured", "op_commanded", "op_measured", "degraded"]
            + [f"demand_{i}" for i in ids] + [f"cmd_{i}" for i in ids]
            + [f"meas_w_{i}" for i in ids]
        )
        for r in rows:
            writer.writerow(
                [repr(v) for v in (r.time_s, r.capacity_w, r.loss_w, r.loading_pu,
                                   r.wsum_demand, r.wsum_commanded, r.wsum_measured,
                                   r.op_commanded, r.op_measured)]
                + [int(r.degraded)]
                + [repr(v) for v in r.demands + r.commanded + r.measured_w]
            )


def special_rows() -> tuple[RunMeta, list[RunRecord]]:
    n = len(VALUES)
    meta = RunMeta(
        tick_s=0.1, t_start_s=0.0, t_end_s=2.0, algorithm="advanced", mode="lockstep",
        seed=7, mission_id=1,
        fleet=tuple((i + 1, "PMM", 1e6 if i % 2 else 250) for i in range(n)),
    )
    rows = []
    shared = rotated(3)
    for k in range(2 * n):
        fixed = rotated(k)[:9]
        if k in (4, 5):
            commanded = shared  # one tuple object held by consecutive rows
        elif k == 6:
            # equal to the shared tuple, but not the same object and not the
            # same text: -0.0 == 0.0 and 1 == 1.0
            commanded = tuple(
                {0.0: -0.0, 1.0: 1}.get(v, v) if type(v) is float else v for v in shared
            )
            assert commanded == shared and list(map(repr, commanded)) != list(map(repr, shared))
        else:
            commanded = rotated(k + 3)
        # rows of floats alone alternate with rows that mix in ints
        measured = rotated(k + 5) if k % 2 else (rotated(k, FLOATS) * 2)[:n]
        rows.append(RunRecord(
            0.1 * (k + 1), *fixed[1:], degraded=bool(k % 3),
            demands=rotated(k + 1), commanded=commanded, measured_w=measured,
        ))
    return meta, rows


def sharing_rows() -> tuple[RunMeta, list[RunRecord]]:
    """:func:`special_rows` whose demand and measured columns follow the
    commanded one: rows 4 and 5 share one tuple object, and row 6 holds an
    equal tuple with other text, as the plant shares unchanged tuples."""
    meta, rows = special_rows()
    shared, other = rows[4].commanded, rows[6].commanded
    for k, column in ((4, shared), (5, shared), (6, other)):
        rows[k] = replace(rows[k], demands=column, measured_w=column)
    return meta, rows


def unshared(rows: list[RunRecord]) -> list[RunRecord]:
    """The same rows with every tuple a distinct object."""
    return [replace(r, demands=tuple(list(r.demands)), commanded=tuple(list(r.commanded)),
                    measured_w=tuple(list(r.measured_w))) for r in rows]


class TestRunCsvWriter:
    def test_bytes_match_the_csv_writer_reference(self, tmp_path):
        meta, rows = special_rows()
        write_run_csv(tmp_path / "run.csv", meta, rows)
        reference_run_csv(tmp_path / "reference.csv", meta, rows)
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_rows_sharing_tuples_match_the_reference(self, tmp_path):
        meta, rows = sharing_rows()
        write_run_csv(tmp_path / "run.csv", meta, rows)
        reference_run_csv(tmp_path / "reference.csv", meta, rows)
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_group_sums_of_shared_tuples_are_the_unshared_ones(self, tmp_path):
        # IPNC holds one load of int rating, so its sums print an int where
        # the row holds an int: a tuple equal to the last row's but with 1.0
        # for 1 must not take that row's sums
        meta = RunMeta(tick_s=0.1, t_start_s=0.0, t_end_s=0.5, algorithm="advanced",
                       mode="lockstep", seed=0, mission_id=1,
                       fleet=((1, "IPNC", 250), (2, "PMM", 1e6), (3, "PMM", 250)))
        ints, floats = (1, 0.5, -0.0), (1.0, 0.5, 0.0)
        rows = [RunRecord(0.1 * (k + 1), 1e7, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, False,
                          demands=column, commanded=column, measured_w=column)
                for k, column in enumerate((ints, ints, floats, floats, ints))]
        for name, rows in (("shared", rows), ("fresh", unshared(rows))):
            (tmp_path / name).mkdir()
            write_group_csv(meta, rows, GROUPINGS, tmp_path / name)
        for grouping in GROUPINGS:
            shared = (tmp_path / "shared" / f"{grouping}.csv").read_bytes()
            assert shared == (tmp_path / "fresh" / f"{grouping}.csv").read_bytes(), grouping
        lines = (tmp_path / "shared" / "IPNC.csv").read_text().splitlines()[2:]
        assert [line.split(",", 1)[1] for line in lines] == [
            "250,1", "250,1", "250.0,1.0", "250.0,1.0", "250,1"]

    def test_round_trip_reads_every_value_back(self, tmp_path):
        meta, rows = special_rows()
        write_run_csv(tmp_path / "run.csv", meta, rows)
        meta_back, rows_back = read_run_csv(tmp_path / "run.csv")
        assert meta_back == meta
        assert len(rows_back) == len(rows)

        def text(r: RunRecord) -> list[str]:
            # NaN never equals itself, so compare the values as floats' reprs
            numbers = (r.time_s, r.capacity_w, r.loss_w, r.loading_pu, r.wsum_demand,
                       r.wsum_commanded, r.wsum_measured, r.op_commanded, r.op_measured,
                       *r.demands, *r.commanded, *r.measured_w)
            return [repr(float(v)) for v in numbers] + [repr(r.degraded)]

        for written, read in zip(rows, rows_back):
            assert text(read) == text(written)


def test_artifacts_stream(advanced_run, tmp_path):
    """Writing the bundled run's artifacts never holds a whole file in memory."""
    tracemalloc.start()
    try:
        write_run_artifacts(advanced_run, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB while writing artifacts"


def test_memory_stays_bounded_when_no_value_repeats(tmp_path):
    n_loads, n_rows = 40, 3000
    meta = RunMeta(
        tick_s=0.1, t_start_s=0.0, t_end_s=0.1 * n_rows, algorithm="advanced",
        mode="lockstep", seed=0, mission_id=1,
        fleet=tuple((i + 1, "PMM", 1e6) for i in range(n_loads)),
    )
    statuses = (1.0,) * n_loads
    rows = [
        RunRecord(0.1 * (k + 1), 1e7, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0, False,
                  demands=statuses, commanded=statuses,
                  measured_w=tuple(1e6 / (k * n_loads + i + 3) for i in range(n_loads)))
        for k in range(n_rows)
    ]
    tracemalloc.start()
    try:
        write_run_csv(tmp_path / "run.csv", meta, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MB while writing run.csv"
