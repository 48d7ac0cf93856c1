import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import loadshed
from _helpers import small_scenario
from loadshed.cli import main
from loadshed import link
from loadshed.link import MAX_ID, MAX_TELEMETRY_LOADS
from loadshed.metrics import MissionWindow
from loadshed.model import (GenerationModule, LoadGroup, LoadSpec, MissionWeightSet,
                            Variability, ZoneLimit)
from loadshed.plant import GeneratorTrip, LoadProfile, ZoneLimitChange
from loadshed.records import RunCsvError, read_run_csv, write_run_csv
from loadshed.report import (
    GROUPINGS,
    IncompatibleRunsError,
    _group_series,
    compare_runs,
    write_group_csv,
)
from loadshed.scenario import (
    ScenarioFormatError,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from loadshed.sim import build_plant, run_lockstep, run_networked
from loadshed import report


class TestScenarioConfig:
    def test_default_scenario_is_valid(self):
        assert validate_scenario(default_scenario()).ok

    def test_json_round_trip(self):
        sc = default_scenario()
        again = scenario_from_json(json.loads(json.dumps(scenario_to_json(sc))))
        assert again == sc

    def test_save_and_load(self, tmp_path):
        sc = small_scenario()
        path = tmp_path / "scenario.json"
        save_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_unknown_format_rejected(self):
        with pytest.raises(Exception):
            scenario_from_json({"format": "something-else"})

    def test_profile_domain_violation_flagged(self):
        sc = small_scenario()
        bad_fleet = tuple(
            replace(s, variability=Variability.binary()) if s.id == 7 else s
            for s in sc.fleet
        )
        report_ = validate_scenario(replace(sc, fleet=bad_fleet))
        assert any(i.code == "profile-domain" for i in report_)

    def test_missing_profile_flagged(self):
        sc = small_scenario()
        profiles = {k: v for k, v in sc.profiles.items() if k != 3}
        report_ = validate_scenario(replace(sc, profiles=profiles))
        assert any(i.code == "missing-profile" for i in report_)

    def test_event_outside_window_flagged(self):
        sc = small_scenario()
        from loadshed.plant import GeneratorTrip

        report_ = validate_scenario(replace(sc, events=(GeneratorTrip(99.0, 2),)))
        assert any(i.code == "event-window" for i in report_)

    def test_json_states_the_period_once(self):
        raw = scenario_to_json(default_scenario())
        assert "period_s" not in raw["controller"]

    def test_period_differing_from_tick_rejected(self):
        raw = scenario_to_json(default_scenario())
        raw["controller"]["period_s"] = 0.2
        with pytest.raises(ScenarioFormatError):
            scenario_from_json(raw)

    def test_period_equal_to_tick_accepted(self):
        raw = scenario_to_json(default_scenario())
        raw["controller"]["period_s"] = raw["window"]["tick_s"]
        assert scenario_from_json(raw) == default_scenario()

    def test_deadline_not_inside_tick_flagged(self):
        sc = small_scenario()
        sc = replace(sc, window=replace(sc.window, tick_s=sc.controller.solve_deadline_s))
        assert {i.code for i in validate_scenario(sc)} == {"solve-deadline"}

    def test_later_weight_set_missing_a_load_flagged(self):
        sc = small_scenario()
        first = sc.weight_sets[0]
        later = MissionWeightSet(first.mission_id,
                                 {k: w for k, w in first.weights.items() if k != 3}, 15.0)
        codes = {i.code for i in validate_scenario(replace(sc, weight_sets=(first, later)))}
        assert codes == {"missing-weight"}

    def test_weights_starting_after_the_window_start_flagged(self):
        sc = small_scenario()
        late = replace(sc.weight_sets[0], valid_from_s=12.0)
        codes = {i.code for i in validate_scenario(replace(sc, weight_sets=(late,)))}
        assert codes == {"weights-start"}

    @pytest.mark.parametrize("also_valid", [False, True])
    def test_weights_starting_at_nan_flagged(self, also_valid):
        sc = small_scenario()
        first = sc.weight_sets[0]
        sets = (replace(first, valid_from_s=math.nan),) + ((first,) if also_valid else ())
        codes = {i.code for i in validate_scenario(replace(sc, weight_sets=sets))}
        assert codes == {"weights-start"}

    def test_zone_change_for_undeclared_zone_flagged(self):
        sc = small_scenario()
        sc = replace(sc, events=sc.events + (ZoneLimitChange(5.0, "Z9", 1e6),))
        assert {i.code for i in validate_scenario(sc)} == {"event-zone"}

    @pytest.mark.parametrize("limit, ok", [(math.nan, False), (-1.0, False),
                                           (0.0, True), (math.inf, True)])
    def test_zone_change_limit_must_be_a_number_not_below_zero(self, limit, ok):
        sc = small_scenario()
        zones = (ZoneLimit("Z1", 5e6, (1,)),)
        fleet = (replace(sc.fleet[0], zone="Z1"),) + sc.fleet[1:]
        sc = replace(sc, fleet=fleet, zones=zones,
                     events=sc.events + (ZoneLimitChange(5.0, "Z1", limit),))
        assert {i.code for i in validate_scenario(sc)} == (set() if ok else {"zone-limit"})

    @pytest.mark.parametrize("bad_id", [-1, MAX_ID + 1])
    def test_ids_the_wire_cannot_carry_flagged(self, bad_id):
        sc = small_scenario()
        spec = replace(sc.fleet[0], id=bad_id)
        ws = sc.weight_sets[0]
        weights = {bad_id if k == 1 else k: w for k, w in ws.weights.items()}
        profiles = {bad_id if k == 1 else k: v for k, v in sc.profiles.items()}
        bad_load = replace(sc, fleet=(spec,) + sc.fleet[1:], profiles=profiles,
                           weight_sets=(replace(ws, weights=weights),))
        bad_mission = replace(sc, mission_id=bad_id,
                              weight_sets=(replace(ws, mission_id=bad_id),))
        for bad in (bad_load, bad_mission):
            assert {i.code for i in validate_scenario(bad)} == {"wire-id"}

    @pytest.mark.parametrize("n_loads, fits", [(MAX_TELEMETRY_LOADS, True),
                                               (MAX_TELEMETRY_LOADS + 1, False)])
    def test_fleet_the_wire_cannot_carry_flagged(self, n_loads, fits):
        # validated only: a fleet this size is never run here
        fleet = tuple(LoadSpec(i, f"L{i}", LoadGroup.ACLC_VITAL, 1e3, Variability.binary())
                      for i in range(1, n_loads + 1))
        sc = replace(small_scenario(), window=MissionWindow(0.0, 1.0, 0.1), fleet=fleet,
                     weight_sets=(MissionWeightSet(1, {s.id: 1.0 for s in fleet}),),
                     profiles={s.id: LoadProfile(((0.0, 1.0),)) for s in fleet}, events=())
        codes = {i.code for i in validate_scenario(sc)}
        assert codes == (set() if fits else {"wire-fleet-size"})

    @pytest.mark.parametrize("t_start_s, fits", [(1.8e16, True), (2e16, False)])
    def test_a_time_the_wire_cannot_carry_flagged(self, t_start_s, fits):
        # telemetry stamps round(time_s * 1000) as a u64: small_scenario moved
        # to 2e16 s runs in lockstep, but its first networked tick cannot be
        # encoded, while at 1.8e16 s the whole networked run completes
        sc = small_scenario()
        sc = replace(sc, window=MissionWindow(t_start_s, t_start_s + 40.0, 4.0),
                     profiles={lid: LoadProfile(((t_start_s, p.breakpoints[-1][1]),))
                               for lid, p in sc.profiles.items()},
                     events=(GeneratorTrip(t_start_s + 20.0, 2),))
        codes = {i.code for i in validate_scenario(sc)}
        assert codes == (set() if fits else {"wire-time"})
        assert len(run_lockstep(sc).rows) == 10
        first = build_plant(sc).tick(sc.window.tick_s)
        if fits:
            link.encode_telemetry_parts(first, seq=1)
            assert len(run_networked(sc, plant_port=0, controller_port=0).rows) == 10
        else:
            with pytest.raises(struct.error):
                link.encode_telemetry_parts(first, seq=1)

    @pytest.mark.parametrize("field, value", [
        ("tau_s", -1.0), ("tau_s", math.nan), ("tau_s", math.inf),
        ("loss_fraction", -0.01), ("loss_fraction", math.nan), ("loss_fraction", math.inf)])
    def test_bad_plant_constant_flagged(self, field, value):
        sc = small_scenario()
        sc = replace(sc, plant=replace(sc.plant, **{field: value}))
        assert {i.code for i in validate_scenario(sc)} == {"plant-constant"}

    @pytest.mark.parametrize("rating", [math.nan, math.inf, -1.0])
    def test_bad_module_rating_flagged(self, rating):
        sc = small_scenario()
        sc = replace(sc, generation=(replace(sc.generation[0], rated_power_w=rating),)
                     + sc.generation[1:])
        assert {i.code for i in validate_scenario(sc)} == {"module-rating"}

    def test_duplicate_module_id_flagged(self):
        sc = small_scenario()
        sc = replace(sc, generation=sc.generation + (GenerationModule(2, "G3", 1e6),))
        assert {i.code for i in validate_scenario(sc)} == {"duplicate-module"}

    @pytest.mark.parametrize("field, value", [
        ("loss_probability", 1.5), ("loss_probability", -0.1), ("loss_probability", math.nan),
        ("latency_ms", math.nan), ("latency_ms", -1.0), ("latency_ms", math.inf),
        ("jitter_ms", -1.0), ("jitter_ms", math.inf)])
    def test_bad_impairment_flagged(self, field, value):
        sc = small_scenario()
        sc = replace(sc, impairment=replace(sc.impairment, **{field: value}))
        assert {i.code for i in validate_scenario(sc)} == {"impairment"}

    def test_range_edges_accepted_and_run(self):
        sc = small_scenario(loss=1.0, tau_s=0.0)
        sc = replace(sc, plant=replace(sc.plant, loss_fraction=0.0),
                     generation=sc.generation + (GenerationModule(3, "G3", 0.0),))
        assert validate_scenario(sc).ok
        result = run_lockstep(sc)
        assert all(math.isfinite(r.op_commanded) and math.isfinite(r.op_measured)
                   for r in result.rows)


def group_rows(meta, rows, grouping):
    """(time, demanded W, served W) per row for one grouping, as the group CSVs hold them."""
    k = GROUPINGS.index(grouping)
    return [(t, *sums[k]) for t, sums in _group_series(meta, rows)]


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    base_dir = tmp_path_factory.mktemp("runs")
    sc = small_scenario()
    paths = {}
    for algorithm in ("baseline", "advanced"):
        result = run_lockstep(sc, algorithm=algorithm, seed=0)
        out = base_dir / algorithm
        report.write_run_artifacts(result, out)
        paths[algorithm] = out
    return paths


class TestReport:
    def test_artifacts_exist(self, small_runs):
        out = small_runs["advanced"]
        assert (out / "run.csv").exists()
        assert (out / "timing.csv").exists()
        assert (out / "summary.txt").exists()
        for grouping in GROUPINGS:
            assert (out / "groups" / f"{grouping}.csv").exists()

    def test_summary_mentions_solve_stats(self, small_runs):
        text = (small_runs["advanced"] / "summary.txt").read_text()
        assert "max" in text and "p99" in text
        assert "integral operability (commanded)" in text

    def test_group_partition_sums_to_total(self, small_runs):
        meta, rows = read_run_csv(small_runs["advanced"] / "run.csv")
        total = group_rows(meta, rows, "TOTAL")
        by_group = [
            group_rows(meta, rows, g.value)
            for g in LoadGroup
            if any(grp == g.value for _, grp, _ in meta.fleet)
        ]
        for k, (t, demand, served) in enumerate(total):
            assert demand == pytest.approx(sum(series[k][1] for series in by_group))
            assert served == pytest.approx(sum(series[k][2] for series in by_group))

    def test_unknown_grouping_rejected(self, small_runs, tmp_path):
        meta, rows = read_run_csv(small_runs["advanced"] / "run.csv")
        with pytest.raises(ValueError):
            write_group_csv(meta, rows, ("REACTOR",), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_bundled_pmm_series_shows_shortfall_reduction(self, advanced_run):
        series = group_rows(advanced_run.meta, advanced_run.rows, "PMM")
        in_window = [(d, s) for t, d, s in series if 312.0 <= t <= 394.0]
        assert all(s < d - 1e6 for d, s in in_window), "PMM not visibly reduced"
        # pre-trip the series tracks demand, modulo one tick of command
        # latency plus actuator lag around each ramp step
        before = [(d, s) for t, d, s in series if 100.0 <= t <= 300.0]
        assert all(abs(s - d) < 0.08 * max(d, 1.0) for d, s in before)

    def test_bundled_ipnc_series_tracks_demand_in_both_runs(self, advanced_run,
                                                            baseline_run):
        # IPNC demand is constant from t=0, so measured power sits on demand
        # in the advanced run; the baseline cuts IPNC during its semi-vital
        # stage, so equality holds only until the trip there
        for result, horizon in ((advanced_run, 600.0), (baseline_run, 310.0)):
            series = group_rows(result.meta, result.rows, "IPNC")
            for t, demand, served in series:
                if t <= horizon:
                    assert served == pytest.approx(demand, rel=1e-9)

    def test_compare_orders_algorithms(self, small_runs):
        table = compare_runs(small_runs["baseline"] / "run.csv",
                             small_runs["advanced"] / "run.csv")
        assert "baseline" in table and "advanced" in table
        assert "integral operability" in table

    def test_compare_run_with_itself_is_identical_columns(self, small_runs):
        table = compare_runs(small_runs["advanced"] / "run.csv",
                             small_runs["advanced"] / "run.csv")
        for line in table.splitlines()[2:]:
            cells = line.split()
            assert cells[-1] == cells[-2]

    def test_compare_reads_solve_times_from_timing_csv(self, small_runs, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "run.csv").write_bytes((small_runs["advanced"] / "run.csv").read_bytes())
        table = compare_runs(small_runs["advanced"] / "run.csv", bare / "run.csv")
        summary = (small_runs["advanced"] / "summary.txt").read_text()
        t_max = summary.split("solve time: max ")[1].split(" ms")[0]
        rows = {line[:30].strip(): line[30:].split() for line in table.splitlines()}
        assert rows["solve time max (ms)"] == [t_max, "n/a"]
        assert rows["solve time p99 (ms)"][1] == "n/a"
        assert float(t_max) > 0.0

    def test_compare_mismatched_fleets_errors(self, small_runs, tmp_path):
        sc = small_scenario()
        shrunk = replace(
            sc,
            fleet=sc.fleet[:6],
            profiles={k: v for k, v in sc.profiles.items() if k <= 6},
            weight_sets=(replace(
                sc.weight_sets[0],
                weights={k: v for k, v in sc.weight_sets[0].weights.items() if k <= 6},
            ),),
        )
        result = run_lockstep(shrunk, algorithm="advanced", seed=0)
        out = tmp_path / "shrunk"
        report.write_run_artifacts(result, out)
        with pytest.raises(IncompatibleRunsError):
            compare_runs(small_runs["advanced"] / "run.csv", out / "run.csv")


class TestRunScenario:
    def test_library_entry_point(self, tmp_path):
        from loadshed.report import run_scenario

        sc_path = tmp_path / "scenario.json"
        save_scenario(small_scenario(), sc_path)
        out = run_scenario(load_scenario(sc_path), tmp_path / "out", seed=7, algorithm="advanced")
        assert (out / "run.csv").exists() and (out / "summary.txt").exists()

    def test_invalid_scenario_raises_with_report(self, tmp_path):
        from loadshed.report import ScenarioValidationError, run_scenario

        sc = small_scenario()
        bad = replace(sc, profiles={k: v for k, v in sc.profiles.items() if k != 3})
        sc_path = tmp_path / "bad.json"
        save_scenario(bad, sc_path)
        with pytest.raises(ScenarioValidationError) as exc:
            run_scenario(load_scenario(sc_path), tmp_path / "out")
        assert not exc.value.report.ok

    def test_unknown_mode_rejected(self, tmp_path):
        from loadshed.report import run_scenario

        with pytest.raises(ValueError):
            run_scenario(default_scenario(), tmp_path / "out", mode="telepathy")


class TestCli:
    def test_validate_default_scenario(self, capsys):
        assert main(["validate"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_bad_scenario_exits_one(self, tmp_path, capsys):
        sc = small_scenario()
        bad = replace(sc, profiles={k: v for k, v in sc.profiles.items() if k != 3})
        path = tmp_path / "bad.json"
        save_scenario(bad, path)
        assert main(["validate", "--scenario", str(path)]) == 1

    def test_run_compare_plot_data_flow(self, tmp_path, capsys):
        sc_path = tmp_path / "scenario.json"
        save_scenario(small_scenario(), sc_path)
        out_a = tmp_path / "base"
        out_b = tmp_path / "adv"
        assert main(["run", "--scenario", str(sc_path), "--algorithm", "baseline",
                     "--seed", "0", "--out", str(out_a)]) == 0
        assert main(["run", "--scenario", str(sc_path), "--algorithm", "advanced",
                     "--seed", "0", "--out", str(out_b), "--tau", "0.05"]) == 0
        assert (out_a / "run.csv").exists() and (out_b / "run.csv").exists()
        assert main(["compare", str(out_a / "run.csv"), str(out_b / "run.csv")]) == 0
        table = capsys.readouterr().out
        assert "integral operability" in table
        plot_dir = tmp_path / "plots"
        assert main(["plot-data", str(out_b / "run.csv"), "--group", "PMM",
                     "--out", str(plot_dir)]) == 0
        header = (plot_dir / "PMM.csv").read_text().splitlines()
        assert header[1] == "time_s,demand_w,served_w"

    def test_a_torn_last_row_is_refused(self, advanced_run, tmp_path, capsys):
        # the bundled run.csv with the last 20 fields of its last row lost:
        # read as is, plot-data would write 22 MW of demand at t=600 s
        path = tmp_path / "run.csv"
        write_run_csv(path, advanced_run.meta, advanced_run.rows)
        lines = path.read_text().splitlines(keepends=True)
        lines[-1] = ",".join(lines[-1].split(",")[:-20]) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(RunCsvError, match=f"line {len(lines)} has"):
            read_run_csv(path)
        assert main(["plot-data", str(path), "--group", "TOTAL",
                     "--out", str(tmp_path / "plot")]) != 0
        assert not (tmp_path / "plot" / "TOTAL.csv").exists()
        assert main(["compare", str(path), str(path)]) != 0

    def test_plot_data_rejects_unknown_group(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["plot-data", "whatever.csv", "--group", "REACTOR", "--out",
                  str(tmp_path)])
        assert exc.value.code == 2

    def test_run_rejects_invalid_scenario_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        assert main(["run", "--scenario", str(path), "--out",
                     str(tmp_path / "out")]) == 1

    def test_runs_and_compares_without_numpy(self, tmp_path):
        """The runtime needs only the standard library: with every ``import
        numpy`` made to fail, both bundled runs and their comparison still
        complete and write every artifact, and ``plot-data`` and ``validate`` run."""
        script = """if True:
            import json, sys
            sys.modules["numpy"] = None  # any import of numpy now raises ImportError
            from loadshed.cli import main
            out = sys.argv[1]
            codes = [main(["run", "--algorithm", algo, "--seed", "42", "--out", f"{out}/{algo}"])
                     for algo in ("advanced", "baseline")]
            codes.append(main(["compare", f"{out}/baseline/run.csv", f"{out}/advanced/run.csv"]))
            codes.append(main(["plot-data", f"{out}/advanced/run.csv", "--group", "PMM",
                               "--out", f"{out}/plot"]))
            codes.append(main(["validate"]))
            live = [name for name, mod in sys.modules.items()
                    if name.split(".")[0] == "numpy" and mod is not None]
            print(json.dumps({"codes": codes, "numpy_modules": live}))
        """
        src = str(Path(loadshed.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        verdict = json.loads(proc.stdout.splitlines()[-1])
        assert verdict == {"codes": [0, 0, 0, 0, 0], "numpy_modules": []}
        for algo in ("advanced", "baseline"):
            out = tmp_path / algo
            names = ["run.csv", "timing.csv", "summary.txt"]
            names += [f"groups/{grouping}.csv" for grouping in GROUPINGS]
            for name in names:
                assert (out / name).is_file(), f"{algo}: no {name}"
        plotted = (tmp_path / "plot" / "PMM.csv").read_bytes()
        assert plotted == (tmp_path / "advanced" / "groups" / "PMM.csv").read_bytes()

    def test_networked_cli_run(self, tmp_path):
        sc_path = tmp_path / "scenario.json"
        save_scenario(small_scenario(), sc_path)
        out = tmp_path / "net"
        assert main(["run", "--scenario", str(sc_path), "--mode", "networked",
                     "--seed", "0", "--out", str(out)]) == 0
        meta, rows = read_run_csv(out / "run.csv")
        assert meta.mode == "networked" and len(rows) == 300
