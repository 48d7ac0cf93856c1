"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The bundled-scenario fixtures are shared session-wide, so the two
full 600 s runs execute once.
"""

import hashlib
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from _helpers import assert_plans_agree, random_instance, small_scenario
from _oracle import brute_force_solve
from loadshed import link
from loadshed.link import replay_drop_schedule
from loadshed.model import ShedCommand, SystemSnapshot
from loadshed.optimizer import plan_violations, solve
from loadshed.records import write_run_csv
from loadshed.report import (GROUPINGS, integral_ops, shed_summary, solve_time_stats,
                             summarize, write_group_csv)
from loadshed.sim import run_lockstep, run_networked

WINDOW_START, TRIP_T, RELIEF_T, WINDOW_END = 0.0, 310.0, 395.0, 600.0
# sha256 of run.csv for the bundled lockstep runs (impairment seed 42): the
# determinism contract, which a faster solver must not change
BUNDLED_RUN_CSV_SHA256 = {
    "advanced": "4006ad93a8176c4e300fc775d9e6eb5d984410782cbe3c58c47e4c893851c010",
    "baseline": "d2f44931125fe1052eb01fab1671ceda49406e5b6c73982c4a4afdc9f64646d5",
}
# sha256 of groups/<grouping>.csv for the bundled advanced run: each sum adds
# in fleet order, so the bytes do not depend on how the interpreter's sum()
# rounds (it compensates from Python 3.12 on)
BUNDLED_GROUP_CSV_SHA256 = {
    "TOTAL": "9157f2cea056e94448a5f06ff8026d42d451299cdf28c085baa4029cd168f89a",
    "ACLC_Vital": "a766cf57e8e3ce718ddc8a9c0063285970c0c2fbed1d4e22bbe95fe5fd3cf209",
    "ACLC_NonVital": "b7022fd21ed494b81e0987a8522ab247ceb5dc12539c6d681238de26661bfb55",
    "MWClass": "d1758d8f8332ddef569528334981f41d5ddd8711c88a94e6789d83c6b29cbfe6",
    "IPNC": "9d31ca0cf9460df106d5c0dbcd96a352cfceb950431d886bac3c2f5307bd305b",
    "PMM": "0f8e5fd7ee506f53506661c821fe6c5b5c4d2cc33b286d121c62201915f39e84",
}
# the same for the bundled baseline run, whose shedding moves other groups
BUNDLED_BASELINE_GROUP_CSV_SHA256 = {
    "TOTAL": "6aab747e22a610d8a7391fe3ef190dc4dacaf033827a0fa3213306f47301831e",
    "ACLC_Vital": "2d7a64bba0bca7136d9d019b2da2f37a3722d298263e52255ec567e9a7280af4",
    "ACLC_NonVital": "c1db1077a3abd5db3f32acc9b7e3d9b1cb8c82ca49d60f17b26897d8bdc2cf58",
    "MWClass": "7cee3b1d6970d29354459afd9c8c52c383ad6e75a153d6b52d023148636a321f",
    "IPNC": "37fcb8a44820c80b8d56e33dc6d9e15adac01031c79c0aac1b76293f0822e68c",
    "PMM": "478c05ad01260f1e68213b0871aa644386aa69b1165b07edd28940c42f8ef508",
}


def announce(n, name):
    print(f"\nACCEPTANCE {n:2d} {name}: PASS")


def test_01_oracle_equivalence():
    """solve == brute force on 200 seeded random instances, under 60 s."""
    t0 = time.perf_counter()
    for seed in range(1000, 1200):
        inst = random_instance(seed)
        fast = solve(inst, deadline_s=None)
        oracle = brute_force_solve(inst)
        assert fast.optimal
        assert_plans_agree(inst, fast, oracle, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f} s"
    announce(1, f"oracle equivalence (200 instances in {elapsed:.1f} s)")


def test_02_feasibility_suite():
    """10000 randomized solves, zero constraint violations beyond 1e-6 W."""
    violations = 0
    for seed in range(200000, 210000):
        inst = random_instance(seed, max_discrete=12, min_discrete=2)
        plan = solve(inst)
        violations += len(plan_violations(inst, plan))
    assert violations == 0
    announce(2, "feasibility suite (10000 solves, zero violations)")


def test_03_solve_deadline(advanced_run, tmp_path):
    """p99 solve time on the 6000-tick bundled stream under 50 ms."""
    times = [r.solve_time_s for r in advanced_run.rows]
    assert len(times) == 6000
    t_max, t_p99 = solve_time_stats(times)
    assert t_p99 < 0.050, f"p99 solve time {t_p99 * 1e3:.2f} ms"
    summary = summarize(advanced_run.meta, advanced_run.rows)
    assert "max" in summary and "p99" in summary
    announce(3, f"solve deadline (p99 {t_p99 * 1e3:.2f} ms, max {t_max * 1e3:.2f} ms)")


# summary.txt's per-group lines for the bundled lockstep runs (impairment seed 42)
BUNDLED_SHED_LINES = {
    "advanced": """\
  ACLC_Vital    served     2.67 /     2.67 MWh  ratio 1.0000  loads cut 0
  ACLC_NonVital served     1.75 /     1.75 MWh  ratio 1.0000  loads cut 0
  MWClass       served     0.45 /     0.45 MWh  ratio 1.0000  loads cut 0
  IPNC          served     0.50 /     0.50 MWh  ratio 1.0000  loads cut 0
  PMM           served     3.51 /     3.93 MWh  ratio 0.8943  loads cut 2
""",
    "baseline": """\
  ACLC_Vital    served     1.64 /     2.67 MWh  ratio 0.6147  loads cut 13
  ACLC_NonVital served     0.79 /     1.75 MWh  ratio 0.4490  loads cut 12
  MWClass       served     0.45 /     0.45 MWh  ratio 1.0000  loads cut 0
  IPNC          served     0.26 /     0.50 MWh  ratio 0.5211  loads cut 6
  PMM           served     3.93 /     3.93 MWh  ratio 1.0000  loads cut 0
""",
}


@pytest.mark.parametrize("algorithm", ["advanced", "baseline"])
def test_shed_summary_of_the_bundled_runs(algorithm, advanced_run, baseline_run):
    """Per-group service sums each run of equal rows once: the figures agree
    with a walk of every row to 1e-12, and summary.txt's group lines are
    pinned."""
    result = advanced_run if algorithm == "advanced" else baseline_run
    meta, rows = result.meta, result.rows
    sheds = shed_summary(meta, rows)
    for name, stats in sheds.items():
        members = [(i, rated) for i, (_, group, rated) in enumerate(meta.fleet) if group == name]
        demand = sum(r.demands[i] * rated for r in rows for i, rated in members)
        served = sum(min(r.demands[i], r.commanded[i]) * rated for r in rows for i, rated in members)
        scale = meta.tick_s / 3.6e9
        assert stats["demand_mwh"] == pytest.approx(demand * scale, rel=1e-12)
        assert stats["served_mwh"] == pytest.approx(served * scale, rel=1e-12)
    summary = summarize(meta, rows)
    assert summary.endswith("per-group service (commanded basis):\n" + BUNDLED_SHED_LINES[algorithm])


def test_solve_time_p99_matches_numpy():
    """solve_time_stats' plain-Python p99 equals numpy's default percentile
    to the bit, on seeded, tied and tiny samples, at interpolation fractions
    on both sides of one half."""
    rng = random.Random(3)
    samples = [[rng.expovariate(1e4) for _ in range(rng.randint(1, 3000))]
               for _ in range(300)]
    samples += [[5e-5] * 7, [1e-4] * 50 + [2e-4] * 50, [2e-4, 1e-4] * 40,
                [3e-4], [1e-4, 3e-4], [3e-4, 1e-4]]
    fractions = set()
    for times in samples:
        t_max, t_p99 = solve_time_stats(times)
        assert t_max == max(times)
        assert t_p99 == float(np.percentile(times, 99)), len(times)
        pos = (len(times) - 1) * 0.99
        fractions.add(pos - int(pos) >= 0.5)
    assert fractions == {False, True}
    assert solve_time_stats([]) == (0.0, 0.0)


def test_04_scenario_replication(advanced_run, baseline_run, run_durations):
    """Advanced >= 0.99, baseline <= 0.90, gap >= 0.09, both runs < 2 min."""
    adv_cmd, _ = integral_ops(advanced_run.meta, advanced_run.rows)
    base_cmd, _ = integral_ops(baseline_run.meta, baseline_run.rows)
    assert adv_cmd >= 0.99, f"advanced integral operability {adv_cmd:.4f}"
    assert base_cmd <= 0.90, f"baseline integral operability {base_cmd:.4f}"
    assert adv_cmd - base_cmd >= 0.09
    total = run_durations["advanced"] + run_durations["baseline"]
    assert total < 120.0, f"lockstep runs took {total:.0f} s"
    announce(4, f"scenario replication (advanced {adv_cmd:.4f}, baseline {base_cmd:.4f},"
                f" runs {total:.0f} s)")


def test_05_shortfall_floor(advanced_run):
    """Instantaneous operability >= 0.95 on every tick in [310, 395] s."""
    window = [r for r in advanced_run.rows if TRIP_T <= r.time_s <= RELIEF_T]
    assert len(window) > 800
    worst = min(r.op_commanded for r in window)
    assert worst >= 0.95, f"operability floor broken: {worst:.4f}"
    announce(5, f"shortfall floor (minimum {worst:.4f} >= 0.95)")


def test_06_restoration_and_monotone_baseline(advanced_run, baseline_run):
    """Advanced back to 1.0 within 2 ticks of relief; baseline never restores."""
    tick = advanced_run.meta.tick_s
    after = [r for r in advanced_run.rows if r.time_s >= RELIEF_T + 2 * tick]
    assert after[0].op_commanded == pytest.approx(1.0, abs=1e-12)
    served = [sum(r.measured_w) for r in baseline_run.rows if r.time_s >= TRIP_T]
    for a, b in zip(served, served[1:]):
        assert b <= a + 1e-6, "baseline served power increased after the trip"
    announce(6, "restoration within 2 ticks; baseline monotone after trip")


def test_07_group_behavior(advanced_run, baseline_run):
    """PMM absorbs the shortfall; critical groups ride through untouched."""
    ids = advanced_run.meta.load_ids
    groups = {lid: group for lid, group, _ in advanced_run.meta.fleet}
    pmm_throttled = 0
    for r in advanced_run.rows:
        for i, lid in enumerate(ids):
            c, d = r.commanded[i], r.demands[i]
            g = groups[lid]
            if g in ("IPNC", "MWClass"):
                assert min(c, d) == d, f"{g} under-served at t={r.time_s}"
            if g == "ACLC_Vital":
                assert min(c, d) == d, f"vital load {lid} shed at t={r.time_s}"
            if g == "PMM" and TRIP_T <= r.time_s < RELIEF_T and c < d - 1e-9:
                pmm_throttled += 1
    assert pmm_throttled > 0, "PMM never throttled during the shortfall"

    nonvital = [lid for lid, g in groups.items() if g == "ACLC_NonVital"]
    vital_cat = [lid for lid, g in groups.items()
                 if g in ("ACLC_Vital", "MWClass", "PMM")]
    final = baseline_run.rows[-1]
    index = {lid: i for i, lid in enumerate(ids)}
    assert all(final.commanded[index[lid]] == 0.0 for lid in nonvital), (
        "baseline left a non-vital load running"
    )
    cut_vitals = [lid for lid in vital_cat if final.commanded[index[lid]] == 0.0]
    assert cut_vitals, "baseline cut no vital-category load"
    announce(7, f"group behavior (PMM throttled {pmm_throttled} tick-loads,"
                f" baseline cut {len(cut_vitals)} vital loads)")


def test_08_baseline_timer_semantics():
    """Stage thresholds and declaration order on random loading traces."""
    from loadshed.baseline import BaselineController
    from loadshed.model import Category
    from loadshed.scenario import default_fleet

    fleet = default_fleet()
    order = {
        cat: [s.id for s in fleet if s.group.category is cat]
        for cat in Category
    }

    def snap(loading, t):
        return SystemSnapshot(t, 1, (), (), (), 6e7, 0.0, loading)

    rng = random.Random(81)
    for _ in range(200):
        n = rng.randint(10, 120)
        trace = [rng.uniform(0.7, 1.4) for _ in range(n)]
        if rng.random() < 0.3:
            trace = [rng.uniform(1.05, 1.4) for _ in range(n)]  # sustained overload
        ctrl = BaselineController(fleet, 0.1)
        timer = 0.0
        shed_by_cat = {cat: [] for cat in Category}
        overloaded_ever = False
        cuts_seen = 0
        for k, loading in enumerate(trace, start=1):
            before = ctrl.intent
            ctrl.on_telemetry(snap(loading, 0.1 * k))
            timer = timer + 0.1 if loading > 1.0 else 0.0
            overloaded_ever = overloaded_ever or loading > 1.0
            cut = [(s, new) for s, new, old in zip(fleet, ctrl.intent, before) if new != old]
            assert len(cut) <= 1 and (ctrl.intent is before) == (not cut)
            for s, status in cut:
                cuts_seen += 1
                assert status == 0.0
                shed_by_cat[s.group.category].append(s.id)
                assert timer > 0.25
                if s.group.category is Category.SEMI_VITAL:
                    assert timer > 2.5
                if s.group.category is Category.VITAL:
                    assert timer > 5.0
            assert ctrl.overload_timer_s == pytest.approx(timer)
        for cat in Category:
            got = shed_by_cat[cat]
            assert got == order[cat][: len(got)], "declaration order violated"
        if not overloaded_ever:
            assert cuts_seen == 0
    announce(8, "baseline timer semantics (200 random traces)")


def test_09_codec():
    """1e4 round trips, 1e5 fuzz decodes, exact byte-layout fixtures."""

    def decode(parts):
        (data,) = parts  # every message here fits one datagram
        return link.decode_datagram(data)

    rng = random.Random(90)
    for _ in range(10000):
        n = rng.randint(0, 50)
        snap = SystemSnapshot(
            time_s=rng.uniform(0, 1e4),
            mission_id=rng.randint(0, 65535),
            load_ids=tuple(rng.randint(0, 65535) for _ in range(n)),
            demands=tuple(rng.random() for _ in range(n)),
            measured_w=tuple(rng.uniform(0, 4e7) for _ in range(n)),
            total_capacity_w=rng.uniform(0, 1e8),
            total_loss_w=rng.uniform(0, 1e6),
            loading_pu=rng.uniform(0, 2),
        )
        assert decode(link.encode_telemetry_parts(snap, 1)).snapshot == snap
        commands = tuple(ShedCommand(rng.randint(0, 65535), rng.random())
                         for _ in range(rng.randint(0, 40)))
        assert decode(link.encode_commands_parts(commands, 2)).commands == commands

    crashes = 0
    for _ in range(100000):
        blob = rng.randbytes(rng.randint(0, 100))
        try:
            link.decode_datagram(blob)
        except link.DecodeError:
            pass
        except Exception:
            crashes += 1
    assert crashes == 0

    (empty,) = link.encode_telemetry_parts(
        SystemSnapshot(0.0, 0, (), (), (), 0.0, 0.0, 0.0), seq=1
    )
    assert empty[:18] == bytes([0x4C, 0x53, 1, 1, 1, 0, 0, 0]) + b"\x00" * 10
    assert len(empty) == 52
    (one,) = link.encode_telemetry_parts(
        SystemSnapshot(0.0, 0, (7,), (1.0,), (0.0,), 0.0, 0.0, 0.0), seq=0
    )
    assert one[18:28] == b"\x07\x00" + b"\x00\x00\x00\x00\x00\x00\xf0\x3f"
    (cmd,) = link.encode_commands_parts([ShedCommand(3, 0.5)], seq=0)
    assert cmd[18:28] == b"\x03\x00" + b"\x00\x00\x00\x00\x00\x00\xe0\x3f"
    announce(9, "codec (10k round trips, 100k fuzz, byte fixtures)")


def test_10_determinism_and_mode_equivalence(bundled_scenario, advanced_run, tmp_path):
    """Seeded lockstep repeats byte-identical; UDP run matches lockstep."""
    repeat = run_lockstep(bundled_scenario, algorithm="advanced", seed=42)
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    write_run_csv(p1, advanced_run.meta, advanced_run.rows)
    write_run_csv(p2, repeat.meta, repeat.rows)
    assert p1.read_bytes() == p2.read_bytes()

    sc = small_scenario()
    lock = run_lockstep(sc, algorithm="advanced", seed=0)
    net = run_networked(sc, algorithm="advanced", seed=0, plant_port=0,
                        controller_port=0)
    assert net.used_seq == lock.used_seq
    assert [r._replace(solve_time_s=0.0) for r in net.rows] == [
        r._replace(solve_time_s=0.0) for r in lock.rows]
    announce(10, "determinism (byte-identical run.csv) and mode equivalence")


def test_11_impairment_robustness(bundled_scenario):
    """10% telemetry loss, seed 42: completes, degraded ticks match replay."""
    sc = replace(bundled_scenario,
                 impairment=replace(bundled_scenario.impairment, loss_probability=0.1))
    result = run_lockstep(sc, algorithm="advanced", seed=42)
    assert len(result.rows) == 6000

    drops = replay_drop_schedule(replace(sc.impairment, seed=42), "telemetry", 6000)
    stale_limit = sc.controller.stale_limit
    freshest = None
    expected, used = [], []
    for k, dropped in enumerate(drops, start=1):
        if not dropped:
            freshest = k
        expected.append(freshest is None or (k - freshest) > stale_limit)
        used.append(None if expected[-1] else freshest)
    assert [r.degraded for r in result.rows] == expected
    assert result.used_seq == used  # each fresh tick used the last telemetry through

    for budget, implied in zip(result.budget_w, result.intent_power_w):
        if budget is not None:
            assert implied <= budget + 1e-6, "infeasible command batch sent"
    degraded = sum(expected)
    announce(11, f"impairment robustness (degraded ticks {degraded} match replay)")


def test_12_pinned_run_csv(advanced_run, baseline_run, tmp_path):
    """The bundled runs' run.csv bytes are the pinned ones."""
    for algorithm, result in (("advanced", advanced_run), ("baseline", baseline_run)):
        path = tmp_path / f"{algorithm}.csv"
        write_run_csv(path, result.meta, result.rows)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == BUNDLED_RUN_CSV_SHA256[algorithm], f"{algorithm} run.csv changed"
    announce(12, "pinned run.csv of the bundled advanced and baseline runs")


def test_13_pinned_group_csvs(advanced_run, tmp_path):
    """The bundled advanced run's six group series bytes are the pinned ones."""
    write_group_csv(advanced_run.meta, advanced_run.rows, GROUPINGS, tmp_path)
    for grouping in GROUPINGS:
        digest = hashlib.sha256((tmp_path / f"{grouping}.csv").read_bytes()).hexdigest()
        assert digest == BUNDLED_GROUP_CSV_SHA256[grouping], f"{grouping}.csv changed"
    announce(13, "pinned group series of the bundled advanced run")


def test_pinned_baseline_group_csvs(baseline_run, tmp_path):
    """The bundled baseline run's six group series bytes are the pinned ones."""
    write_group_csv(baseline_run.meta, baseline_run.rows, GROUPINGS, tmp_path)
    for grouping in GROUPINGS:
        digest = hashlib.sha256((tmp_path / f"{grouping}.csv").read_bytes()).hexdigest()
        assert digest == BUNDLED_BASELINE_GROUP_CSV_SHA256[grouping], f"{grouping}.csv changed"
