import hashlib
import importlib.util
import logging
import math
import pickle
import random
import time
from dataclasses import replace
from operator import truediv
from pathlib import Path

import pytest

from _helpers import (counting, failure_scenario, measured_sum, milp_objective,
                      small_scenario)
from loadshed.controller import (ALGORITHMS, AdvancedController, MissionDatabase,
                                 make_controller)
from loadshed import link
from loadshed.link import DelayQueue, replay_drop_schedule
from loadshed.metrics import operability
from loadshed.model import STATUS_TOL, ShedCommand, SystemSnapshot
from loadshed.optimizer import OBJ_REL_TOL
from loadshed.plant import GeneratorTrip, Plant
from loadshed.records import read_run_csv, write_run_csv
from loadshed.scenario import default_scenario, load_scenario, save_scenario, validate_scenario
from loadshed.sim import (SYNC_TIMEOUT_S, _ControlNode, _Recorder, build_plant, run_lockstep,
                          run_networked)

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def submitted(monkeypatch):
    """What each run's loop hands its two queues: ``submitted[i][stream]``
    lists ``(item, dropped)`` per tick for the ``i``-th run, where the item
    is ``(seq, snapshot)`` on ``"telemetry"`` and the batch on ``"commands"``."""
    runs: list[dict[str, list]] = []
    init, submit = DelayQueue.__init__, DelayQueue.submit

    def spy_init(self, config, stream):
        init(self, config, stream)
        if not runs or stream in runs[-1]:
            runs.append({})
        runs[-1][stream] = self.sent = []

    def spy_submit(self, item, now_s):
        deliver = submit(self, item, now_s)
        self.sent.append((item, deliver is None))
        return deliver

    monkeypatch.setattr(DelayQueue, "__init__", spy_init)
    monkeypatch.setattr(DelayQueue, "submit", spy_submit)
    return runs


def batches(run):
    return [batch for batch, _ in run["commands"]]


def drops(run, stream):
    return [dropped for _, dropped in run[stream]]


def expected_degraded(drops, stale_limit):
    """Which ticks leave the controller without fresh-enough telemetry."""
    out = []
    freshest = None
    for k, dropped in enumerate(drops, start=1):
        if not dropped:
            freshest = k
        out.append(freshest is None or (k - freshest) > stale_limit)
    return out


# sha256 of run.csv for two small lockstep runs: a lossy one, and one with a
# weight switch, a zone limit change and load failures (advanced, seed 0)
PINNED_RUN_CSV_SHA256 = {
    "lossy": "88661cf9965a5c1f87ad7c506f6bafc33f9adb4d10093ee9ee9369ab41892f7a",
    "failure": "920673f0b7d0e29111ccbac2898b12333403917b971ab1ea354e92b7ca54f65b",
}


@pytest.mark.parametrize("name, scenario", [("lossy", lambda: small_scenario(loss=0.2, seed=5)),
                                            ("failure", failure_scenario)])
def test_pinned_run_csv(name, scenario, tmp_path):
    result = run_lockstep(scenario())
    write_run_csv(tmp_path / "run.csv", result.meta, result.rows)
    digest = hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest()
    assert digest == PINNED_RUN_CSV_SHA256[name], f"{name} run.csv changed"


def test_pinned_double_trip_run_csv(tmp_path):
    # the bundled run with MPGM1 and MPGM2 tripping together: the one bundled
    # contingency whose root-chain siblings get past the solver's ceiling. A
    # 60 s deadline lets no wall-clock cut change a plan.
    sc = replace(default_scenario(), events=(GeneratorTrip(310.0, 1), GeneratorTrip(310.0, 2)))
    assert validate_scenario(sc).ok
    result = run_lockstep(replace(sc, controller=replace(sc.controller, solve_deadline_s=60.0)))
    assert result.nonoptimal_solves == 0
    assert not any(r.degraded for r in result.rows)
    write_run_csv(tmp_path / "run.csv", result.meta, result.rows)
    digest = hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest()
    assert digest == "bcb2a539c188c33a34c9fefd58cbf84d4ac44014b32a6b67e1595097ef957989"


@pytest.mark.parametrize("seed, pinned", [
    (1, "bbe74d6d9a42a4b1124d75e1d08e5e0d6063aa54c9435789fb98dea138e091fa"),
    (3, "4ccf76cf61091d217dbda6702c63985b9127a407eb30e6623a268d8c4fd384b0"),
])
def test_pinned_fleet_scale_run_csv(seed, pinned, tmp_path):
    # the benchmark's fleet-scale workload as its worker runs it: the seeded
    # generator's scenario saved and loaded back (a direct run of the
    # generated object writes other bytes), then advanced at impairment seed 42
    spec = importlib.util.spec_from_file_location("bench_fleet", BENCH / "fleet.py")
    fleet = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fleet)
    save_scenario(fleet.generate(seed), tmp_path / "scenario.json")
    result = run_lockstep(load_scenario(tmp_path / "scenario.json"), algorithm="advanced",
                          seed=42)
    assert result.nonoptimal_solves == 0
    write_run_csv(tmp_path / "run.csv", result.meta, result.rows)
    assert hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest() == pinned


def fleet_scenario(seed: int, tmp_path: Path, copies: int | None = None):
    """The benchmark's fleet-scale scenario as its worker loads it, with
    ``copies`` copies of the bundled fleet in place of the generator's
    ``COPIES`` (bench/fleet.py itself is only read), and a 60 s deadline, so
    that no wall-clock cut changes a plan."""
    spec = importlib.util.spec_from_file_location("bench_fleet", BENCH / "fleet.py")
    fleet = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fleet)
    if copies is not None:
        fleet.COPIES = copies
    save_scenario(fleet.generate(seed), tmp_path / "scenario.json")
    sc = load_scenario(tmp_path / "scenario.json")
    return replace(sc, controller=replace(sc.controller, solve_deadline_s=60.0))


def test_pinned_672_load_run_csv(solves, tmp_path):
    # fleet-scale seed 1 at 16 copies of the bundled fleet: 672 loads, 300
    # ticks (140 computed solves while only a falling budget kept a plan)
    result = run_lockstep(fleet_scenario(1, tmp_path, copies=16), algorithm="advanced", seed=42)
    assert result.nonoptimal_solves == 0
    write_run_csv(tmp_path / "run.csv", result.meta, result.rows)
    digest = hashlib.sha256((tmp_path / "run.csv").read_bytes()).hexdigest()
    assert digest == "2fe4d3067ba61fa0811bc11ab612fbe33e1115fec290bc50e8a000840a027110"
    assert len(solves) == 14


@pytest.mark.parametrize("name", ["bundled", "double-trip", "fleet-scale"])
def test_sampled_ticks_match_the_milp_oracle(name, solves, monkeypatch, tmp_path):
    # a seeded sample of the ticks that solved, that kept the solved plan and
    # that refilled its continuous loads at a new budget: each intent's
    # objective is the optimum HiGHS finds for the tick's problem
    if name == "fleet-scale":
        sc = fleet_scenario(1, tmp_path)
    else:
        trips = (1, 2) if name == "double-trip" else (2,)
        sc = replace(default_scenario(), events=tuple(GeneratorTrip(310.0, m) for m in trips))
        sc = replace(sc, controller=replace(sc.controller, solve_deadline_s=60.0))
    ticks = {"solved": [], "kept": [], "refilled": []}  # (snapshot, intent) of each kind
    on_telemetry = AdvancedController.on_telemetry

    def spy(self, snap):
        computed = len(solves)
        on_telemetry(self, snap)
        kind = ("solved" if len(solves) > computed else
                "kept" if self.intent == tuple(self.last_plan.statuses.values()) else "refilled")
        ticks[kind].append((snap, self.intent))

    monkeypatch.setattr(AdvancedController, "on_telemetry", spy)
    run_lockstep(sc, algorithm="advanced", seed=42)
    rng = random.Random(f"milp/{name}")
    database = MissionDatabase(sc.fleet, sc.mission_id, sc.weight_sets, sc.zones, sc.events)
    sample = [tick for kind, k in (("solved", 6), ("kept", 6), ("refilled", 30))
              for tick in rng.sample(ticks[kind], min(k, len(ticks[kind])))]
    assert len(sample) >= 12
    for snap, intent in sample:
        segment = database.segment_at(snap.time_s)
        model = segment.model  # the run's controller shares no model with this database
        objective = model.plan_key(intent)[0]
        oracle = milp_objective(model.instance(snap, segment.limits_w))
        assert abs(objective - oracle) <= OBJ_REL_TOL * (1.0 + abs(oracle)), f"t={snap.time_s}"


def weights_in_force(sc, t):
    """The id-keyed weights of the run's mission in force at ``t``, by a
    linear scan (the latest start at or before ``t``; the first declared wins
    a tie)."""
    valid = [ws for ws in sc.weight_sets if ws.mission_id == sc.mission_id and ws.valid_from_s <= t]
    return max(valid, key=lambda ws: ws.valid_from_s).weights


@pytest.mark.parametrize("scenario", [small_scenario, failure_scenario, default_scenario],
                         ids=["small", "failure", "bundled"])
def test_a_fleet_declared_out_of_id_order(scenario):
    # every pinned fleet is declared in ascending id order, so only a
    # reversed one tells the recorder's fleet order from id order: each
    # row's weighted sums equal a recomputation from the id-keyed weights,
    # and the advanced plans equal the id-ordered run's load by load (the
    # baseline cuts in declaration order by design)
    sc = scenario()
    ids = [spec.id for spec in sc.fleet]
    assert ids == sorted(ids)
    backwards = replace(sc, fleet=sc.fleet[::-1])
    assert validate_scenario(backwards).ok
    for algorithm in ALGORITHMS:
        result = run_lockstep(backwards, algorithm=algorithm, seed=42)
        assert list(result.meta.load_ids) == ids[::-1]
        rated = [r for _, _, r in result.meta.fleet]
        for row in result.rows:
            weights = weights_in_force(sc, row.time_s)
            terms = [(weights[lid], d, c, m / r) for lid, d, c, m, r in zip(
                result.meta.load_ids, row.demands, row.commanded, row.measured_w, rated)
                if not -STATUS_TOL <= d <= STATUS_TOL]
            expected = (math.fsum(w * d for w, d, _, _ in terms),
                        math.fsum(w * min(d, c) for w, d, c, _ in terms),
                        math.fsum(w * m for w, _, _, m in terms))
            got = (row.wsum_demand, row.wsum_commanded, row.wsum_measured)
            assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, expected)), \
                f"{algorithm} t={row.time_s}: {got} != {expected}"
        if algorithm == "advanced":
            in_order = run_lockstep(sc, algorithm=algorithm, seed=42)
            assert any(c < d for r in in_order.rows for c, d in zip(r.commanded, r.demands)), \
                "the run must shed for the check to mean anything"
            for a, b in zip(in_order.rows, result.rows):
                assert all(abs(x - y) <= 1e-12 for x, y in zip(a.commanded, b.commanded[::-1])), \
                    f"t={a.time_s}"


def fresh_copies(monkeypatch):
    """Make every snapshot the plant hands out carry new tuples of new
    objects, so no row shares a tuple or a float with the row before."""
    tick = Plant.tick

    def fresh(self, dt):
        snap = tick(self, dt)
        return snap._replace(**{name: pickle.loads(pickle.dumps(getattr(snap, name)))
                                for name in ("load_ids", "demands", "measured_w")})

    monkeypatch.setattr(Plant, "tick", fresh)


def assert_measured_sums_are_the_reference(sc, rows):
    """Each row's ``wsum_measured`` and ``op_measured`` have the bits of the
    reference loop over that row's columns."""
    db = MissionDatabase(sc.fleet, sc.mission_id, sc.weight_sets, sc.zones, sc.events)
    rated = [spec.rated_power_w for spec in sc.fleet]
    for row in rows:
        weights = db.segment_at(row.time_s).model.weight
        expected = measured_sum(weights, row.demands, map(truediv, row.measured_w, rated))
        assert row.wsum_measured.hex() == expected.hex(), f"t={row.time_s}"
        assert row.op_measured.hex() == operability(expected, row.wsum_demand).hex(), \
            f"t={row.time_s}"


@pytest.mark.parametrize("case", ["advanced", "baseline", "fleet-scale", "reversed", "failure",
                                  "fresh-copies"])
def test_measured_sums_are_bit_identical_to_the_reference(case, advanced_run, baseline_run,
                                                          monkeypatch, tmp_path):
    # the recorder recomputes only the terms of the loads whose measured float
    # changed object; every row must still carry the bits of a full pass. A
    # run whose snapshots share nothing takes the full pass on every row and
    # must write the same rows as the run that shares.
    sc, algorithm = default_scenario(), "advanced"
    if case in ("advanced", "baseline"):
        rows = {"advanced": advanced_run, "baseline": baseline_run}[case].rows
    else:
        if case == "fleet-scale":
            sc = fleet_scenario(1, tmp_path)
        elif case == "reversed":
            sc = replace(sc, fleet=sc.fleet[::-1])
        elif case == "failure":
            sc = failure_scenario()
        elif case == "fresh-copies":
            algorithm = "baseline"
            shared = run_lockstep(sc, algorithm=algorithm, seed=42).rows
            fresh_copies(monkeypatch)
        rows = run_lockstep(sc, algorithm=algorithm, seed=42).rows
    assert_measured_sums_are_the_reference(sc, rows)
    if case == "fresh-copies":
        assert all(a.measured_w is not b.measured_w for a, b in zip(rows, rows[1:]))
        assert [r._replace(solve_time_s=0.0) for r in rows] == [
            r._replace(solve_time_s=0.0) for r in shared]
        assert [r.wsum_measured.hex() for r in rows] == [r.wsum_measured.hex() for r in shared]


@pytest.mark.parametrize("moved", [0, 1, 3, 7])
def test_a_row_computes_the_terms_of_the_moved_loads_only(moved):
    # the measured floats count their divisions by the rating: one per term
    # computed. The second row shares all but ``moved`` float objects with
    # the first (the new ones have equal values), so it computes that many
    # terms, and its sum still has the bits of the reference loop.
    class Power(float):
        divisions = 0

        def __truediv__(self, other):
            Power.divisions += 1
            return float(self) / other

    sc = small_scenario()
    recorder = _Recorder(sc)
    ids = tuple(spec.id for spec in sc.fleet)
    rated = [spec.rated_power_w for spec in sc.fleet]
    demands = (1.0,) * len(ids)
    first = tuple(Power(0.4 * r) for r in rated)
    changed = random.Random(moved).sample(range(len(ids)), moved)
    second = tuple(Power(p) if i in changed else p for i, p in enumerate(first))
    commanded = (1.0,) * len(ids)
    for t, measured in ((0.1, first), (0.2, second)):
        Power.divisions = 0
        snap = SystemSnapshot(t, sc.mission_id, ids, demands, measured, 2e7, 0.0, 0.5)
        row = recorder.row(snap, commanded, False, 0.0)
    assert Power.divisions == moved
    weights = recorder.db.segment_at(0.2).model.weight
    expected = measured_sum(weights, demands, [p / r for p, r in zip(second, rated)])
    assert row.wsum_measured.hex() == expected.hex()


def test_node_batch_counts_nan_as_changed():
    class Stub:
        """Sets its intent to the next tuple on each telemetry."""

        last_plan = None

        def __init__(self, intents):
            self.intents = iter(intents)
            self.intent = next(self.intents)

        def on_telemetry(self, snapshot):
            self.intent = next(self.intents)

    sc = small_scenario()
    nan = math.nan
    stub = Stub([(1.0, nan) + (1.0,) * 6, (1.0, nan) + (1.0,) * 5 + (0.5,)])
    node = _ControlNode(stub, 3, sc.fleet, sc.mission_id)
    snap = build_plant(sc).tick(sc.window.tick_s)
    batch = node.exchange(1, [(1, snap)]).batch
    assert [(c.load_id, c.status) for c in batch][1:] == [(8, 0.5)]
    assert batch[0].load_id == 2 and math.isnan(batch[0].status)


class TestLockstep:
    def test_row_count_matches_window(self, advanced_run):
        assert len(advanced_run.rows) == 6000
        assert advanced_run.rows[0].time_s == pytest.approx(0.1)
        assert advanced_run.rows[-1].time_s == pytest.approx(600.0)

    def test_one_batch_per_tick(self, submitted):
        # degraded ticks re-send a batch too
        sc = small_scenario(loss=0.3, seed=2)
        result = run_lockstep(sc, algorithm="advanced", seed=2)
        assert any(r.degraded for r in result.rows)
        assert len(batches(submitted[0])) == len(result.used_seq) == sc.window.n_ticks

    def test_deterministic_repeat_is_byte_identical(self, tmp_path):
        sc = small_scenario(loss=0.15, latency_ms=120.0, seed=9)
        a = run_lockstep(sc, algorithm="advanced", seed=9)
        b = run_lockstep(sc, algorithm="advanced", seed=9)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_run_csv(pa, a.meta, a.rows)
        write_run_csv(pb, b.meta, b.rows)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_changes_impaired_run(self, submitted):
        sc = small_scenario(loss=0.3)
        a = run_lockstep(sc, algorithm="advanced", seed=1)
        b = run_lockstep(sc, algorithm="advanced", seed=2)
        assert drops(submitted[0], "telemetry") != drops(submitted[1], "telemetry")
        assert a.used_seq != b.used_seq

    def test_loss_free_run_has_no_degraded_ticks(self):
        result = run_lockstep(small_scenario(), algorithm="advanced", seed=0)
        assert not any(r.degraded for r in result.rows)
        assert result.used_seq == list(range(1, len(result.rows) + 1))

    def test_degraded_ticks_match_replayed_drop_schedule(self, submitted):
        sc = small_scenario(loss=0.35, seed=11, stale_limit=2)
        result = run_lockstep(sc, algorithm="advanced", seed=11)
        schedule = replay_drop_schedule(replace(sc.impairment, seed=11), "telemetry",
                                        sc.window.n_ticks)
        assert drops(submitted[0], "telemetry") == schedule
        degraded = expected_degraded(schedule, 2)
        assert [r.degraded for r in result.rows] == degraded
        # a fresh tick used the last telemetry that got through
        got_through = [k for k, dropped in enumerate(schedule, start=1) if not dropped]
        assert result.used_seq == [
            None if bad else max(seq for seq in got_through if seq <= k)
            for k, bad in enumerate(degraded, start=1)]

    def test_degraded_tick_resends_last_batch(self, submitted):
        sc = small_scenario(loss=0.5, seed=3, stale_limit=1)
        result = run_lockstep(sc, algorithm="advanced", seed=3)
        sent = batches(submitted[0])
        degraded_ticks = [k for k, r in enumerate(result.rows) if r.degraded]
        assert degraded_ticks, "expected at least one degraded tick at 50% loss"
        for k in degraded_ticks:
            previous = sent[k - 1] if k > 0 else ()
            assert sent[k] == previous
        # the run's degraded ticks all follow an empty batch; at the node, a
        # batch of changed statuses is re-sent while the telemetry is stale
        db = MissionDatabase(sc.fleet, sc.mission_id, sc.weight_sets, sc.zones, sc.events)
        node = _ControlNode(make_controller(sc.fleet, sc.controller, db, sc.window.tick_s), 0,
                            sc.fleet, sc.mission_id)
        plant = build_plant(sc)
        k, decision = 0, node.last
        while not decision.batch:
            k += 1
            decision = node.exchange(k, [(k, plant.tick(sc.window.tick_s))])
        for late in (1, 2):
            held = node.exchange(k + late, [])
            assert held.degraded and held.batch == decision.batch

    def test_latency_delays_reaction(self):
        # telemetry delayed by two ticks: the trip at t=10 is acted on at 10.3
        prompt = run_lockstep(small_scenario(), algorithm="advanced", seed=0)
        delayed = run_lockstep(small_scenario(latency_ms=150.0), algorithm="advanced",
                               seed=0)

        def reaction(rows):  # the first tick from the trip on whose intent changed
            return next(r.time_s for r, before in zip(rows[1:], rows)
                        if r.time_s >= 10.0 and r.commanded != before.commanded)

        assert reaction(delayed.rows) > reaction(prompt.rows)

    def test_commanded_power_within_budget_every_fresh_tick(self):
        result = run_lockstep(small_scenario(tau_s=0.0), algorithm="advanced", seed=0)
        for k, (budget, implied) in enumerate(zip(result.budget_w,
                                                  result.intent_power_w)):
            if budget is not None:
                assert implied <= budget + 1e-6, f"tick {k}: {implied} > {budget}"

    def test_baseline_ignores_weight_permutations(self):
        # priorities within a category never matter to the staged baseline;
        # weights feed only the recorded metrics
        sc = small_scenario()
        permuted = replace(
            sc,
            weight_sets=(replace(
                sc.weight_sets[0],
                weights={1: 0.5, 2: 9.0, 3: 1.0, 4: 2.0, 5: 8.0, 6: 0.1, 7: 3.0, 8: 7.0},
            ),),
        )
        a = run_lockstep(sc, algorithm="baseline", seed=0)
        b = run_lockstep(permuted, algorithm="baseline", seed=0)
        assert any(0.0 in r.commanded for r in a.rows), "the baseline must shed for the check"
        assert [(r.commanded, r.degraded) for r in a.rows] == [
            (r.commanded, r.degraded) for r in b.rows]

    def test_baseline_waits_250_ms_at_50_ms_ticks(self, bundled_scenario):
        # the overload timer advances by the tick, whatever its length
        window = replace(bundled_scenario.window, t_end_s=320.0, tick_s=0.05)
        rows = run_lockstep(replace(bundled_scenario, window=window), algorithm="baseline").rows
        overloaded = [r for r in rows if r.loading_pu > 1.0]
        first_shed = next(k for k, r in enumerate(overloaded) if 0.0 in r.commanded)
        assert first_shed == 5  # the 6th overloaded tick
        assert overloaded[first_shed].time_s == pytest.approx(310.25)

    def test_csv_round_trip(self, tmp_path):
        result = run_lockstep(small_scenario(), algorithm="baseline", seed=0)
        path = tmp_path / "run.csv"
        write_run_csv(path, result.meta, result.rows)
        meta, rows = read_run_csv(path)
        assert meta == result.meta
        stripped = [r._replace(solve_time_s=0.0) for r in result.rows]
        assert rows == stripped


class TestNetworked:
    def test_zero_loss_matches_lockstep_command_sequence(self, submitted):
        sc = small_scenario()
        run_lockstep(sc, algorithm="advanced", seed=0)
        net = run_networked(sc, algorithm="advanced", seed=0, plant_port=0,
                            controller_port=0)
        lock_batches, net_batches = batches(submitted[0]), batches(submitted[1])
        assert len(net_batches) == len(lock_batches) == sc.window.n_ticks
        assert net_batches == lock_batches
        assert any(lock_batches)
        assert not any(r.degraded for r in net.rows)

    def test_zero_loss_rows_match_lockstep(self):
        sc = small_scenario()
        lock = run_lockstep(sc, algorithm="advanced", seed=0)
        net = run_networked(sc, algorithm="advanced", seed=0, plant_port=0,
                            controller_port=0)
        a = [r._replace(solve_time_s=0.0) for r in lock.rows]
        b = [r._replace(solve_time_s=0.0) for r in net.rows]
        assert a == b

    def test_lossy_networked_run_completes(self):
        sc = small_scenario(loss=0.2, seed=5)
        net = run_networked(sc, algorithm="advanced", seed=5, plant_port=0, controller_port=0)
        assert len(net.rows) == sc.window.n_ticks
        assert any(r.degraded for r in net.rows)

    def test_baseline_over_udp(self, submitted):
        sc = small_scenario()
        run_networked(sc, algorithm="baseline", seed=0, plant_port=0, controller_port=0)
        run_lockstep(sc, algorithm="baseline", seed=0)
        assert batches(submitted[0]) == batches(submitted[1])
        assert any(batches(submitted[1]))

    def test_zero_loss_bookkeeping_matches_lockstep(self, submitted):
        sc = small_scenario()
        lock = run_lockstep(sc, algorithm="advanced", seed=0)
        net = run_networked(sc, algorithm="advanced", seed=0, plant_port=0,
                            controller_port=0)
        assert net.used_seq == lock.used_seq
        assert net.budget_w == lock.budget_w
        assert net.intent_power_w == lock.intent_power_w
        assert drops(submitted[1], "commands") == drops(submitted[0], "commands")

    def test_baseline_over_udp_records_decision_time(self):
        net = run_networked(small_scenario(), algorithm="baseline", seed=0, plant_port=0,
                            controller_port=0)
        assert any(r.solve_time_s > 0 for r in net.rows)

    def test_lossy_drops_follow_replayed_schedule(self, submitted):
        sc = small_scenario(loss=0.2, seed=5)
        run_networked(sc, algorithm="advanced", seed=5, plant_port=0, controller_port=0)
        n = sc.window.n_ticks
        for stream in ("telemetry", "commands"):
            schedule = replay_drop_schedule(sc.impairment, stream, n)
            assert any(schedule)
            assert drops(submitted[0], stream) == schedule, stream

    def test_lossy_degraded_ticks_are_the_lost_telemetry_ticks(self):
        sc = small_scenario(loss=0.2, seed=5)
        net = run_networked(sc, algorithm="advanced", seed=5, plant_port=0, controller_port=0)
        lost = replay_drop_schedule(sc.impairment, "telemetry", sc.window.n_ticks)
        assert [r.degraded for r in net.rows] == lost
        assert net.used_seq == [None if dropped else k for k, dropped in enumerate(lost, 1)]

    def test_lossy_fresh_ticks_stay_within_budget(self):
        sc = small_scenario(loss=0.2, seed=5)
        net = run_networked(sc, algorithm="advanced", seed=5, plant_port=0, controller_port=0)
        for k, (row, budget, implied) in enumerate(zip(net.rows, net.budget_w,
                                                       net.intent_power_w)):
            if not row.degraded:
                assert implied <= budget + 1e-6, f"tick {k}: {implied} > {budget}"

    def test_split_messages_reassemble_over_udp(self, monkeypatch, tmp_path):
        # 672 loads with every module tripping at 310 s: each tick's telemetry
        # and the trip's command batch go in several datagrams each, and the
        # loss-free networked run still writes the lockstep rows
        sc = fleet_scenario(1, tmp_path, copies=16)
        sc = replace(sc, events=tuple(GeneratorTrip(310.0, m.id) for m in sc.generation))
        parts = {"encode_telemetry_parts": [], "encode_commands_parts": []}
        for name, counts in parts.items():
            encode = getattr(link, name)

            def counted(*args, encode=encode, counts=counts, **kwargs):
                out = encode(*args, **kwargs)
                counts.append(len(out))
                return out

            monkeypatch.setattr(link, name, counted)
        lock = run_lockstep(sc, algorithm="advanced", seed=42)
        net = run_networked(sc, algorithm="advanced", seed=42, plant_port=0, controller_port=0)
        assert min(parts["encode_telemetry_parts"]) > 1
        assert max(parts["encode_commands_parts"]) > 1
        assert net.used_seq == lock.used_seq
        assert [r._replace(solve_time_s=0.0) for r in net.rows] == [
            r._replace(solve_time_s=0.0) for r in lock.rows]

    def test_codec_entry_points_run_once_per_tick_each_way(self, monkeypatch):
        # the benchmark times the codec by wrapping these module attributes,
        # so the loop must reach them through the module on every message
        calls = {"encode_telemetry_parts": 0, "encode_commands_parts": 0}
        for name in calls:
            encode = getattr(link, name)

            def counted(*args, encode=encode, name=name, **kwargs):
                calls[name] += 1
                return encode(*args, **kwargs)

            monkeypatch.setattr(link, name, counted)
        decoded = []
        feed = link.Reassembler.feed

        def counted_feed(self, data):
            view = feed(self, data)
            decoded.append(view.msg_type)
            return view

        monkeypatch.setattr(link.Reassembler, "feed", counted_feed)
        sc = small_scenario()
        net = run_networked(sc, algorithm="baseline", seed=0, plant_port=0, controller_port=0)
        n = sc.window.n_ticks
        assert not any(r.degraded for r in net.rows)
        assert calls == {"encode_telemetry_parts": n, "encode_commands_parts": n}
        assert sorted(decoded) == [link.MSG_TELEMETRY] * n + [link.MSG_COMMANDS] * n

    def test_realtime_paces_ticks_at_control_period(self):
        sc = small_scenario()
        sc = replace(sc, window=replace(sc.window, t_end_s=0.5))
        t0 = time.monotonic()
        net = run_networked(sc, algorithm="advanced", seed=0, plant_port=0,
                            controller_port=0, realtime=True)
        assert len(net.rows) == 5
        assert time.monotonic() - t0 >= 4 * sc.window.tick_s


def test_views_read_the_telemetry_the_controller_saw(monkeypatch):
    """``budget_w`` and ``intent_power_w`` read back, bit for bit, the budget
    of the telemetry each fresh tick's controller was handed and the power
    its intent draws at that telemetry's demands. At 120 ms latency most
    fresh tick uses an older seq than its own."""
    sc = small_scenario(loss=0.15, latency_ms=120.0, seed=9)
    seen = []  # (snapshot, intent after the call) of each call
    on_telemetry = AdvancedController.on_telemetry

    def spy(self, snapshot):
        on_telemetry(self, snapshot)
        seen.append((snapshot, self.intent))

    monkeypatch.setattr(AdvancedController, "on_telemetry", spy)
    result = run_lockstep(sc, algorithm="advanced", seed=9)
    fresh = [k for k, seq in enumerate(result.used_seq) if seq is not None]
    assert len(fresh) == len(seen) == 289
    assert all(result.used_seq[k] < k + 1 for k in fresh)
    rated = [spec.rated_power_w for spec in sc.fleet]
    for k, (snapshot, intent) in zip(fresh, seen):
        power = 0.0
        for s, d, r in zip(intent, snapshot.demands, rated):
            power += (d if d < s else s) * r
        assert result.budget_w[k].hex() == snapshot.budget_w.hex(), f"tick {k + 1}"
        assert result.intent_power_w[k].hex() == power.hex(), f"tick {k + 1}"
    degraded = [k for k, r in enumerate(result.rows) if r.degraded]
    assert degraded
    assert all(result.budget_w[k] is None and result.intent_power_w[k] is None
               for k in degraded)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_node_batch_is_the_fleet_order_diff_of_intents(bundled_scenario, algorithm):
    """The node alone builds commands: each batch is the statuses that changed
    since the last decision, in fleet order, and () when the controller kept
    its intent tuple. 400 bundled ticks from 290 s span the trip at 310 s, so
    both controllers change their intent."""
    sc = replace(bundled_scenario, window=replace(bundled_scenario.window,
                                                  t_start_s=290.0, t_end_s=330.0))
    plant, recorder = build_plant(sc), _Recorder(sc)
    controller = make_controller(sc.fleet, replace(sc.controller, algorithm=algorithm),
                                 recorder.db, sc.window.tick_s)
    node = _ControlNode(controller, sc.controller.stale_limit, sc.fleet, sc.mission_id)
    ids = [spec.id for spec in sc.fleet]
    before, changes = node.last.intent, 0
    for k in range(1, 401):
        decision = node.exchange(k, [(k, plant.tick(sc.window.tick_s))])
        diff = tuple(ShedCommand(lid, new)
                     for lid, new, old in zip(ids, decision.intent, before) if new != old)
        assert decision.batch == diff, f"tick {k}"
        assert (decision.batch == ()) == (decision.intent is before), f"tick {k}"
        changes += decision.intent is not before
        before = decision.intent
    assert changes > 0, "the window must change the intent for the check to mean anything"


class TestNonFiniteTelemetry:
    @pytest.mark.parametrize("corrupt", [
        lambda snap: snap._replace(demands=(math.nan,) + snap.demands[1:]),
        lambda snap: snap._replace(total_capacity_w=math.inf),
        lambda snap: snap._replace(total_loss_w=math.inf),
        lambda snap: snap._replace(load_ids=snap.load_ids[::-1]),
        lambda snap: snap._replace(load_ids=(), demands=(), measured_w=()),
        lambda snap: snap._replace(loading_pu=math.nan),
        lambda snap: snap._replace(loading_pu=-0.5),
        lambda snap: snap._replace(time_s=math.nan),
        lambda snap: snap._replace(time_s=math.inf),
        lambda snap: snap._replace(mission_id=snap.mission_id + 1),
    ], ids=["nan-demand", "inf-capacity", "inf-loss", "other-loads", "no-records",
            "nan-loading", "negative-loading", "nan-time", "inf-time", "foreign-mission"])
    def test_tick_is_degraded_and_holds_the_last_batch(self, corrupt):
        sc = small_scenario()
        plant, recorder = build_plant(sc), _Recorder(sc)
        controller = make_controller(sc.fleet, sc.controller, recorder.db, sc.window.tick_s)
        node = _ControlNode(controller, sc.controller.stale_limit, sc.fleet, sc.mission_id)
        first = node.exchange(1, [(1, plant.tick(sc.window.tick_s))])

        def refuse(snapshot):
            pytest.fail("the controller was handed unusable telemetry")

        controller.on_telemetry = refuse
        held = node.exchange(2, [(2, corrupt(plant.tick(sc.window.tick_s)))])
        assert held.degraded
        assert held.batch == first.batch and held.intent == first.intent

    def test_a_demand_tuple_is_added_once_and_a_nan_one_degrades_every_tick(self):
        # the plant hands one demand tuple on while no demand changes: the node
        # adds each tuple object up once, and refuses one holding a NaN on
        # every tick that carries it
        sc = small_scenario()
        plant, recorder = build_plant(sc), _Recorder(sc)
        controller = make_controller(sc.fleet, sc.controller, recorder.db, sc.window.tick_s)
        node = _ControlNode(controller, sc.controller.stale_limit, sc.fleet, sc.mission_id)
        handed = []
        controller.on_telemetry = handed.append  # reads no demand
        snap = plant.tick(sc.window.tick_s)
        Demands = counting(tuple)
        finite, nan = Demands(snap.demands), Demands((math.nan,) + snap.demands[1:])
        for k, demands in enumerate((finite, finite, nan, nan, nan, finite, finite), start=1):
            decision = node.exchange(k, [(k, snap._replace(demands=demands))])
            assert decision.degraded == (demands is nan), f"tick {k}"
        assert len(handed) == 4
        assert Demands.reads == 3  # finite, nan, finite again


def test_controller_fault_degrades_ticks_in_both_modes(monkeypatch, caplog, tmp_path):
    """A controller that raises on every tick from 12 s on: the node holds the
    last batch, flags those ticks degraded, logs the first fault only and
    retries every tick. The lockstep run completes, a loss-free networked run
    writes the same rows, and it waits out no sync timeout."""
    sc = small_scenario()
    fault_t = 12.0
    solve = AdvancedController.on_telemetry
    raised = []

    def faulty(self, snapshot):
        if snapshot.time_s >= fault_t:
            raised.append(snapshot.time_s)
            raise RuntimeError("controller fault")
        solve(self, snapshot)

    monkeypatch.setattr(AdvancedController, "on_telemetry", faulty)
    bodies = []
    networked = dict(plant_port=0, controller_port=0)
    for run, kwargs in ((run_lockstep, {}), (run_networked, networked)):
        caplog.clear()
        raised.clear()
        t0 = time.monotonic()
        with caplog.at_level(logging.ERROR, logger="loadshed.sim"):
            result = run(sc, algorithm="advanced", seed=0, **kwargs)
        elapsed = time.monotonic() - t0
        assert len(result.rows) == sc.window.n_ticks
        assert [r.degraded for r in result.rows] == [r.time_s >= fault_t for r in result.rows]
        assert raised == [r.time_s for r in result.rows if r.degraded]  # retried every tick
        faults = [rec for rec in caplog.records if rec.exc_info]
        assert len(faults) == 1 and "controller fault" in caplog.text
        path = tmp_path / f"{result.meta.mode}.csv"
        write_run_csv(path, result.meta, result.rows)
        bodies.append(path.read_text().splitlines()[2:])  # past the version and meta lines
    assert bodies[0] == bodies[1]
    limit = 0.1 * sc.window.n_ticks * SYNC_TIMEOUT_S
    assert elapsed < limit, f"networked run took {elapsed:.1f} s"
