"""One fresh benchmark process: prepare a workload's inputs, or run it once.

``prepare`` runs untimed before the measured repetitions. It writes the
generated fleet-scale scenario, or the lockstep baseline run that trip-udp
is checked against, and warms the bytecode cache.

``rep`` is one measured repetition, doing what ``loadshed run`` does: build
and validate the scenario, run it, write the artifacts. It stamps every
``Plant.tick`` call and, with ``--trace``, records spans around the calls
into each layer. It writes ``result.json`` into its output directory.

Both import ``loadshed`` from the source tree named by ``PYTHONPATH``;
``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

WORKLOADS = ("trip-advanced", "trip-udp", "fleet-scale")
TRIP_SEED = 42  # the impairment seed of the bundled study (loss-free, so only the meta line)


def prepare(workload: str, seed: int, out: Path) -> dict:
    import fleet
    from loadshed.records import write_run_csv
    from loadshed.scenario import default_scenario, save_scenario
    from loadshed.sim import run_lockstep

    out.mkdir(parents=True, exist_ok=True)
    if workload == "fleet-scale":
        sc = fleet.generate(seed)
        save_scenario(sc, out / "scenario.json")
    else:
        sc = default_scenario()
    if workload == "trip-udp":
        ref = run_lockstep(sc, algorithm="baseline", seed=TRIP_SEED)
        write_run_csv(out / "reference.csv", ref.meta, ref.rows)
    return {"loads": len(sc.fleet), "zones": len(sc.zones), "ticks": sc.window.n_ticks}


# ---------------------------------------------------------------------------
# traced layers


def instrument(tracer) -> None:
    """Wrap the program's layer boundaries; the names are the per-layer metrics."""
    from loadshed import controller, link, optimizer, plant, report, sim

    t = tracer
    t.wrap(plant.Plant, "tick", "plant.tick")
    t.wrap(link.DelayQueue, "submit", "link.queue")
    t.wrap(link.DelayQueue, "poll", "link.queue")

    def count_datagrams(args, kwargs, parts):
        t.counts["link.datagrams"] += len(parts)
        t.counts["link.bytes"] += sum(len(p) for p in parts)

    t.wrap(link, "encode_telemetry_parts", "link.encode", count_datagrams)
    t.wrap(link, "encode_commands_parts", "link.encode", count_datagrams)
    t.wrap(link.Reassembler, "feed", "link.decode")
    for method in ("weights_at", "zones_at", "forced_off_at"):
        t.wrap(controller.MissionDatabase, method, "controller.mission_db")
    t.wrap(controller.AdvancedController, "on_telemetry", "controller.on_telemetry")
    t.wrap(controller.BaselineController, "on_telemetry", "controller.on_telemetry")
    t.wrap(controller, "build_instance", "optimizer.build_instance")

    def count_solve(args, kwargs, plan):
        deadline = args[1] if len(args) > 1 else kwargs.get("deadline_s")
        t.counts["optimizer.nonoptimal"] += not plan.optimal
        t.counts["optimizer.overrun"] += deadline is not None and plan.solve_time_s > deadline

    t.wrap(controller, "solve", "optimizer.solve", count_solve)
    t.wrap(optimizer, "_Prepared", "optimizer.prepare")
    t.wrap(controller, "baseline_step", "baseline.step")
    t.wrap(sim._Recorder, "row", "sim.record_row")
    t.wrap(report, "write_run_csv", "records.write_run_csv")
    t.wrap(report, "write_timing_csv", "records.write_timing_csv")
    t.wrap(report, "summarize", "report.summarize")
    t.wrap(report, "write_group_csv", "report.group_csv")


class _NoTracer:
    """Stand-in for :class:`tracer.Tracer` in untraced repetitions."""

    def open(self, name):
        return None

    def close(self, token):
        pass


# ---------------------------------------------------------------------------
# correctness


def fleet_violations(sc, result) -> list[str]:
    """Ticks whose commanded intent exceeds the budget or a zone limit.

    The intent after tick ``k`` was built from the telemetry of tick
    ``used_seq[k]``, so demand is taken from that tick's row.
    """
    ids = result.meta.load_ids
    rated = [w for _, _, w in result.meta.fleet]
    index = {lid: i for i, lid in enumerate(ids)}
    zones = [(zl.zone, zl.limit_w, [index[m] for m in zl.members]) for zl in sc.zones]
    problems = []
    for k, (row, seq) in enumerate(zip(result.rows, result.used_seq)):
        if seq is None:
            continue
        budget, intent = result.budget_w[k], result.intent_power_w[k]
        if intent > budget * (1 + 1e-9) + 1e-6:
            problems.append(f"tick {k + 1}: intent {intent} W over budget {budget} W")
        demand = result.rows[seq - 1].demands
        for name, limit, idx in zones:
            served = sum(min(row.commanded[i], min(max(demand[i], 0.0), 1.0)) * rated[i]
                         for i in idx)
            if served > limit * (1 + 1e-9) + 1e-6:
                problems.append(f"tick {k + 1}: zone {name} serves {served} W over {limit} W")
    return problems


# ---------------------------------------------------------------------------
# one repetition


def rep(workload: str, scenario_dir: Path, out: Path, traced: bool) -> dict:
    clock = time.perf_counter
    if traced:
        from tracer import Tracer

        tracer = Tracer()
    else:
        tracer = _NoTracer()
    root = tracer.open("worker")
    token = tracer.open("worker.import")
    from loadshed import controller, plant, report, scenario, sim

    tracer.close(token)
    if traced:
        instrument(tracer)

    stamps: list[float] = []
    first_tick: list[float] = []
    tick = plant.Plant.tick

    def stamped_tick(self, dt):
        if not first_tick:
            first_tick.append(time.monotonic())
        stamps.append(clock())
        return tick(self, dt)

    plant.Plant.tick = stamped_tick

    # the baseline records no solve time in networked runs, so time its
    # decision from outside
    decisions: list[float] = []
    on_telemetry = controller.BaselineController.on_telemetry

    def timed_decision(self, snapshot):
        t0 = clock()
        commands = on_telemetry(self, snapshot)
        decisions.append(clock() - t0)
        return commands

    controller.BaselineController.on_telemetry = timed_decision

    networked = workload == "trip-udp"
    algorithm = "baseline" if networked else "advanced"
    work_start = clock()
    token = tracer.open("scenario.build")
    if workload == "fleet-scale":
        sc = scenario.load_scenario(scenario_dir / "scenario.json")
    else:
        sc = scenario.default_scenario()
    tracer.close(token)
    token = tracer.open("scenario.validate")
    checked = scenario.validate_scenario(sc)
    tracer.close(token)
    if not checked.ok:
        raise SystemExit(f"scenario does not validate:\n{checked}")

    token = tracer.open("sim.run")
    if networked:
        result = sim.run_networked(sc, algorithm=algorithm, seed=TRIP_SEED,
                                   plant_port=0, controller_port=0)
    else:
        result = sim.run_lockstep(sc, algorithm=algorithm, seed=TRIP_SEED)
    loop_end = clock()
    tracer.close(token)
    token = tracer.open("report.write_run_artifacts")
    report.write_run_artifacts(result, out)
    tracer.close(token)
    work_end = clock()
    end_monotonic = time.monotonic()
    tracer.close(root)

    rows = result.rows
    fresh = [r for r in rows if not r.degraded]
    if algorithm == "advanced":
        solve_s = [r.solve_time_s for r in fresh]
        nonoptimal = result.nonoptimal_solves
    else:
        solve_s = decisions
        nonoptimal = 0  # the staged rule has no search to cut short
    ticks_s = [b - a for a, b in zip(stamps, stamps[1:])] + [loop_end - stamps[-1]]
    out_result = {
        "ticks": len(rows),
        "degraded": len(rows) - len(fresh),
        "first_tick_monotonic": first_tick[0],
        "end_monotonic": end_monotonic,
        "work_wall_s": work_end - work_start,
        "tick_s": ticks_s,
        "solve_s": solve_s,
        "solves": len(solve_s),
        "nonoptimal": nonoptimal,
        "overruns": sum(s > sc.controller.solve_deadline_s for s in solve_s),
        "operability": report.integral_ops(result.meta, rows)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "violations": fleet_violations(sc, result)[:5] if workload == "fleet-scale" else [],
    }
    if traced:
        tracer.write(out / "spans.csv")
        out_result["trace"] = {
            "layers": tracer.layer_totals(),
            "counts": dict(tracer.counts),
            "errors": dict(tracer.errors),
        }
    return out_result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("prepare", "rep"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    # One CPU for the whole process: the networked plant/controller handoff
    # then costs a thread switch instead of a cross-CPU wake-up, whose
    # latency varies widely on a shared host.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.action == "prepare":
        print(json.dumps(prepare(args.workload, args.seed, args.scenario_dir)))
    else:
        result = rep(args.workload, args.scenario_dir, args.out, args.trace)
        (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
