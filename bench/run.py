"""Closed-loop benchmark of the loadshed testbed.

    python3 bench/run.py --workload trip-advanced --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The command prepares the workload's
inputs from ``--seed`` in an untimed process, then starts fresh measured
processes one after another (``worker.py rep``) for ``--seconds``, at
least ``MIN_REPS`` of them. Each process runs the whole closed
loop once and writes the run's artifacts, which are checked here. The last
line of standard output is one JSON object: with ``--trace 0`` every
end-to-end metric, with ``--trace 1`` every per-layer metric from the
traced processes (every other process is traced; the rest measure the
tracing overhead). The exit code is 0 only when every check passed.

Work files go to ``.bench_work/<workload>/`` under the checkout; the last
repetition's artifacts (and ``spans.csv`` when traced) are left there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPS = 2
REP_TIMEOUT_S = 60.0  # a process normally takes 3 to 8 s; keeps a hung run under 180 s

# The bundled seeded advanced run: its run.csv is the determinism contract.
TRIP_ADVANCED_SHA256 = "4006ad93a8176c4e300fc775d9e6eb5d984410782cbe3c58c47e4c893851c010"
TRIP_ADVANCED_OPERABILITY = 0.9955

END_TO_END_UNITS = {
    "setup_s": "s",
    "ticks_per_s": "1/s",
    "tick_p75_ms": "ms",
    "tick_p90_ms": "ms",
    "solve_p75_ms": "ms",
    "solve_p90_ms": "ms",
    "optimal_ratio": "ratio",
    "deadline_met_ratio": "ratio",
    "operability": "ratio",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# span names recorded by worker.instrument and worker.rep
LAYERS = (
    "worker", "worker.import", "scenario.build", "scenario.validate", "sim.run",
    "plant.tick", "link.queue", "link.encode", "link.decode",
    "controller.on_telemetry", "controller.mission_db",
    "optimizer.build_instance", "optimizer.prepare", "optimizer.solve",
    "baseline.step", "sim.record_row", "report.write_run_artifacts",
    "records.write_run_csv", "records.write_timing_csv",
    "report.summarize", "report.group_csv",
)
COUNTS = ("optimizer.nonoptimal", "optimizer.overrun", "link.datagrams", "link.bytes")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over processes, except percentiles over the pooled samples."""
    done = [r for r in reps if r["ran"]]
    ticks = [t for r in done for t in r["tick_s"]]
    solves = [t for r in done for t in r["solve_s"]]
    attempted = sum(r["ticks"] for r in reps)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "ticks_per_s": statistics.median(
            r["ticks"] / (r["end_monotonic"] - r["first_tick_monotonic"]) for r in done
        ),
        "tick_p75_ms": percentile(ticks, 75) * 1e3,
        "tick_p90_ms": percentile(ticks, 90) * 1e3,
        "solve_p75_ms": percentile(solves, 75) * 1e3,
        "solve_p90_ms": percentile(solves, 90) * 1e3,
        "optimal_ratio": statistics.median(1 - r["nonoptimal"] / r["solves"] for r in done),
        "deadline_met_ratio": statistics.median(1 - r["overruns"] / r["solves"] for r in done),
        "operability": statistics.median(r["operability"] for r in done),
        "ok_ratio": 1 - failed_ticks(reps) / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }


def failed_ticks(reps: list[dict]) -> int:
    """Degraded ticks, plus every tick of a process that failed a check."""
    return sum(r["ticks"] if r["problems"] else r["degraded"] for r in reps)


def per_layer(reps: list[dict], networked: bool) -> dict[str, float]:
    """Medians over the traced processes of their per-layer totals."""
    traced = [r for r in reps if r["ran"] and "trace" in r]
    plain = [r for r in reps if r["ran"] and "trace" not in r]

    def med(get) -> float:
        return statistics.median(get(r["trace"]) for r in traced)

    def layer(t, name, key):
        return t["layers"].get(name, {}).get(key, 0)

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = med(lambda t: layer(t, name, "calls"))
        out[f"{name}.self_s"] = med(lambda t: layer(t, name, "self_s"))
    for name in COUNTS:
        out[name] = med(lambda t: t["counts"].get(name, 0))
    out["link.decode_errors"] = med(lambda t: t["errors"].get("link.decode", 0))
    # the plant thread's loop time outside its child spans: in a networked
    # run that is the wait for the controller's reply; lockstep never waits
    out["sim.wait_s"] = med(lambda t: layer(t, "sim.run", "self_s")) if networked else 0.0
    out["trace.wall_s"] = statistics.median(r["work_wall_s"] for r in traced)
    out["trace.untraced_wall_s"] = statistics.median(r["work_wall_s"] for r in plain)
    out["trace.overhead_ratio"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1
    return out


def per_layer_unit(name: str) -> str:
    if name == "link.bytes":
        return "B"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# checks


def run_body(path: Path) -> list[str]:
    """run.csv without its ``# meta`` line, which names the mode."""
    return [line for line in path.read_text().splitlines() if not line.startswith("# meta ")]


def check(workload: str, rep: dict, rep_dir: Path, scenario_dir: Path, ticks: int) -> list[str]:
    problems = list(rep["violations"])
    if rep["ticks"] != ticks:
        problems.append(f"ran {rep['ticks']} ticks, expected {ticks}")
    run_csv = rep_dir / "run.csv"
    if workload == "trip-advanced":
        digest = hashlib.sha256(run_csv.read_bytes()).hexdigest()
        if digest != TRIP_ADVANCED_SHA256:
            problems.append(f"run.csv sha256 {digest} differs from the bundled seeded run")
        if round(rep["operability"], 4) != TRIP_ADVANCED_OPERABILITY:
            problems.append(f"integral operability {rep['operability']:.4f}")
    elif workload == "trip-udp":
        if run_body(run_csv) != run_body(scenario_dir / "reference.csv"):
            problems.append("networked rows differ from the lockstep baseline run")
    return problems


# ---------------------------------------------------------------------------
# processes


def worker(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
    )


def run_rep(workload: str, index: int, traced: bool, work: Path, ticks: int,
            env: dict) -> dict:
    rep_dir = work / f"rep{index}"
    args = ["rep", "--workload", workload, "--scenario-dir", str(work), "--out", str(rep_dir)]
    if traced:
        args.append("--trace")
    spawn = time.monotonic()
    try:
        proc = worker(args, env)
    except subprocess.TimeoutExpired:
        return {"ran": False, "ticks": ticks, "problems": [f"no result within {REP_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {"ran": False, "ticks": ticks,
                "problems": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    rep = json.loads((rep_dir / "result.json").read_text())
    rep["ran"] = True
    rep["setup_s"] = rep["first_tick_monotonic"] - spawn
    rep["problems"] = check(workload, rep, rep_dir, work, ticks)
    return rep


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="loadshed closed-loop benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "loadshed" / "__init__.py").is_file():
        print(f"no loadshed source tree under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    prep = worker(["prepare", "--workload", args.workload, "--seed", str(args.seed),
                   "--scenario-dir", str(work)], env)
    if prep.returncode != 0:
        print(f"preparing {args.workload} failed:\n{prep.stderr}", file=sys.stderr)
        return 1
    info = json.loads(prep.stdout.strip().splitlines()[-1])
    print(f"{args.workload} seed {args.seed}: {info['loads']} loads, {info['zones']} zones, "
          f"{info['ticks']} ticks", file=sys.stderr)

    reps: list[dict] = []
    kept: dict[bool, Path] = {}  # the latest output of each kind of process
    took: list[float] = []
    start = time.monotonic()
    # start another process only if a typical one still ends within --seconds
    while len(reps) < MIN_REPS or (
            time.monotonic() - start + statistics.median(took) <= args.seconds):
        traced = bool(args.trace) and len(reps) % 2 == 0
        t0 = time.monotonic()
        rep = run_rep(args.workload, len(reps), traced, work, info["ticks"], env)
        took.append(time.monotonic() - t0)
        if traced in kept:
            shutil.rmtree(kept[traced], ignore_errors=True)
        kept[traced] = work / f"rep{len(reps)}"
        reps.append(rep)
        status = "; ".join(rep["problems"]) or "ok"
        wall = f"{rep['work_wall_s']:.2f} s" if rep["ran"] else "-"
        print(f"  rep {len(reps) - 1}{' traced' if traced else ''}: {wall} {status}",
              file=sys.stderr)

    failed = failed_ticks(reps)
    correct = all(r["ran"] and not r["problems"] for r in reps)
    kinds = {"trace" in r for r in reps if r["ran"]}
    if not kinds >= ({True, False} if args.trace else {False}):
        print("too few processes completed to report metrics", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(reps, networked=args.workload == "trip-udp")
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(reps)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["ticks"] for r in reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
