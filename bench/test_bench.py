"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q bench

The measured runs execute in child processes, as in a real benchmark run, so
the tracer's wrappers never leak into this test process.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import fleet  # noqa: E402
import run  # noqa: E402
from loadshed.scenario import scenario_to_json  # noqa: E402


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 123456])
def test_generator_validates_and_keeps_its_size(seed):
    sc = fleet.generate(seed)  # raises GeneratorError unless validate_scenario accepts it
    assert len(sc.fleet) == 42 * fleet.COPIES
    assert len(sc.zones) == len(fleet.ZONE_SHARES)
    assert sc.window.n_ticks == 300


def test_generator_is_a_function_of_the_seed():
    assert scenario_to_json(fleet.generate(5)) == scenario_to_json(fleet.generate(5))
    assert scenario_to_json(fleet.generate(5)) != scenario_to_json(fleet.generate(6))


def test_untraced_run_prints_every_end_to_end_metric():
    proc = bench("fleet-scale", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric_and_consistent_spans():
    proc = bench("fleet-scale", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer")

    spans_csv = next((ROOT / ".bench_work" / "fleet-scale").glob("rep*/spans.csv"))
    lines = spans_csv.read_text().splitlines()[1:]
    spans = {}
    for line in lines:
        sid, parent, thread, name, start, end = line.split(",")
        spans[int(sid)] = (int(parent), int(thread), name, float(start), float(end))
    covered = defaultdict(float)
    for parent, _, _, start, end in spans.values():
        assert end >= start
        if parent >= 0:
            p_start, p_end = spans[parent][3], spans[parent][4]
            assert p_start <= start and end <= p_end
            covered[parent] += end - start
    self_s = {sid: (s[4] - s[3]) - covered[sid] for sid, s in spans.items()}
    assert all(v >= -1e-9 for v in self_s.values())
    roots = [sid for sid, s in spans.items() if s[0] < 0]
    assert [spans[sid][2] for sid in roots] == ["worker"]
    wall = spans[roots[0]][4] - spans[roots[0]][3]
    assert sum(self_s.values()) == pytest.approx(wall, rel=1e-9)


def test_failed_check_fails_the_process(tmp_path):
    (tmp_path / "run.csv").write_text("# loadshed-run-csv v1\nnot the bundled run\n")
    rep = {"ticks": 6000, "degraded": 0, "violations": [], "operability": 0.9955}
    problems = run.check("trip-advanced", rep, tmp_path, tmp_path, 6000)
    assert problems and "sha256" in problems[0]
    assert run.failed_ticks([{**rep, "problems": problems}]) == 6000


def test_fleet_violation_is_reported():
    import worker
    from loadshed.sim import run_lockstep

    sc = fleet.generate(0)
    result = run_lockstep(sc, algorithm="advanced", seed=0)
    assert worker.fleet_violations(sc, result) == []
    tight = replace(sc, zones=tuple(replace(zl, limit_w=0.0) for zl in sc.zones))
    assert worker.fleet_violations(tight, result)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("trip-advanced", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
