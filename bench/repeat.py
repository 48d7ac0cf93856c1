"""Run the benchmark once per seed and report each metric's median and spread.

    python3 bench/repeat.py --workload fleet-scale --seeds 1-10 [--trace 0] [--seconds 40]

Run from the root of a source checkout. The spread is the distance between
the first and third quartiles of the per-run values over their median,
which is what a metric's ``bound`` in ``BENCHMARK.json`` is compared with.
Every run's result line is also written, one JSON object per line, to
``.bench_work/repeat-<workload>-t<trace>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds",
                        default=str(json.loads((HERE.parent / "BENCHMARK.json").read_text())
                                    ["run_seconds"]))
    args = parser.parse_args(argv)

    log = Path(".bench_work") / f"repeat-{args.workload}-t{args.trace}.jsonl"
    log.parent.mkdir(exist_ok=True)
    runs: list[dict] = []
    with log.open("w") as fh:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
            runs.append(result["metrics"])
            print(f"seed {seed}: correct={result['correct']}", file=sys.stderr)

    print(f"{'metric':34s} {'median':>12s} {'spread':>8s} {'min':>12s} {'max':>12s}")
    for name in runs[0]:
        values = [run[name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:34s} {median:12.6g} {spread:8.4f} {min(values):12.6g} {max(values):12.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
