"""Steadiness report: repeat each workload over seeds and compare to the bounds.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workloads cold-lookup read-write \\
        --seeds 1-10 [--passes 2] [--traced] [--report REPORT.md] [--raw RAW.json]

Runs ``perfbench/run.py`` once per (pass, workload, seed), one run at a
time, for ``run_seconds`` of ``BENCHMARK.json``.  Within a pass the
workloads take turns seed by seed, so a slow spell of the host lands on
every workload alike rather than on whichever runs first.  Per workload
and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``), their distance
as a share of the median, the largest deviation of one run from the
median, and the metric's bound from ``BENCHMARK.json``.  With two passes
it also prints how far the second pass's median moved from the first's.
``--traced`` adds one traced run per workload (first seed) and reports its
per-layer metrics and the tracing overhead on ``lookup_p50_ms``.  The same
runs' wall-time values of the scaled metrics, from their stamps, are
reported beside them for comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that takes longer than this is reported as failed.
RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Tuple[Dict, Dict]:
    """One benchmark run; returns its result object (the last stdout line) and stamp."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=RUN_TIMEOUT_S)
    if completed.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited with "
                           f"{completed.returncode}:\n{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    stamp = next(json.loads(line[len("stamp: "):]) for line in lines
                 if line.startswith("stamp: "))
    return result, stamp


def summarise(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "largest_deviation": (max(abs(value - median) for value in values) / median
                              if median else float("nan")),
    }


def verdict(metric: Dict, spread: float) -> str:
    if metric["name"] == "setup_s":
        return "n/a"
    if spread <= metric["bound"] / 3:
        return "steady"
    return "within bound" if spread <= metric["bound"] else "TOO NOISY"


def report(benchmark: Dict, passes: List[Dict[str, Dict[str, List[float]]]],
           walls: List[Dict[str, Dict[str, List[float]]]],
           overhead: Dict[str, Dict[str, float]], seeds: List[int]) -> str:
    lines = [f"Seeds {seeds[0]}-{seeds[-1]}, {len(passes)} pass(es), "
             f"--seconds {benchmark['run_seconds']}.", ""]
    for workload in passes[0]:
        lines += [f"### {workload}", "",
                  "| metric | unit | median | q1 | q3 | spread | largest dev | "
                  "bound | verdict | pass-2 spread | pass-2 verdict | "
                  "pass-2 median shift |",
                  "|---|---|---|---|---|---|---|---|---|---|---|---|"]
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            first = summarise(passes[0][workload][name])
            second_columns = " |  |  |"
            if len(passes) > 1:
                second = summarise(passes[1][workload][name])
                change = second["median"] / first["median"] - 1.0
                worse = change if metric["better"] == "lower" else -change
                second_columns = (
                    f" {second['spread']:.3f} | {verdict(metric, second['spread'])} | "
                    f"{change:+.3f}" + (" WORSE" if worse > metric["bound"] else "")
                    + " |")
            lines.append(
                f"| {name} | {metric['unit']} | {first['median']:.4g} | "
                f"{first['q1']:.4g} | {first['q3']:.4g} | {first['spread']:.3f} | "
                f"{first['largest_deviation']:.3f} | {metric['bound']} | "
                f"{verdict(metric, first['spread'])} |" + second_columns)
        lines += ["", "The same runs in wall time (stamp `wall`):", "",
                  "| metric | unit | " + " | ".join(
                      f"pass-{index + 1} median | pass-{index + 1} spread"
                      for index in range(len(walls))) + " |",
                  "|---|---|" + "---|---|" * len(walls)]
        for name in walls[0][workload]:
            unit = "1/s" if name == "ops_per_s" else "ms"
            columns = [summarise(wall[workload][name]) for wall in walls]
            lines.append(f"| {name} | {unit} | " + " | ".join(
                f"{column['median']:.4g} | {column['spread']:.3f}" for column in columns) + " |")
        if workload in overhead:
            entry = overhead[workload]
            lines += ["", f"Traced run (seed {entry['seed']}): lookup_p50_ms "
                      f"{entry['traced']:.2f} vs {entry['untraced']:.2f} untraced, "
                      f"a tracing overhead of {entry['ratio']:+.1%}.", "",
                      "| per-layer metric | value | unit |", "|---|---|---|"]
            lines += [f"| {name} | {metric['value']:.4g} | {metric['unit']} |"
                      for name, metric in entry["per_layer"].items()]
        lines.append("")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--passes", type=int, default=1, choices=[1, 2])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--report", type=Path, default=None)
    parser.add_argument("--raw", type=Path, default=None)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = benchmark["run_seconds"]

    passes: List[Dict[str, Dict[str, List[float]]]] = []
    walls: List[Dict[str, Dict[str, List[float]]]] = []
    for pass_index in range(args.passes):
        values: Dict[str, Dict[str, List[float]]] = {
            workload: {} for workload in args.workloads}
        wall: Dict[str, Dict[str, List[float]]] = {
            workload: {} for workload in args.workloads}
        for seed in args.seeds:
            for workload in args.workloads:
                started = time.monotonic()
                result, stamp = run_once(workload, seed, seconds, trace=0)
                elapsed = time.monotonic() - started
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                for name, value in stamp["wall"].items():
                    wall[workload].setdefault(name, []).append(value)
                print(f"pass {pass_index + 1} {workload} seed {seed} ({elapsed:.0f} s): "
                      + ", ".join(f"{name}={metric['value']:.4g}"
                                  for name, metric in result["metrics"].items()),
                      flush=True)
        passes.append(values)
        walls.append(wall)

    overhead: Dict[str, Dict[str, float]] = {}
    if args.traced:
        for workload in args.workloads:
            seed = args.seeds[0]
            traced, _ = run_once(workload, seed, seconds, trace=1)
            value = traced["metrics"]["trace.lookup_p50_ms"]["value"]
            untraced = passes[0][workload]["lookup_p50_ms"][0]
            overhead[workload] = {"seed": seed, "traced": value,
                                  "untraced": untraced,
                                  "ratio": value / untraced - 1.0,
                                  "per_layer": traced["metrics"]}

    text = report(benchmark, passes, walls, overhead, args.seeds)
    print(text)
    if args.report is not None:
        args.report.write_text(text + "\n", encoding="utf-8")
    if args.raw is not None:
        args.raw.write_text(json.dumps({"passes": passes, "walls": walls,
                                        "overhead": overhead},
                                       indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
