"""The benchmark's own self-test.

Runs two back-to-back sets of untraced runs of every workload in
``BENCHMARK.json`` (seeds 1-10, one run per seed, each in its own
process, exactly as ``BENCHMARK.json``'s command is invoked), then
checks, per workload and end-to-end metric:

* the spread of each set — the distance between the first and third
  quartile as a share of the median — stays within the metric's bound;
* the second set's median is not worse than the first's by more than
  the bound;

and finally that one held-out seed, used by neither set, passes every
output check on every workload with tracing on and off.

It prints one markdown table row per workload and metric (the medians
and spreads of both sets; ``perfbench/BASELINE.md`` records them).

Usage (from the repository root)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2
HELD_OUT_SEED = 9973


def invoke(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    completed = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{completed.returncode}\n{completed.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share."""
    if better == "lower":
        return second / first - 1.0
    return first / second - 1.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    failures = []
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = []
        for set_index in range(SETS):
            values = {name: [] for name in bounds}
            for seed in SEEDS:
                result = invoke(workload, seed, seconds, 0)
                if not result["correct"]:
                    failures.append(f"{workload} seed {seed}: incorrect")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
            for name, metric in bounds.items():
                share = spread(values[name])
                print(f"{workload:13s} set {set_index} {name:12s} "
                      f"median {statistics.median(values[name]):12.6g} "
                      f"spread {share:7.2%} (bound {metric['bound']:.0%})",
                      flush=True)
                if share > metric["bound"]:
                    failures.append(f"{workload} {name}: spread "
                                    f"{share:.2%} > bound")
        for name, metric in bounds.items():
            medians = [statistics.median(values[name]) for values in sets]
            drift = worse_by(medians[0], medians[1], metric["better"])
            if drift > metric["bound"]:
                failures.append(f"{workload} {name}: later set worse "
                                f"by {drift:.2%}")
            cells = [f"{median:.6g} | {spread(values[name]):.1%}"
                     for median, values in zip(medians, sets)]
            rows.append(f"| {workload} | {name} | {metric['unit']} | "
                        + " | ".join(cells) + f" | {metric['bound']} |")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            if not invoke(workload, HELD_OUT_SEED, seconds,
                          trace)["correct"]:
                failures.append(f"{workload} held-out seed, trace "
                                f"{trace}: incorrect")
    print("| workload | metric | unit | set 1 median | set 1 spread | "
          "set 2 median | set 2 spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    print("\n".join(rows))
    for failure in failures:
        print(f"FAIL: {failure}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
