"""The repository benchmark: four closed-loop workloads, end-to-end
metrics from an untraced run, per-layer metrics from a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py                       # every workload, table
    python3 perfbench/run.py --workload reset_replay --seed 1 \\
        --seconds 10 --trace 0

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics and ``--trace 1`` the per-layer ones (see
``perfbench/README.md`` for every metric and the layer map).  Without
it, each workload runs in its own process and a table of every metric
is printed.  The exit code is non-zero when an output check fails or
when ``src/repro`` is missing.
"""

from __future__ import annotations

import os

# Single-threaded BLAS before numpy is imported: the machine workloads
# are single-process, and the sweep's worker count is the parallelism.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("reset_replay", "s17_frame", "s17_feedback", "sweep_mixed")

#: First seed of the timed in-process set-ups of a machine-workload run
#: (``setup_repeats`` of them); setup_s is their median.  The number of
#: warm-up runs before a run has zero growth shots depends on the seed,
#: so these are the same in every run: each run does identical set-up
#: work, and the machine measured afterwards is set up again from
#: ``--seed``.
SETUP_SEED_BASE = 1000


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Per-layer metrics (trace 1)
# ----------------------------------------------------------------------
#: (metric, layer, field, unit): field is "calls", "time_s" or "self_s".
LAYER_METRICS = (
    ("uarch.run_counts.self_s", "uarch.run_counts", "self_s", "s"),
    ("uarch.run_counts.calls", "uarch.run_counts", "calls", "count"),
    ("uarch.replay.walk.self_s", "uarch.replay.walk", "self_s", "s"),
    ("uarch.replay.walk.calls", "uarch.replay.walk", "calls", "count"),
    ("uarch.replay.grow.time_s", "uarch.replay.grow", "time_s", "s"),
    ("uarch.replay.grow.calls", "uarch.replay.grow", "calls", "count"),
    ("uarch.trace.splice.time_s", "uarch.trace.splice", "time_s", "s"),
    ("uarch.trace.splice.calls", "uarch.trace.splice", "calls", "count"),
    ("uarch.trace.aggregate.time_s", "uarch.trace.aggregate", "time_s",
     "s"),
    ("uarch.trace.aggregate.calls", "uarch.trace.aggregate", "calls",
     "count"),
    ("quantum.noise.readout.time_s", "quantum.noise.readout", "time_s",
     "s"),
    ("quantum.noise.readout.calls", "quantum.noise.readout", "calls",
     "count"),
    ("quantum.pauli_frame.propagate.time_s",
     "quantum.pauli_frame.propagate", "time_s", "s"),
    ("quantum.pauli_frame.propagate.calls",
     "quantum.pauli_frame.propagate", "calls", "count"),
    ("uarch.interpreter_shot.self_s", "uarch.interpreter_shot", "self_s",
     "s"),
    ("uarch.interpreter_shot.calls", "uarch.interpreter_shot", "calls",
     "count"),
    ("quantum.plant.gate.time_s", "quantum.plant.gate", "time_s", "s"),
    ("quantum.plant.gate.calls", "quantum.plant.gate", "calls", "count"),
    ("quantum.plant.measure.time_s", "quantum.plant.measure", "time_s",
     "s"),
    ("quantum.plant.measure.calls", "quantum.plant.measure", "calls",
     "count"),
    ("uarch.load.time_s", "uarch.load", "time_s", "s"),
    ("uarch.load.calls", "uarch.load", "calls", "count"),
    ("uarch.dataflow.time_s", "uarch.dataflow", "time_s", "s"),
    ("uarch.dataflow.calls", "uarch.dataflow", "calls", "count"),
    ("uarch.backend_select.time_s", "uarch.backend_select", "time_s", "s"),
    ("uarch.backend_select.calls", "uarch.backend_select", "calls",
     "count"),
    ("uarch.replay_analysis.time_s", "uarch.replay_analysis", "time_s",
     "s"),
    ("uarch.replay_analysis.calls", "uarch.replay_analysis", "calls",
     "count"),
    ("compiler.compile_circuit.time_s", "compiler.compile_circuit",
     "time_s", "s"),
    ("compiler.compile_circuit.calls", "compiler.compile_circuit",
     "calls", "count"),
    ("core.assemble_text.time_s", "core.assemble_text", "time_s", "s"),
    ("core.assemble_text.calls", "core.assemble_text", "calls", "count"),
    ("serving.journal.append.time_s", "serving.journal.append", "time_s",
     "s"),
    ("serving.journal.append.calls", "serving.journal.append", "calls",
     "count"),
    ("serving.purity_reset.time_s", "serving.purity_reset", "time_s", "s"),
    ("serving.purity_reset.calls", "serving.purity_reset", "calls",
     "count"),
    ("serving.poll.time_s", "serving.poll", "time_s", "s"),
    ("serving.pool.start.time_s", "serving.pool.start", "time_s", "s"),
    ("serving.pool.stop.time_s", "serving.pool.stop", "time_s", "s"),
)


def layer_metrics(tracer, wall_s: float, untraced_s: float,
                  processes: int, run, extra: dict) -> dict:
    """The per-layer metric dict of one traced run."""
    metrics = {}
    for name, layer, field, unit in LAYER_METRICS:
        calls, time_s, self_s, _ = tracer.layer(layer)
        value = {"calls": calls, "time_s": time_s, "self_s": self_s}[field]
        metrics[name] = metric(value, unit)
    walks, _, _, hits = tracer.layer("uarch.replay.walk")
    metrics["uarch.replay.hit_ratio"] = metric(
        hits / walks if walks else 0.0, "ratio")
    metrics["uarch.sim.instructions_per_shot"] = metric(
        run.instructions_per_shot, "count")
    metrics["sim_ns_per_shot"] = metric(run.sim_ns, "sim_ns")
    metrics["failed_fraction"] = metric(
        run.failed / run.attempted if run.attempted else 0.0, "ratio")
    metrics["serving.execute.p50_ms"] = metric(
        extra.get("p50_ms", 0.0), "ms")
    metrics["serving.execute.p90_ms"] = metric(
        extra.get("p90_ms", 0.0), "ms")
    metrics["serving.vs_inline"] = metric(extra.get("vs_inline", 0.0),
                                          "ratio")
    metrics["trace.wall_s"] = metric(wall_s, "s")
    metrics["trace.overhead"] = metric(wall_s / untraced_s - 1.0, "ratio")
    metrics["trace.coverage"] = metric(
        tracer.self_total() / (wall_s * processes), "ratio")
    return metrics


def layer_table(tracer, wall_s: float, processes: int) -> list[str]:
    """Human-readable breakdown: every layer by self time."""
    rows = sorted(tracer.totals.items(), key=lambda item: -item[1][2])
    lines = [f"  {'layer':32s} {'calls':>9s} {'time_s':>9s} "
             f"{'self_s':>9s} {'self/wall':>9s}"]
    for layer, (calls, time_s, self_s, _, _) in rows:
        if calls:
            lines.append(f"  {layer:32s} {calls:9d} {time_s:9.4f} "
                         f"{self_s:9.4f} "
                         f"{self_s / (wall_s * processes):9.1%}")
    return lines


# ----------------------------------------------------------------------
# Machine workloads
# ----------------------------------------------------------------------
def run_machine(workload, seed: int, seconds: float, trace: bool):
    from workloads import CheckFailure, Run, final_rates

    run = Run()
    window: dict[int, list[int]] = {}

    def fold(counts) -> None:
        for qubit, (ones, measured) in final_rates(counts).items():
            totals = window.setdefault(qubit, [0, 0])
            totals[0] += ones
            totals[1] += measured

    def operation(setup):
        start = time.perf_counter()
        counts, failed = workload.operation(setup)
        elapsed = time.perf_counter() - start
        run.attempted += 1
        run.failed += failed
        fold(counts)
        return counts, elapsed

    if not trace:
        before = run.setup_speed.sample()
        for setup_seed in range(SETUP_SEED_BASE,
                                SETUP_SEED_BASE + workload.setup_repeats):
            start = time.perf_counter()
            workload.set_up(setup_seed)
            elapsed = time.perf_counter() - start
            after = run.setup_speed.sample()
            run.setups.append((elapsed, (before + after) / 2))
            before = after
        setup = workload.set_up(seed)
        before = run.request_speed.sample()
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            counts, elapsed = operation(setup)
            after = run.request_speed.sample()
            run.requests.append((counts.shots, elapsed, (before + after) / 2))
            before = after
        workload.check_outputs(setup, seed, _rates(window), run)
        return run, None

    from layers import LayerTracer

    ops = max(1, round(seconds * workload.trace_ops_per_second))
    workload.set_up(seed)  # module-level caches warm for both passes

    def fixed_work():
        start = time.perf_counter()
        setup = workload.set_up(seed)
        results = [operation(setup)[0] for _ in range(ops)]
        return setup, results, time.perf_counter() - start

    _, untraced, untraced_s = fixed_work()
    tracer = install(LayerTracer())
    try:
        setup, traced, traced_s = fixed_work()
    finally:
        tracer.uninstall()
    if traced != untraced:
        raise CheckFailure(f"{workload.name}: the traced run's counts "
                           f"differ from the untraced run's")
    workload.check_outputs(setup, seed, _rates(window), run)
    return run, (tracer, traced_s, untraced_s, 1, {})


def _rates(window: dict) -> dict:
    return {qubit: tuple(totals) for qubit, totals in window.items()}


def install(tracer):
    """Install the tracer's wrappers, or fail the run if a hook target
    is gone: its layer would read zero and look like a gain."""
    from workloads import CheckFailure

    missing = tracer.install()
    if missing:
        tracer.uninstall()
        raise CheckFailure("hook targets not found, update layers.HOOKS: "
                           + ", ".join(missing))
    return tracer


# ----------------------------------------------------------------------
# The sweep workload
# ----------------------------------------------------------------------
def run_sweep(workload, seed: int, seconds: float, trace: bool):
    from workloads import CheckFailure, Run, quantile, remove, \
        sweep_specs, work_directory

    run = Run()
    workdir = work_directory(ROOT)
    try:
        service = workload.service()
        served: dict = {}
        latencies: list[float] = []
        walls: list[float] = []
        iteration = 0

        def one_iteration(index: int):
            specs = sweep_specs(seed, index)
            served.clear()
            wall, first, point_latencies = workload.iteration(
                service, specs, workdir, run, served)
            latencies.extend(point_latencies)
            walls.append(wall)
            return specs, wall, first

        if not trace:
            before = run.request_speed.sample()
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                specs, wall, first = one_iteration(iteration)
                iteration += 1
                shots = sum(spec.num_points * spec.shots for spec in specs)
                after = run.request_speed.sample()
                run.requests.append((shots, wall, (before + after) / 2))
                run.setups.append((first, (before + after) / 2))
                before = after
            run.setup_speed = run.request_speed
            workload.check_inline(specs, served, run)
            return run, None

        from layers import LayerTracer

        iterations = max(1, round(
            seconds * workload.trace_iterations_per_second))
        one_iteration(iteration)  # warm, untimed
        untraced_s = 0.0
        for index in range(iterations):
            specs, wall, _ = one_iteration(index)
            untraced_s += wall
        untraced = dict(served)
        inline_s = workload.check_inline(specs, served, run)
        extra = {"p50_ms": 1e3 * quantile(latencies, 0.5),
                 "p90_ms": 1e3 * quantile(latencies, 0.9),
                 "vs_inline": inline_s / walls[-1]}
        tracer = install(LayerTracer(child_dir=workdir))
        traced_s = 0.0
        try:
            for index in range(iterations):
                specs, wall, _ = one_iteration(index)
                traced_s += wall
        finally:
            tracer.uninstall()
        tracer.merge_child_files()
        if {key: result.counts for key, result in served.items()} != \
                {key: result.counts for key, result in untraced.items()}:
            raise CheckFailure(f"{workload.name}: the traced sweep's counts "
                               f"differ from the untraced sweep's")
        processes = 1 + workload.num_workers
        return run, (tracer, traced_s, untraced_s, processes, extra)
    finally:
        remove(workdir)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def workload_by_name(name: str):
    import workloads
    if name == "sweep_mixed":
        return workloads.SweepWorkload(
            name="sweep_mixed",
            num_workers=max(1, min(2, os.cpu_count() or 1)))
    return {"reset_replay": workloads.RESET_REPLAY,
            "s17_frame": workloads.S17_FRAME,
            "s17_feedback": workloads.S17_FEEDBACK}[name]


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.core.errors import EQASMError
    from workloads import REFERENCE_RATE, CheckFailure, quantile

    workload = workload_by_name(name)
    runner = run_sweep if name == "sweep_mixed" else run_machine
    try:
        run, traced = runner(workload, seed, seconds, trace)
    except (CheckFailure, EQASMError) as failure:
        # A failed check or an operation that raised: no metrics.
        print(f"CHECK FAILED: {failure!r}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    print(f"workload {name}: seed {seed}, {run.engine}/{run.backend}, "
          f"{run.attempted} operations, {run.failed} failed "
          f"(failed_fraction {run.failed / max(1, run.attempted):.4f}), "
          f"sim_ns_per_shot {run.sim_ns:.1f} (simulated), "
          f"instructions/shot {run.instructions_per_shot:.1f}")
    if traced is None:
        total_shots = sum(shots for shots, _, _ in run.requests)
        total_s = sum(elapsed for _, elapsed, _ in run.requests)
        rates = [shots / elapsed for shots, elapsed, _ in run.requests]
        setup_s = quantile([elapsed for elapsed, _ in run.setups], 0.5)
        metrics = {
            "shots_per_s": metric(quantile(
                [shots / elapsed * REFERENCE_RATE / speed
                 for shots, elapsed, speed in run.requests], 0.5),
                "shots/s"),
            "setup_s": metric(quantile(
                [elapsed * speed / REFERENCE_RATE
                 for elapsed, speed in run.setups], 0.5), "s"),
            "peak_rss_mb": metric(peak_rss_mb(name == "sweep_mixed"),
                                  "MB"),
        }
        print(f"  raw shots_per_s {total_shots / total_s:.1f} over "
              f"{len(rates)} "
              f"requests (per request: p25 {quantile(rates, 0.25):.1f}, "
              f"p50 {quantile(rates, 0.5):.1f}, "
              f"p75 {quantile(rates, 0.75):.1f}); raw setup_s "
              f"{setup_s:.4f}, median of {len(run.setups)} set-ups; host "
              f"speed {run.request_speed.rate:.4g} (requests), "
              f"{run.setup_speed.rate:.4g} (set-ups) against the "
              f"reference {REFERENCE_RATE:.4g} kernel iterations/s")
    else:
        tracer, traced_s, untraced_s, processes, extra = traced
        print(f"  wrapper cost {1e9 * tracer.call_cost:.0f} ns per nested "
              f"call, taken out of the parent's self time")
        print("\n".join(layer_table(tracer, traced_s, processes)))
        metrics = layer_metrics(tracer, traced_s, untraced_s, processes,
                                run, extra)
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each run in its own process
    (so peak RSS is per workload); prints every metric with its unit."""
    status = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            completed = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", trace],
                capture_output=True, text=True, cwd=ROOT)
            lines = completed.stdout.strip().splitlines()
            sys.stderr.write(completed.stderr)
            if completed.returncode or not lines:
                print(f"{name}: FAILED (exit {completed.returncode})")
                status = 1
                continue
            if trace == "0":
                print(lines[0])
            for metric_name, entry in json.loads(
                    lines[-1])["metrics"].items():
                print(f"  {metric_name:40s} {entry['value']:>14.6g} "
                      f"{entry['unit']}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds,
                   bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
