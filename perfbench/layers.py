"""Outside-in per-layer timing for the traced benchmark run.

The benchmark never asks the program to time itself.  Instead a
:class:`LayerTracer` replaces selected public functions of each layer
with timing wrappers, installed on the object the *caller* looks the
name up on (``propagate_frames`` and ``replay_unsupported_reasons`` are
imported into :mod:`repro.uarch.machine`, so they are wrapped there).

Every wrapped call is a span.  A span's self time is its duration minus
the durations of the wrapped spans directly nested in it (walk contains
splice and readout; an interpreter shot contains plant gates and
measurements), and minus the wrapper's own cost around each of those
nested calls.  That cost — the bookkeeping a caller pays outside a
wrapped call's span — is measured once per install on an empty wrapped
function.  Per layer the tracer keeps

* ``calls``  — wrapped calls, nested same-layer calls included;
* ``time_s`` — inclusive time of the layer's outermost calls (a layer
  nested in itself is not counted twice);
* ``self_s`` — summed self time, so the self times of all layers add up
  to the wall time the wrappers cover, less the wrapper cost.

:meth:`LayerTracer.install` returns the hooks whose target no longer
exists; the benchmark fails a traced run that has any.

Worker processes of the sweep service are forked from the traced
process and inherit the wrappers.  An ``os.register_at_fork`` hook
clears the inherited totals in the child, and after every executed
sweep point the child writes its cumulative totals to a JSON file that
the parent merges with :meth:`LayerTracer.merge_child_files`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

#: (layer, module, attribute path) of every wrapped function.
HOOKS = (
    ("core.assemble_text", "repro.core.assembler",
     "Assembler.assemble_text"),
    ("compiler.compile_circuit", "repro.experiments.runner",
     "ExperimentSetup.compile_circuit"),
    ("uarch.load", "repro.uarch.machine", "QuMAv2.load"),
    ("uarch.dataflow", "repro.uarch.machine",
     "QuMAv2.data_memory_report"),
    ("uarch.backend_select", "repro.uarch.machine",
     "QuMAv2.plant_backend_reasons"),
    ("uarch.replay_analysis", "repro.uarch.machine",
     "replay_unsupported_reasons"),
    ("uarch.replay_analysis", "repro.uarch.machine",
     "QuMAv2.frame_batch_unsupported_reasons"),
    ("uarch.run_counts", "repro.uarch.machine", "QuMAv2.run_counts"),
    ("uarch.interpreter_shot", "repro.uarch.machine", "QuMAv2.run_shot"),
    ("uarch.replay.grow", "repro.uarch.machine",
     "QuMAv2._grow_tree_shot"),
    ("uarch.replay.walk", "repro.uarch.replay",
     "TimelineTree.sample_shot"),
    ("uarch.trace.splice", "repro.uarch.trace",
     "ShotTrace.with_sampled_results"),
    ("uarch.trace.aggregate", "repro.uarch.trace", "ShotCounts.add"),
    ("quantum.plant.gate", "repro.quantum.plant",
     "QuantumPlant.apply_unitary"),
    ("quantum.plant.measure", "repro.quantum.plant",
     "QuantumPlant.measure"),
    ("quantum.plant.idle", "repro.quantum.plant",
     "QuantumPlant.idle_all_until"),
    ("quantum.plant.reset", "repro.quantum.plant",
     "QuantumPlant.reset_shot"),
    ("quantum.noise.readout", "repro.quantum.noise",
     "ReadoutErrorModel.apply"),
    ("quantum.pauli_frame.propagate", "repro.uarch.machine",
     "propagate_frames"),
    ("serving.execute", "repro.serving.worker", "execute_point"),
    ("serving.purity_reset", "repro.uarch.machine",
     "QuMAv2.clear_replay_cache"),
    ("serving.journal.append", "repro.serving.journal",
     "CheckpointJournal.append_point"),
    ("serving.dispatch", "repro.serving.service",
     "SweepService._dispatch"),
    ("serving.poll", "repro.serving.service",
     "SweepService._drain_messages"),
    ("serving.pool.start", "repro.serving.supervisor", "WorkerPool.start"),
    ("serving.pool.stop", "repro.serving.supervisor", "WorkerPool.stop"),
)

#: Index of each field in a layer's totals list.
CALLS, TIME, SELF, HITS, DEPTH = range(5)

#: Wrapper-cost calibration: a private layer, timed loops of this many
#: calls, the best of this many loops.
CALIBRATION = "perfbench.calibration"
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 5


def _resolve(module_name: str, path: str):
    """``(owner, attribute name, current value)`` of a hook target."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name, owner.__dict__[name]


class LayerTracer:
    """Installs the timing wrappers and accumulates per-layer totals."""

    def __init__(self, child_dir: Path | None = None):
        self.totals: dict[str, list] = {}
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []
        self._child_dir = child_dir
        self._child_file: Path | None = None
        self._forks_traced = child_dir is not None
        #: Wrapper cost per nested call, measured by :meth:`install`.
        self.call_cost = 0.0
        os.register_at_fork(after_in_child=self._after_fork_in_child)

    # -- installation --------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every hook target; returns the hooks not found."""
        self.call_cost = self._calibrate()
        missing = []
        for layer, module_name, path in HOOKS:
            try:
                owner, name, original = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{layer} ({module_name}.{path})")
                continue
            wrapper = self._wrap(layer, original, self.call_cost)
            setattr(owner, name, wrapper)
            self._installed.append((owner, name, original))
        return missing

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()
        self._forks_traced = False

    def _calibrate(self) -> float:
        """Seconds a caller pays per wrapped call outside the call's own
        span: the wrapper's bookkeeping before its first clock read and
        after its second.  The best of several timed loops over an empty
        wrapped function, less the bare loop and the recorded spans."""
        totals = self.totals.setdefault(CALIBRATION, [0, 0.0, 0.0, 0, 0])
        wrapped = self._wrap(CALIBRATION, lambda: None, 0.0)
        clock = time.perf_counter
        best = float("inf")
        for _ in range(CALIBRATION_REPEATS):
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                pass
            loop = clock() - start
            inside = totals[TIME]
            start = clock()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            outer = clock() - start
            inside = totals[TIME] - inside
            best = min(best, (outer - loop - inside) / CALIBRATION_CALLS)
        del self.totals[CALIBRATION]
        return max(best, 0.0)

    def _wrap(self, layer: str, function, call_cost: float):
        totals = self.totals.setdefault(layer, [0, 0.0, 0.0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        is_walk = layer == "uarch.replay.walk"
        is_point = layer == "serving.execute"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            totals[DEPTH] += 1
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[DEPTH] -= 1
                totals[CALLS] += 1
                totals[SELF] += elapsed - frame[0]
                if not totals[DEPTH]:
                    totals[TIME] += elapsed
                if stack:
                    # The parent's self time excludes this span and the
                    # wrapper's own cost around it.
                    stack[-1][0] += elapsed + call_cost
            if is_walk and result[0] is not None:
                totals[HITS] += 1
            if is_point and self._child_file is not None:
                self._write_child_file()
            return result

        return wrapper

    # -- forked workers ------------------------------------------------
    def _after_fork_in_child(self) -> None:
        if not self._forks_traced:
            return
        self._stack.clear()
        for totals in self.totals.values():
            totals[:] = [0, 0.0, 0.0, 0, 0]
        self._child_file = self._child_dir / (
            f"layers-{os.getpid()}-{time.monotonic_ns()}.json")

    def _write_child_file(self) -> None:
        temporary = self._child_file.with_suffix(".tmp")
        temporary.write_text(json.dumps(self.totals))
        os.replace(temporary, self._child_file)

    def merge_child_files(self) -> None:
        """Add every worker's totals into this process's (each worker
        file is consumed)."""
        for path in sorted(self._child_dir.glob("layers-*.json")):
            for layer, child in json.loads(path.read_text()).items():
                totals = self.totals.setdefault(layer, [0, 0.0, 0.0, 0, 0])
                for field in (CALLS, TIME, SELF, HITS):
                    totals[field] += child[field]
            path.unlink()

    # -- results -------------------------------------------------------
    def layer(self, name: str) -> tuple[int, float, float, int]:
        """``(calls, time_s, self_s, hits)`` of one layer."""
        calls, time_s, self_s, hits, _ = self.totals.get(
            name, [0, 0.0, 0.0, 0, 0])
        return calls, time_s, self_s, hits

    def self_total(self) -> float:
        return sum(totals[SELF] for totals in self.totals.values())
