"""Instrumentation tests for :class:`repro.uarch.QuMAv2` runs.

A traced run must expose its phase structure (load, dataflow, backend
selection, per-engine execution) as spans, publish its
:class:`EngineStats` into the ``engine.*`` metric namespace, and —
critically — *not perturb* the simulated physics: the same seed
produces bit-identical shot traces with tracing on or off.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import Assembler, two_qubit_instantiation
from repro.obs import Observability
from repro.obs.__main__ import main as obs_main
from repro.obs.report import load_chrome_trace
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import EngineStats, QuMAv2
from tree_corruption import corrupt_random_template

ACTIVE_RESET = """
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
C_X S2
MEASZ S2
STOP
"""

FRAME_CLIFFORD = """
SMIS S0, {0}
SMIS S2, {2}
SMIS S3, {0, 2}
SMIT T0, {(0, 2)}
QWAIT 10000
H S0
QWAIT 10
CZ T0
QWAIT 10
X90 S2
QWAIT 10
MEASZ S3
QWAIT 50
STOP
"""


def make_machine(text=ACTIVE_RESET, seed=0, noise=None,
                 observability=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=noise or NoiseModel(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, observability=observability)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def frame_noise():
    """Stochastic Pauli gate noise: blocks replay, selects the
    Pauli-frame batched engine (see tests/uarch/test_faults.py)."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.03,
                                  two_qubit_error=0.05))


class TestTracedReplayRun:
    def run_traced(self, shots=60):
        obs = Observability()
        machine = make_machine(observability=obs)
        traces = machine.run(shots)
        return obs, machine, traces

    def test_phase_spans_present_and_nested(self):
        obs, machine, _ = self.run_traced()
        spans = {span.name: span for span in obs.tracer.spans()}
        for name in ("machine.load", "machine.run",
                     "machine.dataflow", "machine.select_backend",
                     "machine.replay_analysis"):
            assert name in spans, f"missing span {name}"
        assert spans["machine.run"].attributes["engine"] == "replay"
        assert spans["machine.run"].attributes["shots"] == 60

    def test_engine_metrics_published(self):
        obs, machine, _ = self.run_traced(shots=60)
        stats = machine.engine_stats
        snapshot = obs.snapshot()
        assert snapshot["engine.shots_total"]["value"] == 60
        assert (snapshot["engine.replay.cached_shots"]["value"]
                == stats.replay_shots > 0)
        assert (snapshot["engine.interpreter.shots"]["value"]
                == stats.interpreter_shots)
        assert snapshot["engine.selected.replay"]["value"] == 1
        assert (snapshot["engine.replay.tree.nodes"]["value"]
                == stats.tree_nodes)
        # A cohort walk is timed once per chunk, less its growth
        # shots, and counts every shot of the chunk.
        assert snapshot["engine.replay.walk.timed_shots"]["value"] == 60
        assert snapshot["engine.replay.walk.time_ns"]["value"] > 0
        # Growth shots are timed per shot into a histogram.
        growth = snapshot["engine.replay.growth_shot.time_ns"]
        assert 1 <= growth["count"] <= stats.interpreter_shots
        # Plant kernels report under their backend's namespace.
        gate_kernel = [name for name in snapshot
                       if name.endswith(".gate.time_ns")]
        assert gate_kernel and snapshot[gate_kernel[0]]["count"] > 0

    def test_audited_walks_are_timed_once_per_chunk(self):
        """An audited run walks the same cohorts as a plain one: each
        walk is timed once and counts every shot of its chunk, and the
        audit shadows land in their own histogram."""
        obs = Observability()
        machine = make_machine(observability=obs)
        machine.audit_fraction = 0.25
        machine.run(60)
        snapshot = obs.snapshot()
        audits = machine.engine_stats.replay_audits
        assert audits > 0
        assert snapshot["engine.replay.walk.timed_shots"]["value"] == 60
        assert snapshot["engine.replay.walk.time_ns"]["value"] > 0
        assert snapshot["engine.replay.audit.time_ns"]["count"] == audits

    def test_in_run_degradation_is_an_event(self):
        """The audit divergence a corrupted tree causes is an instant
        event, mirroring ``EngineStats.degradations``; the machine
        emits no fault-injection event."""
        obs = Observability()
        machine = make_machine(seed=3, observability=obs)
        machine.audit_fraction = 1.0
        machine.run(50)  # grow the tree the test corrupts
        corrupt_random_template(machine._tree, np.random.default_rng(9))
        assert len(machine.run(120)) == 120
        stats = machine.engine_stats
        events = obs.tracer.events()
        assert not [event for event in events
                    if event.name == "machine.fault_injected"]
        [degradation] = [event for event in events
                         if event.name == "machine.degradation"]
        assert degradation.attributes["engine"] == "replay"
        assert stats.degradations == [
            f"replay -> interpreter: {degradation.attributes['detail']}"]

    def test_tracing_does_not_perturb_physics(self):
        shots = 40
        plain = make_machine(seed=7).run(shots)
        traced = make_machine(seed=7,
                              observability=Observability()).run(shots)
        for a, b in zip(plain, traced):
            assert a.outcome_path() == b.outcome_path()
            assert a.triggers == b.triggers
            assert a.classical_time_ns == b.classical_time_ns

    def test_disabled_machine_records_nothing(self):
        machine = make_machine()
        assert machine.observability is None
        machine.run(10)  # no attribute errors on any hook site

    def test_rerun_detaches_cleanly(self):
        obs = Observability()
        machine = make_machine(observability=obs)
        machine.run(10)
        machine.observability = None
        machine.run(10)
        snapshot = obs.snapshot()
        assert snapshot["engine.shots_total"]["value"] == 10


class TestTracedFrameRun:
    def test_frame_phase_spans_and_metrics(self):
        obs = Observability()
        machine = make_machine(FRAME_CLIFFORD, noise=frame_noise(),
                               observability=obs)
        machine.run(50)
        assert machine.engine_stats.engine == "frame"
        names = {span.name for span in obs.tracer.spans()}
        assert "engine.frame.reference_shot" in names
        assert "engine.frame.batch" in names
        snapshot = obs.snapshot()
        assert snapshot["engine.frame.batched_shots"]["value"] == 50
        assert snapshot["engine.frame.reference_shots"]["value"] == 1
        assert snapshot["engine.selected.frame"]["value"] == 1


class TestReportCli:
    """``python -m repro.obs report`` over an exported traced run."""

    def test_report_renders_exported_run(self, tmp_path):
        obs = Observability()
        make_machine(observability=obs).run_counts(50)
        paths = obs.export(tmp_path)
        output = tmp_path / "report.md"
        assert obs_main(["report", "--metrics", paths["metrics"],
                         "--trace", paths["trace"],
                         "--output", str(output)]) == 0
        report = output.read_text()
        for section in ("### Counters", "### Histograms",
                        "### Span time by name", "`machine.run`"):
            assert section in report

    def test_report_without_inputs_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exited:
            obs_main(["report"])
        assert exited.value.code == 2

    def test_trace_loader_accepts_wrapped_events_only(self, tmp_path):
        events = [{"name": "machine.run", "ph": "X", "dur": 5.0}]
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"traceEvents": events}))
        assert load_chrome_trace(wrapped) == events
        scalar = tmp_path / "scalar.json"
        scalar.write_text("42")
        with pytest.raises(ValueError):
            load_chrome_trace(scalar)


class TestEngineStatsContract:
    """Pin the snapshot/as_dict surface of :class:`EngineStats` — the
    fields serving and benchmarks rely on must not silently vanish."""

    REQUIRED_FIELDS = {
        "engine", "plant_backend", "shots_total", "interpreter_shots",
        "replay_shots", "frame_batched", "frame_reference_shots",
        "segment_cache_misses", "degradations",
    }
    #: Fields dropped from the record; none may come back.
    REMOVED_FIELDS = {"tree_roots", "mock_results_replayed",
                      "faults_injected", "segment_cache_hits"}

    def test_as_dict_exposes_every_field(self):
        field_names = {field.name for field in
                       dataclasses.fields(EngineStats)}
        assert self.REQUIRED_FIELDS <= field_names
        assert not self.REMOVED_FIELDS & field_names
        assert set(EngineStats().as_dict()) == field_names

    def test_snapshot_is_deep_enough_copy(self):
        stats = EngineStats()
        stats.degradations.append("rung")
        copy = stats.snapshot()
        stats.degradations.append("later")
        assert copy.degradations == ["rung"]

    def test_publish_metrics_namespace(self):
        from repro.obs import MetricsRegistry
        stats = EngineStats(engine="replay", plant_backend="dense",
                            shots_total=9, interpreter_shots=2,
                            replay_shots=4, frame_batched=3,
                            frame_reference_shots=1, tree_nodes=11)
        stats.degradations.append("replay→interpreter")
        registry = MetricsRegistry()
        stats.publish_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot["engine.shots_total"]["value"] == 9
        assert snapshot["engine.replay.cached_shots"]["value"] == 4
        assert snapshot["engine.frame.batched_shots"]["value"] == 3
        assert snapshot["engine.frame.reference_shots"]["value"] == 1
        assert snapshot["engine.selected.replay"]["value"] == 1
        assert snapshot["engine.plant_backend.dense"]["value"] == 1
        assert snapshot["engine.degradations"]["value"] == 1
        assert snapshot["engine.replay.tree.nodes"]["value"] == 11
        assert snapshot["engine.replay.tree.nodes"]["type"] == "gauge"
