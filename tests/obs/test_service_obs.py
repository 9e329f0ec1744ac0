"""End-to-end observability of a traced :class:`SweepService` run.

A sweep with ``SweepSpec.observe=True`` served through a
``SweepService(observability=...)`` must export one coherent timeline:
the driver's ``service.sweep`` span, per-point dispatch-to-journal
``service.point`` spans (one track per point index), the journal
append measured inside each, and the worker-side ``machine.run`` spans
ingested onto the *same* per-point track so Perfetto shows
dispatch -> execute -> journal by time containment.
"""

import json
import math

from repro.core.isa import two_qubit_instantiation
from repro.core.operations import (
    add_rabi_amplitude_operations,
    default_operation_set,
)
from repro.experiments.runner import ExperimentSetup
from repro.obs import Observability
from repro.quantum.noise import NoiseModel
from repro.serving import ServiceConfig, SweepService, SweepSpec

MAX_STEPS = 16
POINTS = 4
SHOTS = 15


# The sweep factories must survive a fork into worker processes, so
# they live at module level (same pattern as tests/serving).
def build_setup() -> ExperimentSetup:
    operations = default_operation_set()
    add_rabi_amplitude_operations(operations, MAX_STEPS,
                                  max_angle=2.0 * math.pi)
    isa = two_qubit_instantiation(operations)
    return ExperimentSetup.create(isa=isa, noise=NoiseModel(), seed=0)


def build_program(setup, params):
    from repro.workloads.rabi import rabi_step_circuit
    return setup.compile_circuit(
        rabi_step_circuit(params["step"], qubit=2))


def make_observed_spec(name="obs-rabi") -> SweepSpec:
    return SweepSpec.from_params(
        name=name, shots=SHOTS, seed=7,
        params=[{"step": step} for step in range(POINTS)],
        setup_factory=build_setup,
        program_factory=build_program,
        observe=True)


def run_traced_sweep(tmp_path, journal=True):
    obs = Observability()
    config = ServiceConfig(num_workers=2, poll_interval_s=0.01,
                           drain_timeout_s=10.0)
    service = SweepService(config, observability=obs)
    journal_path = tmp_path / "sweep.journal" if journal else None
    result = service.run_sweep(make_observed_spec(),
                               journal_path=journal_path)
    return obs, service, result


class TestTracedSweep:
    def test_span_structure(self, tmp_path):
        obs, service, result = run_traced_sweep(tmp_path)
        assert len(result.results) == POINTS

        spans = obs.tracer.spans()
        sweeps = [s for s in spans if s.name == "service.sweep"]
        points = [s for s in spans if s.name == "service.point"]
        journals = [s for s in spans
                    if s.name == "service.point.journal"]
        assert len(sweeps) == 1
        assert sweeps[0].attributes["points"] == POINTS
        # One dispatch-to-journal span per point, each on its own
        # track (tid = point index + 1) under the sweep span.
        assert sorted(s.tid for s in points) == [1, 2, 3, 4]
        assert all(s.parent == "service.sweep" for s in points)
        assert len(journals) == POINTS
        assert all(s.parent == "service.point" for s in journals)
        # Dispatch events mark queue activity on the driver side.
        assert any(e.name == "service.dispatch"
                   for e in obs.tracer.events())

    def test_worker_spans_nest_inside_their_point(self, tmp_path):
        obs, service, result = run_traced_sweep(tmp_path)
        events = obs.tracer.chrome_trace_events(pid=0)
        by_track = {}
        for event in events:
            if event["ph"] == "X":
                by_track.setdefault(event["tid"], []).append(event)
        for tid in range(1, POINTS + 1):
            track = {e["name"]: e for e in by_track[tid]}
            point = track["service.point"]
            for name in ("machine.run", "service.point.journal"):
                inner = track[name]
                assert inner["ts"] >= point["ts"]
                assert (inner["ts"] + inner["dur"]
                        <= point["ts"] + point["dur"] + 1e-6), (
                    f"{name} escapes its service.point on track {tid}")

    def test_worker_metrics_aggregate_into_driver(self, tmp_path):
        obs, service, result = run_traced_sweep(tmp_path)
        snapshot = obs.snapshot()
        # engine.* metrics merged across worker processes.
        assert (snapshot["engine.shots_total"]["value"]
                == POINTS * SHOTS)
        # service.* metrics published from ServiceStats.
        assert snapshot["service.points.completed"]["value"] == POINTS
        assert snapshot["service.sweeps.completed"]["value"] == 1
        latency = snapshot["service.point.latency_s"]
        assert latency["type"] == "histogram"
        assert latency["count"] == POINTS
        assert snapshot["service.journal.append.time_ns"]["count"] \
            == POINTS

    def test_export_is_perfetto_loadable(self, tmp_path):
        obs, service, result = run_traced_sweep(tmp_path)
        paths = obs.export(tmp_path / "export", prefix="sweep")
        events = json.loads(open(paths["trace"]).read())
        assert isinstance(events, list)
        names = {event["name"] for event in events}
        assert {"service.sweep", "service.point",
                "service.point.journal", "machine.run"} <= names
        for event in events:
            assert event["ph"] in {"X", "i"}
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)

    def test_telemetry_never_lands_in_the_journal(self, tmp_path):
        """Worker observability payloads are detached before the point
        is journaled — journals stay lean and replayable."""
        run_traced_sweep(tmp_path)
        journal_text = (tmp_path / "sweep.journal").read_text()
        for line in journal_text.splitlines():
            record = json.loads(line)
            payload = record.get("payload", record)
            assert "obs" not in payload

    def test_untraced_service_records_nothing(self, tmp_path):
        service = SweepService(ServiceConfig(
            num_workers=2, poll_interval_s=0.01,
            drain_timeout_s=10.0))
        assert service.observability is None
        result = service.run_sweep(make_observed_spec("untraced"))
        assert len(result.results) == POINTS


class TestServiceStatsHistogram:
    def test_stats_surface_point_latency_and_frame_counts(self,
                                                          tmp_path):
        obs, service, result = run_traced_sweep(tmp_path)
        stats = service.stats_snapshot()
        assert stats.point_latency.count == POINTS
        assert stats.point_latency.percentile(0.5) > 0.0
        as_dict = stats.as_dict()
        assert as_dict["point_latency"]["count"] == POINTS
        assert "p99_ms" in as_dict["point_latency"]
        assert "frame_batched_shots" in as_dict

    def test_snapshot_histogram_is_independent(self, tmp_path):
        obs, service, result = run_traced_sweep(tmp_path)
        snapshot = service.stats_snapshot()
        snapshot.point_latency.record(1e9)
        assert service.stats_snapshot().point_latency.count == POINTS
