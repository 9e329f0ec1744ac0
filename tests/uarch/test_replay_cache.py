"""Cross-run cache regression tests.

The machine keeps one piece of engine state for its loaded binary,
with the (noise model, uarch config, backend kind) it was built under:
the replay engine's saturated timeline tree, or the Pauli-frame
engine's reference recording (trace template plus step sequence).
Repeated runs over one binary reuse it across ``run()`` calls — a
warm replay run grows nothing, a warm frame run skips the reference
shot.  The dangerous failure mode is *stale* state: reusing cached
probabilities, readout or a recorded gate sequence after the noise
model, configuration or host-written data memory changed would
silently corrupt the emitted distribution — these tests pin the
invalidation behaviour of both.  The file also covers the mid-stream
:class:`EngineStats` snapshot used by long sweeps.
"""

from dataclasses import replace

import numpy as np
import pytest

from test_plant_backend import assert_distributions_agree, joint_histogram

from repro.core import (
    Assembler,
    rotated_surface_instantiation,
    two_qubit_instantiation,
)
from repro.core.errors import RuntimeFault
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import QuMAv2, UarchConfig, slip_config
from repro.workloads.surface_code import rotated_surface_circuit


def make_machine(noise=None, seed=0, config=None):
    isa = two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant, config=config)


def load(machine, text):
    machine.load(Assembler(machine.isa).assemble_text(text))


class TestCrossRunTreeReuse:
    def test_second_run_reuses_the_saturated_tree(self):
        """Noiseless active reset saturates its tree in a handful of
        shots; a second run over the same binary must be pure replay —
        zero interpreter shots, segment hits carried across run()."""
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(50)
        first = machine.engine_stats
        assert first.engine == "replay"
        assert not first.tree_reused
        assert first.interpreter_shots > 0

        machine.run(50)
        second = machine.engine_stats
        assert second.tree_reused
        assert second.interpreter_shots == 0
        assert second.replay_shots == 50
        assert second.tree_paths == first.tree_paths

    def test_reloading_the_same_binary_still_reuses(self):
        machine = make_machine(seed=3)
        assembled = Assembler(machine.isa).assemble_text(ACTIVE_RESET)
        machine.load(assembled)
        machine.run(40)
        machine.load(assembled)  # e.g. a sweep re-loading per point
        machine.run(40)
        assert machine.engine_stats.tree_reused
        assert machine.engine_stats.interpreter_shots == 0

    def test_noise_model_change_invalidates(self):
        """The stale-cache guard: after swapping in a noiseless model,
        a reused tree would keep sampling the old readout-error rates.
        The key must miss, the tree regrow, and noiseless active reset
        become perfect."""
        machine = make_machine(noise=NoiseModel(), seed=7)
        load(machine, ACTIVE_RESET)
        machine.run(200)
        assert machine.engine_stats.engine == "replay"

        machine.plant.noise = NoiseModel.noiseless()
        traces = machine.run(100)
        stats = machine.engine_stats
        assert not stats.tree_reused
        assert stats.interpreter_shots > 0  # the tree was regrown
        # Noiseless reset is exact; a stale tree would keep emitting
        # ~9.5% readout flips on the final measurement.
        assert all(trace.last_result(2) == 0 for trace in traces)

    def test_config_change_invalidates(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(30)
        machine.config = slip_config(machine.config)
        machine.run(30)
        assert not machine.engine_stats.tree_reused

    def test_config_swap_reaches_the_measurement_unit(self):
        """A swapped config times measurement results exactly as a
        machine built with that config does (result transport and
        integration window live in the measurement unit)."""
        program = """
        SMIS S2, {2}
        QWAIT 100
        MEASZ S2
        QWAIT 50
        STOP
        """
        config = replace(UarchConfig(), result_transport_ns=128.0)
        swapped = make_machine(seed=3)
        load(swapped, program)
        default_arrival = swapped.run_shot().results[0].arrival_ns
        swapped.config = config
        built = make_machine(seed=3, config=config)
        load(built, program)
        arrival = swapped.run_shot().results[0].arrival_ns
        assert arrival == built.run_shot().results[0].arrival_ns
        assert arrival != default_arrival
        assert swapped.measurement_unit.config is config

    def test_different_binary_does_not_reuse(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(30)
        load(machine, """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        STOP
        """)
        machine.run(30)
        assert not machine.engine_stats.tree_reused

    def test_interpreter_runs_leave_the_cache_intact(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(40)
        machine.run(10, use_replay=False)
        assert machine.last_run_engine == "interpreter"
        machine.run(40)
        assert machine.engine_stats.tree_reused
        assert machine.engine_stats.interpreter_shots == 0

    def test_clear_replay_cache_forces_regrowth(self):
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(40)
        machine.clear_replay_cache()
        machine.run(40)
        stats = machine.engine_stats
        assert not stats.tree_reused
        assert stats.interpreter_shots > 0

    def test_clear_replay_cache_also_drops_dataflow_reports(self):
        """The explicit hatch's contract is *no derived state
        survives*: the dataflow report of the loaded binary must clear
        alongside the tree, so a cleared machine re-derives everything
        from the binary words."""
        machine = make_machine(seed=3)
        load(machine, ACTIVE_RESET)
        machine.run(20)
        report = machine.data_memory_report()
        assert machine._tree is not None
        assert machine._data_memory_report is report

        machine.clear_replay_cache()
        assert machine._tree is None
        assert machine._data_memory_report is None
        # The next request recomputes (a fresh object, same verdict).
        fresh = machine.data_memory_report()
        assert fresh is not report
        assert fresh.cross_run_cacheable == report.cross_run_cacheable

    def test_load_bearing_program_is_never_cached_across_runs(self):
        """Data memory is the host communication channel: a program
        whose LD steers control flow must re-grow its tree every run(),
        because the host may rewrite the loaded address in between —
        state the (binary, noise, config) cache key cannot see."""
        machine = make_machine(seed=2)
        load(machine, """
        SMIS S0, {0}
        LDI R0, 1
        LDI R1, 32
        LD R2, R1(0)
        CMP R2, R0
        BR EQ, one
        X S0
        BR ALWAYS, join
        one:
        Y S0
        join:
        QWAIT 50
        STOP
        """)

        def applied(traces):
            return [t.name for trace in traces
                    for t in trace.triggers if t.executed]

        first = machine.run(3)
        assert machine.last_run_engine == "replay"  # no ST: replayable
        assert not machine.engine_stats.tree_reused
        assert applied(first) == ["X"] * 3          # memory[32] == 0

        machine.memory.store(32, 1)                 # host flips the knob
        second = machine.run(3)
        assert not machine.engine_stats.tree_reused
        assert applied(second) == ["Y"] * 3         # fresh tree sees it

    def test_experiment_setup_exposes_cache_controls(self):
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create(seed=11)
        assembled = setup.assemble_text(ACTIVE_RESET)
        setup.run_counts(assembled, 40)
        setup.run_counts(assembled, 40)
        assert setup.last_engine_stats.tree_reused
        setup.clear_replay_cache()
        setup.run_counts(assembled, 40)
        assert not setup.last_engine_stats.tree_reused


def pauli_noise(error=0.03):
    """Pauli gate noise on the tableau: the frame engine's regime."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=error,
                                  two_qubit_error=error))


#: Feedback-free Clifford program: frame-batch eligible under Pauli
#: gate noise.
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

#: The host word at address 32 selects X (0) or H (1) on qubit 0 before
#: its measurement.  The LD has no same-shot store, so the binary is
#: frame eligible but not cacheable across runs.
HOST_SELECTED_GATE = """
SMIS S0, {0}
LDI R0, 1
LDI R1, 32
LD R2, R1(0)
CMP R2, R0
BR EQ, hadamard
X S0
BR ALWAYS, join
hadamard:
H S0
join:
QWAIT 50
MEASZ S0
QWAIT 50
STOP
"""


def frame_machine(seed=0, text=FRAME_CLIFFORD):
    machine = make_machine(noise=pauli_noise(), seed=seed)
    load(machine, text)
    return machine


def run_frame(machine, shots=40):
    """One frame run; returns its stats."""
    machine.run_counts(shots)
    stats = machine.engine_stats
    assert stats.engine == "frame", stats.fallback_reason
    assert stats.frame_batched == shots
    return stats


def assert_recorded(stats):
    assert stats.frame_reference_shots == 1
    assert not stats.tree_reused


def assert_reused(stats):
    assert stats.frame_reference_shots == 0
    assert stats.tree_reused


class TestKeptFrameRecording:
    """The frame engine's reference recording lives in the same slot,
    under the same key and invalidation paths as the replay tree."""

    def test_second_run_reuses_the_recording(self):
        machine = frame_machine()
        assert_recorded(run_frame(machine))
        assert_reused(run_frame(machine))
        assert_reused(run_frame(machine))

    def test_reloading_the_same_binary_still_reuses(self):
        machine = frame_machine()
        assembled = Assembler(machine.isa).assemble_text(FRAME_CLIFFORD)
        machine.load(assembled)
        assert_recorded(run_frame(machine))
        machine.load(assembled)
        assert_reused(run_frame(machine))

    def test_noise_model_swap_records_again(self):
        machine = frame_machine()
        run_frame(machine)
        machine.plant.noise = pauli_noise(0.01)
        assert_recorded(run_frame(machine))
        assert_reused(run_frame(machine))

    def test_config_swap_records_again(self):
        machine = frame_machine()
        run_frame(machine)
        machine.config = slip_config(machine.config)
        assert_recorded(run_frame(machine))

    def test_different_binary_records_again(self):
        machine = frame_machine()
        run_frame(machine)
        load(machine, FRAME_CLIFFORD.replace("X90 S2", "H S2"))
        assert_recorded(run_frame(machine))
        load(machine, FRAME_CLIFFORD)
        assert_recorded(run_frame(machine))

    def test_clear_replay_cache_records_again(self):
        machine = frame_machine()
        run_frame(machine)
        machine.clear_replay_cache()
        assert machine._tree is None
        assert_recorded(run_frame(machine))

    def test_interpreter_runs_leave_the_recording_intact(self):
        machine = frame_machine()
        run_frame(machine)
        machine.run_counts(5, use_replay=False)
        assert machine.last_run_engine == "interpreter"
        assert_reused(run_frame(machine))

    def test_host_memory_load_is_never_served_stale(self):
        """Data memory is the host channel: a frame-eligible binary
        whose LD steers its gate sequence must record afresh every
        run, because the host may rewrite the loaded word in between —
        a kept recording would keep applying the old gate."""
        machine = frame_machine(text=HOST_SELECTED_GATE)

        def applied(traces):
            return {t.name for trace in traces
                    for t in trace.triggers if t.executed}

        first = machine.run(20)
        assert machine.last_run_engine == "frame"
        assert not machine.data_memory_report().cross_run_cacheable
        assert_recorded(machine.engine_stats)
        assert applied(first) == {"X", "MEASZ"}   # memory[32] == 0

        machine.memory.store(32, 1)               # host selects H
        second = machine.run(20)
        assert machine.last_run_engine == "frame"
        assert applied(second) == {"H", "MEASZ"}
        assert_recorded(machine.engine_stats)
        assert machine._tree is None


class TestWarmFrameRunPhysics:
    """A warm frame run propagates through a recording made by an
    earlier run; its joint histogram must still agree with the
    per-shot tableau interpreter's."""

    def check_warm_run_matches_interpreter(self, warm, interpreter,
                                           shots):
        run_frame(warm, 10)
        counts = warm.run_counts(shots)
        assert_reused(warm.engine_stats)
        traces = interpreter.run(shots, use_replay=False)
        assert interpreter.last_plant_backend == "stabilizer"
        assert_distributions_agree(counts.joint, joint_histogram(traces))

    def test_frame_clifford(self):
        self.check_warm_run_matches_interpreter(
            frame_machine(seed=31), frame_machine(seed=32), 2000)

    def test_distance3_surface_circuit(self):
        def machine(seed):
            setup = ExperimentSetup.create(
                isa=rotated_surface_instantiation(3),
                noise=pauli_noise(0.01), seed=seed)
            setup.machine.load(setup.compile_circuit(
                rotated_surface_circuit(3, rounds=1, reset=False)))
            return setup.machine

        self.check_warm_run_matches_interpreter(machine(41), machine(42),
                                                600)


class TestEngineStatsSnapshot:
    def test_snapshot_mid_stream_is_stable(self):
        """Long sweeps report the engine mix mid-flight: the snapshot
        reflects every chunk yielded so far — the replay engine counts
        a whole chunk before its first trace, here all 50 shots — and
        stays frozen while the live stats go on."""
        machine = make_machine(noise=NoiseModel(), seed=6)
        load(machine, ACTIVE_RESET)
        iterator = machine.run_iter(50)
        for _ in range(10):
            next(iterator)
        snapshot = machine.engine_stats_snapshot()
        assert snapshot.engine == "replay"
        assert snapshot.shots_total == 50
        assert snapshot.interpreter_shots + snapshot.replay_shots == 50

        remaining = sum(1 for _ in iterator)
        assert remaining == 40
        assert snapshot.shots_total == 50          # frozen
        assert machine.engine_stats.shots_total == 50

        snapshot.shots_total = -1                  # mutating the copy...
        assert machine.engine_stats.shots_total == 50  # ...changes nothing

    def test_setup_snapshot_during_streaming(self):
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create(seed=9)
        assembled = setup.assemble_text(ACTIVE_RESET)
        mid_flight = []
        for index, _ in enumerate(setup.run_iter(assembled, 30)):
            if index == 14:
                mid_flight.append(setup.engine_stats_snapshot())
        assert len(mid_flight) == 1
        assert mid_flight[0].shots_total == 30     # one 30-shot chunk
        assert setup.last_engine_stats.shots_total == 30


class TestPlantRecordingIsClosed:
    """The plant's recording is opened only by its reader, around one
    shot.  After a growth shot, an audit, a plain interpreter run and a
    frame reference shot, raising or not, it is closed again and the
    plant holds its own noise model (the reference shot runs with gate
    error zeroed)."""

    @staticmethod
    def assert_closed(machine, noise):
        assert machine.plant.recording is None
        assert machine.plant.noise is noise

    def test_after_growth_and_audit_shots(self):
        noise = NoiseModel()
        isa = two_qubit_instantiation()
        machine = QuMAv2(isa, QuantumPlant(isa.topology, noise=noise,
                                           rng=np.random.default_rng(4)),
                         audit_fraction=1.0)
        load(machine, ACTIVE_RESET)
        machine.run_counts(50)
        stats = machine.engine_stats
        assert stats.engine == "replay"
        assert stats.interpreter_shots > 0 and stats.replay_audits > 0
        self.assert_closed(machine, noise)

    def test_after_a_plain_interpreter_run(self):
        noise = NoiseModel()
        machine = make_machine(noise=noise, seed=4)
        load(machine, ACTIVE_RESET)
        machine.run(5, use_replay=False)
        assert machine.engine_stats.engine == "interpreter"
        self.assert_closed(machine, noise)

    def test_after_a_frame_reference_shot(self):
        machine = frame_machine()
        noise = machine.plant.noise
        assert_recorded(run_frame(machine))
        self.assert_closed(machine, noise)

    @pytest.mark.parametrize("engine", ["frame", "replay"])
    def test_after_a_shot_that_raises_inside(self, engine):
        """A reference or growth shot that raises after the plant ran
        (here: once its gates and measurements are recorded) leaves
        the recording closed and the noise restored."""
        machine = frame_machine() if engine == "frame" else \
            make_machine(noise=NoiseModel(), seed=4)
        if engine == "replay":
            load(machine, ACTIVE_RESET)
        noise = machine.plant.noise
        run_shot = machine.run_shot

        def failing_shot():
            run_shot()
            assert machine.plant.recording
            raise RuntimeFault("shot failed after the plant ran")

        machine.run_shot = failing_shot
        with pytest.raises(RuntimeFault, match="after the plant ran"):
            machine.run_counts(10)
        self.assert_closed(machine, noise)
