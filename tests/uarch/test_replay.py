"""Shot-replay engine cross-checks.

The replay fast path must be *observationally equivalent* to the
interpreter on feedback-free programs: bit-identical timing-domain
records (triggers, slips, classical time) and statistically identical
measurement distributions.  Feedback programs (fast conditional
execution, CFC) must transparently fall back to the interpreter.
"""

import numpy as np
import pytest

from repro.core import Assembler, seven_qubit_instantiation, \
    two_qubit_instantiation
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2, ShotCounts, slip_config


def make_machine(isa=None, noise=None, seed=0, config=None):
    isa = isa or two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant, config=config)


def load(machine, text):
    machine.load(Assembler(machine.isa).assemble_text(text))


RABI = """
SMIS S2, {2}
QWAIT 10000
X90 S2
MEASZ S2
QWAIT 50
STOP
"""

ALLXY = """
SMIS S0, {0}
SMIS S2, {2}
SMIS S7, {0, 2}
QWAIT 10000
0, Y S7
1, X90 S0 | X S2
1, MEASZ S7
QWAIT 50
STOP
"""

#: The SOMQ issue-rate stress program (4 bundle words per 20 ns point
#: cannot keep up at 10 ns/instruction) — measurement-free, slips under
#: the slip policy.
SOMQ_DENSE = """
SMIS S0, {0}
SMIS S1, {1}
SMIS S2, {2}
SMIS S3, {3}
X S0
0, X S1
0, X S2
0, X S3
1, Y S0
0, Y S1
0, Y S2
0, Y S3
STOP
"""

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

CFC_FMR = """
SMIS S2, {2}
X S2
MEASZ S2
FMR R1, Q2
STOP
"""


def assert_timing_identical(trace_a, trace_b):
    """Deterministic-domain records must match bit for bit."""
    assert trace_a.triggers == trace_b.triggers
    assert trace_a.slips == trace_b.slips
    assert trace_a.instructions_executed == trace_b.instructions_executed
    assert trace_a.classical_time_ns == trace_b.classical_time_ns
    assert trace_a.stop_reached == trace_b.stop_reached
    assert [(r.qubit, r.measure_start_ns, r.arrival_ns)
            for r in trace_a.results] == \
        [(r.qubit, r.measure_start_ns, r.arrival_ns)
         for r in trace_b.results]


class TestReplayEquivalence:
    """Replay vs interpreter on the deterministic programs."""

    @pytest.mark.parametrize("text", [RABI, ALLXY], ids=["rabi", "allxy"])
    def test_timing_bit_identical(self, text):
        interpreter = make_machine(noise=NoiseModel(), seed=7)
        load(interpreter, text)
        interpreter_traces = interpreter.run(5, use_replay=False)
        assert interpreter.last_run_engine == "interpreter"

        replay = make_machine(noise=NoiseModel(), seed=7)
        load(replay, text)
        replay_traces = replay.run(5)
        assert replay.last_run_engine == "replay"
        assert replay.replay_fallback_reason is None

        for interp_trace in interpreter_traces:
            for replay_trace in replay_traces:
                assert_timing_identical(interp_trace, replay_trace)

    @pytest.mark.parametrize("text", [RABI, ALLXY], ids=["rabi", "allxy"])
    def test_measurement_distribution_matches(self, text):
        shots = 800
        interpreter = make_machine(noise=NoiseModel(), seed=3)
        load(interpreter, text)
        interp_counts = ShotCounts()
        for trace in interpreter.run_iter(shots, use_replay=False):
            interp_counts.add(trace)

        replay = make_machine(noise=NoiseModel(), seed=4)
        load(replay, text)
        replay_counts = replay.run_counts(shots)
        assert replay.last_run_engine == "replay"

        for qubit in interp_counts.measured:
            assert replay_counts.excited_fraction(qubit) == pytest.approx(
                interp_counts.excited_fraction(qubit), abs=0.06)

    def test_somq_slip_program_replays_with_identical_slips(self):
        # The density-matrix comparison below needs the dense backend
        # pinned: a noiseless Clifford program would otherwise
        # auto-select the stabilizer tableau on both machines.
        isa = seven_qubit_instantiation()
        interpreter = make_machine(isa=isa, config=slip_config())
        interpreter.plant_backend_policy = "dense"
        load(interpreter, SOMQ_DENSE)
        interp_trace = interpreter.run(3, use_replay=False)[0]
        assert interp_trace.slips  # the stress program must slip
        assert interpreter.last_plant_backend == "dense"

        replay = make_machine(isa=isa, config=slip_config())
        replay.plant_backend_policy = "dense"
        load(replay, SOMQ_DENSE)
        replay_traces = replay.run(3)
        assert replay.last_run_engine == "replay"
        for trace in replay_traces:
            assert_timing_identical(interp_trace, trace)
        # Measurement-free + identical noise: the final plant state of
        # a replayed shot equals the interpreter's exactly.
        np.testing.assert_allclose(
            replay.plant.density_matrix().matrix,
            interpreter.plant.density_matrix().matrix, atol=1e-12)

    def test_replay_results_resample_randomness(self):
        machine = make_machine(noise=NoiseModel(), seed=9)
        load(machine, RABI)
        traces = machine.run(400)
        assert machine.last_run_engine == "replay"
        outcomes = {trace.last_result(2) for trace in traces}
        assert outcomes == {0, 1}  # X90 -> both outcomes must appear


class TestReplayFallback:
    """Hard blockers (live stores, untranslatable operations) must run
    on the full interpreter; feedback programs (conditional execution,
    CFC), mocked programs and dead-store programs take the
    branch-resolved replay path."""

    @pytest.mark.parametrize("text", [ACTIVE_RESET, CFC_FMR],
                             ids=["active-reset", "cfc-fmr"])
    def test_feedback_program_takes_branch_replay(self, text):
        machine = make_machine(seed=5)
        load(machine, text)
        machine.run(20)
        assert machine.last_run_engine == "replay"
        assert machine.replay_fallback_reason is None
        stats = machine.engine_stats
        assert stats.shots_total == 20
        assert stats.replay_shots > 0  # the tree served cached paths
        assert stats.interpreter_shots + stats.replay_shots == 20
        assert stats.segment_cache_misses == stats.interpreter_shots

    def test_live_load_falls_back(self):
        """A load that reads an address only stored *after* it (i.e.
        by the previous shot, since data memory persists) is the one
        remaining data-memory hard blocker — a same-shot store below
        the load cannot kill it."""
        machine = make_machine()
        load(machine, """
        SMIS S0, {0}
        LDI R0, 7
        LDI R1, 0
        LD R2, R1(0)
        ST R0, R1(0)
        X S0
        STOP
        """)
        machine.run(2)
        assert machine.last_run_engine == "interpreter"
        assert "ST" in machine.replay_fallback_reason
        assert "live" in machine.replay_fallback_reason

    def test_spill_reload_replays(self):
        """The same ST/LD pair in kill order — store first, reload
        after — is shot-local scratch traffic and replays."""
        machine = make_machine()
        load(machine, """
        SMIS S0, {0}
        LDI R0, 7
        LDI R1, 0
        ST R0, R1(0)
        LD R2, R1(0)
        X S0
        STOP
        """)
        machine.run(20)
        assert machine.last_run_engine == "replay"
        assert machine.replay_fallback_reason is None
        assert machine.engine_stats.killed_loads == 1
        assert machine.engine_stats.replay_shots > 0

    def test_dead_store_replays(self):
        """A store no LD ever reads (host-readout deposit) is proven
        dead by the dataflow pass and replays."""
        machine = make_machine(seed=3)
        load(machine, """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R1, Q2
        LDI R2, 16
        ST R1, R2(0)
        STOP
        """)
        machine.run(20)
        assert machine.last_run_engine == "replay"
        assert machine.replay_fallback_reason is None
        assert machine.engine_stats.dead_stores == 1
        assert machine.engine_stats.replay_shots > 0

    def test_mock_results_replay_and_drain_in_order(self):
        """Injected mock results no longer block replay: the draining
        queue keys the timeline tree's roots, and the reported sequence
        is exactly the injected one."""
        machine = make_machine(seed=2)
        load(machine, RABI)
        machine.measurement_unit.inject_mock_results(2, [1, 0, 1])
        traces = machine.run(3)
        assert machine.last_run_engine == "replay"
        assert machine.replay_fallback_reason is None
        # The mock queue must drain exactly as the interpreter would.
        assert [trace.last_result(2) for trace in traces] == [1, 0, 1]
        assert not machine.measurement_unit.has_mock_results(2)

    def test_use_replay_false_forces_interpreter(self):
        machine = make_machine(seed=1)
        load(machine, RABI)
        machine.run(2, use_replay=False)
        assert machine.last_run_engine == "interpreter"
        assert "disabled" in machine.replay_fallback_reason

    def test_active_reset_statistics_unchanged(self):
        """Fallback preserves the Fig. 4 behaviour end to end."""
        machine = make_machine(seed=5)
        load(machine, ACTIVE_RESET)
        for trace in machine.run(30):
            assert trace.last_result(2) == 0  # noiseless reset is perfect


class TestShotCountsAndIteration:
    def test_run_iter_is_lazy_and_counts_match_traces(self):
        machine = make_machine(noise=NoiseModel(), seed=6)
        load(machine, ALLXY)
        iterator = machine.run_iter(50)
        counts = ShotCounts()
        traces = []
        for trace in iterator:
            counts.add(trace)
            traces.append(trace)
        assert counts.shots == 50
        from repro.experiments.runner import excited_fraction
        for qubit in (0, 2):
            assert counts.excited_fraction(qubit) == pytest.approx(
                excited_fraction(traces, qubit))

    def test_outcome_counts_two_qubit_histogram(self):
        machine = make_machine(noise=NoiseModel(), seed=8)
        load(machine, ALLXY)
        counts = machine.run_counts(120)
        histogram = counts.outcome_counts(0, 2)
        assert sum(histogram.values()) == 120
        from repro.experiments.runner import outcome_counts
        machine2 = make_machine(noise=NoiseModel(), seed=8)
        load(machine2, ALLXY)
        traces = machine2.run(120)
        assert sum(outcome_counts(traces, 0, 2).values()) == 120

    def test_counts_raise_without_results(self):
        counts = ShotCounts()
        with pytest.raises(ValueError):
            counts.excited_fraction(0)


class TestProgramCache:
    def test_compile_circuit_caches_identical_skeletons(self):
        from repro.compiler.ir import Circuit
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create()
        circuit = Circuit("probe", 3).add("X90", 2).add("MEASZ", 2)
        first = setup.compile_circuit(circuit)
        second = setup.compile_circuit(circuit)
        assert first is second
        third = setup.compile_circuit(circuit, interval_cycles=4)
        assert third is not first
        fresh = setup.compile_circuit(circuit, use_cache=False)
        assert fresh is not first
        assert fresh.words == first.words

    def test_cached_program_runs_identically(self):
        from repro.compiler.ir import Circuit
        from repro.experiments.runner import ExperimentSetup
        setup = ExperimentSetup.create(seed=11)
        circuit = Circuit("probe", 3).add("X", 2).add("MEASZ", 2)
        counts_a = setup.run_circuit_counts(circuit, 40)
        counts_b = setup.run_circuit_counts(circuit, 40)
        assert counts_a.shots == counts_b.shots == 40
        assert counts_a.excited_fraction(2) == pytest.approx(
            counts_b.excited_fraction(2), abs=0.25)


class TestAmplitudesView:
    def test_view_is_read_only_and_copy_free(self):
        from repro.quantum.statevector import zero_state
        state = zero_state(2)
        view = state.amplitudes_view
        assert view[0] == 1.0
        with pytest.raises(ValueError):
            view[0] = 0.5
        # The copying accessor still copies.
        copied = state.amplitudes
        copied[0] = 0.0
        assert state.amplitudes_view[0] == 1.0
