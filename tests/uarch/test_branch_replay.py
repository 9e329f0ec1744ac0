"""Branch-resolved replay cross-checks.

The timeline-segment tree must be *observationally equivalent* to the
interpreter on feedback programs: along every outcome path the
timing-domain records are bit-identical, and the sampled outcome
distributions are statistically indistinguishable.  Dead stores are
whitelisted by the dataflow pass; the remaining hard blockers (live
``ST`` stores, untranslatable operations, queued mock results) must
report *all* their reasons and fall back transparently; non-saturating
outcome spaces must degrade gracefully to interpreter shots.
"""

import numpy as np
import pytest

from repro.core import Assembler, seven_qubit_instantiation, \
    two_qubit_instantiation
from repro.experiments.cfc import CFC_TWO_ROUND_PROGRAM as CFC_TWO_ROUND
from repro.experiments.reset import FIG4_PROGRAM as ACTIVE_RESET
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.uarch import (
    MeasurementSample,
    QuMAv2,
    ShotTrace,
    TimelineTree,
    replay_unsupported_reasons,
)
from repro.uarch.machine import _MOCK_BLOCKER as MOCK_BLOCKER


def make_machine(isa=None, noise=None, seed=0):
    isa = isa or two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise or NoiseModel.noiseless(),
                         rng=np.random.default_rng(seed))
    return QuMAv2(isa, plant)


def load(machine, text):
    machine.load(Assembler(machine.isa).assemble_text(text))


def reported_path(trace):
    return tuple(r.reported_result for r in trace.results)


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


class TestPerPathTimingBitIdentity:
    """For every outcome path the replay engine serves, an interpreter
    shot forced down the same path must produce bit-identical timing."""

    @pytest.mark.parametrize("text,paths_expected", [
        (ACTIVE_RESET, 4),
        (CFC_TWO_ROUND, 4),
    ], ids=["active-reset", "cfc-two-round"])
    def test_every_replayed_path_matches_forced_interpreter(
            self, text, paths_expected):
        replay = make_machine(noise=NoiseModel(), seed=17)
        load(replay, text)
        traces = replay.run(400)
        assert replay.last_run_engine == "replay"
        by_path = {}
        for trace in traces:
            by_path.setdefault(trace.outcome_path(), trace)
        # The noise model keeps every reported branch reachable; the
        # replay run must have explored the full conditional space.
        assert len({reported_path(t) for t in traces}) >= paths_expected

        for path, replay_trace in by_path.items():
            interpreter = make_machine(noise=NoiseModel(), seed=99)
            load(interpreter, text)
            interpreter.measurement_unit.force_results(list(path))
            interp_trace = interpreter.run_shot()
            assert interp_trace.outcome_path() == path
            assert_timing_identical(interp_trace, replay_trace)

    def test_timing_depends_only_on_reported_bits(self):
        """Two forced paths with the same reported bits but different
        raw bits share every timing-domain record (the raw outcome
        only steers the plant state)."""
        machine_a = make_machine(noise=NoiseModel(), seed=1)
        load(machine_a, ACTIVE_RESET)
        machine_a.measurement_unit.force_results([(1, 1), (0, 0)])
        trace_a = machine_a.run_shot()

        machine_b = make_machine(noise=NoiseModel(), seed=2)
        load(machine_b, ACTIVE_RESET)
        machine_b.measurement_unit.force_results([(0, 1), (0, 0)])
        trace_b = machine_b.run_shot()

        assert_timing_identical(trace_a, trace_b)
        assert trace_a.results[0].raw_result == 1
        assert trace_b.results[0].raw_result == 0


class TestStatisticalEquivalence:
    def test_active_reset_distribution_matches_interpreter(self):
        shots = 1500
        interpreter = make_machine(noise=NoiseModel(), seed=23)
        load(interpreter, ACTIVE_RESET)
        interp = interpreter.run_counts(shots, use_replay=False)

        replay = make_machine(noise=NoiseModel(), seed=24)
        load(replay, ACTIVE_RESET)
        rep = replay.run_counts(shots)
        assert replay.last_run_engine == "replay"
        assert rep.excited_fraction(2) == pytest.approx(
            interp.excited_fraction(2), abs=0.05)

    def test_surface_code_chi_squared_equivalence(self):
        """Same seed-family, both engines, 2-round surface-code cycle:
        a chi-squared test on the joint final-outcome histograms must
        not reject equality."""
        from scipy.stats import chi2_contingency

        from repro.experiments.runner import ExperimentSetup
        from repro.workloads.surface_code import surface_code_circuit

        shots = 150
        circuit = surface_code_circuit(rounds=2)

        def joint_counts(seed, use_replay):
            setup = ExperimentSetup.create(
                isa=seven_qubit_instantiation(), noise=NoiseModel(),
                seed=seed)
            assembled = setup.compile_circuit(circuit)
            setup.machine.load(assembled)
            counts = setup.machine.run_counts(shots,
                                              use_replay=use_replay)
            engine = setup.machine.last_run_engine
            return counts.joint, engine

        interp_joint, interp_engine = joint_counts(41, use_replay=False)
        replay_joint, replay_engine = joint_counts(42, use_replay=True)
        assert interp_engine == "interpreter"
        assert replay_engine == "replay"

        keys = sorted(set(interp_joint) | set(replay_joint))
        table = np.array([[interp_joint.get(k, 0) for k in keys],
                          [replay_joint.get(k, 0) for k in keys]])
        # Pool sparse outcome bins so the chi-squared assumptions hold.
        totals = table.sum(axis=0)
        dense = table[:, totals >= 10]
        pooled = table[:, totals < 10].sum(axis=1, keepdims=True)
        if pooled.sum() > 0:
            dense = np.hstack([dense, pooled])
        _, p_value, _, _ = chi2_contingency(dense)
        assert p_value > 1e-3, \
            f"engines statistically distinguishable (p={p_value})"


class TestTreeSaturation:
    def test_active_reset_tree_saturates(self):
        machine = make_machine(noise=NoiseModel(), seed=11)
        load(machine, ACTIVE_RESET)
        machine.run(500)
        stats = machine.engine_stats
        assert stats.engine == "replay"
        assert stats.shots_total == 500
        # Two measurements, <= 4 (raw, reported) pairs each: the tree
        # saturates after at most 16 growth shots.
        assert stats.interpreter_shots <= 16
        assert stats.replay_shots >= 484
        assert stats.segment_cache_hits == stats.replay_shots
        assert stats.segment_cache_misses == stats.interpreter_shots
        assert stats.tree_paths == stats.interpreter_shots
        assert stats.growth_stopped_reason is None

    def test_noiseless_reset_saturates_after_two_probes(self):
        machine = make_machine(seed=11)  # noiseless: raw == reported
        load(machine, ACTIVE_RESET)
        machine.run(100)
        stats = machine.engine_stats
        assert stats.interpreter_shots <= 4
        assert stats.replay_shots >= 96

    def test_growth_caps_degrade_to_interpreter(self):
        """A program whose outcome space exceeds the tree caps keeps
        running — every shot through the interpreter — and reports why
        growth stopped."""
        plant = QuantumPlant(two_qubit_instantiation().topology,
                             noise=NoiseModel(),
                             rng=np.random.default_rng(3))
        tree = TimelineTree(plant, max_depth=1)
        samples = [MeasurementSample(qubit=2, start_ns=0.0, p_one=0.5),
                   MeasurementSample(qubit=2, start_ns=500.0, p_one=0.5)]
        trace = ShotTrace()  # only the length of .results matters here
        assert not tree.grow(samples, trace)
        assert "cap" in tree.growth_stopped_reason
        # The walk still misses cleanly (interpreter fallback per shot)
        # and refuses to grow further.
        sampled, prefix = tree.sample_shot()
        assert sampled is None and prefix == []
        assert not tree.grow(samples, trace)

    def test_all_growth_run_reports_interpreter_split(self):
        """A run the tree can never cache (every outcome path exceeds
        the depth cap, so each shot is a growth shot) must not be
        labeled "replay": the final engine label has to agree with the
        EngineStats split, and the reason says why."""
        machine = make_machine(seed=8)
        load(machine, """
        SMIS S2, {2}
        LDI R0, 70
        LDI R1, 1
        QWAIT 10000
        loop:
        MEASZ S2
        QWAIT 50
        SUB R0, R0, R1
        CMP R0, R1
        BR GE, loop
        QWAIT 50
        STOP
        """)
        assert machine.replay_unsupported_reasons() == []
        machine.run(3)
        stats = machine.engine_stats
        assert stats.interpreter_shots == 3
        assert stats.replay_shots == 0
        assert stats.engine == "interpreter"
        assert machine.last_run_engine == "interpreter"
        assert stats.fallback_reason == machine.replay_fallback_reason
        assert "growth" in machine.replay_fallback_reason
        assert "cap" in (stats.growth_stopped_reason or "")

    def test_determinism_violation_poisons_growth(self):
        plant = QuantumPlant(two_qubit_instantiation().topology,
                             noise=NoiseModel(),
                             rng=np.random.default_rng(3))
        tree = TimelineTree(plant)
        from repro.uarch import ResultRecord
        record = ResultRecord(qubit=2, raw_result=0, reported_result=0,
                              measure_start_ns=0.0, arrival_ns=100.0)
        trace = ShotTrace(results=[record])
        sample = MeasurementSample(qubit=2, start_ns=0.0, p_one=0.5)
        assert tree.grow([sample], trace)
        # Same (empty) outcome history, different first measurement:
        # only possible when timing depends on non-outcome state.
        other = MeasurementSample(qubit=0, start_ns=0.0, p_one=0.5)
        other_trace = ShotTrace(results=[ResultRecord(
            qubit=0, raw_result=0, reported_result=0,
            measure_start_ns=0.0, arrival_ns=100.0)])
        assert not tree.grow([other], other_trace)
        assert "determinism" in tree.growth_stopped_reason


class TestHardBlockerReporting:
    def test_live_load_blocks_replay(self):
        """A load above the only store to its address observes the
        previous shot's value (data memory persists) and forces the
        interpreter — the same pair in kill order would replay."""
        machine = make_machine()
        load(machine, """
        SMIS S2, {2}
        LDI R0, 7
        LDI R1, 0
        LD R2, R1(0)
        ST R0, R1(0)
        X90 S2
        MEASZ S2
        STOP
        """)
        reasons = machine.replay_unsupported_reasons()
        assert len(reasons) == 1
        assert "ST" in reasons[0] and "data memory" in reasons[0]
        assert "live" in reasons[0]
        machine.run(3)
        assert machine.last_run_engine == "interpreter"
        assert machine.engine_stats.interpreter_shots == 3

    def test_all_blocking_reasons_reported(self):
        """A program with several blockers reports every one of them,
        not just the first — including queued mock results, which the
        machine adds to the binary's own blockers."""
        machine = make_machine()
        load(machine, """
        SMIS S2, {2}
        LDI R0, 8
        LDI R1, 16
        LD R4, R1(0)
        ST R0, R1(0)
        LD R5, R4(0)
        X90 S2
        MEASZ S2
        STOP
        """)
        machine.measurement_unit.inject_mock_results(2, [1, 0])
        reasons = machine.replay_unsupported_reasons()
        assert len(reasons) == 3
        assert any("unknown" in reason for reason in reasons)
        assert any("live" in reason for reason in reasons)
        assert reasons[-1] == MOCK_BLOCKER
        # The module-level analysis judges the binary alone.
        assert replay_unsupported_reasons(
            machine.instruction_memory(), machine.microcode) == reasons[:2]
        machine.run(1)
        assert machine.replay_fallback_reason == "; ".join(reasons)

    def test_dead_store_and_mocks_combined_replay(self):
        """A host-readout store plus an injected mock queue: the mock
        queue alone sends the run to the interpreter, which drains it
        in order; the dead store never blocks, so the next run of the
        same binary replays."""
        machine = make_machine(seed=6)
        load(machine, """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        FMR R1, Q2
        LDI R2, 32
        ST R1, R2(0)
        STOP
        """)
        machine.measurement_unit.inject_mock_results(2, [1, 0, 1, 0])
        assert machine.replay_unsupported_reasons() == [MOCK_BLOCKER]
        traces = machine.run(4)
        assert machine.last_run_engine == "interpreter"
        assert machine.replay_fallback_reason == MOCK_BLOCKER
        assert [t.last_result(2) for t in traces] == [1, 0, 1, 0]
        assert machine.replay_unsupported_reasons() == []
        machine.run(4)
        assert machine.last_run_engine == "replay"
        assert machine.engine_stats.dead_stores == 1


    def test_mock_queue_is_one_frame_blocker(self):
        """A feedback-free Clifford program under Pauli gate noise is
        frame-eligible; a queued mock result is then its only frame
        blocker, named once, and the run goes to the interpreter."""
        noise = NoiseModel(
            decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
            gate_error=GateErrorModel(single_qubit_error=0.03,
                                      two_qubit_error=0.05))
        machine = make_machine(noise=noise, seed=3)
        load(machine, """
        SMIS S2, {2}
        QWAIT 10000
        X90 S2
        MEASZ S2
        QWAIT 50
        STOP
        """)
        assert machine.frame_batch_unsupported_reasons() == []
        machine.measurement_unit.inject_mock_results(2, [1, 0])
        assert machine.frame_batch_unsupported_reasons() == [MOCK_BLOCKER]
        traces = machine.run(2)
        assert machine.last_run_engine == "interpreter"
        assert machine.replay_fallback_reason.count(MOCK_BLOCKER) == 1
        assert [t.last_result(2) for t in traces] == [1, 0]


class TestForcedResults:
    def test_forced_pair_overrides_sampling_and_collapses_plant(self):
        machine = make_machine(noise=NoiseModel(), seed=0)
        load(machine, ACTIVE_RESET)
        machine.measurement_unit.force_results([(1, 0)])
        trace = machine.run_shot()
        assert trace.results[0].raw_result == 1
        assert trace.results[0].reported_result == 0
        # reported 0 -> the conditional C_X must have been cancelled.
        cx = [t for t in trace.triggers if t.name == "C_X"]
        assert cx and not cx[0].executed

    def test_forced_queue_is_cleared_between_runs(self):
        machine = make_machine(seed=0)
        load(machine, ACTIVE_RESET)
        machine.measurement_unit.force_results([(1, 1)])
        machine.measurement_unit.clear_forced_results()
        trace = machine.run_shot()  # noiseless: free sampling again
        assert trace.results[0].raw_result in (0, 1)

    def test_multi_shot_run_discards_stale_forced_queue(self):
        """A forced queue left over from a run_shot() drive must not
        bias (or mis-align the growth prefixes of) a multi-shot run."""
        machine = make_machine(noise=NoiseModel(), seed=0)
        load(machine, ACTIVE_RESET)
        machine.measurement_unit.force_results([(1, 1)] * 200)
        traces = machine.run(100)
        assert machine.last_run_engine == "replay"
        raws = {r.raw_result for t in traces for r in t.results}
        assert raws == {0, 1}  # stale queue would pin every raw to 1


class TestStatsSurfacing:
    def test_experiment_setup_exposes_engine_stats(self):
        from repro.experiments.reset import run_active_reset_experiment
        result = run_active_reset_experiment(shots=200, seed=5)
        stats = result.engine_stats
        assert stats.engine == "replay"
        assert stats.shots_total == 200
        assert stats.replay_shots > stats.interpreter_shots

    def test_cfc_verification_runs_on_the_interpreter(self):
        """Mock-result CFC verification is a short experiment whose
        draining queue the outcome tree cannot key on: every round runs
        on the interpreter, with the mock queue as the recorded reason,
        and the output still alternates X/Y."""
        from repro.experiments.cfc import run_cfc_verification
        result = run_cfc_verification(rounds=8)
        assert result.alternates
        assert len(result.applied_operations) == 8
        stats = result.engine_stats
        assert stats.engine == "interpreter"
        assert stats.fallback_reason == MOCK_BLOCKER
        assert stats.shots_total == stats.interpreter_shots == 8
        assert stats.replay_shots == 0
        assert stats.tree_nodes == 0

    def test_surface_code_reports_replay_stats(self):
        from repro.experiments.surface_code import (
            run_surface_code_experiment,
        )
        result = run_surface_code_experiment(rounds=2, shots=60)
        stats = result.engine_stats
        assert stats.engine == "replay"
        assert stats.shots_total == 60
        assert stats.replay_shots > 0


class TestTraceSplice:
    def test_with_sampled_results_shares_timing_and_swaps_outcomes(self):
        machine = make_machine(noise=NoiseModel(), seed=6)
        load(machine, ACTIVE_RESET)
        template = machine.run_shot()
        spliced = template.with_sampled_results(
            [(1, 0), (0, 1)])
        assert_timing_identical(template, spliced)
        assert [(r.raw_result, r.reported_result)
                for r in spliced.results] == [(1, 0), (0, 1)]
        assert spliced.triggers[0] is template.triggers[0]

    def test_with_sampled_results_rejects_length_mismatch(self):
        machine = make_machine(noise=NoiseModel(), seed=6)
        load(machine, ACTIVE_RESET)
        template = machine.run_shot()
        with pytest.raises(ValueError):
            template.with_sampled_results([(0, 0)])
