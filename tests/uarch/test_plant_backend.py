"""Plant-backend selection and dense/tableau equivalence.

The machine picks the quantum-state representation per run: the
stabilizer tableau whenever the static pass proves every gate Clifford
and the noise model Pauli/readout-only, the dense density matrix
otherwise — with the choice and its reasons reported exactly like
engine selection.  The two backends must be *statistically
indistinguishable* wherever both are sound; chi-squared tests over
joint outcome histograms pin that on the paper's feedback workloads.
"""

import numpy as np
import pytest

from repro.core import (
    Assembler,
    rotated_surface_instantiation,
    seven_qubit_instantiation,
    two_qubit_instantiation,
)
from repro.core.errors import PlantError, ResourceError
from repro.experiments.cfc import CFC_TWO_ROUND_PROGRAM
from repro.experiments.reset import FIG4_PROGRAM
from repro.experiments.runner import ExperimentSetup
from repro.experiments.surface_code import (
    looped_surface_code_program,
    run_rotated_surface_experiment,
)
from repro.quantum import NoiseModel, QuantumPlant
from repro.quantum.noise import DecoherenceModel, GateErrorModel
from repro.topology.library import rotated_surface_chip, rotated_surface_layout
from repro.uarch import QuMAv2
from repro.workloads.rotated_surface import (
    expected_rotated_z_syndrome,
    rotated_surface_circuit,
)

T_GATE_PROGRAM = """
SMIS S2, {2}
QWAIT 10000
T S2
MEASZ S2
QWAIT 50
STOP
"""


def readout_only_noise() -> NoiseModel:
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.0,
                                  two_qubit_error=0.0))


def pauli_noise() -> NoiseModel:
    """Pauli-only noise with *stochastic* gate error (trajectories)."""
    return NoiseModel(
        decoherence=DecoherenceModel(t1_ns=1e15, t2_ns=1e15),
        gate_error=GateErrorModel(single_qubit_error=0.05,
                                  two_qubit_error=0.05))


def make_machine(text, seed=0, isa=None, noise=None, policy="auto"):
    isa = isa or two_qubit_instantiation()
    plant = QuantumPlant(isa.topology,
                         noise=noise if noise is not None
                         else readout_only_noise(),
                         rng=np.random.default_rng(seed))
    machine = QuMAv2(isa, plant, plant_backend=policy)
    machine.load(Assembler(isa).assemble_text(text))
    return machine


def joint_histogram(traces):
    histogram = {}
    for trace in traces:
        last = {}
        for record in trace.results:
            last[record.qubit] = record.reported_result
        key = tuple(sorted(last.items()))
        histogram[key] = histogram.get(key, 0) + 1
    return histogram


def assert_distributions_agree(hist_a, hist_b):
    """Chi-squared homogeneity test, pooling sparse outcome bins."""
    keys = sorted(set(hist_a) | set(hist_b))
    if len(keys) < 2:
        assert set(hist_a) == set(hist_b)
        return
    table = np.array([[hist_a.get(k, 0) for k in keys],
                      [hist_b.get(k, 0) for k in keys]])
    totals = table.sum(axis=0)
    dense = table[:, totals >= 10]
    pooled = table[:, totals < 10].sum(axis=1, keepdims=True)
    if pooled.sum() > 0:
        dense = np.hstack([dense, pooled])
    if dense.shape[1] < 2:
        return
    from scipy.stats import chi2_contingency
    _, p_value, _, _ = chi2_contingency(dense)
    assert p_value > 1e-4, \
        f"backends statistically distinguishable (p={p_value})"


class TestBackendSelection:
    def test_clifford_plus_readout_noise_selects_tableau(self):
        machine = make_machine(FIG4_PROGRAM)
        machine.run(5)
        assert machine.last_plant_backend == "stabilizer"
        assert machine.plant_backend_reason is None
        assert machine.engine_stats.plant_backend == "stabilizer"

    def test_default_noise_keeps_dense(self):
        machine = make_machine(FIG4_PROGRAM, noise=NoiseModel())
        machine.run(5)
        assert machine.last_plant_backend == "dense"
        assert "decoherence" in machine.plant_backend_reason
        assert machine.engine_stats.plant_backend == "dense"

    def test_non_clifford_gate_keeps_dense(self):
        machine = make_machine(T_GATE_PROGRAM)
        reasons = machine.plant_backend_reasons()
        assert any("'T' is not Clifford" in reason for reason in reasons)
        machine.run(5)
        assert machine.last_plant_backend == "dense"

    def test_policy_pins_backend(self):
        machine = make_machine(FIG4_PROGRAM, policy="dense")
        machine.run(5)
        assert machine.last_plant_backend == "dense"
        assert "pinned" in machine.plant_backend_reason

    def test_selection_agrees_across_engines(self):
        for use_replay in (False, True):
            machine = make_machine(FIG4_PROGRAM, seed=use_replay)
            machine.run(10, use_replay=use_replay)
            assert machine.last_plant_backend == "stabilizer"

    def test_noise_swap_honoured_without_reload(self):
        machine = make_machine(FIG4_PROGRAM, noise=NoiseModel())
        machine.run(5)
        assert machine.last_plant_backend == "dense"
        machine.plant.noise = readout_only_noise()
        machine.run(5)
        assert machine.last_plant_backend == "stabilizer"

    def test_trajectory_noise_blocks_replay_not_tableau(self):
        machine = make_machine(FIG4_PROGRAM, noise=pauli_noise())
        reasons = machine.replay_unsupported_reasons()
        assert any("trajectory" in reason for reason in reasons)
        machine.run(10)
        assert machine.last_plant_backend == "stabilizer"
        assert machine.last_run_engine == "interpreter"
        assert "trajectory" in machine.replay_fallback_reason

    def test_readout_only_noise_compounds_both_fast_paths(self):
        machine = make_machine(FIG4_PROGRAM)
        machine.run(100)
        assert machine.last_plant_backend == "stabilizer"
        assert machine.last_run_engine == "replay"
        assert machine.engine_stats.replay_shots > 0


class TestBackendEquivalence:
    """Chi-squared agreement, dense vs tableau, per Clifford scenario."""

    SHOTS = 600

    def _histograms(self, text, isa=None, noise=None, seed=23):
        dense = make_machine(text, seed=seed, isa=isa, noise=noise,
                             policy="dense")
        dense_traces = dense.run(self.SHOTS)
        assert dense.last_plant_backend == "dense"
        tableau = make_machine(text, seed=seed + 1, isa=isa, noise=noise,
                               policy="auto")
        tableau_traces = tableau.run(self.SHOTS)
        assert tableau.last_plant_backend == "stabilizer"
        return (joint_histogram(dense_traces),
                joint_histogram(tableau_traces))

    def test_active_reset(self):
        assert_distributions_agree(*self._histograms(FIG4_PROGRAM))

    def test_two_round_cfc(self):
        assert_distributions_agree(
            *self._histograms(CFC_TWO_ROUND_PROGRAM))

    def test_looped_surface_code(self):
        assert_distributions_agree(*self._histograms(
            looped_surface_code_program(2),
            isa=seven_qubit_instantiation()))

    def test_pauli_trajectory_noise_matches_kraus_channel(self):
        """Sampled Pauli injection (tableau) vs the exact depolarizing
        Kraus channel (dense) must agree in distribution."""
        assert_distributions_agree(*self._histograms(
            FIG4_PROGRAM, noise=pauli_noise()))

    def test_timing_records_identical_across_backends(self):
        """The backend only owns the quantum state: timing-domain
        records of a shared outcome path are bit-identical."""
        dense = make_machine(FIG4_PROGRAM, seed=3, policy="dense")
        tableau = make_machine(FIG4_PROGRAM, seed=4, policy="auto")
        dense_by_path = {}
        for trace in dense.run(200):
            dense_by_path.setdefault(trace.outcome_path(), trace)
        checked = 0
        for trace in tableau.run(200):
            reference = dense_by_path.get(trace.outcome_path())
            if reference is None:
                continue
            assert reference.triggers == trace.triggers
            assert reference.slips == trace.slips
            assert reference.classical_time_ns == trace.classical_time_ns
            checked += 1
        assert checked > 0


class RotatedSurfaceOnTableau:
    """The rotated surface chips, bound per distance below: the tableau
    is the *only* viable plant at 17 and 49 qubits, so backend
    selection, dense refusal, and syndrome correctness all matter."""

    distance: int

    def run(self, **options):
        return run_rotated_surface_experiment(self.distance, rounds=2,
                                              **options)

    def check_selects_tableau(self):
        result = self.run(shots=10)
        z_ancillas = rotated_surface_layout(self.distance).z_ancillas
        assert result.plant_backend == "stabilizer"
        assert len(result.syndromes_per_shot) == 10
        for shot in result.syndromes_per_shot:
            assert len(shot) == 2                    # one entry per round
            assert len(shot[0].z_checks) == len(z_ancillas)
        assert result.detection_fraction(0) == 0.0   # noiseless, clean

    def test_injected_error_fires_expected_checks(self):
        # Two corners, an edge and the bulk centre of the data grid.
        d = self.distance
        for qubit in (0, d - 1, d * d // 2, d * d - 1):
            error = ("X", qubit)
            result = self.run(error=error, shots=10)
            expected = expected_rotated_z_syndrome(d, error)
            assert expected.fired()
            for shot in result.syndromes_per_shot:
                assert shot[1].z_checks == expected.z_checks

    def test_z_error_invisible_to_z_checks(self):
        centre = self.distance ** 2 // 2
        result = self.run(error=("Z", centre), shots=10)
        assert result.detection_fraction(1) == 0.0

    def check_dense_refused(self):
        """The accessor that would materialise the dense matrix must
        refuse on the tableau, and a dense plant must be refused up
        front with a pointer at the stabilizer backend."""
        chip = rotated_surface_chip(self.distance)
        tableau = QuantumPlant(chip, noise=NoiseModel.noiseless(),
                               backend="stabilizer")
        with pytest.raises(PlantError, match="does not expose"):
            tableau.density_matrix()
        dense = QuantumPlant(chip, noise=NoiseModel.noiseless(),
                             backend="dense")
        with pytest.raises(ResourceError,
                           match="plant_backend='stabilizer'"):
            dense.density_matrix()

    def test_frame_batch_accounting(self):
        """Feedback-free rounds under Pauli gate noise ride the frame
        batch whole: one reference shot, every shot batched, no
        degradation, and every trace on the interpreter's one timing
        path."""
        setup = ExperimentSetup.create(
            isa=rotated_surface_instantiation(self.distance),
            noise=pauli_noise(), seed=13)
        machine = setup.machine
        machine.load(setup.compile_circuit(rotated_surface_circuit(
            self.distance, rounds=1, reset=False)))
        reference, = machine.run(1, use_replay=False)
        traces = machine.run(100)
        stats = machine.engine_stats
        assert stats.engine == "frame", stats.fallback_reason
        assert stats.plant_backend == "stabilizer"
        assert stats.frame_batched == len(traces) == 100
        assert stats.frame_reference_shots == 1
        assert stats.interpreter_shots == 0
        assert not stats.degradations
        for trace in traces:
            assert trace.triggers == reference.triggers
            assert trace.slips == reference.slips
            assert trace.classical_time_ns == reference.classical_time_ns

    def test_readout_noise_syndromes_flip(self):
        result = self.run(shots=50, noise=readout_only_noise())
        assert result.plant_backend == "stabilizer"
        # ~9.5% per-check flip probability: some syndromes must fire,
        # but noise must not fire everything deterministically.
        assert 0.0 < result.detection_fraction(0) < 0.9


class TestSurface17(RotatedSurfaceOnTableau):
    distance = 3

    def test_distance3_runs_on_tableau(self):
        self.check_selects_tableau()

    def test_dense_state_unavailable_at_width_17(self):
        self.check_dense_refused()


class TestSurface49(RotatedSurfaceOnTableau):
    distance = 5

    def test_distance5_selects_tableau(self):
        self.check_selects_tableau()

    def test_dense_admission_refused_at_width_49(self):
        self.check_dense_refused()


class TestRunCaches:
    def test_dataflow_report_lru_survives_reloads(self):
        isa = two_qubit_instantiation()
        assembler = Assembler(isa)
        program_a = assembler.assemble_text(FIG4_PROGRAM)
        program_b = assembler.assemble_text(CFC_TWO_ROUND_PROGRAM)
        machine = make_machine(FIG4_PROGRAM)
        report_a = machine.data_memory_report()
        machine.load(program_b)
        machine.data_memory_report()
        machine.load(program_a)
        assert machine.data_memory_report() is report_a   # cache hit

    def test_tree_cache_keyed_by_backend_kind(self):
        machine = make_machine(FIG4_PROGRAM)
        machine.run(50)
        assert machine.last_plant_backend == "stabilizer"
        assert not machine.engine_stats.tree_reused
        machine.run(50)
        assert machine.engine_stats.tree_reused
        machine.plant_backend_policy = "dense"
        machine.run(50)
        assert machine.last_plant_backend == "dense"
        assert not machine.engine_stats.tree_reused   # key includes kind

    def test_replayed_traces_share_template_records(self):
        """The splice fix: cached shots alias the template's trigger
        and slip lists instead of copying them per shot."""
        machine = make_machine(FIG4_PROGRAM)
        traces = machine.run(300)
        assert machine.engine_stats.replay_shots > 0
        by_path = {}
        shared = 0
        for trace in traces:
            other = by_path.setdefault(trace.outcome_path(), trace)
            if other is not trace and other.triggers is trace.triggers:
                shared += 1
        assert shared > 0
