"""Tests for the experiment runner and analysis routines."""

import warnings

import numpy as np
import pytest

from repro.compiler import Circuit
from repro.experiments.analysis import (
    correct_population_for_readout,
    fit_rb_decay,
    logspaced_lengths,
    staircase_rms_error,
)
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel
from repro.quantum.noise import ReadoutErrorModel
from shot_recording import recorded_shot


@pytest.fixture()
def setup():
    return ExperimentSetup.create(noise=NoiseModel.noiseless(), seed=0)


class TestRunner:
    def test_compile_and_run_x_gate(self, setup):
        circuit = Circuit("t", 3).add("X", 2).add("MEASZ", 2)
        traces = setup.run(setup.compile_circuit(circuit), shots=20)
        assert all(trace.last_result(2) == 1 for trace in traces)

    def test_survival_probability_exact(self, setup):
        circuit = Circuit("t", 3).add("X90", 0)
        survival = setup.survival_probability(circuit, 0)
        assert survival == pytest.approx(0.5, abs=1e-9)

    def test_interval_compilation_spreads_gates(self, setup):
        circuit = Circuit("t", 3).add("X", 0).add("Y", 0)
        setup.machine.load(setup.compile_circuit(circuit, interval_cycles=16))
        _, log = recorded_shot(setup.machine)
        starts = [op.start_ns for op in log if op.name in ("X", "Y")]
        assert starts[1] - starts[0] == pytest.approx(320.0)

    def test_assemble_text_round(self, setup):
        assembled = setup.assemble_text("SMIS S2, {2}\nX S2\nMEASZ S2\nSTOP")
        traces = setup.run(assembled, shots=3)
        assert all(trace.last_result(2) == 1 for trace in traces)


class TestRBFit:
    def test_fit_recovers_synthetic_decay(self):
        rng = np.random.default_rng(0)
        decay = 0.98
        lengths = [2, 5, 10, 20, 50, 100, 200]
        survivals = [0.5 + 0.5 * decay ** k + rng.normal(0, 0.002)
                     for k in lengths]
        fit = fit_rb_decay(lengths, survivals)
        assert fit.decay == pytest.approx(decay, abs=0.005)

    def test_derived_error_rates(self):
        fit = fit_rb_decay([1, 10, 100, 500],
                           [0.5 + 0.5 * 0.99 ** k
                            for k in (1, 10, 100, 500)])
        # f = 0.99 -> error per Clifford = 0.005.
        assert fit.error_per_clifford == pytest.approx(0.005, abs=5e-4)
        assert fit.error_per_gate == pytest.approx(
            1 - (1 - 0.005) ** (1 / 1.875), rel=0.1)

    def test_fit_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_rb_decay([1, 2], [0.9, 0.8])

    def test_fit_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_rb_decay([1, 2, 3], [0.9, 0.8])

    def test_survival_model_evaluation(self):
        fit = fit_rb_decay([1, 10, 100], [0.99, 0.95, 0.65])
        assert 0.0 <= fit.survival(50) <= 1.0

    def test_exact_model_data_fits_without_warning(self):
        # Exact data leaves zero residuals; the fit must still recover
        # the parameters and raise no warning (no covariance estimate).
        lengths = [1, 2, 4, 8, 16, 32, 64, 128]
        survivals = [0.45 * 0.98 ** k + 0.5 for k in lengths]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_rb_decay(lengths, survivals)
        assert fit.amplitude == pytest.approx(0.45, abs=1e-6)
        assert fit.decay == pytest.approx(0.98, abs=1e-6)
        assert fit.offset == pytest.approx(0.5, abs=1e-6)


class TestReadoutCorrection:
    def test_perfect_readout_identity(self):
        readout = ReadoutErrorModel(p01=0.0, p10=0.0)
        assert correct_population_for_readout(0.3, readout) == \
            pytest.approx(0.3)

    def test_correction_undoes_symmetric_error(self):
        readout = ReadoutErrorModel(p01=0.1, p10=0.1)
        true_p1 = 0.7
        measured = true_p1 * 0.9 + (1 - true_p1) * 0.1
        corrected = correct_population_for_readout(measured, readout)
        assert corrected == pytest.approx(true_p1, abs=1e-9)

    def test_clipping(self):
        readout = ReadoutErrorModel(p01=0.1, p10=0.1)
        assert correct_population_for_readout(0.0, readout) == 0.0
        assert correct_population_for_readout(1.0, readout) == 1.0


class TestHelpers:
    def test_staircase_rms(self):
        assert staircase_rms_error([0.0, 1.0], [0.0, 1.0]) == 0.0
        assert staircase_rms_error([0.5, 0.5], [0.0, 1.0]) == \
            pytest.approx(0.5)

    def test_staircase_rms_length_mismatch(self):
        with pytest.raises(ValueError):
            staircase_rms_error([0.1], [0.1, 0.2])

    def test_logspaced_lengths(self):
        lengths = logspaced_lengths(2000, 8, minimum=2)
        assert lengths[0] >= 2
        assert lengths[-1] == 2000
        assert lengths == sorted(set(lengths))

    def test_logspaced_needs_two(self):
        with pytest.raises(ValueError):
            logspaced_lengths(100, 1)
