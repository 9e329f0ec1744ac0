"""Section 5: Rabi-oscillation calibration + single-qubit RB fidelity.

Paper: the Rabi sweep over uncalibrated ``X_Amp_i`` operations
calibrates the X-pulse amplitude; subsequent RB measured a single-qubit
gate fidelity of 99.90 % (error per gate 0.10 % at the 20 ns interval).
"""

import pytest

from repro.experiments.rabi import run_rabi_experiment
from repro.experiments.rb_timing import run_rb_timing_experiment


def test_rabi_oscillation():
    result = run_rabi_experiment(num_steps=21, shots=150, seed=13)
    # The sweep calibrates the pi pulse at the midpoint of the 2*pi
    # amplitude ramp (within one step of sampling noise).
    assert abs(result.pi_pulse_step - 10) <= 1
    # The oscillation tracks sin^2(theta/2).
    assert result.max_deviation() < 0.12


def test_single_qubit_fidelity_9990():
    """The paper's headline calibration outcome: F = 99.90 %."""
    result = run_rb_timing_experiment(
        intervals_ns=(20,), max_length=1000, num_lengths=7,
        num_sequences=2, seed=4)
    error = result.error_by_interval()[20]
    fidelity = 1.0 - error
    assert fidelity == pytest.approx(0.9990, abs=5e-4)
