"""Fig. 4 / Section 5: active qubit reset via fast conditional execution.

Runs the exact Fig. 4 program.  Paper: P(|0>) = 82.7 % after the
conditional C_X, limited by the readout fidelity.
"""

import pytest

from repro.experiments.reset import run_active_reset_experiment
from repro.quantum import NoiseModel

SHOTS = 3000


def test_active_reset():
    result = run_active_reset_experiment(shots=SHOTS, seed=5)
    assert result.matches_paper()      # 82.7 % +- 4 points
    # The C_X fires on roughly half the shots (X90 preparation).
    assert result.conditional_executed_fraction == pytest.approx(
        0.5, abs=0.05)


def test_active_reset_is_readout_limited():
    """Ablation: with perfect readout the same program resets exactly."""
    result = run_active_reset_experiment(
        shots=400, seed=9, noise=NoiseModel.noiseless())
    assert result.ground_probability == 1.0
