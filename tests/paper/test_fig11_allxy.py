"""Fig. 11: the two-qubit AllXY staircase.

Runs the 42 interleaved gate-pair combinations on the simulated
two-qubit setup (full stack: OpenQL-like compile -> assemble -> QuMA v2
-> noisy plant), corrects for readout errors, and compares each point
against the ideal staircase (the red line of Fig. 11).
"""

from repro.experiments.allxy import run_allxy_experiment

SHOTS = 150


def test_fig11_two_qubit_allxy():
    result = run_allxy_experiment(shots=SHOTS, seed=7)
    # "Matches well with the expectation": small RMS deviation and all
    # three plateaus present on both qubits.
    assert result.rms_error_a() < 0.08
    assert result.rms_error_b() < 0.08
    for series in (result.measured_a, result.measured_b):
        assert min(series) < 0.15          # the 0.0 plateau
        assert max(series) > 0.85          # the 1.0 plateau
        mid = [v for v in series if 0.3 < v < 0.7]
        assert len(mid) >= 10              # the 0.5 plateau
    # Qubit A doubles each plateau; qubit B repeats the staircase:
    # its first half equals its second half (within noise).
    first_half = result.measured_b[:21]
    second_half = result.measured_b[21:]
    worst = max(abs(a - b) for a, b in zip(first_half, second_half))
    assert worst < 0.25
