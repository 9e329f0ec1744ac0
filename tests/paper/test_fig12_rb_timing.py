"""Fig. 12: single-qubit RB error per gate vs gate interval.

Paper: error per gate falls from 0.71 % at a 320 ns interval to 0.10 %
at 20 ns — a factor ~7 — demonstrating why eQASM exposes timing at the
architecture level.  The reproduction compiles every RB sequence at the
requested interval, executes the binary on the microarchitecture, and
fits the exponential survival decay.
"""

import pytest

from repro.experiments.rb_timing import (
    PAPER_ERROR_PER_GATE,
    run_rb_timing_experiment,
)


def test_fig12_rb_error_vs_interval():
    result = run_rb_timing_experiment(max_length=1000, num_lengths=7,
                                      num_sequences=2, seed=11)
    errors = result.error_by_interval()
    # Monotone in the interval.
    ordered = sorted(errors)
    values = [errors[i] for i in ordered]
    assert all(a <= b * 1.15 for a, b in zip(values, values[1:]))
    # Each point within a loose band of the paper's measurement.
    for interval, paper_value in PAPER_ERROR_PER_GATE.items():
        assert errors[interval] == pytest.approx(paper_value,
                                                 rel=0.35, abs=4e-4), \
            f"interval {interval} ns"
    # The headline factor ~7.
    assert result.improvement_factor() == pytest.approx(7.0, rel=0.3)
