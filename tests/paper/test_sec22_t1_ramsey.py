"""Section 2.2: the T1 experiment requirement.

Not a numbered paper figure, but the requirement that shaped the ISA:
"some experiments such as measuring the relaxation time of qubits (T1
experiment)" must be expressible.  The swept-QWAIT T1 and Ramsey
programs run through the full stack, and the fitted constants must
recover what the plant was configured with — closing the calibration
loop end to end.
"""

import pytest

from repro.experiments.coherence import (
    run_ramsey_experiment,
    run_t1_experiment,
)


def test_t1_experiment():
    result = run_t1_experiment(max_wait_cycles=8192, points=9)
    assert result.fitted_constant_ns == pytest.approx(
        result.configured_constant_ns, rel=0.05)


def test_ramsey_experiment():
    result = run_ramsey_experiment(max_wait_cycles=4096, points=9)
    assert result.fitted_constant_ns == pytest.approx(
        result.configured_constant_ns, rel=0.15)
