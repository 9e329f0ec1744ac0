"""Section 5: feedback latencies of the two mechanisms.

Paper: "~92 ns and ~316 ns" from result-into-controller to digital
output, for fast conditional execution and CFC respectively.  The
reproduction scans probe programs for the shortest correct schedule on
the simulated microarchitecture and reports the minimal latencies.
"""

from repro.experiments.cfc import measure_feedback_latencies


def test_feedback_latencies():
    result = measure_feedback_latencies()
    assert result.fast_conditional_matches()   # ~92 ns +- 25 ns
    assert result.cfc_matches()                # ~316 ns +- 60 ns
    # The architectural trade-off: CFC's flexibility costs ~3.4x.
    ratio = result.cfc_ns / result.fast_conditional_ns
    assert 2.5 < ratio < 4.5
