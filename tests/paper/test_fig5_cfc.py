"""Fig. 5 / Section 5: CFC verification with mock measurement results.

The paper programs the UHFQC to fabricate alternating results for the
Fig. 5 program and verifies on a scope that the conditioned operation
alternates X, Y, X, Y ...  The reproduction injects the same mock
stream into the measurement unit and checks the plant saw the exact
alternation.
"""

from repro.experiments.cfc import run_cfc_verification

ROUNDS = 32


def test_cfc_mock_alternation():
    result = run_cfc_verification(rounds=ROUNDS, seed=3)
    assert len(result.applied_operations) == ROUNDS
    assert result.alternates
    assert result.applied_operations == ["X", "Y"] * (ROUNDS // 2)
