"""Reduced-size experiment checks that no full-size paper test makes.

The paper's figures are asserted at full size in ``tests/paper/`` (see
its README for the claims table); the checks here cover what those
leave out: Grover tomography on a noiseless plant, the width-vs-
parallelism ordering of Fig. 7 and the QuMIS/eQASM issue-rate bounds
on the IM and RB loads.
"""

import pytest

from repro.experiments.dse import (
    build_benchmarks,
    issue_rate_analysis,
    run_dse,
)
from repro.experiments.grover import run_grover_tomography
from repro.experiments.runner import ExperimentSetup
from repro.quantum import NoiseModel


@pytest.fixture(scope="module")
def small_benchmarks():
    return build_benchmarks(rb_cliffords=64)


class TestGrover:
    def test_noiseless_fidelity_is_high(self):
        setup = ExperimentSetup.create(noise=NoiseModel.noiseless(),
                                       seed=2)
        # 120 shots passed on about half of all seeds (mean fidelity
        # 0.969); at 1000 the 0.97 bound holds with margin.
        fidelity = run_grover_tomography(1, setup, shots=1000)
        assert fidelity > 0.97


class TestDSE:
    def test_parallel_benchmarks_benefit_more_from_width(
            self, small_benchmarks):
        table = run_dse(small_benchmarks)
        rb = table.reduction_vs_baseline("RB", 1, 4)
        sr = table.reduction_vs_baseline("SR", 1, 4)
        assert rb > sr

    def test_issue_rate_quimis_vs_eqasm(self, small_benchmarks):
        report = issue_rate_analysis(small_benchmarks)
        # QuMIS cannot sustain the parallel benchmarks (Rreq ~3.7x the
        # budget); eQASM config 9 lands near budget for the dense
        # parallel loads and well within it for the sequential one —
        # the alleviation (not elimination) the paper claims.
        assert report.quimis["RB"] > 1.5
        assert report.quimis["IM"] > 1.5
        assert report.eqasm["SR"] < 1.0
        assert report.eqasm["RB"] < 1.5
        for name in ("RB", "IM", "SR"):
            assert report.eqasm[name] < report.quimis[name]
