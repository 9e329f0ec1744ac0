"""Tests for the experiment report formatters and paper-match helpers."""

import pytest

from repro.experiments.allxy import AllXYResult, format_allxy_table
from repro.experiments.cfc import LatencyResult, format_latency_report
from repro.experiments.dse import DSETable, format_dse_table
from repro.experiments.grover import GroverResult, format_grover_report
from repro.experiments.rb_timing import (
    RBCurve,
    RBTimingResult,
    format_rb_table,
)
from repro.experiments.analysis import RBFit
from repro.experiments.reset import ResetResult, format_reset_report
from repro.experiments.surface_code import (
    SurfaceCodeResult,
    format_surface_code_report,
)
from repro.workloads.surface_code import expected_rotated_z_syndrome


class TestFormatters:
    def test_reset_report(self):
        result = ResetResult(shots=100, ground_probability=0.83,
                             conditional_executed_fraction=0.5,
                             readout_fidelity=0.905)
        report = format_reset_report(result)
        assert "83.0%" in report
        assert "82.7%" in report  # the paper reference
        assert result.matches_paper()

    def test_reset_matches_paper_tolerance(self):
        off = ResetResult(shots=10, ground_probability=0.70,
                          conditional_executed_fraction=0.5,
                          readout_fidelity=0.9)
        assert not off.matches_paper()

    def test_latency_report(self):
        result = LatencyResult(fast_conditional_ns=92.0, cfc_ns=312.0)
        report = format_latency_report(result)
        assert "92 ns" in report
        assert "312 ns" in report
        assert result.fast_conditional_matches()
        assert result.cfc_matches()

    def test_latency_mismatch_detection(self):
        result = LatencyResult(fast_conditional_ns=250.0, cfc_ns=900.0)
        assert not result.fast_conditional_matches()
        assert not result.cfc_matches()

    def test_grover_report(self):
        result = GroverResult(fidelities={0: 0.86, 1: 0.85, 2: 0.87,
                                          3: 0.84})
        report = format_grover_report(result)
        assert "85.5%" in report  # the average
        assert result.matches_paper()

    def test_rb_table(self):
        fit = RBFit(amplitude=0.5, decay=0.996, offset=0.5)
        curve = RBCurve(interval_ns=20, lengths=[1, 10],
                        survivals=[0.99, 0.95], fit=fit)
        result = RBTimingResult(curves=[curve])
        table = format_rb_table(result)
        assert "20 ns" in table
        assert "0.10%" in table  # paper eps at 20 ns

    def test_allxy_table(self):
        result = AllXYResult(steps=[0, 1],
                             measured_a=[0.01, 0.02],
                             measured_b=[0.0, 0.05],
                             expected_a=[0.0, 0.0],
                             expected_b=[0.0, 0.0])
        table = format_allxy_table(result)
        assert "RMS error" in table

    def test_dse_table_renders_all_configs(self):
        table = DSETable(counts={"RB": {(n, w): 100
                                        for n in range(1, 11)
                                        for w in range(1, 5)}})
        rendered = format_dse_table(table)
        assert "--- RB ---" in rendered
        assert "baseline (config 1, w=1): 100" in rendered

    def test_dse_reductions(self):
        table = DSETable(counts={"X": {(1, 1): 200, (9, 2): 50}})
        assert table.baseline("X") == 200
        assert table.reduction_vs_baseline("X", 9, 2) == pytest.approx(
            0.75)
        assert table.reduction_between("X", 1, 1, 9, 2) == pytest.approx(
            0.75)

    def test_surface_code_report_names_the_distance(self):
        """A distance-3 result is reported as one, not as the paper's
        distance-2 patch."""
        quiet = expected_rotated_z_syndrome(3, None)
        fired = expected_rotated_z_syndrome(3, ("X", 4))
        clean = SurfaceCodeResult(distance=3, rounds=2,
                                  syndromes_per_shot=[[quiet, quiet]] * 4)
        faulty = SurfaceCodeResult(distance=3, rounds=2,
                                   syndromes_per_shot=[[quiet, fired]] * 4)
        report = format_surface_code_report(clean, faulty, ("X", 4))
        assert report.startswith("distance-3 surface code")
        assert "distance-2" not in report
        assert "with X on q4 100.0%" in report
