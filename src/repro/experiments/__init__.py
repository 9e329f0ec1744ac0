"""Experiment runners reproducing every table and figure of the paper."""

from repro.experiments.allxy import AllXYResult, run_allxy_experiment
from repro.experiments.analysis import (
    RBFit,
    correct_population_for_readout,
    fit_rb_decay,
    logspaced_lengths,
    staircase_rms_error,
)
from repro.experiments.cfc import (
    CFCVerificationResult,
    LatencyResult,
    measure_feedback_latencies,
    run_cfc_verification,
)
from repro.experiments.coherence import (
    CoherenceResult,
    run_ramsey_experiment,
    run_t1_experiment,
)
from repro.experiments.dse import (
    DSEBenchmarks,
    DSETable,
    IssueRateReport,
    build_benchmarks,
    config9_effective_ops,
    issue_rate_analysis,
    run_dse,
)
from repro.experiments.grover import GroverResult, run_grover_experiment
from repro.experiments.rabi import RabiResult, run_rabi_experiment
from repro.experiments.rb_timing import (
    RBCurve,
    RBTimingResult,
    run_rb_timing_experiment,
)
from repro.experiments.reset import ResetResult, run_active_reset_experiment
from repro.experiments.surface_code import (
    SurfaceCodeResult,
    run_looped_surface_code_experiment,
    run_rotated_surface_experiment,
)
from repro.experiments.runner import ExperimentSetup

__all__ = [
    "AllXYResult",
    "CFCVerificationResult",
    "CoherenceResult",
    "DSEBenchmarks",
    "DSETable",
    "ExperimentSetup",
    "GroverResult",
    "IssueRateReport",
    "LatencyResult",
    "RBCurve",
    "RBFit",
    "RBTimingResult",
    "RabiResult",
    "ResetResult",
    "build_benchmarks",
    "config9_effective_ops",
    "correct_population_for_readout",
    "fit_rb_decay",
    "issue_rate_analysis",
    "logspaced_lengths",
    "measure_feedback_latencies",
    "run_active_reset_experiment",
    "run_allxy_experiment",
    "run_cfc_verification",
    "run_dse",
    "run_grover_experiment",
    "run_rabi_experiment",
    "run_ramsey_experiment",
    "run_rb_timing_experiment",
    "run_looped_surface_code_experiment",
    "run_rotated_surface_experiment",
    "run_t1_experiment",
    "SurfaceCodeResult",
    "staircase_rms_error",
]
