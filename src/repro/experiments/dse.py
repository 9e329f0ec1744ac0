"""Design-space exploration driver (Fig. 7 and the Section 4.2 numbers).

Builds the three benchmark schedules (RB, IM, SR), sweeps the ten
configurations x VLIW widths, and derives every quantity the paper
quotes: instruction counts, reductions vs the Config-1/w=1 baseline,
reductions between configurations, effective operations per bundle
(Config 9), and the QuMIS baseline / issue-rate analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.compiler.configs import (
    DSE_CONFIGS,
    effective_ops_per_bundle,
    sweep,
)
from repro.compiler.quimis import QuMISGenerator, required_issue_rate
from repro.compiler.scheduler import Schedule, schedule_asap
from repro.core.operations import OperationSet, default_operation_set
from repro.workloads.grover_sqrt import grover_sqrt_circuit
from repro.workloads.ising import ising_circuit
from repro.workloads.rb import rb_dse_circuit

#: Paper claims used as shape checks by ``tests/paper`` (Section 4.2).
PAPER_CLAIMS = {
    "rb_w4_reduction_vs_baseline": 0.62,      # "up to 62 % (RB)"
    "config9_w2_eff_ops": {"RB": 1.795, "IM": 1.485, "SR": 1.118},
    "config9_w3_eff_ops": {"RB": 2.296, "IM": 1.622, "SR": 1.147},
    "config9_w4_eff_ops": {"RB": 3.144, "IM": 1.623, "SR": 1.147},
}


@dataclass
class DSEBenchmarks:
    """The three scheduled workloads of Fig. 7."""

    rb: Schedule
    im: Schedule
    sr: Schedule

    def named(self) -> dict[str, Schedule]:
        return {"RB": self.rb, "IM": self.im, "SR": self.sr}


@lru_cache(maxsize=4)
def _cached_benchmarks(rb_cliffords: int, seed: int) -> DSEBenchmarks:
    operations = default_operation_set()
    rb = schedule_asap(rb_dse_circuit(num_qubits=7,
                                      cliffords_per_qubit=rb_cliffords,
                                      seed=seed),
                       operations, name="RB")
    im = schedule_asap(ising_circuit(), operations, name="IM")
    sr = schedule_asap(grover_sqrt_circuit(), operations, name="SR")
    return DSEBenchmarks(rb=rb, im=im, sr=sr)


def build_benchmarks(rb_cliffords: int = 4096,
                     seed: int = 2019) -> DSEBenchmarks:
    """Schedule the three benchmarks (RB size parameterisable: the
    paper uses 4096 Cliffords/qubit; tests use fewer for speed)."""
    return _cached_benchmarks(rb_cliffords, seed)


@dataclass
class DSETable:
    """Fig. 7 as data: counts[benchmark][(config, width)]."""

    counts: dict[str, dict[tuple[int, int], int]] = field(
        default_factory=dict)

    def baseline(self, benchmark: str) -> int:
        """Config 1, w = 1 — the QuMIS-fashion baseline."""
        return self.counts[benchmark][(1, 1)]

    def reduction_vs_baseline(self, benchmark: str, config: int,
                              width: int) -> float:
        """1 - count/baseline: the per-bar reduction of Fig. 7."""
        return 1.0 - (self.counts[benchmark][(config, width)] /
                      self.baseline(benchmark))

    def reduction_between(self, benchmark: str,
                          config_a: int, width_a: int,
                          config_b: int, width_b: int) -> float:
        """Reduction of config_b relative to config_a."""
        a = self.counts[benchmark][(config_a, width_a)]
        b = self.counts[benchmark][(config_b, width_b)]
        return 1.0 - b / a


def run_dse(benchmarks: DSEBenchmarks | None = None,
            max_width: int = 4) -> DSETable:
    """The full Fig. 7 sweep over all benchmarks."""
    benchmarks = benchmarks or build_benchmarks()
    table = DSETable()
    for name, schedule in benchmarks.named().items():
        table.counts[name] = sweep(schedule, max_width=max_width)
    return table


def config9_effective_ops(benchmarks: DSEBenchmarks | None = None
                          ) -> dict[str, dict[int, float]]:
    """Effective quantum operations per bundle, Config 9, w = 2..4."""
    benchmarks = benchmarks or build_benchmarks()
    out: dict[str, dict[int, float]] = {}
    for name, schedule in benchmarks.named().items():
        out[name] = {width: effective_ops_per_bundle(schedule, 9, width)
                     for width in (2, 3, 4)}
    return out


@dataclass
class IssueRateReport:
    """Rreq/Rallowed per benchmark for QuMIS vs the chosen eQASM."""

    quimis: dict[str, float]
    eqasm: dict[str, float]


def issue_rate_analysis(benchmarks: DSEBenchmarks | None = None,
                        operations: OperationSet | None = None
                        ) -> IssueRateReport:
    """The Section 1.2 issue-rate problem, quantified.

    For each benchmark: the ratio of required to available instruction
    issue rate under the QuMIS encoding (Config 1 w=1 with per-qubit
    instructions) and under the paper's eQASM configuration (Config 9,
    w=2).  Ratios above 1.0 mean the encoding cannot sustain the
    timeline.
    """
    from repro.compiler.configs import count_for_config
    benchmarks = benchmarks or build_benchmarks()
    operations = operations or default_operation_set()
    generator = QuMISGenerator(operations)
    quimis: dict[str, float] = {}
    eqasm: dict[str, float] = {}
    for name, schedule in benchmarks.named().items():
        quimis[name] = required_issue_rate(
            schedule, operations, generator.count_instructions(schedule))
        eqasm[name] = required_issue_rate(
            schedule, operations, count_for_config(schedule, 9, 2))
    return IssueRateReport(quimis=quimis, eqasm=eqasm)


def format_dse_table(table: DSETable) -> str:
    """Render Fig. 7 as a text table (example output)."""
    lines = []
    for benchmark, counts in table.counts.items():
        lines.append(f"--- {benchmark} ---")
        lines.append("config  " + "".join(f"  w={w:<8d}" for w in
                                          range(1, 5)))
        for number in sorted(DSE_CONFIGS):
            cells = []
            for width in range(1, 5):
                value = counts.get((number, width))
                cells.append(f"  {value:<9d}" if value is not None
                             else "  -        ")
            lines.append(f"{number:6d}" + "".join(cells))
        baseline = table.baseline(benchmark)
        lines.append(f"baseline (config 1, w=1): {baseline}")
    return "\n".join(lines)
