"""Sections 1.2 / 4.3: the quantum-operation issue-rate problem.

Two views:

* **static** — Rreq/Rallowed for the three benchmarks under the QuMIS
  encoding vs eQASM Config 9 (w = 2): the density mechanisms cut the
  required issue rate by ~3x;
* **dynamic** — the same dense gate stream executed on the machine:
  QuMIS-style code (one op per instruction + explicit waits) makes the
  timing controller slip, eQASM's SOMQ encoding runs on time.  Also
  ablates the timing-queue depth (queue-based timing control is what
  lets the reserve phase run ahead at all).
"""

import numpy as np

from repro.core import Assembler, seven_qubit_instantiation
from repro.experiments.dse import build_benchmarks, issue_rate_analysis
from repro.quantum import NoiseModel, QuantumPlant
from repro.uarch import QuMAv2, UarchConfig, slip_config


def test_static_issue_rate():
    report = issue_rate_analysis(build_benchmarks(rb_cliffords=512))
    for name in ("RB", "IM", "SR"):
        assert report.eqasm[name] < report.quimis[name]
    # The paper observed QuMIS failing even at 2 qubits; at 7 the
    # required rate is several times the budget.
    assert report.quimis["RB"] > 2.0
    assert report.eqasm["SR"] < 1.0


def _machine(config):
    isa = seven_qubit_instantiation()
    plant = QuantumPlant(isa.topology, noise=NoiseModel.noiseless(),
                         rng=np.random.default_rng(0))
    return isa, QuMAv2(isa, plant, config=config)


QUMIS_STYLE = "\n".join(
    ["SMIS S0, {0}", "SMIS S1, {1}", "SMIS S2, {2}", "SMIS S3, {3}"]
    + ["X S0", "0, Y S1", "0, X S2", "0, Y S3",
       "1, Y S0", "0, X S1", "0, Y S2", "0, X S3"] * 6
    + ["STOP"])

SOMQ_STYLE = "\n".join(
    ["SMIS S7, {0, 1, 2, 3}"]
    + ["X S7", "Y S7"] * 6
    + ["STOP"])


def test_dynamic_slip_quimis_vs_somq():
    isa, machine = _machine(slip_config())
    assembler = Assembler(isa)
    machine.load(assembler.assemble_text(QUMIS_STYLE))
    quimis_trace = machine.run_shot()
    machine.load(assembler.assemble_text(SOMQ_STYLE))
    somq_trace = machine.run_shot()
    assert quimis_trace.max_slip_ns() > 0
    assert somq_trace.slips == []


def test_timing_queue_depth_ablation():
    """A deep timing queue lets the reserve phase run ahead through
    bursty regions; depth 1 serialises reserve and trigger."""

    bursty = "\n".join(
        ["SMIS S7, {0, 1, 2, 3}", "SMIS S0, {0}", "SMIS S1, {1}",
         "SMIS S2, {2}", "SMIS S3, {3}",
         # A slack region (wait) followed by a dense burst.
         "QWAIT 40"]
        + ["X S0", "0, X S1", "0, X S2", "0, X S3"] * 3
        + ["STOP"])

    results = {}
    for depth in (1, 4, 1024):
        isa, machine = _machine(slip_config(UarchConfig(
            timing_queue_depth=depth, late_policy="slip")))
        machine.load(Assembler(isa).assemble_text(bursty))
        trace = machine.run_shot()
        results[depth] = trace.max_slip_ns()
    # Deeper queues never hurt; the deep queue absorbs the burst best.
    assert results[1024] <= results[4] <= results[1]
