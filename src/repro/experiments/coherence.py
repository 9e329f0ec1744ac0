"""T1 / Ramsey coherence experiments (the Section 2.2 requirement).

"The design of eQASM focuses on providing a comprehensive abstraction
... which can support ... some quantum experiments such as measuring
the relaxation time of qubits (T1 experiment)."  These runners execute
the hand-rolled wait-sweep programs on the machine and fit the decay,
closing the loop: the *fitted* T1/T2 should recover the constants the
plant was configured with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from repro.experiments.runner import ExperimentSetup
from repro.quantum.noise import NoiseModel
from repro.workloads.coherence import (
    ramsey_program,
    sweep_waits,
    t1_program,
)


@dataclass
class CoherenceResult:
    """A decay sweep with its fitted time constant (in ns)."""

    waits_ns: list[float]
    populations: list[float]
    fitted_constant_ns: float
    configured_constant_ns: float

    @property
    def relative_error(self) -> float:
        """|fitted - configured| / configured."""
        return abs(self.fitted_constant_ns -
                   self.configured_constant_ns) / \
            self.configured_constant_ns


def _fit_decay_constant(waits_ns: list[float], populations: list[float],
                        p0: tuple[float, float, float]) -> float:
    """Least-squares fit of ``amplitude * exp(-t / tau) + offset``;
    returns ``tau``.

    The populations are exact (read from the plant, sampling-free), so
    the residuals vanish at the optimum and a parameter covariance is
    meaningless; the fit asks only for the parameters.
    """
    t = np.array(waits_ns)
    y = np.array(populations)

    def residuals(params):
        amplitude, tau, offset = params
        return amplitude * np.exp(-t / tau) + offset - y

    fit = least_squares(residuals, p0, method="lm", max_nfev=20000)
    return float(fit.x[1])


def run_t1_experiment(max_wait_cycles: int = 4096, points: int = 10,
                      qubit: int = 2, seed: int = 19,
                      noise: NoiseModel | None = None) -> CoherenceResult:
    """Sweep the T1 wait and fit the relaxation constant."""
    setup = ExperimentSetup.create(noise=noise, seed=seed)
    decoherence = setup.machine.plant.noise.decoherence
    cycle_ns = setup.isa.cycle_time_ns
    waits = sweep_waits(max_wait_cycles, points)
    populations = []
    for wait in waits:
        # Execute the program without its final MEASZ and read the
        # excited population exactly from the plant (sampling-free,
        # like the RB runner).  The plant idles lazily, so advance it
        # explicitly to the cycle where MEASZ would have triggered.
        probe = t1_program(qubit, wait)
        probe.instructions = [ins for ins in probe.instructions
                              if not _is_measure_bundle(ins)]
        assembled = setup.assembler.assemble_program(probe)
        setup.machine.load(assembled)
        trace = setup.machine.run_shot()
        pulse_trigger = max(t.trigger_ns for t in trace.triggers)
        setup.machine.plant.idle_all_until(pulse_trigger +
                                           wait * cycle_ns)
        populations.append(setup.machine.plant.probability_one(qubit))
    waits_ns = [wait * cycle_ns for wait in waits]
    return CoherenceResult(
        waits_ns=waits_ns, populations=populations,
        fitted_constant_ns=_fit_decay_constant(
            waits_ns, populations, (1.0, decoherence.t1_ns, 0.0)),
        configured_constant_ns=decoherence.t1_ns)


def run_ramsey_experiment(max_wait_cycles: int = 2048, points: int = 10,
                          qubit: int = 2, seed: int = 23,
                          noise: NoiseModel | None = None
                          ) -> CoherenceResult:
    """Sweep the Ramsey wait and fit the dephasing constant (T2)."""
    setup = ExperimentSetup.create(noise=noise, seed=seed)
    decoherence = setup.machine.plant.noise.decoherence
    cycle_ns = setup.isa.cycle_time_ns
    waits = sweep_waits(max_wait_cycles, points)
    populations = []
    for wait in waits:
        probe = ramsey_program(qubit, wait)
        probe.instructions = [ins for ins in probe.instructions
                              if not _is_measure_bundle(ins)]
        assembled = setup.assembler.assemble_program(probe)
        setup.machine.load(assembled)
        setup.machine.run_shot()
        populations.append(setup.machine.plant.probability_one(qubit))
    waits_ns = [wait * cycle_ns for wait in waits]
    return CoherenceResult(
        waits_ns=waits_ns, populations=populations,
        fitted_constant_ns=_fit_decay_constant(
            waits_ns, populations, (0.5, decoherence.t2_ns, 0.5)),
        configured_constant_ns=decoherence.t2_ns)


def _is_measure_bundle(instruction) -> bool:
    """Whether an instruction is a bundle containing MEASZ."""
    from repro.core.instructions import Bundle
    if not isinstance(instruction, Bundle):
        return False
    return any(op.name == "MEASZ" for op in instruction.operations)


def format_coherence_report(name: str, result: CoherenceResult) -> str:
    """Render a decay sweep and its fit."""
    lines = [f"{name} sweep:"]
    for wait, population in zip(result.waits_ns, result.populations):
        lines.append(f"  t = {wait:9.0f} ns   P = {population:.4f}")
    lines.append(
        f"  fitted {name} = {result.fitted_constant_ns / 1000:.1f} us "
        f"(configured {result.configured_constant_ns / 1000:.1f} us, "
        f"error {result.relative_error * 100:.1f}%)")
    return "\n".join(lines)
