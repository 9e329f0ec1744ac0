"""The square-root DSE benchmark (Section 4.2).

The paper selects from ScaffCC "a relatively sequential algorithm
(Grover's algorithm to calculate the square root using 8 qubits, which
is the minimum number of qubits required, SR), which has ~39 %
two-qubit gates".

The ScaffCC square-root benchmark is Grover search over an n-bit
register where the oracle computes ``x * x == N`` into an ancilla;
after decomposition to the {1q, CNOT} gate set the circuit is dominated
by Toffoli ladders — long sequential CNOT/T chains with the quoted
two-qubit-gate fraction (a decomposed Toffoli is 6 CNOTs out of 15
gates = 40 %).

This generator builds that structure for 8 qubits (4 data + 3 work +
1 oracle ancilla): Grover iterations of [oracle: multiply-compare
Toffoli cascade] + [diffusion: H layer + multi-controlled Z].  Tests
assert the ~39 % two-qubit fraction and the low parallelism the paper
relies on.
"""

from __future__ import annotations

from repro.compiler.ir import Circuit


def toffoli(circuit: Circuit, control_a: int, control_b: int,
            target: int) -> None:
    """Standard 6-CNOT Toffoli decomposition (15 gates, 40 % 2q)."""
    circuit.add("H", target)
    circuit.add("CNOT", control_b, target)
    circuit.add("TDG", target)
    circuit.add("CNOT", control_a, target)
    circuit.add("T", target)
    circuit.add("CNOT", control_b, target)
    circuit.add("TDG", target)
    circuit.add("CNOT", control_a, target)
    circuit.add("T", control_b)
    circuit.add("T", target)
    circuit.add("H", target)
    circuit.add("CNOT", control_a, control_b)
    circuit.add("T", control_a)
    circuit.add("TDG", control_b)
    circuit.add("CNOT", control_a, control_b)


def multi_controlled_z(circuit: Circuit, controls: list[int],
                       target: int, work: list[int]) -> None:
    """Multi-controlled Z via a Toffoli ladder into work qubits."""
    if len(controls) == 1:
        circuit.add("H", target)
        circuit.add("CNOT", controls[0], target)
        circuit.add("H", target)
        return
    if len(controls) == 2:
        circuit.add("H", target)
        toffoli(circuit, controls[0], controls[1], target)
        circuit.add("H", target)
        return
    if len(work) < len(controls) - 2:
        raise ValueError("not enough work qubits for the ladder")
    # Compute the AND chain into work qubits.
    toffoli(circuit, controls[0], controls[1], work[0])
    for i in range(2, len(controls) - 1):
        toffoli(circuit, controls[i], work[i - 2], work[i - 1])
    # Controlled-Z from the last control and the chain head.
    circuit.add("H", target)
    toffoli(circuit, controls[-1], work[len(controls) - 3], target)
    circuit.add("H", target)
    # Uncompute the chain.
    for i in range(len(controls) - 2, 1, -1):
        toffoli(circuit, controls[i], work[i - 2], work[i - 1])
    toffoli(circuit, controls[0], controls[1], work[0])


def oracle_square_compare(circuit: Circuit, data: list[int],
                          work: list[int], ancilla: int,
                          target_value: int) -> None:
    """Oracle marking |x> with x*x == target (schematic decomposition).

    The ScaffCC oracle computes the square with ripple multipliers; the
    dominant cost is the Toffoli cascade per partial product.  We model
    one cascade per data-bit pair plus the comparison, which matches the
    real benchmark's structure (sequential Toffoli chains) and keeps the
    gate mix at the quoted fraction.
    """
    n = len(data)
    # Partial products: Toffoli per (i, j) pair into work qubits.
    for i in range(n):
        for j in range(i + 1, n):
            toffoli(circuit, data[i], data[j], work[(i + j) % len(work)])
    # Comparison with the constant: X gates select the matching pattern,
    # then a multi-controlled Z onto the ancilla.
    for i, bit in enumerate(reversed(range(n))):
        if not (target_value >> i) & 1:
            circuit.add("X", data[bit])
    multi_controlled_z(circuit, data[:-1], ancilla, work)
    for i, bit in enumerate(reversed(range(n))):
        if not (target_value >> i) & 1:
            circuit.add("X", data[bit])
    # Uncompute partial products.
    for i in reversed(range(n)):
        for j in reversed(range(i + 1, n)):
            toffoli(circuit, data[i], data[j], work[(i + j) % len(work)])


def diffusion(circuit: Circuit, data: list[int], work: list[int]) -> None:
    """Grover diffusion on the data register."""
    for qubit in data:
        circuit.add("H", qubit)
    for qubit in data:
        circuit.add("X", qubit)
    multi_controlled_z(circuit, data[:-1], data[-1], work)
    for qubit in data:
        circuit.add("X", qubit)
    for qubit in data:
        circuit.add("H", qubit)


def grover_sqrt_circuit(iterations: int = 3, target_value: int = 9,
                        include_measurement: bool = True) -> Circuit:
    """The 8-qubit SR benchmark circuit.

    4 data qubits, 3 work qubits, 1 oracle ancilla = 8 qubits (the
    paper's "minimum number of qubits required").
    """
    circuit = Circuit(name="grover-sqrt", num_qubits=8)
    data = [0, 1, 2, 3]
    work = [4, 5, 6]
    ancilla = 7
    for qubit in data:
        circuit.add("H", qubit)
    for _ in range(iterations):
        oracle_square_compare(circuit, data, work, ancilla, target_value)
        diffusion(circuit, data, work)
    if include_measurement:
        for qubit in data:
            circuit.add("MEASZ", qubit)
    return circuit
