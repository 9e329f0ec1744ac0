"""Quantum chip topology: available qubits and allowed qubit pairs.

Section 3.3 of the paper defines the *quantum chip topology* as a directed
graph: each vertex is an available qubit (identified by its physical
address) and each directed edge is an *allowed qubit pair* — an ordered
pair of qubits on which a physical two-qubit gate can be applied directly.
Each edge also carries its own address, used by the two-qubit target
register masks (``SMIT``).

The topology is consumed by three parts of the stack:

* the assembler, to size the S/T register masks and validate operands;
* the microarchitecture, to resolve T-register masks into per-qubit
  micro-operation selection signals (Table 2);
* the compiler, to check that two-qubit gates are mapped onto allowed
  pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import TopologyError


@dataclass(frozen=True)
class QubitPair:
    """A directed allowed qubit pair (source, target) with its address."""

    address: int
    source: int
    target: int

    def as_tuple(self) -> tuple[int, int]:
        """Return the pair as a plain ``(source, target)`` tuple."""
        return (self.source, self.target)

    def __str__(self) -> str:
        return f"({self.source}, {self.target})"


@dataclass
class QuantumChipTopology:
    """The directed-graph description of a quantum chip.

    Parameters
    ----------
    name:
        Human-readable chip name (e.g. ``"surface-7"``).
    qubits:
        Physical addresses of available qubits.  Addresses need not be
        contiguous, but masks are sized by ``max(qubits) + 1``.
    pairs:
        Allowed qubit pairs.  Edge addresses must be unique; both
        endpoints must be available qubits.
    feedlines:
        Optional map feedline-index -> qubits measured through it
        (Fig. 6 shows two feedlines on the seven-qubit chip).
    """

    name: str
    qubits: tuple[int, ...]
    pairs: tuple[QubitPair, ...]
    feedlines: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.qubits:
            raise TopologyError("a chip needs at least one qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise TopologyError("duplicate qubit addresses")
        qubit_set = set(self.qubits)
        seen_addresses: set[int] = set()
        seen_edges: set[tuple[int, int]] = set()
        for pair in self.pairs:
            if pair.address in seen_addresses:
                raise TopologyError(f"duplicate pair address {pair.address}")
            seen_addresses.add(pair.address)
            if pair.source == pair.target:
                raise TopologyError(f"pair {pair} is a self loop")
            if pair.source not in qubit_set or pair.target not in qubit_set:
                raise TopologyError(f"pair {pair} references unknown qubit")
            if pair.as_tuple() in seen_edges:
                raise TopologyError(f"duplicate directed edge {pair}")
            seen_edges.add(pair.as_tuple())
        for feedline, measured in self.feedlines.items():
            for qubit in measured:
                if qubit not in qubit_set:
                    raise TopologyError(
                        f"feedline {feedline} measures unknown qubit {qubit}")

    # ------------------------------------------------------------------
    # Sizing helpers used by the ISA instantiation
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of available qubits."""
        return len(self.qubits)

    @property
    def num_pairs(self) -> int:
        """Number of allowed (directed) qubit pairs."""
        return len(self.pairs)

    @property
    def qubit_mask_width(self) -> int:
        """Bit width of a single-qubit target mask (one bit per address)."""
        return max(self.qubits) + 1

    @property
    def pair_mask_width(self) -> int:
        """Bit width of a two-qubit target mask (one bit per edge address)."""
        if not self.pairs:
            return 0
        return max(pair.address for pair in self.pairs) + 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def pair_by_address(self, address: int) -> QubitPair:
        """Return the allowed pair with the given edge address."""
        for pair in self.pairs:
            if pair.address == address:
                return pair
        raise TopologyError(f"no allowed pair with address {address}")

    def pair_address(self, source: int, target: int) -> int:
        """Return the edge address for a directed (source, target) pair."""
        for pair in self.pairs:
            if pair.source == source and pair.target == target:
                return pair.address
        raise TopologyError(f"({source}, {target}) is not an allowed pair")

    def is_allowed_pair(self, source: int, target: int) -> bool:
        """Whether a directed two-qubit gate (source, target) is legal."""
        return any(p.source == source and p.target == target
                   for p in self.pairs)

    def edges_touching(self, qubit: int) -> tuple[QubitPair, ...]:
        """All allowed pairs that contain ``qubit`` as source or target."""
        return tuple(p for p in self.pairs
                     if p.source == qubit or p.target == qubit)

    def neighbours(self, qubit: int) -> tuple[int, ...]:
        """Qubits connected to ``qubit`` by at least one allowed pair."""
        out: list[int] = []
        for pair in self.pairs:
            if pair.source == qubit and pair.target not in out:
                out.append(pair.target)
            if pair.target == qubit and pair.source not in out:
                out.append(pair.source)
        return tuple(sorted(out))

    def feedline_of(self, qubit: int) -> int | None:
        """The feedline that measures ``qubit``, or None if not assigned."""
        for feedline, measured in self.feedlines.items():
            if qubit in measured:
                return feedline
        return None

    def validate_pair_mask(self, mask: int) -> None:
        """Check a two-qubit target mask per Section 4.3.

        A mask is invalid when two selected edges share a qubit: the
        operation-combination stage would have to emit two
        micro-operations on the same qubit, which the paper defines as an
        assembler-rejected error.
        """
        selected = [p for p in self.pairs if (mask >> p.address) & 1]
        used: set[int] = set()
        for pair in selected:
            for qubit in pair.as_tuple():
                if qubit in used:
                    raise TopologyError(
                        f"mask {mask:#x} selects two edges sharing qubit "
                        f"{qubit}")
                used.add(qubit)
