"""Chip topologies used by the paper and its evaluation.

* :func:`surface7` — the seven-qubit superconducting chip of Fig. 6
  (a distance-2 surface-code patch with 16 directed allowed pairs and
  two feedlines).
* :func:`rotated_surface_chip` — the rotated distance-3/5 surface-code
  chips (surface-17 and surface-49), one family read from
  :data:`ROTATED_SURFACE_LAYOUTS`.
* :func:`two_qubit_chip` — the two-transmon processor used for the
  Section 5 experiments (qubits renamed 0 and 2, single feedline).
* :func:`ibm_qx2` — IBM Q 5 "Yorktown": five qubits, six allowed pairs
  (the paper's mask-efficiency example in Section 3.3.2).
* :func:`fully_connected_ion_trap` — a fully connected 5-qubit trapped
  ion processor (the paper's address-pair-efficiency example).
* :func:`linear_chain` — parameterisable 1-D chain, used by workload
  generators for qubit counts the fixed chips do not cover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import InvalidRequestError
from repro.topology.chip import QuantumChipTopology, QubitPair


def _both_directions(
        couplings: list[tuple[int, int]]) -> tuple[QubitPair, ...]:
    """Directed pairs for ``n`` couplings: ``(source, target)`` at
    address ``i`` and the reverse at ``i + n``."""
    pairs = []
    for address, (source, target) in enumerate(couplings):
        pairs.append(QubitPair(address=address, source=source,
                               target=target))
        pairs.append(QubitPair(address=address + len(couplings),
                               source=target, target=source))
    return tuple(pairs)


def surface7() -> QuantumChipTopology:
    """The seven-qubit chip of Fig. 6.

    Vertices 0..6; the edge addressing follows the figure: each physical
    coupling contributes two directed pairs, with address ``i`` and
    ``i + 8`` pointing in opposite directions.  Pair 0 has source qubit 2
    and target qubit 0 (the worked example in Section 3.3.1), and the
    OpSel example of Section 4.3 requires qubit 0 to touch edges 0, 1,
    8 and 9 with 0/9 making it the target and 1/8 the source.
    """
    forward = [
        (2, 0),   # edge 0
        (0, 3),   # edge 1
        (1, 3),   # edge 2
        (1, 4),   # edge 3
        (2, 5),   # edge 4
        (3, 5),   # edge 5
        (3, 6),   # edge 6
        (4, 6),   # edge 7
    ]
    return QuantumChipTopology(
        name="surface-7",
        qubits=(0, 1, 2, 3, 4, 5, 6),
        pairs=_both_directions(forward),
        feedlines={0: (0, 2, 3, 5, 6), 1: (1, 4)},
    )


def rotated_surface_checks(
        distance: int) -> tuple[dict[int, tuple[int, ...]],
                                dict[int, tuple[int, ...]]]:
    """Stabilizers of the rotated distance-``d`` surface code.

    Data qubits are ``0 .. d*d - 1`` (row-major ``d x d`` grid); one
    ancilla per stabilizer follows, Z checks first, then X, each group
    in plaquette row-major order.  Plaquette ``(r, c)`` (corners of the
    dual lattice, ``0 <= r, c <= d``) touches the up-to-four data
    qubits around it and measures Z when ``r + c`` is even, X when odd;
    the bulk keeps every weight-4 plaquette, the boundary keeps the
    weight-2 X checks on the top/bottom rows and the weight-2 Z checks
    on the left/right columns.  At ``d = 3`` this yields the same
    stabilizers as the hand-written surface-17 address map, but numbers
    the ancillas differently (ancilla 10 measures ``(2, 5)`` here,
    ``(4, 5, 7, 8)`` there), so the distance-3 layout keeps its own map.
    """
    z_plaquettes: list[tuple[int, ...]] = []
    x_plaquettes: list[tuple[int, ...]] = []
    for row in range(distance + 1):
        for col in range(distance + 1):
            data = tuple(
                r * distance + c
                for r, c in ((row - 1, col - 1), (row - 1, col),
                             (row, col - 1), (row, col))
                if 0 <= r < distance and 0 <= c < distance)
            is_z = (row + col) % 2 == 0
            if len(data) == 4:
                (z_plaquettes if is_z else x_plaquettes).append(data)
            elif len(data) == 2:
                # Boundary: X checks terminate the top/bottom edges,
                # Z checks the left/right edges.
                if is_z and col in (0, distance):
                    z_plaquettes.append(data)
                elif not is_z and row in (0, distance):
                    x_plaquettes.append(data)
    first_z = distance * distance
    first_x = first_z + len(z_plaquettes)
    return (dict(enumerate(z_plaquettes, start=first_z)),
            dict(enumerate(x_plaquettes, start=first_x)))


@dataclass(frozen=True)
class RotatedSurfaceLayout:
    """One rotated surface-code chip: its checks, readout and format.

    Data qubits are ``0 .. d*d - 1`` (row-major); ``z_checks`` and
    ``x_checks`` map each ancilla address to the data qubits of its
    stabilizer, and ``spec_name`` names the registered encoding spec
    wide enough for the chip's pair mask.
    """

    distance: int
    z_checks: dict[int, tuple[int, ...]]
    x_checks: dict[int, tuple[int, ...]]
    feedlines: dict[int, tuple[int, ...]]
    spec_name: str

    @property
    def data_qubits(self) -> tuple[int, ...]:
        return tuple(range(self.distance * self.distance))

    @property
    def z_ancillas(self) -> tuple[int, ...]:
        """Z ancillas in measurement order."""
        return tuple(sorted(self.z_checks))

    @property
    def num_qubits(self) -> int:
        return (self.distance * self.distance + len(self.z_checks)
                + len(self.x_checks))


#: The rotated surface-code chips, by distance.
#:
#: * ``d = 3`` (surface-17) keeps its hand-written address map: Z
#:   ancillas first, bulk plaquettes before the boundary (Versluis et
#:   al., "Scalable quantum circuit and control for a superconducting
#:   surface code" — the chip the CC-Light eQASM instantiation targets
#:   next), read out over three feedlines as on the real device.  The
#:   feedlines group measurements into device operations and queues,
#:   and the numbering fixes the binary, so neither is regenerated.
#: * ``d = 5`` (surface-49) is :func:`rotated_surface_checks` output,
#:   read out over five feedlines of at most ten qubits.  Renumbering
#:   it bulk-first like ``d = 3`` adds four words to a one-round binary.
ROTATED_SURFACE_LAYOUTS = {
    3: RotatedSurfaceLayout(
        distance=3,
        z_checks={
            9: (0, 1, 3, 4),    # Z plaquette, upper-left bulk
            10: (4, 5, 7, 8),   # Z plaquette, lower-right bulk
            11: (2, 5),         # Z boundary, right edge
            12: (3, 6),         # Z boundary, left edge
        },
        x_checks={
            13: (1, 2, 4, 5),   # X plaquette, upper-right bulk
            14: (3, 4, 6, 7),   # X plaquette, lower-left bulk
            15: (0, 1),         # X boundary, top edge
            16: (7, 8),         # X boundary, bottom edge
        },
        feedlines={0: (0, 1, 2, 9, 11, 13, 15),
                   1: (3, 4, 5, 10, 12, 14),
                   2: (6, 7, 8, 16)},
        spec_name="surface17-64bit"),
    5: RotatedSurfaceLayout(
        5, *rotated_surface_checks(5),
        feedlines={line: tuple(range(10 * line, min(10 * line + 10, 49)))
                   for line in range(5)},
        spec_name="surface49-192bit"),
}


def rotated_surface_layout(distance: int) -> RotatedSurfaceLayout:
    """The layout of the distance-``d`` rotated surface-code chip."""
    try:
        return ROTATED_SURFACE_LAYOUTS[distance]
    except KeyError:
        known = ", ".join(map(str, ROTATED_SURFACE_LAYOUTS))
        raise InvalidRequestError(
            f"no rotated surface-code chip at distance {distance}; "
            f"known distances: {known}") from None


def rotated_surface_chip(distance: int) -> QuantumChipTopology:
    """The ``2d^2 - 1``-qubit rotated distance-``d`` surface-code chip.

    Each ancilla couples to its stabilizer's data qubits (24 couplings
    at ``d = 3``, 80 at ``d = 5``), each coupling addressed in both
    directions as on :func:`surface7`.  The pair mask (48 / 160 bits)
    is what needs the wider instantiations of
    :func:`repro.core.isa.rotated_surface_instantiation`.
    """
    layout = rotated_surface_layout(distance)
    couplings = [(ancilla, qubit)
                 for checks in (layout.z_checks, layout.x_checks)
                 for ancilla, data in checks.items() for qubit in data]
    return QuantumChipTopology(
        name=f"surface-{layout.num_qubits}",
        qubits=tuple(range(layout.num_qubits)),
        pairs=_both_directions(couplings),
        feedlines=dict(layout.feedlines),
    )


def two_qubit_chip() -> QuantumChipTopology:
    """The two-qubit processor used for the experiments in Section 5.

    The two interconnected qubits are renamed 0 and 2 (matching the
    programs of Figs. 3-5), coupled to a single feedline.
    """
    return QuantumChipTopology(
        name="two-qubit",
        qubits=(0, 2),
        pairs=(
            QubitPair(address=0, source=2, target=0),
            QubitPair(address=1, source=0, target=2),
        ),
        feedlines={0: (0, 2)},
    )


def ibm_qx2() -> QuantumChipTopology:
    """IBM Q 5 Yorktown: 5 qubits, 6 allowed (directed) pairs.

    Section 3.3.2 uses this chip to argue a 6-bit pair mask beats
    address-pair encoding when connectivity is limited.  CNOT directions
    follow the published backend specification.
    """
    directed = [(1, 0), (2, 0), (2, 1), (3, 2), (3, 4), (4, 2)]
    pairs = tuple(QubitPair(address=i, source=s, target=t)
                  for i, (s, t) in enumerate(directed))
    return QuantumChipTopology(name="ibm-qx2", qubits=(0, 1, 2, 3, 4),
                               pairs=pairs, feedlines={0: (0, 1, 2, 3, 4)})


def fully_connected_ion_trap(num_qubits: int = 5) -> QuantumChipTopology:
    """A fully connected trapped-ion processor (Section 3.3.2 example).

    Every ordered pair of distinct qubits is an allowed pair, giving
    ``n * (n - 1)`` directed edges (20 for five qubits).
    """
    qubits = tuple(range(num_qubits))
    pairs = []
    address = 0
    for source in qubits:
        for target in qubits:
            if source == target:
                continue
            pairs.append(QubitPair(address=address, source=source,
                                   target=target))
            address += 1
    return QuantumChipTopology(name=f"ion-trap-{num_qubits}", qubits=qubits,
                               pairs=tuple(pairs),
                               feedlines={0: qubits})


def linear_chain(num_qubits: int) -> QuantumChipTopology:
    """A 1-D nearest-neighbour chain with both edge directions allowed.

    Used by the 8-qubit Grover square-root workload (the surface-7 chip
    has only seven qubits; the paper compiled SR for an 8-qubit target).
    """
    qubits = tuple(range(num_qubits))
    pairs = []
    address = 0
    for left in range(num_qubits - 1):
        pairs.append(QubitPair(address=address, source=left, target=left + 1))
        address += 1
        pairs.append(QubitPair(address=address, source=left + 1, target=left))
        address += 1
    return QuantumChipTopology(name=f"chain-{num_qubits}", qubits=qubits,
                               pairs=tuple(pairs), feedlines={0: qubits})


CHIP_LIBRARY = {
    "surface-7": surface7,
    "surface-17": lambda: rotated_surface_chip(3),
    "surface-49": lambda: rotated_surface_chip(5),
    "two-qubit": two_qubit_chip,
    "ibm-qx2": ibm_qx2,
    "ion-trap-5": fully_connected_ion_trap,
}


def get_chip(name: str) -> QuantumChipTopology:
    """Look a chip up by name in the library."""
    try:
        factory = CHIP_LIBRARY[name]
    except KeyError:
        known = ", ".join(sorted(CHIP_LIBRARY))
        raise KeyError(f"unknown chip {name!r}; known chips: {known}")
    return factory()
