"""Stabilizer-tableau plant backend (Gottesman–Knill / CHP).

The CC-Light instantiation of eQASM exists to run surface-code cycles:
an instruction mix of X/Y/Z/H/S/CZ, projective z-measurement and
Pauli-frame feedback.  Every one of those operations is Clifford, and a
Clifford+measurement circuit is simulated *exactly* in polynomial time
by tracking the stabilizer group of the state instead of its density
matrix (Gottesman's theorem; Aaronson & Gottesman's CHP tableau,
arXiv:quant-ph/0406196).

Representation: for ``n`` qubits the tableau holds ``2n`` rows of
binary symplectic vectors plus a phase bit.  Row ``i`` encodes the
Hermitian Pauli ``(-1)^{r_i} * prod_j i^{x_ij z_ij} X_j^{x_ij}
Z_j^{z_ij}`` — rows ``n..2n-1`` generate the stabilizer group of the
state, rows ``0..n-1`` the matching destabilizers (needed to make
deterministic measurements O(n^2) instead of exponential).

Storage is one **Python int per column**: bit ``i`` of
:attr:`StabilizerTableau.x` ``[q]`` / :attr:`~StabilizerTableau.z`
``[q]`` is row ``i``'s bit on qubit ``q``, and bit ``i`` of
:attr:`~StabilizerTableau.r` is row ``i``'s phase.  A gate update
touches only the target columns, as a short straight-line program
of column ANDs and XORs over all 2n rows at once; CPython's arbitrary-precision
ints carry any chip width with no per-op conversion.  A random
measurement multiplies the pivot stabilizer into every anticommuting
row in one pass over the columns, summing the rowsum i-exponents mod 4
in a two-bit counter sliced across the rows.  Unpacked, the columns
are the canonical (2n, n) bit array of the generators: bit ``i`` of
column ``q`` is entry ``(i, q)``.

Gate application does **not** hard-code per-gate update rules.  Instead
the symplectic action of any configured unitary is *derived
numerically* once per operation (:func:`clifford_action_of`): conjugate
every k-qubit Hermitian Pauli by the unitary and decompose the result
in the Pauli basis.  If every image is again ``±`` a Pauli, the gate is
Clifford, and its 4^k-entry lookup table is compiled once into the
column program that updates all 2n rows (:class:`CliffordAction`);
otherwise the gate is not Clifford and the caller must fall back to
the dense backend.  This keeps the backend faithful to eQASM's
defining feature — the operation set is *configured*, not fixed — any
user-registered Clifford pulse works without touching this module.

Noise: depolarizing gate error is a uniform Pauli mixture, so the
backend realises it as a *sampled Pauli injection* per gate (the
standard Pauli-trajectory unravelling — exact in distribution over
shots).  Idle T1/T2 decoherence is not a Pauli channel; the backend
refuses it, and the machine's backend selection keeps such noise
models on the dense backend.  Readout assignment error is classical
and lives in the measurement-discrimination unit, untouched.

The backend knows no engine.  The Pauli-frame batched engine
(:mod:`repro.quantum.pauli_frame`) derives its recording from the
plant's backend-independent recording of a reference shot, re-running
the recorded gates on a fresh :class:`StabilizerTableau` and reading
each random measurement's :meth:`~StabilizerTableau.pivot_stabilizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.backend import PlantBackend
from repro.quantum.noise import DecoherenceModel, NoiseModel

#: Single-qubit Hermitian Paulis indexed by ``v = x + 2z``:
#: I(00), X(10), Z(01), Y(11) = i X Z.
_PAULI_BY_V = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
]

#: Tolerance for the numerical Clifford decomposition.
_ATOL = 1e-9


def plane_program(bits: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """In-place XOR steps ``(d, s)``, each ``column[d] ^= column[s]``,
    that realise the sign-free action table ``bits`` of a k-qubit
    Clifford (:attr:`CliffordAction.bits`) on its ``2k`` local columns
    (qubit ``j`` of the gate: X at ``2j``, Z at ``2j + 1``).  The
    tableau updates its int columns with it and the Pauli-frame engine
    its packed planes.

    Output column ``j`` is the XOR of the input columns ``i`` whose
    image ``bits[1 << i]`` has bit ``j`` set.  Gauss-Jordan elimination
    reduces that binary matrix ``M`` to the identity by row operations
    ``E_1 .. E_m`` (a row swap as three XORs); each is its own inverse,
    so ``M = E_1 .. E_m`` and applying ``E_m`` first realises ``M``.
    Raises :class:`PlantError` unless the table is GF(2)-linear
    (``bits[v]`` the XOR of ``bits[1 << i]`` over the set bits ``i`` of
    ``v``) and invertible, as every Clifford's is.
    """
    size = len(bits).bit_length() - 1
    images = [bits[1 << i] for i in range(size)]
    for v, image in enumerate(bits):
        linear = 0
        for i in range(size):
            if v >> i & 1:
                linear ^= images[i]
        if image != linear:
            raise PlantError(f"action table {bits} is not GF(2)-linear")
    rows = [sum(((images[i] >> j) & 1) << i for i in range(size))
            for j in range(size)]
    steps: list[tuple[int, int]] = []
    for column in range(size):
        pivot = next((row for row in range(column, size)
                      if rows[row] >> column & 1), None)
        if pivot is None:
            raise PlantError(f"action table {bits} is not invertible")
        if pivot != column:
            rows[column], rows[pivot] = rows[pivot], rows[column]
            steps += [(column, pivot), (pivot, column), (column, pivot)]
        for row in range(size):
            if row != column and rows[row] >> column & 1:
                rows[row] ^= rows[column]
                steps.append((row, column))
    return tuple(reversed(steps))


def phase_monomials(sign: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The algebraic normal form of a sign table over the input column
    literals: the monomials (tuples of local column indices, ANDed)
    whose XOR is ``sign[v]`` at every input ``v``.  A CZ's is
    ``x_a z_a x_b ^ x_a x_b z_b``, i.e. ``r ^= x_a & x_b & (z_a ^ z_b)``.

    The Möbius transform of the truth table gives the coefficients.
    The identity keeps its sign (``sign[0] == 0``), so no monomial is
    empty and every term stays inside the rows its columns span."""
    if sign[0]:
        raise PlantError(f"sign table {sign} flips the identity")
    size = len(sign).bit_length() - 1
    anf = list(sign)
    for i in range(size):
        for v in range(len(anf)):
            if v >> i & 1:
                anf[v] ^= anf[v ^ (1 << i)]
    return tuple(tuple(i for i in range(size) if v >> i & 1)
                 for v, coefficient in enumerate(anf) if coefficient)


@dataclass(frozen=True)
class CliffordAction:
    """The symplectic action of one k-qubit Clifford unitary.

    ``bits[v]`` is the Pauli index of ``U P_v U^dag`` and ``sign[v]``
    its sign bit, where ``v`` packs the target qubits' (x, z) bits two
    per qubit — qubit 0 of the gate (the MSB of its matrix basis) in
    bits 0-1, qubit 1 in bits 2-3.

    The update is also compiled once, as a straight-line program over
    the ``2k`` target columns (qubit ``j``'s X at ``2j``, Z at
    ``2j + 1``): ``phase`` lists the monomials whose XOR flips the
    phase bits (:func:`phase_monomials`, read from the input columns)
    and ``program`` the in-place column XORs (:func:`plane_program`).
    """

    num_qubits: int
    bits: np.ndarray   # uint8, shape (4**k,)
    sign: np.ndarray   # uint8, shape (4**k,)
    program: tuple[tuple[int, int], ...] = field(init=False, repr=False,
                                                 compare=False)
    phase: tuple[tuple[int, ...], ...] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "program",
                           plane_program(tuple(self.bits.tolist())))
        object.__setattr__(self, "phase",
                           phase_monomials(tuple(self.sign.tolist())))


def _pauli_matrix(v: int, k: int) -> np.ndarray:
    """The Hermitian Pauli with packed index ``v`` on ``k`` qubits."""
    matrix = _PAULI_BY_V[v & 3]
    for qubit in range(1, k):
        matrix = np.kron(matrix, _PAULI_BY_V[(v >> (2 * qubit)) & 3])
    return matrix


def clifford_action_of(unitary: np.ndarray) -> CliffordAction | None:
    """Derive a unitary's tableau update table, or None if not Clifford.

    Conjugates each of the 4^k Hermitian Paulis by the unitary and
    decomposes the image in the Pauli basis; the gate is Clifford
    exactly when every image is ``±1`` times a single Pauli.  The
    result is independent of the unitary's global phase, so any
    phase-equivalent matrix yields the same action.
    """
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.ndim != 2 or unitary.shape[0] != unitary.shape[1]:
        return None
    dim = unitary.shape[0]
    if dim not in (2, 4):
        return None
    k = 1 if dim == 2 else 2
    bits = np.zeros(4 ** k, dtype=np.uint8)
    sign = np.zeros(4 ** k, dtype=np.uint8)
    adjoint = unitary.conj().T
    for v in range(1, 4 ** k):
        image = unitary @ _pauli_matrix(v, k) @ adjoint
        found = False
        for w in range(4 ** k):
            coefficient = np.trace(_pauli_matrix(w, k) @ image) / dim
            if abs(coefficient) < _ATOL:
                continue
            if abs(coefficient - 1.0) < _ATOL:
                bits[v], sign[v] = w, 0
            elif abs(coefficient + 1.0) < _ATOL:
                bits[v], sign[v] = w, 1
            else:
                return None          # a genuine Pauli mixture: not Clifford
            found = True
            break
        if not found:
            return None
    return CliffordAction(num_qubits=k, bits=bits, sign=sign)


_ACTION_CACHE: dict[bytes, CliffordAction | None] = {}


def cached_clifford_action(unitary: np.ndarray) -> CliffordAction | None:
    """Memoised :func:`clifford_action_of`, keyed by the matrix bytes.

    Gate matrices are tiny (at most 4x4), so the byte image is both an
    exact key and cheap; repeated static backend-selection passes and
    per-trigger gate applications share one derivation per distinct
    matrix.
    """
    unitary = np.ascontiguousarray(unitary, dtype=complex)
    key = unitary.tobytes()
    if key not in _ACTION_CACHE:
        _ACTION_CACHE[key] = clifford_action_of(unitary)
    return _ACTION_CACHE[key]


def is_clifford(unitary: np.ndarray) -> bool:
    """Whether a 1- or 2-qubit unitary is a Clifford operation."""
    return cached_clifford_action(unitary) is not None


class StabilizerTableau:
    """An ``n``-qubit stabilizer state as a CHP tableau of int columns.

    The 2n rows (destabilizers then stabilizers) run along the bits of
    Python integers: ``x[q]`` / ``z[q]`` hold qubit ``q``'s symplectic
    column over all 2n rows (bit ``i`` is row ``i``) and ``r`` holds the
    2n phase bits the same way.  Gate application, Pauli injection,
    the deterministic-outcome scan and the random-outcome rowsums
    (:meth:`_collapse_random`) are all whole-column boolean algebra.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise PlantError("need at least one qubit")
        self.num_qubits = num_qubits
        self.reset()

    def reset(self) -> None:
        """Return to ``|0...0>``: destabilizer ``q`` is X_q, stabilizer
        ``n + q`` is Z_q, all phases +."""
        n = self.num_qubits
        #: ``x[q]`` / ``z[q]``: qubit q's column, bit i for row i.
        self.x = [1 << q for q in range(n)]
        self.z = [1 << (n + q) for q in range(n)]
        #: The phase bits r_i, bit i for row i.
        self.r = 0

    # ------------------------------------------------------------------
    # Clifford evolution
    # ------------------------------------------------------------------
    def apply(self, action: CliffordAction,
              qubits: tuple[int, ...]) -> None:
        """Conjugate every row by the gate via its compiled program.

        Whole-column boolean algebra over all 2n rows at once: the
        phase flips are the XOR of the action's ANF monomials, each an
        AND of input columns, and the new columns follow by the
        program's in-place XORs (see :class:`CliffordAction`).
        """
        if len(qubits) != action.num_qubits:
            raise PlantError(
                f"action on {action.num_qubits} qubit(s) applied to "
                f"{len(qubits)}")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise PlantError(f"qubit {qubit} out of range")
        x = self.x
        z = self.z
        if len(qubits) == 1:
            a = qubits[0]
            columns = [x[a], z[a]]
        else:
            a, b = qubits
            if a == b:
                raise PlantError(f"duplicate qubits in {qubits}")
            columns = [x[a], z[a], x[b], z[b]]
        flips = 0
        for monomial in action.phase:
            term = -1                   # all rows; no monomial is empty
            for literal in monomial:
                term &= columns[literal]
            flips ^= term
        for d, s in action.program:
            columns[d] ^= columns[s]
        if len(columns) == 2:
            x[a], z[a] = columns
        else:
            x[a], z[a], x[b], z[b] = columns
        self.r ^= flips

    def apply_pauli(self, v: int, qubits: tuple[int, ...]) -> None:
        """Apply a Pauli error (packed index ``v`` as in the action
        tables): each row's phase flips iff it anticommutes with it."""
        flips = 0
        for slot, qubit in enumerate(qubits):
            if (v >> (2 * slot)) & 1:                  # X component
                flips ^= self.z[qubit]
            if (v >> (2 * slot + 1)) & 1:              # Z component
                flips ^= self.x[qubit]
        self.r ^= flips

    def _deterministic_outcome(self, column: int) -> int:
        """Outcome of measuring the qubit whose X column is ``column``
        when no stabilizer anticommutes with its Z: the sign of the
        product of the stabilizer rows S whose destabilizer partners
        anticommute (the product is +/-Z_a).

        Writing each row as ``(-1)^r prod_q i^(x_q z_q) X_q^x_q Z_q^z_q``
        and ordering the X factors of the product ahead of its Z
        factors, the product's phase is ``i`` to the power
        ``2|r & S| + sum_q (|X_q & Z_q & S| + 2 #{m < l in S : z_mq = 1,
        x_lq = 1})``; the outcome is bit 1 of that exponent mod 4.  The
        pair count only matters mod 2, which is the parity of the rows
        of ``X_q & S`` that sit above an odd number of rows of
        ``Z_q & S`` — a prefix-XOR scan of the column.
        """
        n = self.num_qubits
        selected = (column & ((1 << n) - 1)) << n
        total = 2 * (self.r & selected).bit_count()
        pairs = 0
        for xq, zq in zip(self.x, self.z):
            z = zq & selected
            if not z:
                continue
            x = xq & selected
            if not x:
                continue
            total += (x & z).bit_count()
            # Prefix bit j: parity of the z rows at or below row j (the
            # selected rows span n positions).
            prefix = z
            shift = 1
            while shift < n:
                prefix ^= prefix << shift
                shift <<= 1
            pairs ^= x & (prefix << 1)
        total += 2 * pairs.bit_count()
        return (total >> 1) & 1

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def probability_one(self, a: int) -> float:
        """Pre-collapse P(1): 0.5 when some stabilizer anticommutes
        with Z_a (random outcome), else exactly 0.0 or 1.0."""
        if not 0 <= a < self.num_qubits:
            raise PlantError(f"qubit {a} out of range")
        column = self.x[a]
        if column >> self.num_qubits:
            return 0.5
        return float(self._deterministic_outcome(column))

    def pivot_stabilizer(self, a: int) -> int | None:
        """Row index of the first stabilizer anticommuting with Z_a,
        or None when the measurement of ``a`` is deterministic.  This
        is the row :meth:`collapse` pivots on; the Pauli-frame engine
        records it (:meth:`row_paulis`) as the frame correction that
        maps one random-measurement branch onto the other."""
        stab = self.x[a] >> self.num_qubits
        if not stab:
            return None
        return self.num_qubits + (stab & -stab).bit_length() - 1

    def row_paulis(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """One row's (x, z) bits as uint8 n-vectors (sign excluded)."""
        if not 0 <= row < 2 * self.num_qubits:
            raise PlantError(f"row {row} out of range")
        return (np.array([(c >> row) & 1 for c in self.x], dtype=np.uint8),
                np.array([(c >> row) & 1 for c in self.z], dtype=np.uint8))

    def collapse(self, a: int, result: int) -> None:
        """Project qubit ``a`` onto ``result`` (raises on probability 0)."""
        if result not in (0, 1):
            raise PlantError(f"result {result} is not a bit")
        if not 0 <= a < self.num_qubits:
            raise PlantError(f"qubit {a} out of range")
        column = self.x[a]
        if not column >> self.num_qubits:
            if self._deterministic_outcome(column) != result:
                raise PlantError(
                    f"collapse of qubit {a} to {result} has probability 0")
            return
        self._collapse_random(a, column, result)

    def _collapse_random(self, a: int, column: int, result: int) -> None:
        """Project qubit ``a`` (X column ``column``, some stabilizer
        anticommuting with Z_a) onto ``result``.

        Every row ``h`` anticommuting with Z_a becomes ``row p * row h``
        for the pivot stabilizer ``p`` (the A–G rowsum), all rows at
        once: the new phase of row ``h`` is bit 1 of ``2 r_h + 2 r_p +
        sum_q g_q(h)``, where the i-exponent ``g_q`` of pivot column
        ``q`` is +1 on one row mask and -1 on another.  ``low``/``high``
        count that sum mod 4 bit-sliced across the rows, so bit 1 of
        the total is ``r_h ^ r_p ^ high``.  Then the pivot moves to its
        destabilizer slot ``p - n`` and row ``p`` becomes ``±Z_a``.
        """
        n = self.num_qubits
        p = self.pivot_stabilizer(a)
        d = p - n
        rows = column & ~(1 << p)
        clear = ~((1 << p) | (1 << d))
        low = high = 0
        x = self.x
        z = self.z
        for q in range(n):
            xq = x[q]
            zq = z[q]
            px = (xq >> p) & 1
            pz = (zq >> p) & 1
            if px or pz:
                xh = xq & rows
                zh = zq & rows
                if px and pz:            # Y: g = z_h - x_h
                    plus, minus = zh & ~xh, xh & ~zh
                elif px:                 # X: g = z_h (2 x_h - 1)
                    plus, minus = zh & xh, zh & ~xh
                else:                    # Z: g = x_h (1 - 2 z_h)
                    plus, minus = xh & ~zh, xh & zh
                high ^= low & plus
                low ^= plus
                high ^= ~low & minus
                low ^= minus
                if px:
                    xq ^= rows
                if pz:
                    zq ^= rows
            x[q] = (xq & clear) | (px << d)
            z[q] = (zq & clear) | (pz << d)
        z[a] |= 1 << p
        r = self.r ^ high
        rp = (r >> p) & 1
        if rp:
            r ^= rows
        self.r = (r & clear) | (rp << d) | (result << p)

    def measure(self, a: int, rng: np.random.Generator) -> int:
        """Sample a projective z-measurement and collapse the state.

        A deterministic outcome is evaluated once and draws nothing (it
        leaves the state unchanged); a random one draws exactly once."""
        if not 0 <= a < self.num_qubits:
            raise PlantError(f"qubit {a} out of range")
        column = self.x[a]
        if not column >> self.num_qubits:
            return self._deterministic_outcome(column)
        result = 1 if rng.random() < 0.5 else 0
        self._collapse_random(a, column, result)
        return result


_IDLE_REFUSED = (
    "idle T1/T2 decoherence is not a Pauli channel; the stabilizer "
    "backend cannot apply it (select the dense backend)")


class StabilizerBackend(PlantBackend):
    """The Gottesman–Knill plant backend.

    Restricted by construction: gates must be Clifford (the action is
    derived from the configured unitary; a non-Clifford gate raises —
    the machine's static backend selection prevents this at run
    granularity) and noise must be Pauli/readout-only (depolarizing
    gate error becomes a sampled Pauli injection; idle T1/T2
    decoherence is refused).  Within that domain it is exact *per
    trajectory* and exact in distribution over shots, at polynomial
    cost — surface-code-scale chips run where the dense backend cannot
    allocate its matrix.
    """

    kind = "stabilizer"

    def __init__(self, num_qubits: int):
        super().__init__(num_qubits)
        self.tableau = StabilizerTableau(num_qubits)
        # id(unitary) -> (unitary, action): the pulse library hands out
        # one read-only array per operation, so a gate event finds its
        # action by identity; the entry holds the array, so its id is
        # never reused while cached.
        self._actions: dict[int, tuple[np.ndarray,
                                       CliffordAction | None]] = {}

    def reset(self) -> None:
        self.tableau.reset()

    def apply_gate_event(self, name: str, unitary: np.ndarray,
                         indices: tuple[int, ...],
                         gaps_ns: tuple[float, ...], noise: NoiseModel,
                         rng: np.random.Generator) -> None:
        """Refuse a non-negligible idle, apply the Clifford gate, then
        inject the depolarizing gate error.

        The error is a sampled uniform non-identity Pauli, which
        exactly unravels the dense backend's channel: with probability
        ``p`` one of the ``4^k - 1`` non-identity Paulis is injected,
        so the distribution over shots matches.  At ``p == 0`` it
        draws nothing.
        """
        if any(gaps_ns) and not noise.decoherence.is_negligible:
            raise PlantError(_IDLE_REFUSED)
        cached = self._actions.get(id(unitary))
        if cached is not None and cached[0] is unitary:
            action = cached[1]
        else:
            action = cached_clifford_action(unitary)
            if isinstance(unitary, np.ndarray) and \
                    not unitary.flags.writeable:
                self._actions[id(unitary)] = (unitary, action)
        if action is None:
            raise PlantError(
                f"operation {name!r} is not Clifford; the stabilizer "
                f"backend cannot apply it (select the dense backend)")
        k = len(indices)
        if k == 1:
            p = noise.gate_error.single_qubit_error
        elif k == 2:
            p = noise.gate_error.two_qubit_error
        else:
            raise PlantError("only 1- and 2-qubit gates are supported")
        self.tableau.apply(action, indices)
        if p != 0.0 and rng.random() < p:
            v = int(rng.integers(1, 4 ** k))
            self.tableau.apply_pauli(v, indices)

    def apply_idle(self, index: int, duration_ns: float,
                   decoherence: DecoherenceModel) -> None:
        if duration_ns and not decoherence.is_negligible:
            raise PlantError(_IDLE_REFUSED)

    def probability_one(self, index: int) -> float:
        return self.tableau.probability_one(index)

    def measure(self, index: int, rng: np.random.Generator,
                p_one: float | None = None) -> int:
        # p_one goes unused: the tableau decides with a column test.
        return self.tableau.measure(index, rng)

    def collapse(self, index: int, result: int) -> None:
        self.tableau.collapse(index, result)

    @classmethod
    def estimate_bytes(cls, num_qubits: int) -> int:
        # Two int columns of 2n bits per qubit plus the 2n phase bits,
        # counted in 64-bit words (int object headers aside).
        words = (2 * num_qubits + 63) // 64
        return 16 * num_qubits * words + 8 * words
