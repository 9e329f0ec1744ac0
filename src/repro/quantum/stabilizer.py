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

Storage is **bit-packed**: the 2n bits of each qubit column live in
``ceil(2n/64)`` uint64 words (:attr:`StabilizerTableau.xw` /
:attr:`~StabilizerTableau.zw`, shape ``(n, words)``; phases in
:attr:`~StabilizerTableau.rw`).  A gate update then touches only the
target columns, as a handful of word-wide AND/XOR minterm operations
over all 2n rows at once — instead of the boolean fancy-indexing of
the earlier uint8 layout, which materialised three 2n-length index
arrays per gate.  Up to 64 qubits a column is a *single* word and the
update runs on plain Python integers (CPython's arbitrary-precision
ints are word arrays under the hood, so the same word-wide semantics
hold for wider chips with zero numpy per-op overhead).  The canonical
unpacked image (:meth:`~StabilizerTableau.x_bits` etc.) is what
snapshot digests hash, so digests are a function of the generators,
not of the packing.

Gate application does **not** hard-code per-gate update rules.  Instead
the symplectic action of any configured unitary is *derived
numerically* once per operation (:func:`clifford_action_of`): conjugate
every k-qubit Hermitian Pauli by the unitary and decompose the result
in the Pauli basis.  If every image is again ``±`` a Pauli, the gate is
Clifford and the resulting 4^k-entry lookup table updates all 2n rows;
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

The backend also exports the hooks the Pauli-frame batched engine
(:mod:`repro.quantum.pauli_frame`) records its reference shot through:
setting :attr:`StabilizerBackend.frame_recorder` turns one shot into a
noise-free reference run whose Clifford sequence, gate-error sites and
measurement structure the recorder captures for vectorised multi-shot
frame propagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.errors import PlantError
from repro.quantum.backend import PlantBackend
from repro.quantum.noise import DecoherenceModel, GateErrorModel

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


@dataclass(frozen=True)
class CliffordAction:
    """The symplectic action of one k-qubit Clifford unitary.

    ``bits[v]`` is the Pauli index of ``U P_v U^dag`` and ``sign[v]``
    its sign bit, where ``v`` packs the target qubits' (x, z) bits two
    per qubit — qubit 0 of the gate (the MSB of its matrix basis) in
    bits 0-1, qubit 1 in bits 2-3.
    """

    num_qubits: int
    bits: np.ndarray   # uint8, shape (4**k,)
    sign: np.ndarray   # uint8, shape (4**k,)


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
    """An ``n``-qubit stabilizer state as a bit-packed CHP tableau.

    The 2n rows (destabilizers then stabilizers) are packed along the
    row axis: for each qubit column ``q``, ``xw[q]`` / ``zw[q]`` hold
    the column's 2n symplectic bits in uint64 words (bit ``i`` of word
    ``i // 64`` is row ``i``); ``rw`` packs the 2n phase bits the same
    way.  Gate application, Pauli injection and phase flips are then
    word-wide boolean algebra over whole columns; the rowsum paths of
    measurement extract individual rows as n-vectors when they need
    the Aaronson–Gottesman i-exponent arithmetic.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise PlantError("need at least one qubit")
        self.num_qubits = num_qubits
        n = num_qubits
        self._rows = 2 * n
        self._words = (self._rows + 63) // 64
        #: Packed symplectic bits, shape (n, words): ``xw[q]`` is the
        #: X column of qubit q over all 2n rows.
        self.xw = np.zeros((n, self._words), dtype=np.uint64)
        self.zw = np.zeros((n, self._words), dtype=np.uint64)
        #: Packed phase bits r_i over the 2n rows.
        self.rw = np.zeros(self._words, dtype=np.uint64)
        self._identity_init()

    def _identity_init(self) -> None:
        n = self.num_qubits
        for q in range(n):
            self.xw[q, q >> 6] |= np.uint64(1) << np.uint64(q & 63)
            row = n + q
            self.zw[q, row >> 6] |= np.uint64(1) << np.uint64(row & 63)

    def reset(self) -> None:
        """Return to ``|0...0>``."""
        self.xw[:] = 0
        self.zw[:] = 0
        self.rw[:] = 0
        self._identity_init()

    def copy(self) -> "StabilizerTableau":
        clone = StabilizerTableau.__new__(StabilizerTableau)
        clone.num_qubits = self.num_qubits
        clone._rows = self._rows
        clone._words = self._words
        clone.xw = self.xw.copy()
        clone.zw = self.zw.copy()
        clone.rw = self.rw.copy()
        return clone

    # ------------------------------------------------------------------
    # Packed-word access helpers
    # ------------------------------------------------------------------
    def _col_int(self, arr: np.ndarray, q: int) -> int:
        """One packed column as a single Python integer (2n bits)."""
        if self._words == 1:
            return int(arr[q, 0])
        return int.from_bytes(arr[q].tobytes(), "little")

    def _set_col_int(self, arr: np.ndarray, q: int, value: int) -> None:
        if self._words == 1:
            arr[q, 0] = value
        else:
            arr[q] = np.frombuffer(
                value.to_bytes(self._words * 8, "little"), dtype=np.uint64)

    def _r_int(self) -> int:
        if self._words == 1:
            return int(self.rw[0])
        return int.from_bytes(self.rw.tobytes(), "little")

    def _xor_r(self, flips: int) -> None:
        if not flips:
            return
        if self._words == 1:
            self.rw[0] ^= np.uint64(flips)
        else:
            self.rw ^= np.frombuffer(
                flips.to_bytes(self._words * 8, "little"), dtype=np.uint64)

    def _r_bit(self, row: int) -> int:
        return int(self.rw[row >> 6] >> np.uint64(row & 63)) & 1

    def _set_r_bit(self, row: int, value: int) -> None:
        mask = np.uint64(1) << np.uint64(row & 63)
        if value:
            self.rw[row >> 6] |= mask
        else:
            self.rw[row >> 6] &= ~mask

    def _row_bits(self, arr: np.ndarray, row: int) -> np.ndarray:
        """One tableau row across all n columns as an int8 0/1 vector."""
        return ((arr[:, row >> 6] >> np.uint64(row & 63)) &
                np.uint64(1)).astype(np.int8)

    # ------------------------------------------------------------------
    # Clifford evolution
    # ------------------------------------------------------------------
    def apply(self, action: CliffordAction,
              qubits: tuple[int, ...]) -> None:
        """Conjugate every row by the gate via its action table.

        The update is the minterm expansion of the action table in
        word-wide boolean algebra: each of the ``4^k - 1`` non-identity
        input values ``v`` selects the rows currently carrying that
        Pauli on the target qubits (an AND of column literals), and
        XOR/ORs them into the output columns and the phase word that
        ``bits[v]`` / ``sign[v]`` prescribe.
        """
        if len(qubits) != action.num_qubits:
            raise PlantError(
                f"action on {action.num_qubits} qubit(s) applied to "
                f"{len(qubits)}")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise PlantError(f"qubit {qubit} out of range")
        bits = action.bits
        sign = action.sign
        if len(qubits) == 1:
            a = qubits[0]
            xa = self._col_int(self.xw, a)
            za = self._col_int(self.zw, a)
            # Minterms of (x, z) indexed by v = x + 2z; v=0 maps I->I
            # and never contributes, so it is skipped.
            minterms = (0, xa & ~za, ~xa & za, xa & za)
            new_x = new_z = flips = 0
            for v in (1, 2, 3):
                term = minterms[v]
                if not term:
                    continue
                image = bits[v]
                if image & 1:
                    new_x |= term
                if image & 2:
                    new_z |= term
                if sign[v]:
                    flips ^= term
            self._set_col_int(self.xw, a, new_x)
            self._set_col_int(self.zw, a, new_z)
            self._xor_r(flips)
        else:
            a, b = qubits
            if a == b:
                raise PlantError(f"duplicate qubits in {qubits}")
            xa = self._col_int(self.xw, a)
            za = self._col_int(self.zw, a)
            xb = self._col_int(self.xw, b)
            zb = self._col_int(self.zw, b)
            full = (1 << self._rows) - 1
            ta = (full & ~xa & ~za, xa & ~za, ~xa & za, xa & za)
            tb = (full & ~xb & ~zb, xb & ~zb, ~xb & zb, xb & zb)
            new_xa = new_za = new_xb = new_zb = flips = 0
            for v in range(1, 16):
                term = ta[v & 3] & tb[v >> 2]
                if not term:
                    continue
                image = bits[v]
                if image & 1:
                    new_xa |= term
                if image & 2:
                    new_za |= term
                if image & 4:
                    new_xb |= term
                if image & 8:
                    new_zb |= term
                if sign[v]:
                    flips ^= term
            self._set_col_int(self.xw, a, new_xa)
            self._set_col_int(self.zw, a, new_za)
            self._set_col_int(self.xw, b, new_xb)
            self._set_col_int(self.zw, b, new_zb)
            self._xor_r(flips)

    def apply_pauli(self, v: int, qubits: tuple[int, ...]) -> None:
        """Apply a Pauli error (packed index ``v`` as in the action
        tables): each row's phase flips iff it anticommutes with it."""
        flips = 0
        for slot, qubit in enumerate(qubits):
            if (v >> (2 * slot)) & 1:                  # X component
                flips ^= self._col_int(self.zw, qubit)
            if (v >> (2 * slot + 1)) & 1:              # Z component
                flips ^= self._col_int(self.xw, qubit)
        self._xor_r(flips)

    # ------------------------------------------------------------------
    # Row products (Aaronson–Gottesman "rowsum")
    # ------------------------------------------------------------------
    def _phase_exponent(self, x1, z1, x2, z2) -> int:
        """Sum over qubits of the i-exponent g(x1, z1, x2, z2) when the
        Pauli (x1, z1) is multiplied by (x2, z2) (A–G eq. for rowsum)."""
        g = np.where(
            (x1 == 1) & (z1 == 1), z2 - x2,
            np.where((x1 == 1) & (z1 == 0), z2 * (2 * x2 - 1),
                     np.where((x1 == 0) & (z1 == 1), x2 * (1 - 2 * z2),
                              0)))
        return int(g.sum())

    def _rowsum(self, h: int, i: int) -> None:
        """Row h := row i * row h (the stabilizer-group product)."""
        xi = self._row_bits(self.xw, i)
        zi = self._row_bits(self.zw, i)
        xh = self._row_bits(self.xw, h)
        zh = self._row_bits(self.zw, h)
        total = (2 * self._r_bit(h) + 2 * self._r_bit(i) +
                 self._phase_exponent(xi, zi, xh, zh))
        self._set_r_bit(h, (total % 4) // 2)
        shift_i = np.uint64(i & 63)
        shift_h = np.uint64(h & 63)
        one = np.uint64(1)
        src_x = (self.xw[:, i >> 6] >> shift_i) & one
        src_z = (self.zw[:, i >> 6] >> shift_i) & one
        self.xw[:, h >> 6] ^= src_x << shift_h
        self.zw[:, h >> 6] ^= src_z << shift_h

    def _deterministic_outcome(self, column: int) -> int:
        """Outcome of measuring the qubit whose packed X column is
        ``column`` when no stabilizer anticommutes with its Z: the sign
        of the product of the stabilizer rows S whose destabilizer
        partners anticommute (the product is +/-Z_a).

        Writing each row as ``(-1)^r prod_q i^(x_q z_q) X_q^x_q Z_q^z_q``
        and ordering the X factors of the product ahead of its Z
        factors, the product's phase is ``i`` to the power
        ``2|r & S| + sum_q (|X_q & Z_q & S| + 2 #{m < l in S : z_mq = 1,
        x_lq = 1})``; the outcome is bit 1 of that exponent mod 4.  The
        pair count only matters mod 2, which is the parity of the rows
        of ``X_q & S`` that sit above an odd number of rows of
        ``Z_q & S`` — a prefix-XOR scan of the packed column.
        """
        n = self.num_qubits
        selected = (column & ((1 << n) - 1)) << n
        total = 2 * (self._r_int() & selected).bit_count()
        pairs = 0
        for q in range(n):
            z = self._col_int(self.zw, q) & selected
            if not z:
                continue
            x = self._col_int(self.xw, q) & selected
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
        column = self._col_int(self.xw, a)
        if column >> self.num_qubits:
            return 0.5
        return float(self._deterministic_outcome(column))

    def pivot_stabilizer(self, a: int) -> int | None:
        """Row index of the first stabilizer anticommuting with Z_a,
        or None when the measurement of ``a`` is deterministic.  This
        is the row :meth:`collapse` pivots on; the Pauli-frame engine
        records it (:meth:`row_paulis`) as the frame correction that
        maps one random-measurement branch onto the other."""
        stab = self._col_int(self.xw, a) >> self.num_qubits
        if not stab:
            return None
        return self.num_qubits + (stab & -stab).bit_length() - 1

    def row_paulis(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """One row's (x, z) bits as uint8 n-vectors (sign excluded)."""
        if not 0 <= row < self._rows:
            raise PlantError(f"row {row} out of range")
        return (self._row_bits(self.xw, row).astype(np.uint8),
                self._row_bits(self.zw, row).astype(np.uint8))

    def collapse(self, a: int, result: int) -> None:
        """Project qubit ``a`` onto ``result`` (raises on probability 0)."""
        if result not in (0, 1):
            raise PlantError(f"result {result} is not a bit")
        if not 0 <= a < self.num_qubits:
            raise PlantError(f"qubit {a} out of range")
        column = self._col_int(self.xw, a)
        if not column >> self.num_qubits:
            if self._deterministic_outcome(column) != result:
                raise PlantError(
                    f"collapse of qubit {a} to {result} has probability 0")
            return
        self._collapse_random(a, column, result)

    def _collapse_random(self, a: int, column: int, result: int) -> None:
        """Project qubit ``a`` (packed X column ``column``, some
        stabilizer anticommuting with Z_a) onto ``result``."""
        n = self.num_qubits
        p = self.pivot_stabilizer(a)
        remaining = column & ~(1 << p)
        while remaining:
            h = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            self._rowsum(h, p)
        # The old stabilizer becomes the new destabilizer; the new
        # stabilizer is (+/-) Z_a with the chosen outcome as its sign.
        self._copy_row(p, p - n)
        self._clear_row(p)
        self.zw[a, p >> 6] |= np.uint64(1) << np.uint64(p & 63)
        self._set_r_bit(p, result)

    def _copy_row(self, src: int, dst: int) -> None:
        one = np.uint64(1)
        shift_s = np.uint64(src & 63)
        shift_d = np.uint64(dst & 63)
        keep = ~(one << shift_d)
        for arr in (self.xw, self.zw):
            bit = (arr[:, src >> 6] >> shift_s) & one
            arr[:, dst >> 6] = (arr[:, dst >> 6] & keep) | (bit << shift_d)
        self._set_r_bit(dst, self._r_bit(src))

    def _clear_row(self, row: int) -> None:
        keep = ~(np.uint64(1) << np.uint64(row & 63))
        self.xw[:, row >> 6] &= keep
        self.zw[:, row >> 6] &= keep
        self._set_r_bit(row, 0)

    def measure(self, a: int, rng: np.random.Generator) -> int:
        """Sample a projective z-measurement and collapse the state.

        A deterministic outcome is evaluated once and draws nothing (it
        leaves the state unchanged); a random one draws exactly once."""
        if not 0 <= a < self.num_qubits:
            raise PlantError(f"qubit {a} out of range")
        column = self._col_int(self.xw, a)
        if not column >> self.num_qubits:
            return self._deterministic_outcome(column)
        result = 1 if rng.random() < 0.5 else 0
        self._collapse_random(a, column, result)
        return result

    # ------------------------------------------------------------------
    # Canonical unpacked image (tests / digests / debugging)
    # ------------------------------------------------------------------
    def _unpack(self, arr: np.ndarray) -> np.ndarray:
        """Unpack a (n, words) column array to (2n, n) uint8 bits —
        the pre-packing row-major layout, which is the *canonical*
        image: snapshot digests hash it so the digest-of-state
        contract (same generators => same digest) is independent of
        the word packing."""
        shifts = np.arange(64, dtype=np.uint64)
        bits = (arr[:, :, None] >> shifts) & np.uint64(1)
        flat = bits.reshape(self.num_qubits, self._words * 64)
        return np.ascontiguousarray(
            flat[:, :self._rows].T.astype(np.uint8))

    def x_bits(self) -> np.ndarray:
        """The X bits as a canonical (2n, n) uint8 array."""
        return self._unpack(self.xw)

    def z_bits(self) -> np.ndarray:
        """The Z bits as a canonical (2n, n) uint8 array."""
        return self._unpack(self.zw)

    def r_bits(self) -> np.ndarray:
        """The phase bits as a canonical (2n,) uint8 vector."""
        shifts = np.arange(64, dtype=np.uint64)
        bits = (self.rw[:, None] >> shifts) & np.uint64(1)
        return np.ascontiguousarray(
            bits.reshape(self._words * 64)[:self._rows].astype(np.uint8))

    # ------------------------------------------------------------------
    # Inspection (tests / debugging)
    # ------------------------------------------------------------------
    def stabilizer_strings(self) -> list[str]:
        """The stabilizer generators as signed Pauli strings."""
        letters = {0: "I", 1: "X", 2: "Z", 3: "Y"}
        x = self.x_bits()
        z = self.z_bits()
        r = self.r_bits()
        out = []
        n = self.num_qubits
        for row in range(n, 2 * n):
            body = "".join(
                letters[int(x[row, q]) | (int(z[row, q]) << 1)]
                for q in range(n))
            out.append(("-" if r[row] else "+") + body)
        return out


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

    Setting :attr:`frame_recorder` (a
    :class:`repro.quantum.pauli_frame.FrameRecorder`) turns the next
    shot into the Pauli-frame engine's *reference* run: gates and
    measurements are recorded, and stochastic gate error is *deferred*
    to the batched frames instead of being sampled here — the
    reference trajectory must be noise-free for the frames to carry
    the noise exactly.
    """

    kind = "stabilizer"

    def __init__(self, num_qubits: int):
        super().__init__(num_qubits)
        self.tableau = StabilizerTableau(num_qubits)
        #: When set, this shot is a Pauli-frame reference run — see
        #: the class docstring.  Cleared by the machine in a finally.
        self.frame_recorder = None

    def reset(self) -> None:
        self.tableau.reset()

    def snapshot(self) -> StabilizerTableau:
        return self.tableau.copy()

    def restore(self, snapshot: StabilizerTableau) -> None:
        self.tableau = snapshot.copy()

    def apply_gate(self, name: str, unitary: np.ndarray,
                   indices: tuple[int, ...]) -> None:
        action = cached_clifford_action(unitary)
        if action is None:
            raise PlantError(
                f"operation {name!r} is not Clifford; the stabilizer "
                f"backend cannot apply it (select the dense backend)")
        self.tableau.apply(action, indices)
        if self.frame_recorder is not None:
            self.frame_recorder.record_gate(action, indices)

    def apply_gate_error(self, indices: tuple[int, ...],
                         gate_error: GateErrorModel,
                         rng: np.random.Generator) -> None:
        """Depolarizing error as a sampled uniform non-identity Pauli.

        Exactly unravels the dense backend's Kraus channel: with
        probability ``p`` one of the ``4^k - 1`` non-identity Paulis is
        injected, so the distribution over shots matches the channel.
        During a Pauli-frame reference shot the injection is *recorded
        instead of sampled* — the batched frames sample it per shot.
        """
        k = len(indices)
        if k == 1:
            p = gate_error.single_qubit_error
        elif k == 2:
            p = gate_error.two_qubit_error
        else:
            raise PlantError("only 1- and 2-qubit gates are supported")
        if p == 0.0:
            return
        if self.frame_recorder is not None:
            self.frame_recorder.record_gate_error(indices, p)
            return
        if rng.random() < p:
            v = int(rng.integers(1, 4 ** k))
            self.tableau.apply_pauli(v, indices)

    def apply_idle(self, index: int, duration_ns: float,
                   decoherence: DecoherenceModel) -> None:
        if duration_ns == 0.0 or decoherence.is_negligible:
            return
        raise PlantError(
            "idle T1/T2 decoherence is not a Pauli channel; the "
            "stabilizer backend cannot apply it (select the dense "
            "backend)")

    def probability_one(self, index: int) -> float:
        return self.tableau.probability_one(index)

    def measure(self, index: int, rng: np.random.Generator) -> int:
        if self.frame_recorder is not None:
            return self.frame_recorder.record_measurement(
                self.tableau, index, rng)
        return self.tableau.measure(index, rng)

    def collapse(self, index: int, result: int) -> None:
        self.tableau.collapse(index, result)

    @classmethod
    def estimate_bytes(cls, num_qubits: int) -> int:
        # Two (n x words) uint64 column arrays plus the packed phases.
        words = (2 * num_qubits + 63) // 64
        return 16 * num_qubits * words + 8 * words

    def state_digest(self, snapshot: StabilizerTableau) -> int:
        # Hash the canonical unpacked image, not the word layout: the
        # digest is a function of the generators alone, so it survives
        # any repacking of the same state.
        return hash((snapshot.x_bits().tobytes(),
                     snapshot.z_bits().tobytes(),
                     snapshot.r_bits().tobytes()))

    def corrupt_snapshot(self, snapshot: StabilizerTableau,
                         rng: np.random.Generator) -> None:
        row = int(rng.integers(2 * snapshot.num_qubits))
        column = int(rng.integers(snapshot.num_qubits))
        snapshot.xw[column, row >> 6] ^= \
            np.uint64(1) << np.uint64(row & 63)


# Register with the plant's backend table ("stabilizer" resolves here).
from repro.quantum.plant import QuantumPlant  # noqa: E402

QuantumPlant.BACKENDS[StabilizerBackend.kind] = StabilizerBackend
