"""Independent dense reference for checking benchmark outputs.

Everything here is written from the physics stated in the nmrqc docstrings,
not from nmrqc's code, and none of it calls nmrqc: the checks must hold even
if a change breaks the layer under test, and they must add no spans to a
traced run. Operators act on one axis of the reshaped state at a time, which
keeps a check at n = 9 far cheaper than the op it checks.

Conventions shared with nmrqc: spin 0 is the most significant bit, |0> has
Iz = +1/2, angles and phases are degrees, pulses are exp(-i theta I_phi).
"""

from __future__ import annotations

import math

import numpy as np

_SQ2 = math.sqrt(2.0)
_PHASES = {"x": 0.0, "y": 90.0, "-x": 180.0, "-y": 270.0}
H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
PSEUDO_H = np.array([[1, -1], [1, 1]], dtype=complex) / _SQ2
X = np.array([[0, 1], [1, 0]], dtype=complex)
# Pauli matrices in label order E, x, y, z.
_PAULI = np.array([np.eye(2), X, [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=complex)


def controlled(u: np.ndarray, controls: int) -> np.ndarray:
    """u acting on the last qubit when all leading control qubits are 1."""
    d = 2 ** controls * u.shape[0]
    out = np.eye(d, dtype=complex)
    out[d - u.shape[0]:, d - u.shape[0]:] = u
    return out


def swap() -> np.ndarray:
    return np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def phase_table(table) -> np.ndarray:
    return np.diag([(-1.0) ** b for b in table]).astype(complex)


def xor_table(table) -> np.ndarray:
    """|x>|b> -> |x>|b xor f(x)>, ancilla last."""
    d = 2 * len(table)
    out = np.zeros((d, d), dtype=complex)
    for x, fx in enumerate(table):
        for b in (0, 1):
            out[2 * x + (b ^ fx), 2 * x + b] = 1.0
    return out


def pulse(angle_deg: float, phase) -> np.ndarray:
    """Single-spin exp(-i theta I_phi); phase "z" rotates about z."""
    half = math.radians(angle_deg) / 2.0
    if phase == "z":
        return np.diag([np.exp(-1j * half), np.exp(1j * half)])
    phi = math.radians(_PHASES[phase] if isinstance(phase, str) else phase)
    # I_phi = (cos(phi) X + sin(phi) Y) / 2
    axis = math.cos(phi) * _PAULI[1] + math.sin(phi) * _PAULI[2]
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * axis


def zeeman(n: int) -> np.ndarray:
    """m[s, k]: Iz eigenvalue of spin k in basis state s."""
    s = np.arange(2 ** n)[:, None]
    return 0.5 - ((s >> (n - 1 - np.arange(n))[None, :]) & 1)


def hamiltonian(system) -> np.ndarray:
    """Diagonal weak-coupling Hamiltonian in rad/s."""
    m = zeeman(system.n)
    h = 2 * math.pi * m @ np.asarray(system.offsets, dtype=float)
    for (i, j), hz in system.couplings:
        h = h + 2 * math.pi * hz * m[:, i] * m[:, j]
    return h


def thermal(system) -> np.ndarray:
    """Unit-weight equilibrium deviation sum_k I_kz (homonuclear default)."""
    return np.diag(zeeman(system.n).sum(axis=1)).astype(complex)


def coherence_mask(n: int, orders) -> np.ndarray:
    m2 = 2 * zeeman(n).sum(axis=1)
    p = (m2[:, None] - m2[None, :]) / 2
    return np.isin(p, list(orders))


class State:
    """A 2^n x 2^n operator kept as a (2,)*2n tensor: rows first, then columns."""

    def __init__(self, mat: np.ndarray):
        self.n = int(mat.shape[0]).bit_length() - 1
        self.t = np.asarray(mat, dtype=complex).reshape((2,) * (2 * self.n))

    @property
    def mat(self) -> np.ndarray:
        d = 2 ** self.n
        return self.t.reshape(d, d)

    def left(self, u: np.ndarray, qubits) -> "State":
        """u (on the listed qubits, first most significant) times the operator."""
        k = len(qubits)
        ut = np.asarray(u).reshape((2,) * (2 * k))
        out = np.tensordot(ut, self.t, axes=(list(range(k, 2 * k)), list(qubits)))
        self.t = np.moveaxis(out, list(range(k)), list(qubits))
        return self

    def conj(self, u: np.ndarray, qubits) -> "State":
        """u rho u^dagger."""
        self.left(u, qubits)
        k = len(qubits)
        ut = np.asarray(u).conj().reshape((2,) * (2 * k))
        cols = [self.n + q for q in qubits]
        out = np.tensordot(ut, self.t, axes=(list(range(k, 2 * k)), cols))
        self.t = np.moveaxis(out, list(range(k)), cols)
        return self

    def diag_left(self, phases: np.ndarray) -> "State":
        self.t = (phases[:, None] * self.mat).reshape(self.t.shape)
        return self

    def diag_conj(self, phases: np.ndarray) -> "State":
        self.t = (phases[:, None] * self.mat * phases.conj()[None, :]).reshape(
            self.t.shape)
        return self


def element_action(el, system):
    """(kind, payload) of a unitary pulse-program element for State.

    kind "local" carries (2x2 matrix, targets); "diag" a phase vector.
    """
    name = type(el).__name__
    n = system.n
    if name == "Rotation":
        u = pulse(el.angle, el.phase.strip().lower() if isinstance(el.phase, str)
                  else el.phase)
        return "local", (u, tuple(el.targets))
    if name == "FrameShift":
        return "local", (pulse(el.phase, "z"), (el.spin,))
    if name == "Delay":
        return "diag", np.exp(-1j * hamiltonian(system) * el.duration)
    if name == "Couple":
        m = zeeman(n)
        i, j = el.pair
        return "diag", np.exp(-2j * math.pi * el.fraction * m[:, i] * m[:, j])
    raise ValueError(f"{name} has no unitary")


def propagator(elements, system) -> np.ndarray:
    """Reference unitary of a program with no projective elements."""
    st = State(np.eye(system.dim, dtype=complex))
    for el in elements:
        kind, payload = element_action(el, system)
        if kind == "local":
            u, targets = payload
            for t in targets:
                st.left(u, (t,))
        else:
            st.diag_left(payload)
    return st.mat


def gates_unitary(gates, n: int) -> np.ndarray:
    """Unitary of (local matrix, qubits) pairs applied in order."""
    st = State(np.eye(2 ** n, dtype=complex))
    for u, qubits in gates:
        st.left(u, qubits)
    return st.mat


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and the best phase-aligned copy of b."""
    overlap = np.vdot(b, a)
    alpha = overlap / abs(overlap) if abs(overlap) > 1e-30 else 1.0
    return float(np.linalg.norm(a - alpha * b))


def po_coefficients(rho: np.ndarray) -> np.ndarray:
    """Product-operator coefficients as a (4,)*n array in label order Exyz.

    c = Tr(B rho) / Tr(B B), with B carrying 2^(q-1) for q active letters,
    which works out to Tr(P rho) 2^(1-n) for a Pauli string P with q >= 1
    and Tr(rho) / 2^n for the identity.
    """
    st = State(rho)
    n = st.n
    t = st.t
    # Tr(P rho) = sum_rc P[c, r] rho[r, c], one spin at a time. After k
    # steps the row axis of spin k sits at k and its column axis at n.
    m = _PAULI.transpose(0, 2, 1)
    for k in range(n):
        t = np.tensordot(m, t, axes=([1, 2], [k, n]))
        t = np.moveaxis(t, 0, k)
    coeff = t * 2.0 ** (1 - n)
    coeff[(0,) * n] = t[(0,) * n] / 2 ** n
    return coeff


def label_index(labels, n: int) -> np.ndarray:
    """Flat index into po_coefficients for each label string."""
    if not labels:
        return np.zeros(0, dtype=np.int64)
    lut = np.zeros(256, dtype=np.int64)
    for v, ch in enumerate("Exyz"):
        lut[ord(ch)] = v
    codes = np.frombuffer("".join(labels).encode(), dtype=np.uint8)
    digits = lut[codes].reshape(len(labels), n)
    return digits @ (4 ** np.arange(n - 1, -1, -1))


def line_amplitudes(rho: np.ndarray, system, spin: int) -> dict:
    """{partner bits: complex amplitude} of one spin's multiplet, all lines.

    The amplitude of a line is the sum of rho[r, c] over pairs that differ
    only in the observed spin (1 in the row, 0 in the column) and agree on
    the partner configuration; non-partner spins are summed over.
    """
    n = system.n
    partners = system.partners(spin)
    t = State(rho).t
    letters = [chr(ord("a") + k) for k in range(n)]
    rows = list(letters)
    cols = list(letters)
    rows[spin], cols[spin] = "Y", "Z"
    out_axes = "".join(letters[p] for p in partners)
    sub = np.einsum("".join(rows) + "".join(cols) + "->YZ" + out_axes, t)
    block = sub[1, 0]
    amps = {}
    for bits in np.ndindex(*([2] * len(partners))):
        amps["".join(str(b) for b in bits)] = complex(block[bits])
    return amps


def line_frequency(system, spin: int, bits: str) -> float:
    partners = system.partners(spin)
    return system.offsets[spin] + sum(
        system.j(spin, p) * (int(b) - 0.5) for p, b in zip(partners, bits))


def read_spectrum(rho: np.ndarray, system) -> dict:
    """{(spin, partner bits): (freq, amp)} after a 90y pulse on each spin."""
    out = {}
    u = pulse(90.0, "y")
    for i in range(system.n):
        excited = State(rho).conj(u, (i,)).mat
        for bits, amp in line_amplitudes(excited, system, i).items():
            out[(i, bits)] = (line_frequency(system, i, bits), amp)
    return out
