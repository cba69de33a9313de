"""Ideal logic gates and circuits, independent of any pulse realisation.

Gates here are exact unitaries on labelled qubits; how they are approximated
by pulses is the compiler's business. Qubit 0 is the most significant bit of
a basis index, matching the spin ordering of the state layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Optional, Union

import numpy as np

from .core import _spin_bits

_SQ2 = math.sqrt(2.0)


class GateError(ValueError):
    """Raised for malformed gates or circuits."""


@dataclass(frozen=True)
class Hadamard:
    qubit: int


@dataclass(frozen=True)
class PseudoHadamard:
    """90 degree y rotation, the spectroscopist's stand-in for a Hadamard.

    Sends |0> to (|0>+|1>)/sqrt(2) like the real thing but is not
    self-inverse; pair it with PseudoHadamardInv.
    """

    qubit: int


@dataclass(frozen=True)
class PseudoHadamardInv:
    qubit: int


@dataclass(frozen=True)
class Not:
    qubit: int


@dataclass(frozen=True)
class CNot:
    control: int
    target: int


@dataclass(frozen=True)
class ControlledPhase:
    """diag(1, 1, 1, e^(i phi)) on two qubits; phi in radians.

    Symmetric between the two qubits, so there is no control/target
    distinction worth drawing.
    """

    q1: int
    q2: int
    phi: float


@dataclass(frozen=True)
class Toffoli:
    c1: int
    c2: int
    target: int


@dataclass(frozen=True)
class Swap:
    q1: int
    q2: int


@dataclass(frozen=True, eq=False)
class Oracle:
    """Black-box gate over an explicit qubit list.

    kind "phase" marks a diagonal oracle built from a truth table (stored in
    table, one bit per input pattern, qubit order most significant first);
    kind "xor" marks the reversible form acting on inputs plus a final
    ancilla qubit. Either kind can be compiled to pulses. A bare unitary
    with kind None can be simulated but not compiled.
    """

    label: str
    qubits: tuple[int, ...]
    unitary: np.ndarray
    kind: Optional[str] = None
    table: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        d = 2 ** len(self.qubits)
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (d, d):
            raise GateError(
                f"oracle {self.label!r} unitary has shape {u.shape}, "
                f"needs {(d, d)} for {len(self.qubits)} qubits")
        if np.linalg.norm(u.conj().T @ u - np.eye(d)) > 1e-9:
            raise GateError(f"oracle {self.label!r} matrix is not unitary")
        if self.kind not in (None, "phase", "xor"):
            raise GateError(f"unknown oracle kind {self.kind!r}")
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)


Gate = Union[Hadamard, PseudoHadamard, PseudoHadamardInv, Not, CNot,
             ControlledPhase, Toffoli, Swap, Oracle]


_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQ2
_PSEUDO_H = np.array([[1, -1], [1, 1]], dtype=complex) / _SQ2
_X = np.array([[0, 1], [1, 0]], dtype=complex)

# Matrix of every gate whose fields are all qubits, listed in matrix order;
# ControlledPhase (angle field) and Oracle (own matrix) are the exceptions.
_FIXED = {
    Hadamard: _H,
    PseudoHadamard: _PSEUDO_H,
    PseudoHadamardInv: _PSEUDO_H.conj().T,
    Not: _X,
    CNot: np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                    [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    Swap: np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                    [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
    Toffoli: np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
}
for _u in _FIXED.values():
    _u.setflags(write=False)


def gate_qubits(gate: Gate) -> tuple[int, ...]:
    """Participating qubit indices in the gate's own order."""
    if isinstance(gate, Oracle):
        return gate.qubits
    if isinstance(gate, ControlledPhase):
        return (gate.q1, gate.q2)
    if type(gate) in _FIXED:
        return tuple(getattr(gate, f.name) for f in fields(gate))
    raise GateError(f"not a gate: {gate!r}")


def _validate(gate: Gate, n_qubits: Optional[int] = None) -> tuple[int, ...]:
    qs = gate_qubits(gate)
    if len(set(qs)) != len(qs):
        raise GateError(f"{type(gate).__name__} repeats a qubit: {qs}")
    if any(q < 0 for q in qs):
        raise GateError(f"negative qubit index in {qs}")
    if isinstance(gate, ControlledPhase) and not math.isfinite(gate.phi):
        raise GateError(f"non-finite phase {gate.phi}")
    if n_qubits is not None and any(q >= n_qubits for q in qs):
        raise GateError(f"{type(gate).__name__} on {qs} does not fit "
                        f"{n_qubits} qubits")
    return qs


def local_unitary(gate: Gate) -> np.ndarray:
    """Exact matrix of the gate on its own qubits, ordered as gate_qubits."""
    _validate(gate)
    if isinstance(gate, ControlledPhase):
        return np.diag([1, 1, 1, np.exp(1j * gate.phi)])
    if isinstance(gate, Oracle):
        return np.array(gate.unitary)
    return _FIXED[type(gate)].copy()


def embed(u: np.ndarray, qubits: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Place a k-qubit matrix on the listed qubits of an n-qubit space.

    qubits[0] is the most significant bit of the local index. The qubits
    need not be adjacent or ascending.
    """
    k = len(qubits)
    if u.shape != (2 ** k, 2 ** k):
        raise GateError(f"matrix shape {u.shape} does not fit {k} qubits")
    if any(not 0 <= q < n_qubits for q in qubits):
        raise GateError(f"qubits {qubits} outside 0..{n_qubits - 1}")
    if len(set(qubits)) != k:
        raise GateError(f"qubits {qubits} repeat a qubit")
    bits = _spin_bits(n_qubits)
    others = [q for q in range(n_qubits) if q not in qubits]
    local = bits[:, list(qubits)] @ 2 ** np.arange(k - 1, -1, -1)
    rest = bits[:, others] @ 2 ** np.arange(len(others) - 1, -1, -1)
    # One row of basis indices per background setting of the other qubits,
    # in local-index order; u is written as one block on each.
    rows = np.lexsort((local, rest)).reshape(-1, 2 ** k)
    out = np.zeros((2 ** n_qubits, 2 ** n_qubits), dtype=complex)
    out[rows[:, :, None], rows[:, None, :]] = u
    return out


def ideal_unitary(gate: Gate, n_qubits: int) -> np.ndarray:
    """The gate's exact matrix on the full 2^n space."""
    qs = _validate(gate, n_qubits)
    return embed(local_unitary(gate), qs, n_qubits)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise GateError("a circuit needs at least one qubit")
        for g in self.gates:
            _validate(g, self.n_qubits)

    def __iter__(self):
        return iter(self.gates)

    def __len__(self) -> int:
        return len(self.gates)


def circuit(n_qubits: int, *gates: Gate) -> Circuit:
    return Circuit(n_qubits, tuple(gates))


def circuit_unitary(circ: Circuit) -> np.ndarray:
    u = np.eye(2 ** circ.n_qubits, dtype=complex)
    for g in circ:
        u = ideal_unitary(g, circ.n_qubits) @ u
    return u


def cat_circuit(n_qubits: int) -> Circuit:
    """Hadamard plus a CNOT chain, turning |0...0> into a cat state."""
    if n_qubits < 2:
        raise GateError("a cat state needs at least two qubits")
    gates: list[Gate] = [Hadamard(0)]
    gates += [CNot(k, k + 1) for k in range(n_qubits - 1)]
    return Circuit(n_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# oracles

def _check_table(table) -> tuple[int, ...]:
    t = tuple(int(b) for b in table)
    n_in = (len(t)).bit_length() - 1
    if len(t) != 2 ** n_in or not t:
        raise GateError(f"truth table length {len(t)} is not a power of two")
    if any(b not in (0, 1) for b in t):
        raise GateError("truth table entries must be 0 or 1")
    return t


def phase_oracle(table, qubits: tuple[int, ...], label: str = "") -> Oracle:
    """Diagonal oracle |x> -> (-1)^f(x) |x> from a truth table.

    Table index x reads the listed qubits most significant first.
    """
    t = _check_table(table)
    if len(qubits) != len(t).bit_length() - 1:
        raise GateError(f"table of {len(t)} entries needs "
                        f"{len(t).bit_length() - 1} qubits, got {len(qubits)}")
    u = np.diag([(-1.0 + 0j) ** b for b in t])
    name = label or "f" + "".join(str(b) for b in t)
    return Oracle(name, tuple(qubits), u, kind="phase", table=t)


def xor_oracle(table, qubits: tuple[int, ...], label: str = "") -> Oracle:
    """Reversible oracle |x>|b> -> |x>|b xor f(x)>; last qubit is the ancilla."""
    t = _check_table(table)
    n_in = len(t).bit_length() - 1
    if len(qubits) != n_in + 1:
        raise GateError(f"xor oracle over {n_in} inputs needs {n_in + 1} "
                        f"qubits including the ancilla, got {len(qubits)}")
    f = np.diag(np.array(t, dtype=float))  # |x><x| where f(x) = 1
    u = np.kron(np.eye(len(t)) - f, np.eye(2)) + np.kron(f, _X)
    name = label or "f" + "".join(str(b) for b in t)
    return Oracle(name, tuple(qubits), u, kind="xor", table=t)
