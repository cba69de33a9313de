"""Ideal gate matrices and circuit composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqc.core import basis_ket, cat_ket, equal_up_to_global_phase
from nmrqc.gates import (
    CNot,
    ControlledPhase,
    GateError,
    Hadamard,
    Not,
    Oracle,
    PseudoHadamard,
    PseudoHadamardInv,
    Swap,
    Toffoli,
    cat_circuit,
    circuit,
    circuit_unitary,
    embed,
    gate_qubits,
    ideal_unitary,
    phase_oracle,
    xor_oracle,
)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=float)
CNOT01 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


def test_hadamard_matrix():
    np.testing.assert_allclose(ideal_unitary(Hadamard(0), 1), H, atol=1e-15)


def test_pseudo_hadamard_pair():
    h = ideal_unitary(PseudoHadamard(0), 1)
    hinv = ideal_unitary(PseudoHadamardInv(0), 1)
    np.testing.assert_allclose(h, np.array([[1, -1], [1, 1]]) / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(hinv @ h, np.eye(2), atol=1e-14)
    # takes |0> and |1> to the uniform superpositions, like a Hadamard would
    np.testing.assert_allclose(np.abs(h[:, 0]), [1, 1] / np.sqrt(2), atol=1e-14)


def test_not_and_cnot():
    np.testing.assert_allclose(ideal_unitary(Not(0), 1), X, atol=1e-15)
    np.testing.assert_allclose(ideal_unitary(CNot(0, 1), 2), CNOT01, atol=1e-15)


def test_cnot_reversed_control():
    got = ideal_unitary(CNot(1, 0), 2)
    want = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=float)
    np.testing.assert_allclose(got, want, atol=1e-15)


def test_controlled_phase_diagonal():
    got = ideal_unitary(ControlledPhase(0, 1, np.pi / 3), 2)
    np.testing.assert_allclose(got, np.diag([1, 1, 1, np.exp(1j * np.pi / 3)]), atol=1e-15)


def test_swap_and_toffoli():
    swap = ideal_unitary(Swap(0, 1), 2)
    np.testing.assert_allclose(swap @ basis_ket("01"), basis_ket("10"), atol=1e-15)
    tof = ideal_unitary(Toffoli(0, 1, 2), 3)
    np.testing.assert_allclose(tof @ basis_ket("110"), basis_ket("111"), atol=1e-12)
    np.testing.assert_allclose(tof @ basis_ket("100"), basis_ket("100"), atol=1e-12)


def test_repeated_qubits_rejected():
    with pytest.raises(GateError):
        ideal_unitary(CNot(0, 0), 2)
    with pytest.raises(GateError):
        circuit(3, Toffoli(1, 1, 2))
    with pytest.raises(GateError):
        circuit(3, Swap(2, 2))


def test_gate_qubits():
    assert gate_qubits(CNot(2, 0)) == (2, 0)
    assert gate_qubits(Hadamard(1)) == (1,)


def test_embed_acts_on_named_qubits():
    # X on qubit 1 of 3: |000> -> |010>
    u = embed(X.astype(complex), (1,), 3)
    np.testing.assert_allclose(u @ basis_ket("000"), basis_ket("010"), atol=1e-15)
    # CNOT with control 2, target 0
    u = embed(CNOT01.astype(complex), (2, 0), 3)
    np.testing.assert_allclose(u @ basis_ket("001"), basis_ket("101"), atol=1e-15)
    np.testing.assert_allclose(u @ basis_ket("000"), basis_ket("000"), atol=1e-15)


def test_circuit_applies_gates_in_listed_order():
    circ = circuit(1, Not(0), Hadamard(0))
    got = circuit_unitary(circ)
    np.testing.assert_allclose(got, H @ X, atol=1e-14)


def test_circuit_qubit_bounds():
    with pytest.raises(GateError):
        circuit(1, CNot(0, 1))


def test_cat_circuit_builds_cat_state():
    for n in (2, 3):
        u = circuit_unitary(cat_circuit(n))
        got = u @ basis_ket("0" * n)
        assert equal_up_to_global_phase(
            got.reshape(-1, 1), cat_ket(n).reshape(-1, 1), tol=1e-10
        )


# ---------------------------------------------------------------------------
# oracles


def test_phase_oracle_is_diagonal_sign_flip():
    orc = phase_oracle([0, 1, 1, 0], (0, 1))
    np.testing.assert_allclose(orc.unitary, np.diag([1, -1, -1, 1]), atol=1e-15)
    assert orc.kind == "phase"
    assert orc.table == (0, 1, 1, 0)


def test_xor_oracle_permutes_ancilla():
    # f(x) = x on one input bit; ancilla is the last listed qubit
    orc = xor_oracle([0, 1], (0, 1))
    got = orc.unitary
    want = CNOT01
    np.testing.assert_allclose(got, want, atol=1e-15)
    assert orc.kind == "xor"


def test_xor_oracle_matches_truth_table_permutation():
    table = [1, 0, 0, 1]
    orc = xor_oracle(table, (0, 1, 2))
    for x in range(4):
        for a in (0, 1):
            ket = basis_ket(format(x, "02b") + str(a))
            out = orc.unitary @ ket
            want = basis_ket(format(x, "02b") + str(a ^ table[x]))
            np.testing.assert_allclose(out, want, atol=1e-15)


def test_oracle_validates_unitarity():
    bad = np.array([[1, 1], [0, 1]], dtype=complex)
    with pytest.raises(GateError):
        Oracle(label="bad", qubits=(0,), unitary=bad)


def test_oracle_validates_shape():
    with pytest.raises(GateError):
        Oracle(label="bad", qubits=(0, 1), unitary=np.eye(2, dtype=complex))


def test_oracle_table_length_checked():
    with pytest.raises(GateError):
        phase_oracle([0, 1, 1], (0, 1))


def embed_oracle(u, qubits, n):
    """Entry by entry from bitstrings: u on the listed bits, identity elsewhere."""
    others = [q for q in range(n) if q not in qubits]
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for r in range(2 ** n):
        rb = format(r, f"0{n}b")
        for c in range(2 ** n):
            cb = format(c, f"0{n}b")
            if all(rb[q] == cb[q] for q in others):
                lr = int("".join(rb[q] for q in qubits) or "0", 2)
                lc = int("".join(cb[q] for q in qubits) or "0", 2)
                out[r, c] = u[lr, lc]
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.integers(0, min(3, n)),
    st.integers(0, 2 ** 32 - 1))))
def test_embed_matches_bitstring_oracle(case):
    n, order, k, seed = case
    qubits = tuple(order[:k])
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
    np.testing.assert_array_equal(embed(u, qubits, n), embed_oracle(u, qubits, n))


def test_embed_rejects_repeated_qubits():
    with pytest.raises(GateError):
        embed(CNOT01.astype(complex), (1, 1), 3)
