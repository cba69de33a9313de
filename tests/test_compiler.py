"""Gate-to-pulse compilation, frame bookkeeping, and refocusing."""

from __future__ import annotations

import numpy as np
import pytest

from nmrqc.compiler import (
    CompileError,
    compile_circuit,
    compile_gate,
    insert_refocusing,
    phase_gate_program,
    transition_selective_cnot,
    verify_compilation,
)
from nmrqc.core import (
    basis_projector,
    equal_up_to_global_phase,
    fully_coupled,
    phase_distance,
    spin_chain,
    spin_pair,
)
from nmrqc.gates import (
    CNot,
    ControlledPhase,
    Hadamard,
    Not,
    Oracle,
    PseudoHadamard,
    Swap,
    GateError,
    Toffoli,
    cat_circuit,
    circuit,
    circuit_unitary,
    embed,
    phase_oracle,
    xor_oracle,
)
from nmrqc.pulses import Delay, Rotation, program, program_propagator, run_program

CYTOSINE = spin_pair(7.2, offsets=(381.5, -381.5))
PI_GATE = np.diag([1, 1, 1, -1]).astype(complex)


def compiled_unitary(circ, system):
    return program_propagator(compile_circuit(circ, system), system)


# ---------------------------------------------------------------------------
# the basic controlled phase


def test_short_and_long_phase_routes_agree():
    u_short = program_propagator(phase_gate_program(CYTOSINE, (0, 1), np.pi), CYTOSINE)
    u_long = program_propagator(
        phase_gate_program(CYTOSINE, (0, 1), np.pi, extra_periods=1), CYTOSINE
    )
    assert phase_distance(u_short, u_long) < 1e-12
    assert equal_up_to_global_phase(u_short, PI_GATE, tol=1e-12)


def test_phase_gate_arbitrary_angle():
    for phi in (np.pi / 2, 1.0, -2.5):
        u = program_propagator(phase_gate_program(CYTOSINE, (0, 1), phi), CYTOSINE)
        want = np.diag([1, 1, 1, np.exp(1j * phi)])
        assert equal_up_to_global_phase(u, want, tol=1e-10), phi


def test_pi_gate_drill_sequence():
    # spin-echo coupling period followed by a composite z-rotation on both spins
    j = 7.2
    seq = program(
        Delay(1 / (4 * j)),
        Rotation((0, 1), 180, "x"),
        Delay(1 / (4 * j)),
        Rotation((0, 1), 90, "x"),
        Rotation((0, 1), 90, "-y"),
        Rotation((0, 1), 90, "x"),
    )
    u = program_propagator(seq, CYTOSINE)
    assert equal_up_to_global_phase(u, PI_GATE, tol=1e-12)
    # insensitive to resonance offsets thanks to the echo
    shifted = spin_pair(j, offsets=(900.0, -120.0))
    u2 = program_propagator(seq, shifted)
    assert equal_up_to_global_phase(u2, PI_GATE, tol=1e-12)


# ---------------------------------------------------------------------------
# single gates through the compiler


@pytest.mark.parametrize(
    "gate",
    [
        Hadamard(0),
        Hadamard(1),
        PseudoHadamard(0),
        Not(1),
        CNot(0, 1),
        CNot(1, 0),
        ControlledPhase(0, 1, np.pi / 2),
        Swap(0, 1),
    ],
)
def test_single_gate_compiles(gate):
    circ = circuit(2, gate)
    report = verify_compilation(circ, CYTOSINE)
    assert report["pass"], report
    assert report["max_deviation"] < 1e-8


def test_toffoli_compiles_on_three_spins():
    sys3 = fully_coupled(3)
    circ = circuit(3, Toffoli(0, 1, 2))
    report = verify_compilation(circ, sys3)
    assert report["pass"], report


def test_oracle_gates_compile():
    circ = circuit(2, phase_oracle([0, 1, 1, 0], (0, 1)))
    assert verify_compilation(circ, CYTOSINE)["pass"]
    circ = circuit(2, xor_oracle([0, 1], (0, 1)))
    assert verify_compilation(circ, CYTOSINE)["pass"]


def test_opaque_oracle_refuses_to_compile():
    u = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    orc = Oracle(label="perm", qubits=(0, 1), unitary=u)
    with pytest.raises(CompileError):
        compile_circuit(circuit(2, orc), CYTOSINE)


# ---------------------------------------------------------------------------
# whole circuits and frame threading


def test_deutsch_style_circuit_verifies():
    circ = circuit(
        2, Not(1), Hadamard(0), Hadamard(1), xor_oracle([0, 1], (0, 1)), Hadamard(0), Hadamard(1)
    )
    report = verify_compilation(circ, CYTOSINE)
    assert report["pass"], report


def test_cat_circuit_verifies_on_three_spins():
    sys3 = fully_coupled(3)
    report = verify_compilation(cat_circuit(3), sys3)
    assert report["pass"], report


def test_frame_shifts_settle_at_program_end():
    # two pseudo-Hadamards in sequence still verify; any pending z-rotations
    # must have been emitted as closing frame shifts
    circ = circuit(2, PseudoHadamard(0), CNot(0, 1), PseudoHadamard(1))
    u = compiled_unitary(circ, CYTOSINE)
    assert phase_distance(u, circuit_unitary(circ)) < 1e-8


def test_compiled_population_action_matches_ideal():
    circ = circuit(2, CNot(0, 1))
    prog = compile_circuit(circ, CYTOSINE)
    ideal = circuit_unitary(circ)
    for bits in ("00", "01", "10", "11"):
        rho = basis_projector(bits) - np.eye(4) / 4
        got = run_program(rho, prog, CYTOSINE)
        want = ideal @ rho @ ideal.conj().T
        np.testing.assert_allclose(got, want, atol=1e-8)


# ---------------------------------------------------------------------------
# transition-selective pulses


def test_transition_selective_cnot_is_exact_permutation():
    u = transition_selective_cnot(CYTOSINE, 0, 1)
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 1] = want[2, 3] = want[3, 2] = 1
    np.testing.assert_allclose(np.abs(u), want, atol=1e-12)


def test_transition_selective_control_zero():
    u = transition_selective_cnot(CYTOSINE, 0, 1, control_state=0)
    want = np.zeros((4, 4))
    want[0, 1] = want[1, 0] = want[2, 2] = want[3, 3] = 1
    np.testing.assert_allclose(np.abs(u), want, atol=1e-12)


def test_transition_selective_needs_coupling():
    with pytest.raises(CompileError):
        transition_selective_cnot(spin_pair(0.0), 0, 1)


@pytest.mark.parametrize("control_state", [0, 1])
def test_transition_selective_cnot_matches_bitstring_oracle(control_state):
    system = fully_coupled(4)
    for control in range(4):
        for target in range(4):
            if control == target:
                continue
            want = np.zeros((16, 16))
            for x in range(16):
                bits = list(format(x, "04b"))
                if bits[control] == str(control_state):
                    bits[target] = "1" if bits[target] == "0" else "0"
                want[int("".join(bits), 2), x] = 1.0
            got = transition_selective_cnot(system, control, target, control_state)
            np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------------
# refocusing for bystander spins


@pytest.mark.parametrize("n", [3, 4])
def test_refocused_gate_leaves_bystanders_alone(n):
    system = fully_coupled(n)
    base = compile_circuit(circuit(2, CNot(0, 1)), spin_pair(system.j(0, 1)))
    refocused = insert_refocusing(base, system, (0, 1))
    u = program_propagator(refocused, system)

    ideal = embed(circuit_unitary(circuit(2, CNot(0, 1))), (0, 1), n)
    assert phase_distance(u, ideal) < 1e-8


def test_refocusing_keeps_two_spin_programs_unchanged():
    base = compile_circuit(circuit(2, CNot(0, 1)), CYTOSINE)
    same = insert_refocusing(base, CYTOSINE, (0, 1))
    assert same.elements == base.elements


@pytest.mark.parametrize("gate", [Hadamard(-1), CNot(0, 0)], ids=["negative", "repeated"])
def test_compile_gate_refuses_an_ill_formed_gate(gate):
    with pytest.raises(GateError):
        compile_gate(gate, spin_chain(3))


def test_compile_gate_refuses_a_gate_too_wide_for_the_system():
    text = r"^CNot on qubits \(0, 3\) does not fit a 3-spin system$"
    with pytest.raises(CompileError, match=text):
        compile_gate(CNot(0, 3), spin_chain(3))
