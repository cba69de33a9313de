"""Text grammars for systems, circuits, and pulse programs."""

from __future__ import annotations

import numpy as np
import pytest

from nmrqc.core import basis_projector, spin_pair
from nmrqc.formats import (
    ParseError,
    format_circuit,
    format_pulses,
    format_system,
    parse_circuit,
    parse_pulses,
    parse_system,
    spectrum_csv,
)
from nmrqc.gates import CNot, ControlledPhase, Hadamard, Oracle, circuit, phase_oracle, xor_oracle
from nmrqc.pulses import (
    Couple,
    Crush,
    Delay,
    FrameShift,
    MultiQuantumFilter,
    Rotation,
    program,
    resolve_phase,
    run_program,
)
from nmrqc.readout import read_spectrum


# ---------------------------------------------------------------------------
# spin system files


def test_system_round_trip():
    text = "SPIN H5 1H 381.5\nSPIN H6 1H -381.5\nJ H5 H6 7.2\n"
    system = parse_system(text)
    assert system.names == ("H5", "H6")
    assert system.j(0, 1) == pytest.approx(7.2)
    assert format_system(system) == text


def test_system_comments_and_blank_lines():
    text = "# cytosine in D2O\nSPIN H5 1H 763\n\nSPIN H6 1H 0  # reference\nJ H5 H6 7.2\n"
    system = parse_system(text)
    assert system.offsets == (763.0, 0.0)


def test_center_directive():
    system = parse_system("SPIN a 1H 763\nSPIN b 1H 0\nJ a b 7.2\nCENTER\n")
    assert system.offsets[0] == pytest.approx(381.5)
    assert sum(system.offsets) == pytest.approx(0.0)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("SPIN a 1H 0\nSPIN a 1H 0", "already declared"),
        ("SPINN a 1H 0", "unknown directive"),
        ("SPIN a 1H 0\nJ a b 7", "unknown spin"),
        ("SPIN a 1H 0\nJ a a 7", "itself"),
        ("", "no spins"),
        ("SPIN a 1H zero", "not a number"),
    ],
)
def test_system_errors_carry_positions(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    message = str(err.value)
    assert message.startswith("line ")
    assert fragment in message


# ---------------------------------------------------------------------------
# circuit files


def test_circuit_round_trip():
    circ = circuit(
        2,
        Hadamard(0),
        CNot(0, 1),
        ControlledPhase(0, 1, np.pi / 2),
        xor_oracle([0, 1], (0, 1)),
        phase_oracle([0, 1, 1, 0], (0, 1)),
    )
    text = format_circuit(circ)
    back = parse_circuit(text, 2)
    assert format_circuit(back) == text
    assert len(back.gates) == 5


def test_cphase_parses_degrees():
    circ = parse_circuit("CPHASE q0 q1 90\n", 2)
    (gate,) = circ.gates
    assert gate.phi == pytest.approx(np.pi / 2)


def test_oracle_shorthand_builds_xor_oracle():
    circ = parse_circuit("ORACLE f0110 q0 q1 q2\n", 3)
    (gate,) = circ.gates
    assert gate.kind == "xor"
    assert gate.table == (0, 1, 1, 0)


def test_circuit_infers_width():
    circ = parse_circuit("H q0\nCNOT q2 q0\n")
    assert circ.n_qubits == 3


def test_unknown_gate_suggests_a_fix():
    with pytest.raises(ParseError) as err:
        parse_circuit("HH q0\n", 1)
    assert "did you mean H?" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("H q9\n", "unknown qubit"),
        ("CNOT q0 q0\n", "repeats a qubit"),
        ("ORACLE f011 q0 q1\n", "power of two"),
        ("H\n", "takes"),
    ],
)
def test_circuit_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_circuit(text, 2)
    assert fragment in str(err.value)


def test_opaque_oracle_has_no_text_form():
    orc = Oracle(label="opaque", qubits=(0, 1), unitary=np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        format_circuit(circuit(2, orc))


# ---------------------------------------------------------------------------
# pulse program files


def test_pulse_round_trip():
    prog = program(
        Rotation((0, 1), 90, "y"),
        Rotation((0,), 45.5, 12.25),
        Delay(0.034722),
        Couple((0, 1), 0.5),
        Crush(False),
        MultiQuantumFilter({-2, 2}),
        FrameShift(1, -90.0),
    )
    text = format_pulses(prog)
    assert format_pulses(parse_pulses(text)) == text
    first = parse_pulses(text).elements[0]
    assert first.targets == (0, 1)
    assert resolve_phase(first.phase) == 90.0


def test_pulse_phase_names_are_canonical():
    text = format_pulses(program(Rotation((0,), 90, 270.0)))
    assert "phase=-y" in text
    assert resolve_phase(parse_pulses(text).elements[0].phase) == 270.0


def test_spins_are_one_based_in_text():
    prog = parse_pulses("PULSE targets=1 angle=90 phase=x\n")
    assert prog.elements[0].targets == (0,)


def test_pulse_errors():
    with pytest.raises(ParseError) as err:
        parse_pulses("PULSE targets=1 angle=bad phase=x\n")
    assert "not a number" in str(err.value)
    with pytest.raises(ParseError):
        parse_pulses("WAIT t=1\n")


@pytest.mark.parametrize(
    "parse,text,column",
    [
        (parse_system, "SPIN a 1H nan\n", 11),
        (parse_system, "SPIN a 1H 0\nSPIN b 1H 5\nJ a b inf\n", 7),
        (parse_pulses, "PULSE targets=1 angle=nan phase=x\n", 17),
        (parse_pulses, "DELAY t=inf\n", 7),
        (parse_circuit, "CPHASE q0 q1 -inf\n", 14),
    ],
)
def test_non_finite_numbers_are_parse_errors(parse, text, column):
    with pytest.raises(ParseError, match="not finite") as err:
        parse(text)
    assert err.value.line == text.count("\n") and err.value.column == column


def test_non_finite_pulse_phase_is_a_parse_error():
    with pytest.raises(ParseError, match="bad phase"):
        parse_pulses("PULSE targets=1 angle=90 phase=nan\n")


# ---------------------------------------------------------------------------
# spectrum CSV


def test_spectrum_csv_uses_spin_names():
    system = spin_pair(7.2, offsets=(381.5, -381.5), names=("H5", "H6"))
    rho = basis_projector("00") - np.eye(4) / 4
    spec = read_spectrum(rho, system, observe=[0])
    text = spectrum_csv(spec, system)
    lines = text.strip().split("\n")
    assert lines[0] == "spin,partner_bits,freq_hz,amp_re,amp_im"
    assert lines[1] == "H5,0,377.9,0.5,0"


def test_spectrum_csv_single_spin_has_no_partners():
    from nmrqc.core import SpinSystem

    lone = SpinSystem(names=("a",), species=("1H",), offsets=(50.0,))
    rho = np.diag([0.5, -0.5]).astype(complex)
    rho = run_program(rho, program(Rotation((0,), 90, "y")), lone)
    text = spectrum_csv(read_spectrum(np.diag([0.5, -0.5]).astype(complex), lone), lone)
    assert "a,-,50," in text
