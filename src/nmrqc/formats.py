"""Text formats: spin-system configs, circuit files, pulse programs, CSV.

All three grammars are line oriented with whitespace-separated tokens and
# comments. Parsers report the line and column of the first offending
token; emitters produce a canonical form that parses back to the same
objects, with numbers printed to six significant digits and angles in
degrees.
"""

from __future__ import annotations

import difflib
import math

import numpy as np

from .core import SpinSystem, SpinSystemError
from .gates import (Circuit, CNot, ControlledPhase, Gate, GateError, Hadamard,
                    Not, Oracle, PseudoHadamard, PseudoHadamardInv, Swap,
                    Toffoli, gate_qubits, phase_oracle, xor_oracle)
from .pulses import (Couple, Crush, Delay, FrameShift, MultiQuantumFilter,
                     PulseProgram, Rotation, program, resolve_phase)
from .readout import Spectrum


class ParseError(ValueError):
    """Syntax or reference error, located by line and column (1-based)."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _num(x: float) -> str:
    if abs(x) < 1e-12:
        return "0"
    return "%.6g" % x


def _lines(text: str):
    """Yield (line_number, [(column, token), ...]) for nonempty lines."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = []
        col = 0
        for tok in line.split():
            col = line.index(tok, col)
            tokens.append((col + 1, tok))
            col += len(tok)
        if tokens:
            yield ln, tokens


def _float(ln: int, col: int, tok: str, what: str) -> float:
    try:
        value = float(tok)
    except ValueError:
        raise ParseError(ln, col, f"{what} {tok!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(ln, col, f"{what} {tok!r} is not finite")
    return value


def _int(ln: int, col: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(ln, col,
                         f"{what} {tok!r} is not an integer") from None


# ---------------------------------------------------------------------------
# spin-system config

def parse_system(text: str) -> SpinSystem:
    """Read SPIN/J/CENTER lines into a SpinSystem.

    `SPIN name species offset_hz` declares a spin, `J name1 name2 hz` a
    coupling between two already-declared spins, and a bare `CENTER` recentres
    all offsets on their mean (handy for specifying a multiplet by total
    separation).
    """
    names: list[str] = []
    species: list[str] = []
    offsets: list[float] = []
    couplings: list[tuple[tuple[int, int], float]] = []
    center = False
    for ln, tokens in _lines(text):
        col0, word = tokens[0]
        if word == "SPIN":
            if len(tokens) != 4:
                raise ParseError(ln, col0,
                                 "SPIN takes name, species, offset_hz")
            name = tokens[1][1]
            if name in names:
                raise ParseError(ln, tokens[1][0],
                                 f"spin {name!r} already declared")
            names.append(name)
            species.append(tokens[2][1])
            offsets.append(_float(ln, tokens[3][0], tokens[3][1], "offset"))
        elif word == "J":
            if len(tokens) != 4:
                raise ParseError(ln, col0, "J takes name1, name2, hz")
            pair = []
            for col, tok in tokens[1:3]:
                if tok not in names:
                    raise ParseError(ln, col, f"unknown spin {tok!r}")
                pair.append(names.index(tok))
            if pair[0] == pair[1]:
                raise ParseError(ln, tokens[1][0],
                                 "a spin cannot couple to itself")
            hz = _float(ln, tokens[3][0], tokens[3][1], "coupling")
            couplings.append(((min(pair), max(pair)), hz))
        elif word == "CENTER":
            if len(tokens) != 1:
                raise ParseError(ln, tokens[1][0],
                                 "CENTER takes no arguments")
            center = True
        else:
            raise ParseError(ln, col0, f"unknown directive {word!r}")
    if not names:
        raise ParseError(1, 1, "no spins declared")
    if center:
        mean = sum(offsets) / len(offsets)
        offsets = [v - mean for v in offsets]
    try:
        return SpinSystem(tuple(names), tuple(species), tuple(offsets),
                          tuple(couplings))
    except SpinSystemError as e:
        raise ParseError(1, 1, str(e)) from None


def format_system(system: SpinSystem) -> str:
    out = []
    for name, sp, off in zip(system.names, system.species, system.offsets):
        out.append(f"SPIN {name} {sp} {_num(off)}")
    for (i, j), hz in system.couplings:
        out.append(f"J {system.names[i]} {system.names[j]} {_num(hz)}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# circuit DSL

_GATE_WORDS = ("H", "PH", "PHI", "X", "CNOT", "CPHASE", "TOFFOLI", "SWAP",
               "ORACLE")


def _qubit(ln: int, col: int, tok: str, n_qubits) -> int:
    if not (tok.startswith("q") and tok[1:].isdigit()):
        raise ParseError(ln, col, f"expected a qubit like q0, got {tok!r}")
    idx = int(tok[1:])
    if n_qubits is not None and idx >= n_qubits:
        raise ParseError(ln, col,
                         f"unknown qubit {tok!r} on a {n_qubits}-qubit system")
    return idx


def parse_circuit(text: str, n_qubits=None) -> Circuit:
    """Read gate mnemonics into a Circuit.

    Qubits are written q0, q1, ... in system order. When n_qubits is not
    given it is inferred from the highest qubit mentioned. CPHASE takes its
    angle in degrees. ORACLE comes in two shapes: `ORACLE f01 q0 q1` (flip
    the last qubit per the truth table over the others) and
    `ORACLE table=0110 qubits=q0,q1` (phase flip by table entry, most
    significant input first).
    """
    gates: list[Gate] = []
    top = -1
    for ln, tokens in _lines(text):
        col0, word = tokens[0]
        args = tokens[1:]
        if word not in _GATE_WORDS:
            hint = difflib.get_close_matches(word, _GATE_WORDS, n=1)
            extra = f"; did you mean {hint[0]}?" if hint else ""
            raise ParseError(ln, col0, f"unknown gate {word!r}{extra}")
        try:
            gate = _parse_gate(ln, col0, word, args, n_qubits)
        except GateError as e:
            raise ParseError(ln, col0, str(e)) from None
        gates.append(gate)
        top = max(top, *gate_qubits(gate))
    size = n_qubits if n_qubits is not None else top + 1
    if size < 1:
        raise ParseError(1, 1, "empty circuit with no qubit count given")
    try:
        return Circuit(size, tuple(gates))
    except GateError as e:
        raise ParseError(1, 1, str(e)) from None


def _arity(ln, col, word, args, n):
    if len(args) != n:
        raise ParseError(ln, col, f"{word} takes {n} argument"
                         + ("s" if n != 1 else ""))


def _parse_gate(ln, col0, word, args, n_qubits) -> Gate:
    q = lambda i: _qubit(ln, args[i][0], args[i][1], n_qubits)
    if word in ("H", "PH", "PHI", "X"):
        _arity(ln, col0, word, args, 1)
        cls = {"H": Hadamard, "PH": PseudoHadamard,
               "PHI": PseudoHadamardInv, "X": Not}[word]
        return cls(q(0))
    if word == "CNOT":
        _arity(ln, col0, word, args, 2)
        return CNot(q(0), q(1))
    if word == "SWAP":
        _arity(ln, col0, word, args, 2)
        return Swap(q(0), q(1))
    if word == "CPHASE":
        _arity(ln, col0, word, args, 3)
        deg = _float(ln, args[2][0], args[2][1], "angle")
        return ControlledPhase(q(0), q(1), np.radians(deg))
    if word == "TOFFOLI":
        _arity(ln, col0, word, args, 3)
        return Toffoli(q(0), q(1), q(2))
    return _parse_oracle(ln, col0, args, n_qubits)


def _parse_oracle(ln, col0, args, n_qubits) -> Oracle:
    if not args:
        raise ParseError(ln, col0, "ORACLE needs arguments")
    first = args[0][1]
    if "=" in first:
        keys = dict()
        for col, tok in args:
            if "=" not in tok:
                raise ParseError(ln, col, f"expected key=value, got {tok!r}")
            k, v = tok.split("=", 1)
            keys[k] = (col, v)
        missing = {"table", "qubits"} - keys.keys()
        if missing:
            raise ParseError(ln, col0,
                             f"ORACLE missing {sorted(missing)[0]}=")
        extra = keys.keys() - {"table", "qubits"}
        if extra:
            col, _ = keys[sorted(extra)[0]]
            raise ParseError(ln, col,
                             f"ORACLE does not take {sorted(extra)[0]}=")
        tcol, tbits = keys["table"]
        if not tbits or any(c not in "01" for c in tbits):
            raise ParseError(ln, tcol, f"bad truth table {tbits!r}")
        qcol, qtoks = keys["qubits"]
        qubits = tuple(_qubit(ln, qcol, t, n_qubits)
                       for t in qtoks.split(","))
        table = tuple(int(c) for c in tbits)
        if len(table) != 2 ** len(qubits):
            raise ParseError(ln, tcol,
                             f"table of {len(table)} entries does not fit "
                             f"{len(qubits)} qubits")
        return phase_oracle(table, qubits)
    if not (first.startswith("f") and len(first) > 1
            and all(c in "01" for c in first[1:])):
        raise ParseError(ln, args[0][0],
                         f"expected fBITS or table=..., got {first!r}")
    table = tuple(int(c) for c in first[1:])
    if len(table) & (len(table) - 1):
        raise ParseError(ln, args[0][0],
                         f"table {first!r} length is not a power of two")
    qubits = tuple(_qubit(ln, col, tok, n_qubits) for col, tok in args[1:])
    if len(table) != 2 ** (len(qubits) - 1):
        raise ParseError(ln, args[0][0],
                         f"table {first!r} needs {len(table).bit_length()} "
                         f"qubits (inputs plus target last)")
    return xor_oracle(table, qubits)


def format_circuit(circ: Circuit) -> str:
    out = []
    for gate in circ.gates:
        out.append(_format_gate(gate))
    return "\n".join(out) + "\n"


def _format_gate(gate: Gate) -> str:
    if isinstance(gate, Hadamard):
        return f"H q{gate.qubit}"
    if isinstance(gate, PseudoHadamard):
        return f"PH q{gate.qubit}"
    if isinstance(gate, PseudoHadamardInv):
        return f"PHI q{gate.qubit}"
    if isinstance(gate, Not):
        return f"X q{gate.qubit}"
    if isinstance(gate, CNot):
        return f"CNOT q{gate.control} q{gate.target}"
    if isinstance(gate, Swap):
        return f"SWAP q{gate.q1} q{gate.q2}"
    if isinstance(gate, ControlledPhase):
        return (f"CPHASE q{gate.q1} q{gate.q2} "
                f"{_num(float(np.degrees(gate.phi)))}")
    if isinstance(gate, Toffoli):
        return f"TOFFOLI q{gate.c1} q{gate.c2} q{gate.target}"
    if isinstance(gate, Oracle):
        if gate.kind is None:
            raise ValueError("an oracle with no declared kind has no text form")
        bits = "".join(str(b) for b in gate.table)
        if gate.kind == "xor":
            qs = " ".join(f"q{i}" for i in gate.qubits)
            return f"ORACLE f{bits} {qs}"
        if gate.kind == "phase":
            qs = ",".join(f"q{i}" for i in gate.qubits)
            return f"ORACLE table={bits} qubits={qs}"
        raise ValueError("an oracle with no declared kind has no text form")
    raise ValueError(f"cannot format {type(gate).__name__}")


# ---------------------------------------------------------------------------
# pulse-program text

_PHASE_WORDS = {0.0: "x", 90.0: "y", 180.0: "-x", 270.0: "-y"}


def _kv(ln, args, allowed: tuple[str, ...]) -> dict:
    out = {}
    for col, tok in args:
        if "=" not in tok:
            raise ParseError(ln, col, f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in allowed:
            raise ParseError(ln, col, f"unknown key {k!r}")
        if k in out:
            raise ParseError(ln, col, f"duplicate key {k!r}")
        out[k] = (col, v)
    return out


def _need(ln, col0, word, kv, key):
    if key not in kv:
        raise ParseError(ln, col0, f"{word} needs {key}=")
    return kv[key]


def _spin_list(ln, col, value: str) -> tuple[int, ...]:
    out = []
    for part in value.split(","):
        k = _int(ln, col, part, "spin")
        if k < 1:
            raise ParseError(ln, col, "spins are numbered from 1")
        out.append(k - 1)
    return tuple(out)


def parse_pulses(text: str) -> PulseProgram:
    """Read a pulse program; spins are numbered from 1 in the text form."""
    elements = []
    for ln, tokens in _lines(text):
        col0, word = tokens[0]
        args = tokens[1:]
        if word == "PULSE":
            kv = _kv(ln, args, ("targets", "angle", "phase"))
            tcol, tval = _need(ln, col0, word, kv, "targets")
            acol, aval = _need(ln, col0, word, kv, "angle")
            pcol, pval = _need(ln, col0, word, kv, "phase")
            try:
                phase = resolve_phase(pval)
            except ValueError:
                raise ParseError(ln, pcol,
                                 f"bad phase {pval!r}") from None
            elements.append(Rotation(_spin_list(ln, tcol, tval),
                                     _float(ln, acol, aval, "angle"), phase))
        elif word == "DELAY":
            kv = _kv(ln, args, ("t",))
            col, val = _need(ln, col0, word, kv, "t")
            elements.append(Delay(_float(ln, col, val, "duration")))
        elif word == "COUPLE":
            kv = _kv(ln, args, ("pair", "frac"))
            pcol, pval = _need(ln, col0, word, kv, "pair")
            fcol, fval = _need(ln, col0, word, kv, "frac")
            pair = _spin_list(ln, pcol, pval)
            if len(pair) != 2:
                raise ParseError(ln, pcol, "pair takes exactly two spins")
            elements.append(Couple(pair, _float(ln, fcol, fval, "fraction")))
        elif word == "CRUSH":
            kv = _kv(ln, args, ("zq",))
            col, val = _need(ln, col0, word, kv, "zq")
            if val not in ("keep", "kill"):
                raise ParseError(ln, col, "zq must be keep or kill")
            elements.append(Crush(keep_zero_quantum=(val == "keep")))
        elif word == "MQFILTER":
            kv = _kv(ln, args, ("orders",))
            col, val = _need(ln, col0, word, kv, "orders")
            orders = tuple(_int(ln, col, p, "order")
                           for p in val.split(","))
            elements.append(MultiQuantumFilter(orders))
        elif word == "FRAME":
            kv = _kv(ln, args, ("spin", "phase"))
            scol, sval = _need(ln, col0, word, kv, "spin")
            pcol, pval = _need(ln, col0, word, kv, "phase")
            spin = _int(ln, scol, sval, "spin")
            if spin < 1:
                raise ParseError(ln, scol, "spins are numbered from 1")
            elements.append(FrameShift(spin - 1,
                                       _float(ln, pcol, pval, "phase")))
        else:
            known = ("PULSE", "DELAY", "COUPLE", "CRUSH", "MQFILTER", "FRAME")
            hint = difflib.get_close_matches(word, known, n=1)
            extra = f"; did you mean {hint[0]}?" if hint else ""
            raise ParseError(ln, col0, f"unknown element {word!r}{extra}")
    return program(*elements)


def _phase_text(phase) -> str:
    if phase == "z":
        return "z"
    value = float(phase) % 360.0
    if value in _PHASE_WORDS:
        return _PHASE_WORDS[value]
    return _num(value)


def format_pulses(prog: PulseProgram) -> str:
    out = []
    for el in prog:
        if isinstance(el, Rotation):
            targets = ",".join(str(t + 1) for t in el.targets)
            out.append(f"PULSE targets={targets} angle={_num(el.angle)} "
                       f"phase={_phase_text(resolve_phase(el.phase))}")
        elif isinstance(el, Delay):
            out.append(f"DELAY t={_num(el.duration)}")
        elif isinstance(el, Couple):
            pair = ",".join(str(t + 1) for t in el.pair)
            out.append(f"COUPLE pair={pair} frac={_num(el.fraction)}")
        elif isinstance(el, Crush):
            out.append("CRUSH zq=" + ("keep" if el.keep_zero_quantum
                                      else "kill"))
        elif isinstance(el, MultiQuantumFilter):
            orders = ",".join(f"{o:+d}" for o in el.orders)
            out.append(f"MQFILTER orders={orders}")
        elif isinstance(el, FrameShift):
            out.append(f"FRAME spin={el.spin + 1} phase={_num(el.phase)}")
        else:
            raise ValueError(f"cannot format {type(el).__name__}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# spectrum CSV

def spectrum_csv(spec: Spectrum, system: SpinSystem) -> str:
    """One line per spectral line: spin name, partner bits, freq, Re, Im.

    partner_bits is "-" for an uncoupled spin. Components below the
    amplitude floor print as 0 so that numerically silent parts do not
    leak noise digits into the output.
    """
    out = ["spin,partner_bits,freq_hz,amp_re,amp_im"]
    for ln in spec:
        bits = ln.partner_bits if ln.partner_bits else "-"
        out.append(f"{system.names[ln.spin]},{bits},{_num(ln.freq_hz)},"
                   f"{_num(ln.amp.real)},{_num(ln.amp.imag)}")
    return "\n".join(out) + "\n"
