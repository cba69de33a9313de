"""Compile logic circuits into pulse programs for a concrete spin system.

Qubit k of a circuit lives on spin k. Every z rotation a construction asks
for is absorbed into a per-spin reference frame instead of being emitted:
later pulses on that spin are shifted in phase to compensate, and whatever
frame angle is left at the end of a circuit comes out as explicit FrameShift
elements, so the finished program reproduces the ideal unitary up to a
global phase only.

The two-qubit workhorse is a controlled phase gate built from a stretch of
pure scalar-coupling evolution plus frame shifts on both spins. Controlled
NOT wraps that in a pseudo-Hadamard pair on the target; three controlled
NOTs make a swap; Toffoli and the oracle gates reduce to controlled phases
of smaller angle via a parity trick. No step ever needs a z pulse or a
numerical matrix logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SpinSystem, phase_distance
from .gates import (Circuit, CNot, ControlledPhase, Gate, Hadamard, Not,
                    Oracle, PseudoHadamard, PseudoHadamardInv, Swap, Toffoli,
                    _validate, circuit_unitary, embed)
from .pulses import (Couple, Delay, Element, FrameShift, PulseProgram,
                     Rotation, program_propagator, resolve_phase)

VERIFY_TOL = 1e-8


class CompileError(ValueError):
    """A gate cannot be realised on the given spin system."""


def _reduce(deg: float) -> float:
    """Map an angle in degrees to the representative in [-180, 180)."""
    return (deg + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class FrameState:
    """Accumulated z-rotation per spin, in degrees, reduced mod 360."""

    phases: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases",
                           tuple(_reduce(float(p)) for p in self.phases))

    @staticmethod
    def zero(n: int) -> "FrameState":
        return FrameState((0.0,) * n)


class _Emitter:
    """Accumulates pulse elements while threading the per-spin frames.

    Invariant: the ideal unitary realised so far equals (z rotations by the
    pending frame angles) times (the emitted elements), up to global phase.
    A pulse whose construction calls for phase phi on spin k is therefore
    emitted at phi minus the pending angle of k.
    """

    def __init__(self, system: SpinSystem, frame: FrameState) -> None:
        if len(frame.phases) != system.n:
            raise CompileError(f"frame tracks {len(frame.phases)} spins, "
                               f"system has {system.n}")
        self.system = system
        self.phases = list(frame.phases)
        self.out: list[Element] = []

    def pulse(self, qubit: int, angle: float, nominal_phase: float) -> None:
        emitted = _reduce(nominal_phase - self.phases[qubit])
        self.out.append(Rotation((qubit,), angle, emitted))

    def zrot(self, qubit: int, delta: float) -> None:
        self.phases[qubit] = _reduce(self.phases[qubit] + delta)

    def phase_pair(self, q1: int, q2: int, phi: float,
                   extra_periods: int = 0) -> None:
        """Controlled phase of phi radians via coupling plus frame shifts.

        The coupling element C(f) multiplies |11> by exp(-2 pi i f) once the
        shared one-spin phases are pushed into the frames, each by -180 f
        degrees, so f = (-phi / 2 pi) mod 1 realises diag(1, 1, 1, e^(i phi))
        up to global phase. Any whole extra period gives the same gate from
        a longer evolution, which is what extra_periods exposes.
        """
        frac = (-phi / (2 * math.pi)) % 1.0 + extra_periods
        if frac == 0.0:
            return
        j = self.system.j(q1, q2)
        if j == 0.0:
            names = self.system.names
            raise CompileError(
                f"no coupling between {names[q1]} and {names[q2]}; "
                "a controlled phase between them cannot be realised")
        self.out.append(Couple((min(q1, q2), max(q1, q2)), frac))
        self.zrot(q1, -180.0 * frac)
        self.zrot(q2, -180.0 * frac)

    def mc_phase(self, qubits: tuple[int, ...], phi: float) -> None:
        """Phase e^(i phi) on the all-ones state of the listed qubits.

        One qubit is a bare frame shift; two is phase_pair; more splits off
        two controls a, b with the parity identity
        ab = (a + b - (a xor b)) / 2, costing two CNOTs and three
        controlled phases of half the angle.
        """
        if _reduce(math.degrees(phi)) == 0.0 and phi % (2 * math.pi) == 0.0:
            return
        if len(qubits) == 1:
            self.zrot(qubits[0], math.degrees(phi))
        elif len(qubits) == 2:
            self.phase_pair(qubits[0], qubits[1], phi)
        else:
            a, b, *rest = qubits
            self.gate(CNot(a, b))
            self.mc_phase((b, *rest), -phi / 2)
            self.gate(CNot(a, b))
            self.mc_phase((a, *rest), phi / 2)
            self.mc_phase((b, *rest), phi / 2)

    def diagonal_phases(self, qubits: tuple[int, ...],
                        theta: list[float]) -> None:
        """Realise |x> -> e^(i theta[x]) |x> for a table over the qubits.

        theta is indexed with qubits[0] as the most significant bit. The
        table is reduced to one coefficient per qubit subset (a Moebius
        transform over the subset lattice); each surviving subset becomes
        one multi-controlled phase. The empty subset is a global phase and
        is dropped.
        """
        k = len(qubits)
        coeff = list(theta)
        for i in range(k):
            bit = 1 << i
            for mask in range(2 ** k):
                if mask & bit:
                    coeff[mask] -= coeff[mask ^ bit]
        for mask in range(1, 2 ** k):
            if abs(coeff[mask]) < 1e-12:
                continue
            subset = tuple(qubits[k - 1 - i] for i in reversed(range(k))
                           if (mask >> i) & 1)
            self.mc_phase(subset, coeff[mask])

    def gate(self, g: Gate) -> None:
        if isinstance(g, Hadamard):
            # 90 about y then 180 about x is -iH.
            self.pulse(g.qubit, 90.0, 90.0)
            self.pulse(g.qubit, 180.0, 0.0)
        elif isinstance(g, PseudoHadamard):
            self.pulse(g.qubit, 90.0, 90.0)
        elif isinstance(g, PseudoHadamardInv):
            self.pulse(g.qubit, 90.0, 270.0)
        elif isinstance(g, Not):
            self.pulse(g.qubit, 180.0, 0.0)
        elif isinstance(g, CNot):
            # h on the target turns the controlled phase into controlled NOT.
            self.pulse(g.target, 90.0, 270.0)
            self.phase_pair(g.control, g.target, math.pi)
            self.pulse(g.target, 90.0, 90.0)
        elif isinstance(g, ControlledPhase):
            self.phase_pair(g.q1, g.q2, g.phi)
        elif isinstance(g, Toffoli):
            self.pulse(g.target, 90.0, 270.0)
            self.mc_phase((g.c1, g.c2, g.target), math.pi)
            self.pulse(g.target, 90.0, 90.0)
        elif isinstance(g, Swap):
            self.gate(CNot(g.q1, g.q2))
            self.gate(CNot(g.q2, g.q1))
            self.gate(CNot(g.q1, g.q2))
        elif isinstance(g, Oracle):
            self._oracle(g)
        else:
            raise CompileError(f"cannot compile {type(g).__name__}")

    def _oracle(self, g: Oracle) -> None:
        if g.kind == "phase":
            theta = [math.pi * b for b in g.table]
            self.diagonal_phases(g.qubits, theta)
        elif g.kind == "xor":
            # |x>|b> -> |x>|b + f(x)> is h on the ancilla around the phase
            # table theta(x, b) = pi f(x) b, since X = h Z h^-1 exactly.
            anc = g.qubits[-1]
            theta = [math.pi * fx * b for fx in g.table for b in (0, 1)]
            self.pulse(anc, 90.0, 270.0)
            self.diagonal_phases(g.qubits, theta)
            self.pulse(anc, 90.0, 90.0)
        else:
            raise CompileError(
                f"oracle {g.label!r} carries only a raw matrix; synthesis of "
                "arbitrary unitaries is not supported")

    def frame(self) -> FrameState:
        return FrameState(tuple(self.phases))

    def frame_shifts(self) -> list[Element]:
        """Explicit FrameShift elements closing every pending frame angle."""
        return [FrameShift(spin, theta) for spin, theta in enumerate(self.phases)
                if abs(theta) > 1e-9]


def _merged(elements: list[Element]) -> list[Element]:
    """Drop null rotations and fuse adjacent pulses on the same spins.

    Same phase adds the angles; phases 180 degrees apart subtract them
    (flipping the rotation axis flips the sense). Fused pulses that land on
    a multiple of 360 degrees vanish, up to global phase.
    """
    out: list[Element] = []
    for el in elements:
        if not isinstance(el, Rotation) or el.phase == "z":
            out.append(el)
            continue
        if abs(el.angle % 360.0) < 1e-9:
            continue
        prev = out[-1] if out else None
        if (isinstance(prev, Rotation) and prev.phase != "z"
                and set(prev.targets) == set(el.targets)):
            gap = (resolve_phase(el.phase) - resolve_phase(prev.phase)) % 360.0
            angle = None
            if gap < 1e-9 or gap > 360.0 - 1e-9:
                angle = prev.angle + el.angle
            elif abs(gap - 180.0) < 1e-9:
                angle = prev.angle - el.angle
            if angle is not None:
                out.pop()
                if abs(angle % 360.0) > 1e-9:
                    out.append(Rotation(prev.targets, angle, prev.phase))
                continue
        out.append(el)
    return out


def compile_gate(gate: Gate, system: SpinSystem,
                 frame: FrameState | None = None
                 ) -> tuple[PulseProgram, FrameState]:
    """Pulse program for one gate, threading an incoming frame state.

    The returned program run from scratch equals the ideal gate up to global
    phase once z rotations by the returned frame angles are appended (and
    the incoming frame angles are accounted for on entry).
    """
    qs = _validate(gate)
    if any(q >= system.n for q in qs):
        raise CompileError(f"{type(gate).__name__} on qubits {qs} does not "
                           f"fit a {system.n}-spin system")
    em = _Emitter(system, frame if frame is not None else
                  FrameState.zero(system.n))
    em.gate(gate)
    return PulseProgram(tuple(_merged(em.out))), em.frame()


def compile_circuit(circ: Circuit, system: SpinSystem) -> PulseProgram:
    """Pulse program for a whole circuit, terminal frame shifts included."""
    if circ.n_qubits > system.n:
        raise CompileError(f"circuit needs {circ.n_qubits} qubits but the "
                           f"system has {system.n} spins")
    em = _Emitter(system, FrameState.zero(system.n))
    for g in circ:
        em.gate(g)
    return PulseProgram(tuple(_merged(em.out) + em.frame_shifts()))


def phase_gate_program(system: SpinSystem, pair: tuple[int, int], phi: float,
                       extra_periods: int = 0) -> PulseProgram:
    """Standalone controlled-phase program, frame shifts emitted explicitly.

    extra_periods stretches the coupling time by whole gate periods; the
    propagator is unchanged up to global phase, which is the content of the
    two textbook groupings of this gate (half a period with retarding frame
    shifts, or three half periods with advancing ones).
    """
    em = _Emitter(system, FrameState.zero(system.n))
    em.phase_pair(pair[0], pair[1], phi, extra_periods=extra_periods)
    return PulseProgram(tuple(em.out + em.frame_shifts()))


def verify_compilation(circ: Circuit, system: SpinSystem,
                       prog: PulseProgram | None = None) -> dict:
    """Compare a compiled program against the circuit's ideal unitary.

    Compiles the circuit itself when no program is supplied. Spins beyond
    the circuit's qubits must come out untouched. Returns
    {"max_deviation": float, "pass": bool} at tolerance 1e-8.
    """
    if prog is None:
        prog = compile_circuit(circ, system)
    u = program_propagator(prog, system)
    ideal = embed(circuit_unitary(circ), tuple(range(circ.n_qubits)), system.n)
    dev = phase_distance(u, ideal)
    return {"max_deviation": dev, "pass": bool(dev <= VERIFY_TOL)}


# ---------------------------------------------------------------------------
# refocusing for bystander spins

def _popcount_odd(x: int) -> bool:
    return bin(x).count("1") % 2 == 1


def _echo_train(out: list[Element], labels: dict[int, int], periods: int,
                segment: float) -> None:
    """Delay train with 180x pulses scheduled by binary toggling labels.

    During period p the effective z sign of spin s is (-1)^popcount(
    labels[s] & p); a final pulse set restores every spin to upright. Spins
    with label 0 are never touched. Terms between spins with equal labels
    evolve in full; every other offset and coupling averages to zero over
    the train, which is the point.
    """
    spins = sorted(labels)
    out.append(Delay(segment))
    for p in range(1, periods):
        flip = tuple(s for s in spins if _popcount_odd(labels[s] & ((p - 1) ^ p)))
        if flip:
            out.append(Rotation(flip, 180.0, 0.0))
        out.append(Delay(segment))
    closing = tuple(s for s in spins if _popcount_odd(labels[s] & (periods - 1)))
    if closing:
        out.append(Rotation(closing, 180.0, 0.0))


def insert_refocusing(prog: PulseProgram, system: SpinSystem,
                      active_pair: tuple[int, int]) -> PulseProgram:
    """Expand Delay and Couple elements into echo trains on real hardware.

    Each free-precession stretch is cut into 2^b equal pieces (b counting
    the bystander spins) with 180 degree x pulses toggling every bystander
    on its own binary schedule, so bystander offsets and every coupling
    that touches a bystander cancel exactly while the active pair keeps its
    offsets and mutual coupling. A Couple element doubles the train once
    more to toggle the active spins together, leaving their mutual coupling
    as the only surviving term. Systems of fewer than three spins come back
    unchanged, the plain elements already meaning what they say there.
    """
    a1, a2 = active_pair
    if a1 == a2 or not (0 <= a1 < system.n and 0 <= a2 < system.n):
        raise CompileError(f"bad active pair {active_pair}")
    if system.n < 3:
        return prog
    out: list[Element] = []
    for el in prog:
        if isinstance(el, Delay):
            bystanders = [k for k in range(system.n) if k not in (a1, a2)]
            labels = {k: 0 for k in (a1, a2)}
            labels.update({k: 1 << i for i, k in enumerate(bystanders)})
            periods = 2 ** len(bystanders)
            _echo_train(out, labels, periods, el.duration / periods)
        elif isinstance(el, Couple):
            c1, c2 = el.pair
            j = system.j(c1, c2)
            if j == 0.0:
                raise CompileError(
                    f"spins {system.names[c1]} and {system.names[c2]} are "
                    "uncoupled; their coupling element has no duration")
            duration = el.fraction / j
            if duration < 0:
                raise CompileError(
                    f"coupling fraction {el.fraction} with J = {j} Hz would "
                    "need a negative duration")
            bystanders = [k for k in range(system.n) if k not in (c1, c2)]
            b = len(bystanders)
            labels = {k: 1 << i for i, k in enumerate(bystanders)}
            labels[c1] = labels[c2] = 1 << b
            periods = 2 ** (b + 1)
            _echo_train(out, labels, periods, duration / periods)
        else:
            out.append(el)
    return PulseProgram(tuple(out))


# ---------------------------------------------------------------------------
# transition-selective alternative

def transition_selective_cnot(system: SpinSystem, control: int, target: int,
                              control_state: int = 1) -> np.ndarray:
    """Controlled NOT as a single soft pulse on one multiplet line.

    Returns the propagator of a selective 180 degree pulse driving only the
    target-spin transitions whose control spin sits in control_state (both
    states of any further spins are included; a real soft pulse would
    resolve those lines too, this is the idealised gate). The coupling must
    be nonzero or the lines coincide and nothing is selective.

    Convention: the rotation is taken as a bare state exchange rather than
    exp(-i pi Ix) on the subspace, dropping the -i a literal pulse would
    carry, so applying the gate twice is exactly the identity.
    """
    if control == target:
        raise CompileError("control and target must differ")
    n = system.n
    if not (0 <= control < n and 0 <= target < n):
        raise CompileError(f"spins ({control},{target}) outside 0..{n - 1}")
    if control_state not in (0, 1):
        raise CompileError(f"control_state must be 0 or 1, got {control_state}")
    if system.j(control, target) == 0.0:
        raise CompileError(
            f"spins {system.names[control]} and {system.names[target]} are "
            "uncoupled; their multiplet lines coincide and no transition "
            "can be addressed selectively")
    hit = np.diag([1.0 - control_state, control_state])  # |c><c|
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    local = np.kron(hit, flip) + np.kron(np.eye(2) - hit, np.eye(2))
    return embed(local, (control, target), n)
