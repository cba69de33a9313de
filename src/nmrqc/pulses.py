"""Idealised pulse programs: hard rotations, free precession, gradients, filters.

A program is a flat sequence of elements executed left to right. Pulses are
instantaneous rotations exp(-i theta I_phi) with I_phi = Ix cos(phi) +
Iy sin(phi) (or Iz for z pulses); free precession runs under the weak-coupling
Hamiltonian H = sum_i 2 pi nu_i I_iz + sum_{i<j} pi J_ij 2 I_iz I_jz. Both
are built from closed forms, never numerical exponentials: rotations factor
into single-spin 2x2 blocks and H is diagonal.

Angles and phases are degrees at this interface and radians only inside the
trig calls. Durations are seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .core import SpinSystem, coherence_order_projection, _spin_bits, _spin_count

PHASE_NAMES = {"x": 0.0, "y": 90.0, "-x": 180.0, "-y": 270.0}


class ProgramError(ValueError):
    """An element is inconsistent with the spin system it runs on."""


@dataclass(frozen=True)
class Rotation:
    """Hard pulse: rotate targets by angle about the phase axis.

    phase is degrees in the transverse plane, or the string "z" for a
    rotation about the longitudinal axis (realised in hardware as a frame
    bookkeeping step, but an honest unitary here).
    """

    targets: tuple[int, ...]
    angle: float
    phase: Union[float, str] = 0.0


@dataclass(frozen=True)
class Delay:
    """Free precession for duration seconds under offsets and couplings."""

    duration: float


@dataclass(frozen=True)
class Couple:
    """Pure scalar-coupling evolution of one pair by fraction of a 1/J period.

    fraction 0.5 is the antiphase condition (duration 1/(2J)). Offsets of the
    pair and everything touching other spins are taken as refocused; the
    element stands for the spin-echo sandwich that achieves this.
    """

    pair: tuple[int, int]
    fraction: float


@dataclass(frozen=True)
class Crush:
    """Gradient crusher: erase coherences, keeping order zero or diagonal only.

    keep_zero_quantum True models a homonuclear gradient (zero-quantum terms
    survive along with populations); False models the heteronuclear case where
    only the diagonal is retained.
    """

    keep_zero_quantum: bool = True


@dataclass(frozen=True)
class MultiQuantumFilter:
    """Keep only matrix elements whose coherence order is in orders."""

    orders: tuple[int, ...]


@dataclass(frozen=True)
class FrameShift:
    """Deferred z rotation of one spin by phase degrees.

    Compilers emit these at program end instead of physical z pulses; running
    one applies the rotation so a completed program matches its ideal unitary.
    A spectrometer would instead rotate the receiver phase.
    """

    spin: int
    phase: float


Element = Union[Rotation, Delay, Couple, Crush, MultiQuantumFilter, FrameShift]


@dataclass(frozen=True)
class PulseProgram:
    elements: tuple[Element, ...]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __add__(self, other: "PulseProgram") -> "PulseProgram":
        return PulseProgram(self.elements + other.elements)


def program(*elements: Element) -> PulseProgram:
    return PulseProgram(tuple(elements))


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ProgramError(f"{what} {value} is not finite")
    return value


def resolve_phase(phase: Union[float, str]) -> Union[float, str]:
    """Normalise a phase spec to degrees, or the literal "z"."""
    if isinstance(phase, str):
        key = phase.strip().lower()
        if key == "z":
            return "z"
        if key in PHASE_NAMES:
            return PHASE_NAMES[key]
        try:
            value = float(key)
        except ValueError:
            raise ProgramError(f"unknown pulse phase {phase!r}") from None
    else:
        value = float(phase)
    return _finite(value, "pulse phase")


# ---------------------------------------------------------------------------
# propagators

def _rotation(n: int, targets, angle_deg: float, phase):
    """Checked hard pulse as (targets, 2x2), or a z pulse as (None, phases)."""
    targets = tuple(targets)
    if not targets:
        raise ProgramError("a pulse needs at least one target spin")
    if len(set(targets)) != len(targets):
        raise ProgramError(f"duplicate pulse targets {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ProgramError(f"pulse target {t} outside 0..{n - 1}")
    half = math.radians(_finite(angle_deg, "pulse angle")) / 2.0
    phase = resolve_phase(phase)
    if phase == "z":  # exp(-i theta sum_k Iz_k) is diagonal
        mz = 0.5 - _spin_bits(n)[:, list(targets)]
        return None, np.exp(-2j * half * mz.sum(axis=1))
    c, s = math.cos(half), math.sin(half)
    e = complex(math.cos(math.radians(phase)), math.sin(math.radians(phase)))
    # exp(-i theta (Ix cos phi + Iy sin phi)) in closed form, e = exp(i phi)
    return targets, np.array([[c, -1j * s * e.conjugate()], [-1j * s * e, c]])


def _delay(element: Delay, system: SpinSystem):
    duration = _finite(element.duration, "delay duration")
    if duration < 0:
        raise ProgramError(f"delay duration {duration} is negative")
    return None, np.exp(-1j * hamiltonian_diagonal(system) * duration)


def _couple(element: Couple, system: SpinSystem):
    i, j = element.pair
    if i == j or not (0 <= i < system.n and 0 <= j < system.n):
        raise ProgramError(f"bad coupling pair {element.pair} for {system.n} spins")
    if system.j(i, j) == 0.0:
        raise ProgramError(
            f"spins {system.names[i]} and {system.names[j]} are uncoupled; "
            "a coupling period cannot be realised")
    fraction = _finite(element.fraction, "coupling fraction")
    mz = 0.5 - _spin_bits(system.n)  # Iz eigenvalue of each spin per index
    return None, np.exp(-2j * math.pi * fraction * mz[:, i] * mz[:, j])


def _left(m: np.ndarray, targets, u: np.ndarray) -> np.ndarray:
    """U @ m for an element in the form (targets, 2x2) or (None, phases).

    Viewing the rows as (2^k, 2, rest) puts spin k's bit on axis 1, where u
    contracts it: O(4^n) per target, not the O(8^n) of a dense product.
    """
    if targets is None:
        return u[:, None] * m
    for k in targets:
        m = np.matmul(u, m.reshape(2 ** k, 2, -1)).reshape(m.shape)
    return m


def _conjugate(rho: np.ndarray, targets, u: np.ndarray) -> np.ndarray:
    """U @ rho @ U^dagger for an element in the forms of _left."""
    if targets is None:
        return u[:, None] * rho * u.conj()
    half = np.conjugate(_left(rho, targets, u).T, order="C")  # rho^dag U^dag
    return np.conjugate(_left(half, targets, u).T, order="C")


def rotation_propagator(n: int, targets, angle_deg: float, phase) -> np.ndarray:
    """Unitary of a hard pulse hitting every spin in targets identically."""
    return _left(np.eye(2 ** n, dtype=complex), *_rotation(n, targets, angle_deg, phase))


@lru_cache(maxsize=64)
def hamiltonian_diagonal(system: SpinSystem) -> np.ndarray:
    """Diagonal of H in rad/s over the computational basis.

    Weak coupling keeps H diagonal, so free precession is elementwise phase
    accumulation. Cached per system.
    """
    mz = 0.5 - _spin_bits(system.n)  # Iz eigenvalue of each spin per index
    diag = mz @ (2 * math.pi * np.array(system.offsets))
    for (i, j), hz in system.couplings:
        diag += 2 * math.pi * hz * mz[:, i] * mz[:, j]
    return diag


def delay_propagator(system: SpinSystem, duration: float) -> np.ndarray:
    """Free precession unitary exp(-i H t); t must not be negative."""
    return np.diag(_delay(Delay(duration), system)[1])


def couple_propagator(system: SpinSystem, pair, fraction: float) -> np.ndarray:
    """Pure coupling evolution exp(-i 2 pi fraction IzIz) on one pair.

    fraction is the duration in units of 1/J, so the matrix depends only on
    fraction; a zero coupling still raises because no duration could realise
    the element.
    """
    return np.diag(_couple(Couple(pair, fraction), system)[1])


def crush(rho: np.ndarray, keep_zero_quantum: bool = True) -> np.ndarray:
    """Apply a gradient crusher to a state."""
    if keep_zero_quantum:
        return coherence_order_projection(rho, {0})
    return np.diag(np.diag(rho))


def mq_filter(rho: np.ndarray, orders) -> np.ndarray:
    """Keep the listed coherence orders, e.g. {+3, -3} for a triple-quantum filter."""
    return coherence_order_projection(rho, orders)


# ---------------------------------------------------------------------------
# execution

_ACTIONS = {Rotation: lambda e, s: _rotation(s.n, e.targets, e.angle, e.phase),
            FrameShift: lambda e, s: _rotation(s.n, (e.spin,), e.phase, "z"),
            Delay: _delay, Couple: _couple}


def _action(pos: int, element: Element, system: SpinSystem):
    """Element pos in the forms of _left, None if projective; errors name it."""
    act = _ACTIONS.get(type(element))
    try:
        return act(element, system) if act else None
    except ProgramError as exc:
        raise ProgramError(f"element {pos} ({type(element).__name__}): {exc}") from None


def run_program(rho: np.ndarray, prog: PulseProgram, system: SpinSystem) -> np.ndarray:
    """Left fold of a program over a state.

    Unitary elements conjugate the state; crushers and filters project it.
    Errors name the offending element index.
    """
    n = _spin_count(rho)
    if n != system.n:
        raise ProgramError(f"state has {n} spins but system has {system.n}")
    for pos, element in enumerate(prog):
        if isinstance(element, Crush):
            rho = crush(rho, element.keep_zero_quantum)
        elif isinstance(element, MultiQuantumFilter):
            rho = mq_filter(rho, element.orders)
        else:
            rho = _conjugate(rho, *_action(pos, element, system))
    return rho


def program_propagator(prog: PulseProgram, system: SpinSystem) -> np.ndarray:
    """Total unitary of a program containing no crushers or filters."""
    u = np.eye(system.dim, dtype=complex)
    for pos, element in enumerate(prog):
        action = _action(pos, element, system)
        if action is None:
            raise ProgramError(
                f"element {pos} ({type(element).__name__}) is projective; "
                "the program has no single unitary")
        u = _left(u, *action)
    return u
