"""Idealised spectra, eigenstate assignment, and tomography.

A spectrum here is a list of delta lines, one per observed spin and
partner-spin configuration, each carrying a complex amplitude: the real
part is the absorptive (x) signal, the imaginary part the dispersive (y)
signal, and a spin in |0> read out with a 90 y pulse gives a positive real
line. Which line of a multiplet lights up encodes the partners' states,
and the sign of the line encodes the spin's own state relative to a
reference spectrum; that pair of facts is the whole readout story.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import SpinSystem, basis_element, _all_labels, _spin_count
from .pulses import _conjugate, _rotation, rotation_propagator

AMP_DROP = 1e-12


class ReadoutError(ValueError):
    """Raised when a spectrum cannot be produced or interpreted."""


@dataclass(frozen=True)
class SpectrumLine:
    spin: int
    partner_bits: str
    freq_hz: float
    amp: complex


@dataclass(frozen=True)
class Spectrum:
    lines: tuple[SpectrumLine, ...]

    def __iter__(self):
        return iter(self.lines)

    def __len__(self) -> int:
        return len(self.lines)

    def spins(self) -> tuple[int, ...]:
        return tuple(sorted({ln.spin for ln in self.lines}))

    def for_spin(self, spin: int) -> tuple[SpectrumLine, ...]:
        return tuple(ln for ln in self.lines if ln.spin == spin)

    def total(self, spin: int) -> complex:
        return sum((ln.amp for ln in self.for_spin(spin)), 0j)


def _check_observe(system: SpinSystem, observe) -> tuple[int, ...]:
    if observe is None:
        return tuple(range(system.n))
    spins = tuple(observe)
    for s in spins:
        if not 0 <= s < system.n:
            raise ReadoutError(f"cannot observe spin {s} of {system.n}")
    return spins


def _all_lines(rho: np.ndarray, system: SpinSystem,
               observe: Iterable[int]) -> list[SpectrumLine]:
    """Every (spin, partner configuration) line, zero amplitudes included."""
    n = system.n
    out: list[SpectrumLine] = []
    for i in observe:
        partners = system.partners(i)
        ibit = 1 << (n - 1 - i)
        rest = [k for k in range(n) if k != i and k not in partners]
        for bits in itertools.product((0, 1), repeat=len(partners)):
            freq = system.offsets[i] + sum(
                system.j(i, p) * (b - 0.5) for p, b in zip(partners, bits))
            base = sum(b << (n - 1 - p) for p, b in zip(partners, bits))
            amp = 0j
            for other in itertools.product((0, 1), repeat=len(rest)):
                lo = base + sum(b << (n - 1 - k) for k, b in zip(rest, other))
                amp += rho[lo | ibit, lo]
            label = "".join(str(b) for b in bits)
            out.append(SpectrumLine(i, label, freq, amp))
    return out


def spectrum(rho: np.ndarray, system: SpinSystem, observe=None,
             detector_phases=None) -> Spectrum:
    """Stick spectrum of a state; lines below the amplitude floor are dropped.

    A purely diagonal state has no transverse magnetization and comes back
    empty; excitation pulses are the caller's job (see read_spectrum).
    detector_phases, degrees per spin, reads the spectrum as if pending
    frame shifts of those angles had been applied to the state first.
    """
    if _spin_count(rho) != system.n:
        raise ReadoutError("state and system disagree on spin count")
    spins = _check_observe(system, observe)
    lines = _all_lines(rho, system, spins)
    if detector_phases is not None:
        if len(detector_phases) != system.n:
            raise ReadoutError(f"{len(detector_phases)} detector phases "
                               f"for {system.n} spins")
        turn = [np.exp(1j * np.radians(p)) for p in detector_phases]
        lines = [SpectrumLine(ln.spin, ln.partner_bits, ln.freq_hz,
                              ln.amp * turn[ln.spin]) for ln in lines]
    kept = tuple(ln for ln in lines if abs(ln.amp) > AMP_DROP)
    return Spectrum(kept)


def read_spectrum(rho: np.ndarray, system: SpinSystem, observe=None,
                  detector_phases=None) -> Spectrum:
    """Excite and observe each requested spin in its own experiment.

    A 90 y pulse on just one spin turns its z polarization into x
    magnetization without scrambling the others, so a pseudo-pure
    eigenstate yields exactly one line per spin. Results are merged into a
    single spectrum.
    """
    spins = _check_observe(system, observe)
    lines: list[SpectrumLine] = []
    for i in spins:
        excited = _conjugate(rho, *_rotation(system.n, (i,), 90.0, "y"))
        lines.extend(spectrum(excited, system, (i,),
                              detector_phases=detector_phases).lines)
    return Spectrum(tuple(lines))


def assign_eigenstates(spec: Spectrum, reference: Spectrum) -> str:
    """Read eigenstate bits off line signs, checked against line positions.

    The reference comes from the same readout applied to the known |0...0>
    state. A spin whose total real amplitude matches the reference sign
    reads 0, opposite sign reads 1; amplitudes smaller than 1e-6 of the
    reference are refused as indeterminate. Each spin's strongest line
    also names its partners' bits through its multiplet position, and any
    disagreement with the sign reading is an error rather than a guess.
    """
    spins = reference.spins()
    if not spins:
        raise ReadoutError("reference spectrum is empty")
    bits: dict[int, int] = {}
    for s in spins:
        ref = reference.total(s).real
        if abs(ref) < AMP_DROP:
            raise ReadoutError(f"reference line for spin {s} vanishes")
        meas = spec.total(s).real
        if abs(meas) < 1e-6 * abs(ref):
            raise ReadoutError(
                f"spin {s}: amplitude {meas:.2e} is too small to assign")
        bits[s] = 0 if (meas > 0) == (ref > 0) else 1
    for s in spins:
        strongest = max(spec.for_spin(s), key=lambda ln: abs(ln.amp))
        others = [p for p in spins if p != s]
        # Partner labels run over coupled spins in ascending index order.
        # Without the system in hand the indices are only recoverable when
        # every other observed spin contributes a label position.
        if len(strongest.partner_bits) != len(others):
            continue
        for p, c in zip(others, strongest.partner_bits):
            if bits[p] != int(c):
                raise ReadoutError(
                    f"spin {s}: line position says partner {p} is |{c}> "
                    f"but its own line says |{bits[p]}>")
    return "".join(str(bits[s]) for s in spins)


def tomography(rho_true: np.ndarray, system: SpinSystem,
               scheme=None) -> dict:
    """Reconstruct a deviation matrix from simulated readout experiments.

    Each experiment applies one 90 degree pulse code per spin, "" for
    none, "x" or "y" for the pulse axis, then records every multiplet line
    of every spin. The default scheme runs all 3^n combinations. Real and
    imaginary parts of all line amplitudes feed one least-squares solve
    for the 4^n - 1 deviation coefficients; the identity component is
    invisible to NMR and is copied from the input trace.
    """
    n = system.n
    if n > 3:
        raise ReadoutError(f"tomography implemented up to 3 spins, "
                           f"got {n}")
    if _spin_count(rho_true) != n:
        raise ReadoutError("state and system disagree on spin count")
    if scheme is None:
        scheme = [codes for codes in
                  itertools.product(("", "x", "y"), repeat=n)]
    scheme = [tuple(codes) for codes in scheme]
    for codes in scheme:
        if len(codes) != n or any(c not in ("", "x", "y") for c in codes):
            raise ReadoutError(f"bad experiment code {codes!r}")

    props = []
    for codes in scheme:
        u = np.eye(2 ** n, dtype=complex)
        for s, c in enumerate(codes):
            if c:
                u = rotation_propagator(n, (s,), 90.0, c) @ u
        props.append(u)

    labels = _all_labels(n)[1:]  # all-E sorts first

    def amps(rho) -> np.ndarray:
        cols = []
        for u in props:
            transformed = u @ rho @ u.conj().T
            for ln in _all_lines(transformed, system, range(n)):
                cols.append(ln.amp)
        v = np.array(cols)
        return np.concatenate([v.real, v.imag])

    design = np.column_stack([amps(basis_element(lb)) for lb in labels])
    if np.linalg.matrix_rank(design) < len(labels):
        raise ReadoutError(
            "readout scheme cannot distinguish all deviation terms; "
            "add pulse combinations")
    target = amps(rho_true)
    coeff, *_ = np.linalg.lstsq(design, target, rcond=None)
    rho_est = sum(c * basis_element(lb) for c, lb in zip(coeff, labels))
    rho_est = rho_est + (np.trace(rho_true) / 2 ** n) * np.eye(2 ** n)
    table = {lb: float(c) for lb, c in zip(labels, coeff)
             if abs(c) > AMP_DROP}
    return {
        "rho_est": rho_est,
        "error": float(np.linalg.norm(rho_est - rho_true)),
        "experiments": len(scheme),
        "coefficients": table,
    }


def broadened(spec: Spectrum, width_hz: float,
              points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Lorentzian profile of a stick spectrum, for plotting only.

    Returns (frequency grid, real absorptive intensity). width_hz is the
    full width at half maximum shared by all lines.
    """
    if not spec.lines:
        return np.array([]), np.array([])
    if width_hz <= 0:
        raise ReadoutError("line width must be positive")
    freqs = [ln.freq_hz for ln in spec.lines]
    lo = min(freqs) - 5 * width_hz
    hi = max(freqs) + 5 * width_hz
    grid = np.linspace(lo, hi, points)
    half = width_hz / 2.0
    signal = np.zeros(points)
    for ln in spec.lines:
        lor = half / ((grid - ln.freq_hz) ** 2 + half ** 2) / np.pi
        signal += ln.amp.real * lor
    return grid, signal
