"""Deutsch, Deutsch-Jozsa, Grover, and the classical triplet code.

Each algorithm comes as an abstract circuit driver plus, where a published
demonstration exists, the pulse-level realization on the actual two-spin
molecule (cytosine's proton pair, or 1H/13C chloroform). The pulse
realizations read their answers off spectrum line phases, exactly as the
experiments did, not by peeking at the density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import SpinSystem, spin_pair, basis_projector
from .gates import Hadamard, circuit, circuit_unitary, xor_oracle
from .pulses import Delay, PulseProgram, Rotation, program, run_program
from .prep import prep_spatial_cory, prep_temporal_knill
from .readout import Spectrum, read_spectrum, assign_eigenstates, spectrum


class AlgorithmError(ValueError):
    """Bad algorithm input (wrong arity, empty search space, and so on)."""


class PromiseViolation(RuntimeError):
    """The function handed to Deutsch-Jozsa is neither constant nor balanced."""


# ---------------------------------------------------------------------------
# binary functions

@dataclass(frozen=True)
class BinaryFunction:
    """A function {0,1}^n_in -> {0,1} given by its full truth table.

    table[x] is the output for input x read as an integer, most significant
    input bit first.
    """

    n_in: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n_in < 1:
            raise AlgorithmError("a binary function needs at least one input")
        if len(self.table) != 2 ** self.n_in:
            raise AlgorithmError(
                f"truth table has {len(self.table)} entries, "
                f"expected {2 ** self.n_in}")
        if any(v not in (0, 1) for v in self.table):
            raise AlgorithmError("truth table entries must be 0 or 1")

    def __call__(self, x: int) -> int:
        return self.table[x]

    @property
    def ones(self) -> int:
        return sum(self.table)


def binary_function(bits: Union[str, tuple, list]) -> BinaryFunction:
    """Build a BinaryFunction from "0110"-style truth table bits."""
    table = tuple(int(b) for b in bits)
    n = len(table).bit_length() - 1
    if 2 ** n != len(table):
        raise AlgorithmError(f"table length {len(table)} is not a power of 2")
    return BinaryFunction(n, table)


def classify_function(f: BinaryFunction) -> str:
    """Classically sort a function into constant, balanced, or neither."""
    if f.ones in (0, len(f.table)):
        return "constant"
    if 2 * f.ones == len(f.table):
        return "balanced"
    return "neither"


# ---------------------------------------------------------------------------
# the two demonstration molecules

def cytosine_system() -> SpinSystem:
    """The two coupled cytosine protons, offsets centred on the transmitter."""
    return spin_pair(7.2, (381.5, -381.5), ("1H", "1H"), ("H5", "H6"))


def chloroform_system() -> SpinSystem:
    """13C-labelled chloroform with both nuclei placed exactly on resonance."""
    return spin_pair(215.0, (0.0, 0.0), ("1H", "13C"), ("H", "C"))


# ---------------------------------------------------------------------------
# Deutsch's algorithm

def _cytosine_function_pulses(f: BinaryFunction, j_hz: float) -> list:
    """Published propagator sequences for the four one-bit functions.

    f identically 0 is no pulse at all and f identically 1 a bare selective
    180 on the second spin. The two balanced cases share one sequence whose
    closing selective 90 sign picks the control sense: +x flips the second
    spin when the first is |1>, -x when it is |0>. The central echo pair
    refocuses both chemical shifts while accumulating half a coupling
    period.
    """
    t = 1.0 / (4.0 * j_hz)
    a, b = f.table
    if (a, b) == (0, 0):
        return []
    if (a, b) == (1, 1):
        return [Rotation((1,), 180, "x")]
    closing = "x" if (a, b) == (0, 1) else "-x"
    return [
        Rotation((1,), 90, "y"),
        Delay(t), Rotation((0, 1), 180, "x"),
        Delay(t), Rotation((0, 1), 180, "x"),
        Rotation((0,), 90, "y"), Rotation((0,), 90, "x"),
        Rotation((0, 1), 90, "-y"), Rotation((1,), 90, closing),
    ]


def _chloroform_function_pulses(f: BinaryFunction, j_hz: float) -> list:
    """Chloroform variants: constants padded with precession to span ~1/2J.

    With both spins on resonance a delay is pure coupling evolution, and
    the selective 180s between the delays refocus it again, so the
    constant-0 block is an identity and the constant-1 block a net flip of
    the second spin, each taking about as long as the balanced blocks. The
    balanced sequences carry over from cytosine unchanged.
    """
    t = 1.0 / (4.0 * j_hz)
    a, b = f.table
    if (a, b) == (0, 0):
        return [Delay(t), Rotation((1,), 180, "x"),
                Delay(t), Rotation((1,), 180, "x")]
    if (a, b) == (1, 1):
        return [Delay(t), Rotation((1,), 180, "x"), Delay(t)]
    return _cytosine_function_pulses(f, j_hz)


def deutsch_report(f: BinaryFunction, realization: str = "circuit") -> dict:
    """Run Deutsch's algorithm; returns answer bit plus the read spectrum.

    The answer is f(0) xor f(1), determined with a single application of f.
    realization "circuit" runs the two-qubit gate sequence on a pseudo-pure
    |01> input and reads both qubits spectroscopically; "cytosine" and
    "chloroform" run the published pulse programs on their respective
    molecules, where the first spin's multiplet comes out along +x for a
    constant function and -x for a balanced one.
    """
    if f.n_in != 1:
        raise AlgorithmError(
            f"Deutsch's algorithm takes a one-bit function, got {f.n_in} bits")
    if realization == "circuit":
        return _deutsch_circuit(f)
    if realization == "cytosine":
        system = cytosine_system()
        pulses = _cytosine_function_pulses(f, 7.2)
        rho = prep_spatial_cory(system).rho
    elif realization == "chloroform":
        system = chloroform_system()
        pulses = _chloroform_function_pulses(f, 215.0)
        rho = prep_temporal_knill(system).rho
    else:
        raise AlgorithmError(f"unknown realization {realization!r}")
    # |00> to |01>, pseudo-Hadamard both spins, function block, observe.
    # The inverse pseudo-Hadamards and the excitation pulses cancel.
    seq = [Rotation((1,), 180, "x"), Rotation((0, 1), 90, "y"), *pulses]
    final = run_program(rho, program(*seq), system)
    spec = spectrum(final, system)
    answer = _bit_from_sign(spec, 0)
    return {"answer": answer, "spectrum": spec, "system": system,
            "realization": realization}


def _bit_from_sign(spec: Spectrum, spin: int) -> int:
    total = spec.total(spin).real
    if abs(total) < 1e-6:
        raise AlgorithmError(
            f"spin {spin} signal {total:.2e} is too weak to call")
    return 0 if total > 0 else 1


def _deutsch_circuit(f: BinaryFunction) -> dict:
    system = cytosine_system()
    circ = circuit(
        2, Hadamard(0), Hadamard(1),
        xor_oracle(f.table, (0, 1)),
        Hadamard(0), Hadamard(1))
    u = circuit_unitary(circ)
    rho = basis_projector("01") - np.eye(4) / 4
    final = u @ rho @ u.conj().T
    spec = read_spectrum(final, system)
    reference = read_spectrum(basis_projector("00") - np.eye(4) / 4, system)
    bits = assign_eigenstates(spec, reference)
    return {"answer": int(bits[0]), "spectrum": spec, "system": system,
            "realization": "circuit"}


def deutsch(f: BinaryFunction, realization: str = "circuit") -> int:
    """Answer bit f(0) xor f(1) from one function evaluation."""
    return deutsch_report(f, realization)["answer"]


# ---------------------------------------------------------------------------
# refined Deutsch-Jozsa

@dataclass
class DJStats:
    """Counts oracle applications; pass one in to audit query complexity."""

    oracle_calls: int = 0


def deutsch_jozsa_refined(f: BinaryFunction, *,
                          stats: Optional[DJStats] = None) -> str:
    """Decide constant versus balanced with one oracle application.

    Works without an ancilla: the oracle flips the sign of every |x> with
    f(x)=1 between two Hadamard layers on |0...0>. All amplitude returns to
    |0...0> for a constant function and none for a balanced one. The
    constant-or-balanced promise is the caller's burden; a function
    breaking it leaves intermediate amplitude and raises PromiseViolation.
    """
    if f.n_in > 20:
        raise AlgorithmError("truth table too large to simulate")
    size = 2 ** f.n_in
    amps = np.full(size, 1.0 / math.sqrt(size))
    if stats is not None:
        stats.oracle_calls += 1
    amps = amps * np.where(np.array(f.table) == 1, -1.0, 1.0)
    # Second Hadamard layer, evaluated only at |0...0>.
    prob_zero = abs(amps.sum() / math.sqrt(size)) ** 2
    if prob_zero > 1.0 - 1e-9:
        return "constant"
    if prob_zero < 1e-9:
        return "balanced"
    raise PromiseViolation(
        f"|0...0> probability {prob_zero:.4f} is neither 0 nor 1; "
        f"the function is not constant or balanced")


# ---------------------------------------------------------------------------
# Grover's search

@dataclass(frozen=True)
class GroverSpec:
    """Search problem: n qubits, marked basis indices, iteration count.

    iterations may be a non-negative integer or "auto", which applies the
    near-optimal count round(pi/4 sqrt(N/k) - 1/2).
    """

    n: int
    marked: tuple[int, ...]
    iterations: Union[int, str] = "auto"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise AlgorithmError("need at least one qubit")
        if self.n > 20:
            raise AlgorithmError(f"{self.n} qubits is too large to simulate "
                                 "(the limit is 20)")
        marked = tuple(sorted(set(self.marked)))
        object.__setattr__(self, "marked", marked)
        size = 2 ** self.n
        if any(not 0 <= m < size for m in marked):
            raise AlgorithmError(f"marked indices must lie in [0, {size})")
        if not marked:
            raise AlgorithmError("nothing is marked; the search is empty")
        if len(marked) == size:
            raise AlgorithmError("everything is marked; the search is trivial")
        if self.iterations != "auto":
            if not isinstance(self.iterations, int) or self.iterations < 0:
                raise AlgorithmError(
                    'iterations must be a non-negative integer or "auto"')


def grover_iterations(n: int, k: int) -> int:
    """Near-optimal iteration count for k marked items among 2**n."""
    return int(math.floor(math.pi / 4 * math.sqrt(2 ** n / k) - 0.5 + 0.5))


def _grover_amplitudes(spec: GroverSpec, iterations: int) -> np.ndarray:
    size = 2 ** spec.n
    marked = list(spec.marked)
    v = np.full(size, 1.0 / math.sqrt(size))
    for _ in range(iterations):
        v[marked] *= -1.0
        # Hadamard layer, sign flip on |0...0>, Hadamard layer.
        v = v - 2.0 * v.mean()
    return v


def grover(spec: GroverSpec) -> dict:
    """Run the search; exact ensemble measurement of the final register."""
    t = (grover_iterations(spec.n, len(spec.marked))
         if spec.iterations == "auto" else spec.iterations)
    v = _grover_amplitudes(spec, t)
    probs = np.abs(v) ** 2
    return {"probabilities": probs, "best": int(np.argmax(probs)),
            "iterations": t}


def grover_amplitude_trace(spec: GroverSpec,
                           max_iterations: int) -> list[tuple[int, float]]:
    """Marked-state probability after 0, 1, ... max_iterations rounds."""
    out = []
    marked = list(spec.marked)
    for t in range(max_iterations + 1):
        v = _grover_amplitudes(spec, t)
        out.append((t, float(np.sum(np.abs(v[marked]) ** 2))))
    return out


def sample_counts(probabilities, shots: int = 1000, seed: int = 0) -> dict:
    """Seeded multinomial draw from a measurement distribution, for demos."""
    probs = np.asarray(probabilities, dtype=float)
    n = (len(probs) - 1).bit_length()
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return {format(i, f"0{n}b"): int(c)
            for i, c in enumerate(draws) if c > 0}


# chloroform pulse realization of the combined oracle-plus-diffusion step

def grover_chloroform_program(a: int, b: int) -> PulseProgram:
    """One full Grover round for marking |ab>, as run on chloroform.

    Everything after the opening Hadamard pair was collapsed by the
    experimenters into this seven-element program; with both spins on
    resonance the delays are pure coupling evolution. The program equals
    the oracle-then-diffusion propagator up to a global phase. In this
    package's rotation convention the bit a selects the sign of the
    carbon pulse and b the proton pulse, + for 0 and - for 1.
    """
    if a not in (0, 1) or b not in (0, 1):
        raise AlgorithmError("marked state bits must be 0 or 1")
    t = 1.0 / (2.0 * 215.0)
    carbon = "x" if a == 0 else "-x"
    proton = "x" if b == 0 else "-x"
    return program(
        Delay(t), Rotation((0, 1), 90, "-y"),
        Rotation((1,), 90, carbon), Rotation((0,), 90, proton),
        Delay(t), Rotation((0, 1), 90, "-y"), Rotation((0, 1), 90, "-x"))


def grover_round_unitary(a: int, b: int) -> np.ndarray:
    """Ideal oracle-then-diffusion propagator marking |ab>, for comparison."""
    h2 = circuit_unitary(circuit(2, Hadamard(0), Hadamard(1)))
    mark = np.diag([(-1.0 + 0j) if i == (a << 1 | b) else 1.0 + 0j
                    for i in range(4)])
    zero = np.diag([-1.0 + 0j, 1, 1, 1])
    return h2 @ zero @ h2 @ mark


# ---------------------------------------------------------------------------
# classical triplet code

def triplet_code(bit: int, error_mask: int) -> dict:
    """Encode one bit three times, apply flips, majority-vote decode.

    error_mask bit k flips copy k. corrected reports whether the decoder
    saw disagreement and overruled a minority; with two flips it still
    does so but lands on the wrong answer, and with three the corrupted
    word looks clean again.
    """
    if bit not in (0, 1):
        raise AlgorithmError("bit must be 0 or 1")
    if not 0 <= error_mask <= 7:
        raise AlgorithmError("error mask must fit in three bits")
    copies = [bit ^ ((error_mask >> k) & 1) for k in range(3)]
    votes = sum(copies)
    decoded = 1 if votes >= 2 else 0
    return {"decoded": decoded, "corrected": votes not in (0, 3)}
