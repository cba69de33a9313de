"""Pseudo-pure state preparation.

An ensemble at equilibrium is a Boltzmann population ladder, not |0...0>.
The routes here massage its deviation matrix into a*1 + eps*|t><t| form,
trading signal (the scale field) or repetition (the experiments field) for
purity. All published sequences address unit spin deviations, so every
route starts from the equal-weight thermal state; thermal_state itself can
weight species differently to describe a real heteronuclear sample.

Spatial averaging (Cory, Pravia) discards magnetization with gradient
crushers inside a single experiment. Temporal averaging permutes the
populations over several experiments and sums. Logical labeling spends one
spin to label a clean subspace. The cat-state route passes the populations
through an n-quantum filter and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .compiler import compile_circuit
from .core import (SpinSystem, SpinSystemError, _spin_bits, expand,
                   basis_projector)
from .gates import CNot, Circuit, cat_circuit, ideal_unitary
from .pulses import (Couple, Crush, MultiQuantumFilter, PulseProgram,
                     Rotation, mq_filter, program, run_program)

# Relative equilibrium polarization by species; anything unknown counts 1.
POLARIZATION = {"1H": 1.0, "13C": 0.25}


class PrepError(ValueError):
    """A preparation route does not apply to the given system."""


@dataclass(frozen=True)
class PrepResult:
    """Outcome of a preparation route.

    rho is the deviation matrix the route hands to the computation (for
    logical labeling that is the labeled subspace, with the full-system
    state kept in parent). scale is the pseudo-pure amplitude in units of
    the single-spin z coefficients, so routes can be ranked by signal.
    """

    rho: np.ndarray
    scale: float
    method: str
    experiments: int = 1
    parent: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise PrepError(f"pseudo-pure scale must be positive, "
                            f"got {self.scale}")
        if np.linalg.norm(self.rho - self.rho.conj().T) > 1e-9:
            raise PrepError("prepared state is not Hermitian")


def thermal_state(system: SpinSystem, weights=None) -> np.ndarray:
    """Equilibrium deviation matrix sum_i w_i I_iz.

    Default weights are the species polarizations relative to spin 0, so a
    homonuclear molecule gets all ones and a proton/carbon pair gets
    (1, 1/4). Pass explicit weights to override.
    """
    if weights is None:
        ref = POLARIZATION.get(system.species[0], 1.0)
        weights = tuple(POLARIZATION.get(sp, 1.0) / ref
                        for sp in system.species)
    weights = tuple(float(w) for w in weights)
    if len(weights) != system.n:
        raise PrepError(f"{len(weights)} weights for {system.n} spins")
    iz = 0.5 - _spin_bits(system.n)  # Iz eigenvalue of each spin per index
    return np.diag(iz @ np.array(weights)).astype(complex)


def _unit_thermal(system: SpinSystem) -> np.ndarray:
    return thermal_state(system, weights=(1.0,) * system.n)


def _z_scale(rho: np.ndarray, n: int) -> float:
    """Common single-spin z coefficient; the pseudo-pure signal amplitude."""
    terms = expand(rho).terms
    vals = [terms.get("".join("z" if k == i else "E" for k in range(n)), 0.0)
            for i in range(n)]
    return float(np.mean(vals))


def prep_spatial_cory(system: SpinSystem) -> PrepResult:
    """Two-spin spatial averaging by the original crusher sequence.

    60 on S, crush, 45 on I, half a coupling period, 45 on I about -y,
    crush. Each crusher throws away the just-created transverse part,
    carving the populations down to the pseudo-pure pattern at half the
    thermal amplitude.
    """
    if system.n != 2:
        raise PrepError(f"this route is written for 2 spins, not {system.n}")
    if system.j(0, 1) == 0.0:
        raise PrepError("the spins must be coupled")
    keep_zq = system.is_homonuclear()
    seq = program(
        Rotation((1,), 60.0, "x"),
        Crush(keep_zero_quantum=keep_zq),
        Rotation((0,), 45.0, "x"),
        Couple((0, 1), 0.5),
        Rotation((0,), 45.0, "-y"),
        Crush(keep_zero_quantum=keep_zq),
    )
    rho = run_program(_unit_thermal(system), seq, system)
    return PrepResult(rho, _z_scale(rho, 2), "spatial-cory")


def prep_spatial_pravia(system: SpinSystem,
                        keep_zq: Optional[bool] = None) -> PrepResult:
    """Two-spin spatial averaging with one crusher at the end.

    45 on both, half a coupling period, 30 on both about -y, crush. The
    final crusher must also kill the zero-quantum coherence the sequence
    creates, which a gradient only does when the two spins precess at very
    different rates. keep_zq None picks the honest model for the system:
    heteronuclear runs with a full crush, homonuclear is refused in favour
    of the Cory route. Forcing keep_zq True shows the dirty output the
    zero-quantum term causes; keep_zq False runs the idealised sequence
    anywhere.
    """
    if system.n != 2:
        raise PrepError(f"this route is written for 2 spins, not {system.n}")
    if system.j(0, 1) == 0.0:
        raise PrepError("the spins must be coupled")
    if keep_zq is None:
        keep_zq = system.is_homonuclear()
    if keep_zq and system.is_homonuclear():
        raise PrepError(
            "a gradient cannot crush the zero-quantum coherence this "
            "sequence leaves in a homonuclear pair; use the Cory route")
    seq = program(
        Rotation((0, 1), 45.0, "x"),
        Couple((0, 1), 0.5),
        Rotation((0, 1), 30.0, "-y"),
        Crush(keep_zero_quantum=keep_zq),
    )
    rho = run_program(_unit_thermal(system), seq, system)
    return PrepResult(rho, _z_scale(rho, 2), "spatial-pravia")


def prep_temporal_knill(system: SpinSystem,
                        order: tuple[int, ...] = (0, 1, 2)) -> PrepResult:
    """Two-spin temporal averaging over three population permutations.

    Experiment 0 is the thermal state itself; experiments 1 and 2 permute
    its populations with one controlled-NOT each before the computation
    would start. The three diagonals {1,0,0,-1}, {1,0,-1,0} and {1,-1,0,0}
    sum to {3,-1,-1,-1}, twice the single-shot pseudo-pure pattern. order
    says which experiment runs first; the sum is accumulated by experiment
    index either way, so the result is bit for bit identical.
    """
    if system.n != 2:
        raise PrepError(f"this route is written for 2 spins, not {system.n}")
    if sorted(order) != [0, 1, 2]:
        raise PrepError(f"order must arrange experiments 0,1,2, got {order}")
    thermal = _unit_thermal(system)
    permutations = {
        0: None,
        1: CNot(0, 1),   # swaps the |10> and |11> populations
        2: CNot(1, 0),   # swaps the |01> and |11> populations
    }
    results: dict[int, np.ndarray] = {}
    for k in order:
        gate = permutations[k]
        if gate is None:
            results[k] = thermal
        else:
            u = ideal_unitary(gate, 2)
            results[k] = u @ thermal @ u.conj().T
    rho = np.zeros_like(thermal)
    for k in sorted(results):
        rho = rho + results[k]
    return PrepResult(rho, _z_scale(rho, 2), "temporal-knill", experiments=3)


def prep_temporal_exhaustive(system: SpinSystem) -> PrepResult:
    """Temporal averaging over all cyclic permutations of excited levels.

    The ground population sits still; the other 2**n - 1 populations march
    around a cycle, one step per experiment. Any traceless diagonal then
    averages to the pseudo-pure pattern. The cost grows as 2**n - 1
    experiments, which is why the route stops at five spins.
    """
    n = system.n
    if n > 5:
        raise PrepError(
            f"exhaustive averaging over {n} spins needs {2 ** n - 1} "
            "experiments; capped at 5 spins (31 experiments)")
    thermal = _unit_thermal(system)
    diag = np.diag(thermal).copy()
    cycle = 2 ** n - 1
    total = np.zeros_like(diag)
    for k in range(cycle):
        permuted = diag.copy()
        for level in range(1, 2 ** n):
            source = (level - 1 + k) % cycle + 1
            permuted[level] = diag[source]
        total = total + permuted
    rho = np.diag(total)
    return PrepResult(rho, _z_scale(rho, n), "temporal-exhaustive",
                      experiments=cycle)


def prep_logical_label(system: SpinSystem) -> PrepResult:
    """Label a two-qubit pseudo-pure subspace of three spins with spin 0.

    Two controlled-NOTs flip spin 0 wherever spins 1 and 2 have odd
    parity, exchanging the |001>,|101> and |010>,|110> populations. The
    diagonal becomes (1/2){3,-1,-1,-1,1,1,1,-3}: the half of the space
    with spin 0 in |0> is exactly the two-spin pseudo-pure pattern. rho is
    that 4x4 block; the full eight-level state stays in parent.
    """
    if system.n != 3:
        raise PrepError(f"labeling is written for 3 spins, not {system.n}")
    if not system.is_homonuclear():
        raise PrepError("labeling assumes equal thermal steps; "
                        "the spins must be of one species")
    thermal = _unit_thermal(system)
    u = ideal_unitary(CNot(2, 0), 3) @ ideal_unitary(CNot(1, 0), 3)
    full = u @ thermal @ u.conj().T
    sub = full[:4, :4].copy()
    return PrepResult(sub, _z_scale(sub, 2), "logical-label", parent=full)


def prep_cat_method(system: SpinSystem) -> PrepResult:
    """Pseudo-pure subspace via the n-quantum coherence of a cat network.

    Run the cat circuit on the thermal state, keep only the n-quantum
    corner with a multiple-quantum filter, run the circuit backwards. Only
    the population difference between |00...0> and |10...0> survives the
    trip, coming back as Iz on spin 0 times a clean |0...0> projector on
    the rest: spin 0 labels an (n-1)-spin pseudo-pure state.
    """
    n = system.n
    if n < 2:
        raise PrepError("the cat route needs at least 2 spins")
    circ = cat_circuit(n)
    forward = compile_circuit(circ, system)
    backward = compile_circuit(Circuit(n, tuple(reversed(circ.gates))), system)
    rho = run_program(_unit_thermal(system), forward, system)
    rho = mq_filter(rho, (n, -n))
    rho = run_program(rho, backward, system)
    # Amplitude of the Iz (x) |0..0><0..0| pattern; its only entries are
    # +c/2 at |00..0> and -c/2 at |10..0>.
    scale = float(2.0 * rho[0, 0].real)
    return PrepResult(rho, scale, "cat", experiments=1)


def verify_pseudo_pure(rho: np.ndarray, target_bits: str) -> dict:
    """Least-squares fit rho = a*1 + eps*|t><t|.

    Returns {"epsilon", "background", "residual", "pass"}; passing needs
    residual at most 1e-8 and positive epsilon.
    """
    d = rho.shape[0]
    if 2 ** len(target_bits) != d:
        raise PrepError(f"target {target_bits!r} does not index a "
                        f"{d}-dimensional state")
    t = int(target_bits, 2)
    trace = float(np.trace(rho).real)
    # Normal equations of the two-parameter fit have a closed solution.
    a = (trace - rho[t, t].real) / (d - 1)
    eps = (d * rho[t, t].real - trace) / (d - 1)
    residual = float(np.linalg.norm(
        rho - a * np.eye(d) - eps * basis_projector(target_bits)))
    return {"epsilon": float(eps), "background": float(a),
            "residual": residual,
            "pass": bool(residual <= 1e-8 and eps > 0)}
