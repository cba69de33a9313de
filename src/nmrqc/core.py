"""Spin systems and product-operator algebra for weakly coupled spin-1/2 ensembles.

States are dense complex matrices holding the traceless deviation part of a
density operator (the full identity background is physically inert and can be
added or dropped at will). The working basis is the product-operator set: for
each spin one of {E, Ix, Iy, Iz} with the usual normalisation where a label
with q active spins carries a factor 2^(q-1), so the two-spin label "zz" is
the matrix of 2IzSz. The all-E label is the plain identity.

Index convention: spin 0 is the leftmost Kronecker factor and the leftmost
character of a label or bitstring. Basis state |0> is the low-energy state
with Iz eigenvalue +1/2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

LABEL_LETTERS = "Exyz"

_SINGLE = {
    "E": np.eye(2, dtype=complex),
    "x": np.array([[0, 0.5], [0.5, 0]], dtype=complex),
    "y": np.array([[0, -0.5j], [0.5j, 0]], dtype=complex),
    "z": np.array([[0.5, 0], [0, -0.5]], dtype=complex),
}


class SpinSystemError(ValueError):
    """Raised for ill-formed spin system definitions or lookups."""


@dataclass(frozen=True)
class SpinSystem:
    """A set of named spin-1/2 nuclei with offsets (Hz) and scalar couplings (Hz).

    couplings maps ordered index pairs (i, j) with i < j to J in Hz; absent
    pairs are uncoupled. Instances are immutable and hashable so propagator
    caches can key on them.
    """

    names: tuple[str, ...]
    species: tuple[str, ...]
    offsets: tuple[float, ...]
    couplings: tuple[tuple[tuple[int, int], float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        n = len(self.names)
        if n == 0:
            raise SpinSystemError("a spin system needs at least one spin")
        if n > 10:
            raise SpinSystemError(
                f"{n} spins exceeds the dense-matrix limit of 10 "
                f"(a {2**n}x{2**n} state)")
        if len(set(self.names)) != n:
            raise SpinSystemError(f"duplicate spin names in {self.names}")
        if len(self.species) != n or len(self.offsets) != n:
            raise SpinSystemError("names, species and offsets must have equal length")
        seen = set()
        for (i, j), hz in self.couplings:
            if not (0 <= i < n and 0 <= j < n):
                raise SpinSystemError(f"coupling ({i},{j}) references a missing spin")
            if i >= j:
                raise SpinSystemError(f"coupling pair ({i},{j}) must be ordered i < j")
            if (i, j) in seen:
                raise SpinSystemError(f"coupling ({i},{j}) defined twice")
            seen.add((i, j))
            if not math.isfinite(float(hz)):
                raise SpinSystemError(f"coupling ({i},{j}) J = {hz} is not finite")
        for name, hz in zip(self.names, self.offsets):
            if not math.isfinite(float(hz)):
                raise SpinSystemError(f"spin {name} offset {hz} is not finite")

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise SpinSystemError(f"no spin named {name!r} in {self.names}") from None

    def j(self, i: int, j: int) -> float:
        """Coupling constant between spins i and j in Hz (0.0 when uncoupled)."""
        if i == j:
            raise SpinSystemError("a spin has no coupling to itself")
        key = (min(i, j), max(i, j))
        for pair, hz in self.couplings:
            if pair == key:
                return hz
        return 0.0

    def partners(self, i: int) -> tuple[int, ...]:
        """Spins coupled to spin i, in ascending index order."""
        out = [k for k in range(self.n) if k != i and self.j(i, k) != 0.0]
        return tuple(out)

    def is_homonuclear(self) -> bool:
        return len(set(self.species)) == 1

    def centered(self) -> "SpinSystem":
        """Same system with the mean offset subtracted from every spin."""
        mean = sum(self.offsets) / self.n
        return SpinSystem(self.names, self.species,
                          tuple(v - mean for v in self.offsets), self.couplings)


def spin_pair(j_hz: float, offsets: tuple[float, float] = (0.0, 0.0),
              species: tuple[str, str] = ("1H", "1H"),
              names: tuple[str, str] = ("I", "S")) -> SpinSystem:
    """Two coupled spins, the workhorse geometry."""
    return SpinSystem(names, species, offsets, (((0, 1), j_hz),))


def spin_chain(n: int, j_hz: float = 50.0, offset_step: float = 100.0,
               species: str = "1H") -> SpinSystem:
    """n spins with nearest-neighbour couplings and evenly spread offsets."""
    names = tuple(f"s{k}" for k in range(n))
    offsets = tuple(offset_step * (k - (n - 1) / 2) for k in range(n))
    couplings = tuple(((k, k + 1), j_hz) for k in range(n - 1))
    return SpinSystem(names, (species,) * n, offsets, couplings)


def fully_coupled(n: int, base_j: float = 20.0, offset_step: float = 150.0,
                  species: str = "1H") -> SpinSystem:
    """n spins, every pair coupled with distinct J values."""
    names = tuple(f"s{k}" for k in range(n))
    offsets = tuple(offset_step * (k - (n - 1) / 2) for k in range(n))
    couplings = []
    step = 0
    for i in range(n):
        for j in range(i + 1, n):
            couplings.append(((i, j), base_j + 7.0 * step))
            step += 1
    return SpinSystem(names, (species,) * n, offsets, tuple(couplings))


# ---------------------------------------------------------------------------
# product-operator basis

def _check_label(label: str) -> int:
    for ch in label:
        if ch not in LABEL_LETTERS:
            raise ValueError(
                f"bad product-operator letter {ch!r} in label {label!r}; "
                f"allowed letters are {', '.join(LABEL_LETTERS)}")
    return len(label)


def basis_element(label: str) -> np.ndarray:
    """Matrix of the product operator named by label, one letter per spin.

    q active (non-E) letters carry the conventional 2^(q-1) scale: "z" is Iz,
    "zz" is 2IzSz, "xzE" is 4IxSz. The all-E label is the identity.
    """
    n = _check_label(label)
    q = sum(1 for ch in label if ch != "E")
    out = np.array([[1.0 + 0j]])
    for ch in label:
        out = np.kron(out, _SINGLE[ch])
    if q > 1:
        out = out * 2.0 ** (q - 1)
    return out


@lru_cache(maxsize=8)
def _all_labels(n: int) -> tuple[str, ...]:
    return tuple("".join(p) for p in itertools.product(LABEL_LETTERS, repeat=n))


@dataclass
class ProductOperatorExpansion:
    """Coefficients of a matrix on the product-operator basis.

    terms maps labels like "zE" to real coefficients; entries below the drop
    threshold are omitted. The identity coefficient is kept under the all-E
    label but ignored by deviation_terms, matching the convention that the
    uniform background of an ensemble state carries no signal.
    """

    n: int
    terms: dict[str, float]

    DROP = 1e-12

    def coefficient(self, label: str) -> float:
        _check_label(label)
        return self.terms.get(label, 0.0)

    def deviation_terms(self) -> dict[str, float]:
        identity = "E" * self.n
        return {k: v for k, v in self.terms.items() if k != identity}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for label in sorted(self.terms):
            bits.append(f"{self.terms[label]:+.6g}*{label}")
        return " ".join(bits)


def expand(rho: np.ndarray) -> ProductOperatorExpansion:
    """Decompose a matrix on the product-operator basis.

    Uses c = Tr(B rho) / Tr(B B) per label; coefficients of a Hermitian input
    are real and a residual imaginary part above 1e-9 is rejected as a sign
    the input was not an operator on the expected spin space.
    """
    n = _spin_count(rho)
    # Mode-wise contraction with the single-spin basis: O(n 4^(n+1)) instead
    # of touching all 4^n full matrices. Weighting E by 1/2 and x, y, z by 1
    # gives Tr(B rho) / Tr(B B) up to one factor 2 on every label but all-E.
    stack = np.stack([_SINGLE[ch] for ch in LABEL_LETTERS])  # (4, 2, 2)
    m = stack.transpose(0, 2, 1).reshape(4, 4)  # M[k, r*2+c] = B_k[c, r]
    m = m * np.array([[0.5], [1.0], [1.0], [1.0]])
    t = rho.reshape((2,) * (2 * n))
    t = np.transpose(t, [a for pair in zip(range(n), range(n, 2 * n)) for a in pair])
    t = t.reshape((4,) * n)
    for i in range(n):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [i])), 0, i)
    coeff = 2.0 * t.reshape(-1)  # flat index k is the label _all_labels(n)[k]
    coeff[0] /= 2.0
    # NaN coefficients are kept, so a bad input stays visible.
    keep = np.flatnonzero(~(np.abs(coeff) < ProductOperatorExpansion.DROP))
    bad = np.abs(coeff.imag[keep]) > 1e-9 * np.maximum(1.0, np.abs(coeff.real[keep]))
    labels = _all_labels(n)
    if bad.any():
        k = keep[np.argmax(bad)]
        raise ValueError(
            f"non-real coefficient {coeff[k]:.3e} on {labels[k]}; input is not "
            "Hermitian on this spin space")
    terms = dict(zip(map(labels.__getitem__, keep.tolist()), coeff.real[keep].tolist()))
    return ProductOperatorExpansion(n, terms)


def assemble(expansion: ProductOperatorExpansion) -> np.ndarray:
    """Inverse of expand: rebuild the matrix from labelled coefficients."""
    dim = 2 ** expansion.n
    out = np.zeros((dim, dim), dtype=complex)
    for label, coeff in expansion.terms.items():
        if len(label) != expansion.n:
            raise ValueError(f"label {label!r} has wrong length for n={expansion.n}")
        out += coeff * basis_element(label)
    return out


def _spin_count(mat: np.ndarray) -> int:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    dim = mat.shape[0]
    n = dim.bit_length() - 1
    if 2 ** n != dim:
        raise ValueError(f"matrix dimension {dim} is not a power of two")
    return n


# ---------------------------------------------------------------------------
# basis-index layout and coherence orders

@lru_cache(maxsize=32)
def _spin_bits(n: int) -> np.ndarray:
    """Read-only (2^n, n) table: entry [x, k] is the bit of spin k in index x.

    Spin 0 is the most significant bit; bit 0 is Iz = +1/2, so 0.5 - bits
    gives every Iz eigenvalue. The one place the index layout is spelled out.
    """
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    bits.setflags(write=False)
    return bits


def coherence_orders(n: int) -> np.ndarray:
    """Matrix of coherence orders p[r, c] = m(r) - m(c) for an n-spin space."""
    m2 = n - 2 * _spin_bits(n).sum(1)  # twice the total Iz, an exact integer
    return (m2[:, None] - m2[None, :]) // 2


def coherence_order_projection(rho: np.ndarray, orders) -> np.ndarray:
    """Keep only matrix elements whose coherence order lies in orders."""
    n = _spin_count(rho)
    wanted = {int(p) for p in orders}
    grid = coherence_orders(n)
    mask = np.isin(grid, sorted(wanted))
    return np.where(mask, rho, 0.0)


# ---------------------------------------------------------------------------
# comparisons and state builders

def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when a = exp(i phi) b for some phase, within Frobenius tolerance."""
    if a.shape != b.shape:
        return False
    overlap = np.vdot(b, a)
    if abs(overlap) < 1e-30:
        # No phase alignment possible; only equal if both vanish.
        return bool(np.linalg.norm(a) <= tol and np.linalg.norm(b) <= tol)
    alpha = overlap / abs(overlap)
    return bool(np.linalg.norm(a - alpha * b) <= tol)


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance between a and the best phase-aligned copy of b."""
    overlap = np.vdot(b, a)
    alpha = overlap / abs(overlap) if abs(overlap) > 1e-30 else 1.0
    return float(np.linalg.norm(a - alpha * b))


def basis_ket(bits: str) -> np.ndarray:
    """Column vector for a computational basis state, e.g. "01"."""
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"bitstring must be nonempty over 0/1, got {bits!r}")
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def basis_projector(bits: str) -> np.ndarray:
    """Density matrix |bits><bits|."""
    v = basis_ket(bits)
    return np.outer(v, v.conj())


def cat_ket(n: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2) on n spins."""
    if n < 1:
        raise ValueError("need at least one spin")
    v = np.zeros(2 ** n, dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return v
