"""Spin systems, the product-operator basis, and state helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmrqc.core import (
    ProductOperatorExpansion,
    SpinSystem,
    SpinSystemError,
    assemble,
    basis_element,
    basis_ket,
    basis_projector,
    cat_ket,
    coherence_order_projection,
    coherence_orders,
    equal_up_to_global_phase,
    expand,
    fully_coupled,
    phase_distance,
    spin_chain,
    spin_pair,
)

SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)
E2 = np.eye(2, dtype=complex)

SINGLE = {"E": E2, "x": SX, "y": SY, "z": SZ}


def kron_all(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# system construction


def test_spin_pair_basic():
    sys2 = spin_pair(7.2, offsets=(381.5, -381.5))
    assert sys2.n == 2
    assert sys2.dim == 4
    assert sys2.j(0, 1) == pytest.approx(7.2)
    assert sys2.j(1, 0) == pytest.approx(7.2)
    assert sys2.partners(0) == (1,)
    assert sys2.is_homonuclear()


def test_spin_pair_heteronuclear():
    sys2 = spin_pair(215.0, species=("1H", "13C"), names=("H", "C"))
    assert not sys2.is_homonuclear()
    assert sys2.index("C") == 1
    with pytest.raises(SpinSystemError):
        sys2.index("N")


def test_spin_chain_couples_neighbours_only():
    sys3 = spin_chain(3, j_hz=10.0, offset_step=100.0)
    assert sys3.j(0, 1) != 0.0
    assert sys3.j(1, 2) != 0.0
    assert sys3.j(0, 2) == 0.0
    assert sys3.partners(1) == (0, 2)


def test_fully_coupled_all_pairs():
    sys4 = fully_coupled(4)
    for i in range(4):
        for k in range(i + 1, 4):
            assert sys4.j(i, k) != 0.0


def test_duplicate_names_rejected():
    with pytest.raises(SpinSystemError):
        SpinSystem(names=("a", "a"), species=("1H", "1H"), offsets=(0.0, 0.0))


def test_self_coupling_rejected():
    with pytest.raises(SpinSystemError):
        SpinSystem(
            names=("a", "b"),
            species=("1H", "1H"),
            offsets=(0.0, 0.0),
            couplings=(((0, 0), 5.0),),
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_offsets_and_couplings_rejected(bad):
    with pytest.raises(SpinSystemError, match="not finite"):
        SpinSystem(("a", "b"), ("1H", "1H"), (0.0, bad), (((0, 1), 7.0),))
    with pytest.raises(SpinSystemError, match="not finite"):
        spin_pair(bad)


def test_size_cap():
    with pytest.raises(SpinSystemError):
        spin_chain(11)


def test_centered_offsets_mean_zero():
    sys2 = spin_pair(7.2, offsets=(763.0, 0.0)).centered()
    assert np.isclose(sum(sys2.offsets), 0.0)
    assert sys2.offsets[0] == pytest.approx(381.5)


# ---------------------------------------------------------------------------
# basis elements, against hand-built Kronecker products


@pytest.mark.parametrize("label", ["E", "x", "y", "z"])
def test_single_spin_elements(label):
    np.testing.assert_allclose(basis_element(label), SINGLE[label], atol=1e-15)


def test_two_spin_elements_carry_factor_two():
    # one non-identity factor: no scaling
    np.testing.assert_allclose(basis_element("zE"), kron_all(SZ, E2), atol=1e-15)
    np.testing.assert_allclose(basis_element("Ex"), kron_all(E2, SX), atol=1e-15)
    # two non-identity factors: scaled by 2
    np.testing.assert_allclose(basis_element("zz"), 2 * kron_all(SZ, SZ), atol=1e-15)
    np.testing.assert_allclose(basis_element("xy"), 2 * kron_all(SX, SY), atol=1e-15)


def test_three_spin_element_scale():
    # three non-identity factors: scaled by 4
    np.testing.assert_allclose(
        basis_element("xyz"), 4 * kron_all(SX, SY, SZ), atol=1e-15
    )
    np.testing.assert_allclose(
        basis_element("EzE"), kron_all(E2, SZ, E2), atol=1e-15
    )


def test_all_identity_label_is_identity():
    np.testing.assert_allclose(basis_element("EE"), np.eye(4), atol=1e-15)


def test_bad_label_rejected():
    with pytest.raises(ValueError):
        basis_element("xq")


def test_basis_orthogonality_two_spins():
    # Tr(A B) = 1 for A == B and 0 otherwise at this size.
    labels = [a + b for a in "Exyz" for b in "Exyz" if a + b != "EE"]
    mats = [basis_element(lab) for lab in labels]
    for i, a in enumerate(mats):
        for k, b in enumerate(mats):
            want = 1.0 if i == k else 0.0
            assert abs(np.trace(a @ b) - want) < 1e-12, (labels[i], labels[k])


# ---------------------------------------------------------------------------
# expansion round trips


def test_expand_reads_off_coefficients():
    rho = 0.3 * basis_element("zE") + 0.7 * basis_element("xy")
    exp = expand(rho)
    assert exp.coefficient("zE") == pytest.approx(0.3)
    assert exp.coefficient("xy") == pytest.approx(0.7)
    assert exp.coefficient("Ez") == pytest.approx(0.0)


def test_expand_str_orders_by_magnitude():
    rho = 0.5 * (basis_element("zE") + basis_element("Ez") + basis_element("zz"))
    text = str(expand(rho))
    assert "+0.5*Ez" in text
    assert "+0.5*zE" in text
    assert "+0.5*zz" in text


def test_deviation_terms_drop_identity():
    rho = np.eye(4) / 4 + 0.25 * basis_element("zE")
    terms = dict(expand(rho).deviation_terms())
    assert set(terms) == {"zE"}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_expand_assemble_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = (a + a.conj().T) / 2
    back = assemble(expand(herm))
    np.testing.assert_allclose(back, herm, atol=1e-10)


def test_assemble_from_dict():
    exp = ProductOperatorExpansion(2, {"zE": 0.5, "Ez": -0.5})
    rho = assemble(exp)
    np.testing.assert_allclose(
        rho, 0.5 * basis_element("zE") - 0.5 * basis_element("Ez"), atol=1e-14
    )


# ---------------------------------------------------------------------------
# coherence orders


def orders_present(rho):
    table = coherence_orders(int(np.log2(rho.shape[0])))
    return set(table[np.abs(rho) > 1e-12].tolist())


@pytest.mark.parametrize("n", range(1, 7))
def test_coherence_orders_are_popcount_differences(n):
    ones = [format(x, f"0{n}b").count("1") for x in range(2 ** n)]
    want = [[ones[c] - ones[r] for c in range(2 ** n)] for r in range(2 ** n)]
    np.testing.assert_array_equal(coherence_orders(n), want)


def test_coherence_orders_of_known_elements():
    # Iz is order 0; Ix and Iy split into +-1.
    assert orders_present(basis_element("z")) == {0}
    assert orders_present(basis_element("x")) == {-1, 1}
    # 2IxSx holds double- and zero-quantum parts; the flip-flop sum is pure zero quantum.
    assert orders_present(basis_element("xx")) == {-2, 0, 2}
    assert orders_present(basis_element("xx") + basis_element("yy")) == {0}


def test_zero_quantum_flip_flop_survives_projection():
    rho = basis_element("xx") + basis_element("yy")  # pure zero quantum
    kept = coherence_order_projection(rho, {0})
    np.testing.assert_allclose(kept, rho, atol=1e-14)


def test_projection_removes_other_orders():
    rho = basis_element("xE")
    kept = coherence_order_projection(rho, {0})
    np.testing.assert_allclose(kept, 0.0, atol=1e-14)
    both = coherence_order_projection(rho, {-1, 1})
    np.testing.assert_allclose(both, rho, atol=1e-14)


def test_projection_idempotent():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    once = coherence_order_projection(a, {0, 2})
    twice = coherence_order_projection(once, {0, 2})
    np.testing.assert_allclose(twice, once, atol=1e-14)


# ---------------------------------------------------------------------------
# kets and phase comparisons


def test_basis_ket_bit_order():
    # leftmost bit is spin 0
    ket = basis_ket("10")
    np.testing.assert_allclose(ket, [0, 0, 1, 0], atol=1e-15)


def test_basis_projector_matches_outer_product():
    ket = basis_ket("01")
    np.testing.assert_allclose(basis_projector("01"), np.outer(ket, ket.conj()), atol=1e-15)


def test_cat_ket():
    ket = cat_ket(3)
    want = np.zeros(8)
    want[0] = want[7] = 1 / np.sqrt(2)
    np.testing.assert_allclose(ket, want, atol=1e-15)


def test_equal_up_to_global_phase():
    u = np.diag([1, 1, 1, -1]).astype(complex)
    v = np.exp(0.77j) * u
    assert equal_up_to_global_phase(u, v)
    assert not equal_up_to_global_phase(u, np.eye(4))
    assert phase_distance(u, v) < 1e-12
    assert phase_distance(u, np.eye(4)) > 1.0
