"""Pseudo-pure state preparation routes and their certificates."""

from __future__ import annotations

import numpy as np
import pytest

from nmrqc.core import basis_element, basis_projector, expand, fully_coupled, spin_pair
from nmrqc.prep import (
    PrepError,
    prep_cat_method,
    prep_logical_label,
    prep_spatial_cory,
    prep_spatial_pravia,
    prep_temporal_exhaustive,
    prep_temporal_knill,
    thermal_state,
    verify_pseudo_pure,
)

HOMO = spin_pair(7.2, offsets=(381.5, -381.5))
HETERO = spin_pair(215.0, species=("1H", "13C"))


# ---------------------------------------------------------------------------
# thermal states


def test_thermal_homonuclear_is_sum_of_z():
    rho = thermal_state(HOMO)
    np.testing.assert_allclose(
        rho, basis_element("zE") + basis_element("Ez"), atol=1e-14
    )


def test_thermal_heteronuclear_weights_by_gyromagnetic_ratio():
    rho = thermal_state(HETERO)
    # carbon polarization is a quarter of the proton's
    np.testing.assert_allclose(np.diag(rho).real, [0.625, 0.375, -0.375, -0.625], atol=1e-12)


def test_thermal_custom_weights():
    rho = thermal_state(HOMO, weights=(1.0, 0.5))
    np.testing.assert_allclose(
        rho, basis_element("zE") + 0.5 * basis_element("Ez"), atol=1e-14
    )


# ---------------------------------------------------------------------------
# spatial averaging


def test_cory_reaches_ground_pseudo_pure():
    res = prep_spatial_cory(HOMO)
    assert res.scale == pytest.approx(0.5, abs=1e-12)
    assert res.experiments == 1
    np.testing.assert_allclose(res.rho, basis_projector("00") - np.eye(4) / 4, atol=1e-12)


def test_cory_deviation_coefficients():
    exp = expand(prep_spatial_cory(HOMO).rho)
    for label in ("zE", "Ez", "zz"):
        assert exp.coefficient(label) == pytest.approx(0.5)


def test_pravia_scale():
    res = prep_spatial_pravia(HETERO)
    assert res.scale == pytest.approx(np.sqrt(3 / 8), abs=1e-9)
    dev = res.rho - np.trace(res.rho) * np.eye(4) / 4
    want = 2 * res.scale * (basis_projector("00") - np.eye(4) / 4)
    np.testing.assert_allclose(dev, want, atol=1e-9)


def test_pravia_homonuclear_needs_explicit_choice():
    # the closing gradient cannot kill zero-quantum terms in a homonuclear pair
    with pytest.raises(PrepError):
        prep_spatial_pravia(HOMO)
    with pytest.raises(PrepError):
        prep_spatial_pravia(HOMO, keep_zq=True)
    res = prep_spatial_pravia(HOMO, keep_zq=False)
    assert res.scale == pytest.approx(np.sqrt(3 / 8), abs=1e-9)


def test_pravia_heteronuclear_zero_quantum_residue():
    # keeping the zero-quantum part leaves a flip-flop stain on the state
    res = prep_spatial_pravia(HETERO, keep_zq=True)
    exp = expand(res.rho)
    assert exp.coefficient("xx") == pytest.approx(-np.sqrt(3 / 8) / 2, abs=1e-9)
    assert exp.coefficient("yy") == pytest.approx(-np.sqrt(3 / 8) / 2, abs=1e-9)
    clean = prep_spatial_pravia(HETERO, keep_zq=False)
    assert abs(expand(clean.rho).coefficient("xx")) < 1e-12


# ---------------------------------------------------------------------------
# temporal averaging


def test_knill_population_pattern():
    res = prep_temporal_knill(HOMO)
    np.testing.assert_allclose(np.diag(res.rho).real, [3, -1, -1, -1], atol=1e-10)
    assert res.experiments == 3
    assert res.scale == pytest.approx(2.0, abs=1e-10)


def test_knill_order_independent():
    a = prep_temporal_knill(HOMO, order=(0, 1, 2))
    b = prep_temporal_knill(HOMO, order=(2, 0, 1))
    np.testing.assert_array_equal(a.rho, b.rho)


def test_exhaustive_three_spins():
    res = prep_temporal_exhaustive(fully_coupled(3))
    assert res.experiments == 7
    assert res.scale == pytest.approx(3.0, abs=1e-10)
    np.testing.assert_allclose(np.diag(res.rho).real, [10.5] + [-1.5] * 7, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exhaustive_equals_level_by_level_cycle(n):
    # Reference: move every excited population one level per experiment.
    system = fully_coupled(n)
    diag = np.diag(thermal_state(system, weights=(1.0,) * n))
    cycle = 2**n - 1
    total = np.zeros_like(diag)
    for k in range(cycle):
        permuted = diag.copy()
        for level in range(1, 2**n):
            permuted[level] = diag[(level - 1 + k) % cycle + 1]
        total = total + permuted
    np.testing.assert_array_equal(prep_temporal_exhaustive(system).rho, np.diag(total))


def test_exhaustive_matches_knill_direction_two_spins():
    a = prep_temporal_knill(HOMO)
    b = prep_temporal_exhaustive(HOMO)
    np.testing.assert_allclose(np.diag(a.rho).real, np.diag(b.rho).real, atol=1e-10)


# ---------------------------------------------------------------------------
# logical labeling and the cat route


def test_logical_label_parent_pattern():
    res = prep_logical_label(fully_coupled(3))
    np.testing.assert_allclose(
        np.diag(res.parent).real, 0.5 * np.array([3, -1, -1, -1, 1, 1, 1, -3]), atol=1e-10
    )
    np.testing.assert_allclose(np.diag(res.rho).real, [1.5, -0.5, -0.5, -0.5], atol=1e-10)
    assert res.rho.shape == (4, 4)
    assert res.scale == pytest.approx(1.0, abs=1e-10)


def test_cat_method_lands_on_labelled_ground_state():
    res = prep_cat_method(fully_coupled(3))
    # first spin z, the rest projected onto 0
    want = np.zeros((8, 8))
    want[0, 0] = 0.5
    want[4, 4] = -0.5
    np.testing.assert_allclose(res.rho, res.scale * want, atol=1e-9)
    assert res.scale > 0


# ---------------------------------------------------------------------------
# the pseudo-purity certificate


def test_verify_cory():
    res = prep_spatial_cory(HOMO)
    report = verify_pseudo_pure(res.rho, "00")
    assert report["pass"]
    assert report["epsilon"] == pytest.approx(1.0, abs=1e-10)
    assert report["background"] == pytest.approx(-0.25, abs=1e-10)
    assert report["residual"] < 1e-10


def test_verify_rejects_thermal_state():
    report = verify_pseudo_pure(thermal_state(HOMO), "00")
    assert not report["pass"]


def test_verify_rejects_wrong_target():
    res = prep_spatial_cory(HOMO)
    report = verify_pseudo_pure(res.rho, "11")
    assert not report["pass"]


@pytest.mark.parametrize(
    "make",
    [prep_spatial_cory, prep_temporal_knill, lambda s: prep_spatial_pravia(s, keep_zq=False)],
    ids=["cory", "knill", "pravia"],
)
def test_all_routes_certify(make):
    report = verify_pseudo_pure(make(HOMO).rho, "00")
    assert report["pass"], report
    assert report["epsilon"] > 0
