"""Stick spectra, eigenstate assignment, and tomography."""

from __future__ import annotations

import numpy as np
import pytest

from nmrqc.core import (
    basis_element,
    basis_projector,
    cat_ket,
    fully_coupled,
    spin_chain,
    spin_pair,
)
from nmrqc.pulses import Rotation, program, run_program
from nmrqc.readout import (
    ReadoutError,
    Spectrum,
    SpectrumLine,
    assign_eigenstates,
    broadened,
    read_spectrum,
    spectrum,
    tomography,
)

CYTOSINE = spin_pair(7.2, offsets=(381.5, -381.5))


def excite(rho, system, targets=None):
    targets = tuple(range(system.n)) if targets is None else targets
    return run_program(rho, program(Rotation(targets, 90, "y")), system)


def ground(system):
    d = system.dim
    return basis_projector("0" * system.n) - np.eye(d) / d


# ---------------------------------------------------------------------------
# raw spectra


def test_thermal_doublets():
    rho = excite(basis_element("zE") + basis_element("Ez"), CYTOSINE)
    spec = spectrum(rho, CYTOSINE)
    assert len(spec) == 4
    freqs = sorted(ln.freq_hz for ln in spec.for_spin(0))
    np.testing.assert_allclose(freqs, [381.5 - 3.6, 381.5 + 3.6], atol=1e-9)
    for ln in spec:
        assert ln.amp.real == pytest.approx(0.5, abs=1e-12)
        assert ln.amp.imag == pytest.approx(0.0, abs=1e-12)


def test_diagonal_state_is_silent():
    spec = spectrum(ground(CYTOSINE), CYTOSINE)
    assert len(spec) == 0


def test_pseudo_pure_doublet_collapses_to_one_line():
    # only the partner configuration actually populated shows up
    rho = excite(ground(CYTOSINE), CYTOSINE, targets=(0,))
    spec = spectrum(rho, CYTOSINE, observe=[0])
    assert len(spec) == 1
    (line,) = spec
    assert line.partner_bits == "0"
    assert line.amp.real == pytest.approx(0.5, abs=1e-12)


def test_excited_neighbour_moves_the_line():
    rho = basis_projector("01") - np.eye(4) / 4
    spec = spectrum(excite(rho, CYTOSINE, targets=(0,)), CYTOSINE, observe=[0])
    (line,) = spec
    assert line.partner_bits == "1"
    assert line.freq_hz == pytest.approx(381.5 + 3.6)


def test_own_bit_flips_line_sign():
    rho = basis_projector("10") - np.eye(4) / 4
    spec = spectrum(excite(rho, CYTOSINE, targets=(0,)), CYTOSINE, observe=[0])
    (line,) = spec
    assert line.amp.real == pytest.approx(-0.5, abs=1e-12)


def test_detector_phase_rotates_amplitude():
    rho = excite(ground(CYTOSINE), CYTOSINE, targets=(0,))
    spec = spectrum(rho, CYTOSINE, observe=[0], detector_phases=[90.0, 0.0])
    (line,) = spec
    assert line.amp == pytest.approx(0.5j, abs=1e-12)


def test_observe_out_of_range():
    with pytest.raises(ReadoutError):
        spectrum(np.eye(4) / 4, CYTOSINE, observe=[5])


def spectrum_oracle(rho, system, observe):
    """{(spin, partner bits): (freq, amp)} summed entry by entry from bitstrings."""
    n = system.n
    out = {}
    for i in observe:
        partners = system.partners(i)
        for x in range(2 ** n):
            col = format(x, f"0{n}b")
            if col[i] == "1":
                continue
            row = col[:i] + "1" + col[i + 1:]
            bits = "".join(col[p] for p in partners)
            freq = system.offsets[i] + sum(
                system.j(i, p) * (int(b) - 0.5) for p, b in zip(partners, bits))
            amp = out.get((i, bits), (freq, 0j))[1] + rho[int(row, 2), x]
            out[(i, bits)] = (freq, amp)
    return out


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("make", [spin_chain, fully_coupled])
def test_spectrum_matches_bitstring_oracle(make, n):
    system = make(n)
    rng = np.random.default_rng(n)
    rho = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    for observe in (None, [n - 1], [n - 1, 0][:n], list(range(0, n, 2))):
        want = spectrum_oracle(rho, system, range(n) if observe is None else observe)
        got = spectrum(rho, system, observe=observe)
        assert [(ln.spin, ln.partner_bits) for ln in got] == list(want)
        for ln in got:
            freq, amp = want[(ln.spin, ln.partner_bits)]
            assert ln.freq_hz == pytest.approx(freq, abs=1e-9)
            assert ln.amp == pytest.approx(amp, abs=1e-12)


# ---------------------------------------------------------------------------
# readout experiments and assignment


@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
def test_assignment_round_trip(bits):
    reference = read_spectrum(ground(CYTOSINE), CYTOSINE)
    rho = basis_projector(bits) - np.eye(4) / 4
    spec = read_spectrum(rho, CYTOSINE)
    assert assign_eigenstates(spec, reference) == bits


def test_assignment_three_spins():
    from nmrqc.core import fully_coupled

    sys3 = fully_coupled(3)
    reference = read_spectrum(ground(sys3), sys3)
    rho = basis_projector("101") - np.eye(8) / 8
    assert assign_eigenstates(read_spectrum(rho, sys3), reference) == "101"


def test_assignment_checks_partners_on_a_chain():
    system = spin_chain(3)
    reference = read_spectrum(ground(system), system)
    for x in range(8):
        bits = format(x, "03b")
        rho = basis_projector(bits) - np.eye(8) / 8
        spec = read_spectrum(rho, system)
        assert [ln.partners for ln in spec] == [system.partners(ln.spin) for ln in spec]
        assert assign_eigenstates(spec, reference) == bits
    # Spin 1's line claims partner 0 is |1> while spin 0's own line says |0>.
    spec = read_spectrum(ground(system), system)
    lines = [ln if ln.spin != 1 else
             SpectrumLine(1, "10", ln.freq_hz, ln.amp, (0, 2)) for ln in spec]
    with pytest.raises(ReadoutError, match=r"spin 1: line position says partner 0 is \|1>"):
        assign_eigenstates(Spectrum(tuple(lines)), reference)


def test_assignment_rejects_silent_spin():
    reference = read_spectrum(ground(CYTOSINE), CYTOSINE)
    silent = read_spectrum(np.zeros((4, 4)), CYTOSINE)
    with pytest.raises(ReadoutError):
        assign_eigenstates(silent, reference)


# ---------------------------------------------------------------------------
# tomography


def test_bell_state_coefficients():
    ket = cat_ket(2)
    rho = np.outer(ket, ket.conj()) - np.eye(4) / 4
    result = tomography(rho, CYTOSINE)
    assert result["experiments"] == 9
    assert result["error"] < 1e-10
    coeff = result["coefficients"]
    assert coeff["xx"] == pytest.approx(0.5, abs=1e-10)
    assert coeff["yy"] == pytest.approx(-0.5, abs=1e-10)
    assert coeff["zz"] == pytest.approx(0.5, abs=1e-10)
    assert "xy" not in coeff


def test_tomography_reconstructs_random_states():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = (a + a.conj().T) / 2
        result = tomography(rho, CYTOSINE)
        np.testing.assert_allclose(result["rho_est"], rho, atol=1e-8)
        assert result["error"] < 1e-8


def test_tomography_keeps_identity_component():
    rho = np.eye(4) / 4 + 0.3 * basis_element("zE")
    result = tomography(rho, CYTOSINE)
    np.testing.assert_allclose(result["rho_est"], rho, atol=1e-8)


def test_tomography_three_coupled_spins():
    system = fully_coupled(3)
    rng = np.random.default_rng(3)
    for _ in range(2):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = (a + a.conj().T) / 2
        result = tomography(rho, system)
        assert result["experiments"] == 27
        np.testing.assert_allclose(result["rho_est"], rho, atol=1e-8)


def test_tomography_refuses_chain_default_scheme():
    # Spins 0 and 2 share no coupling, so terms like zEz leave no line.
    with pytest.raises(ReadoutError, match="cannot distinguish"):
        tomography(np.eye(8) / 8 + 0.1 * basis_element("zEz"), spin_chain(3))


def test_tomography_size_limit():
    from nmrqc.core import fully_coupled

    sys4 = fully_coupled(4)
    with pytest.raises(ReadoutError):
        tomography(np.eye(16) / 16, sys4)


def test_tomography_rejects_deficient_scheme():
    with pytest.raises(ReadoutError):
        tomography(np.eye(4) / 4, CYTOSINE, scheme=[("", "")])


# ---------------------------------------------------------------------------
# plotting helper


def test_broadened_produces_lorentzian_peaks():
    rho = excite(ground(CYTOSINE), CYTOSINE, targets=(0,))
    spec = spectrum(rho, CYTOSINE, observe=[0])
    freqs, intensity = broadened(spec, width_hz=1.0, points=256)
    assert freqs.shape == intensity.shape == (256,)
    peak = freqs[np.argmax(intensity)]
    assert abs(peak - 377.9) < 1.0
