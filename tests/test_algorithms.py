"""Deutsch, Deutsch-Jozsa, Grover, and the three-bit repetition code."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nmrqc.algorithms import (
    AlgorithmError,
    BinaryFunction,
    DJStats,
    GroverSpec,
    PromiseViolation,
    binary_function,
    chloroform_system,
    classify_function,
    cytosine_system,
    deutsch,
    deutsch_jozsa_refined,
    deutsch_report,
    grover,
    grover_amplitude_trace,
    grover_chloroform_program,
    grover_iterations,
    grover_round_unitary,
    sample_counts,
    triplet_code,
)
from nmrqc.core import equal_up_to_global_phase
from nmrqc.pulses import program_propagator

ONE_BIT_FUNCTIONS = ["00", "01", "10", "11"]


# ---------------------------------------------------------------------------
# function tables


def test_binary_function_forms():
    f = binary_function("0110")
    assert f.n_in == 2
    assert [f(x) for x in range(4)] == [0, 1, 1, 0]
    assert f.ones == 2
    same = binary_function([0, 1, 1, 0])
    assert same == f


def test_binary_function_length_must_be_power_of_two():
    with pytest.raises(AlgorithmError):
        binary_function("011")


def test_classify():
    assert classify_function(binary_function("00")) == "constant"
    assert classify_function(binary_function("01")) == "balanced"
    assert classify_function(binary_function("0111")) == "neither"


# ---------------------------------------------------------------------------
# Deutsch's problem, three ways


@pytest.mark.parametrize("bits", ONE_BIT_FUNCTIONS)
@pytest.mark.parametrize("realization", ["circuit", "cytosine", "chloroform"])
def test_deutsch_all_realizations(bits, realization):
    f = binary_function(bits)
    want = f(0) ^ f(1)
    assert deutsch(f, realization) == want


def test_deutsch_report_carries_spectrum():
    report = deutsch_report(binary_function("01"), "cytosine")
    assert report["answer"] == 1
    assert len(report["spectrum"]) > 0
    assert report["realization"] == "cytosine"


def test_deutsch_unknown_realization():
    with pytest.raises(AlgorithmError):
        deutsch(binary_function("01"), "calcium")


def test_work_molecules():
    cyt = cytosine_system()
    assert cyt.is_homonuclear()
    assert cyt.j(0, 1) == pytest.approx(7.2)
    chl = chloroform_system()
    assert not chl.is_homonuclear()
    assert chl.j(0, 1) == pytest.approx(215.0)


# ---------------------------------------------------------------------------
# refined Deutsch-Jozsa


def test_dj_classifies_all_two_bit_functions():
    for x in range(16):
        bits = format(x, "04b")
        f = binary_function(bits)
        kind = classify_function(f)
        if kind == "neither":
            with pytest.raises(PromiseViolation):
                deutsch_jozsa_refined(f)
        else:
            assert deutsch_jozsa_refined(f) == kind


def test_dj_uses_one_oracle_call():
    stats = DJStats()
    deutsch_jozsa_refined(binary_function("0110"), stats=stats)
    assert stats.oracle_calls == 1


def test_dj_balanced_counts():
    # number of balanced functions on 3 and 4 input bits
    assert math.comb(8, 4) == 70
    assert math.comb(16, 8) == 12870


def test_dj_handles_single_input_bit():
    assert deutsch_jozsa_refined(binary_function("10")) == "balanced"
    assert deutsch_jozsa_refined(binary_function("11")) == "constant"


# ---------------------------------------------------------------------------
# Grover


def test_iteration_count_formula():
    assert grover_iterations(2, 1) == 1
    assert grover_iterations(3, 1) == 2
    assert grover_iterations(10, 1) == 25


def test_single_marked_item_two_qubits():
    for m in range(4):
        out = grover(GroverSpec(2, (m,)))
        assert out["iterations"] == 1
        assert out["best"] == m
        assert out["probabilities"][m] == pytest.approx(1.0, abs=1e-12)


def test_trace_oscillates():
    trace = grover_amplitude_trace(GroverSpec(2, (1,)), 4)
    masses = [m for _, m in trace]
    np.testing.assert_allclose(masses, [0.25, 1.0, 0.25, 0.25, 1.0], atol=1e-12)


def test_half_marked_stalls():
    # with half the space marked, one round leaves the mass unchanged
    trace = grover_amplitude_trace(GroverSpec(2, (0, 2)), 3)
    np.testing.assert_allclose([m for _, m in trace], [0.5] * 4, atol=1e-12)


def test_trace_matches_brute_force():
    spec = GroverSpec(3, (5,))
    trace = grover_amplitude_trace(spec, 10)

    # independent iteration with explicit matrices
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    hn = np.kron(np.kron(h, h), h)
    oracle = np.eye(8)
    oracle[5, 5] = -1
    flip0 = np.eye(8)
    flip0[0, 0] = -1
    round_u = hn @ flip0 @ hn @ oracle
    v = np.ones(8) / np.sqrt(8)
    for t, mass in trace:
        assert mass == pytest.approx(abs(v[5]) ** 2, abs=1e-12), t
        v = round_u @ v

    masses = [m for _, m in trace]
    maxima = sum(
        1 for i in range(1, len(masses) - 1) if masses[i - 1] < masses[i] >= masses[i + 1]
    )
    assert maxima >= 2


def test_spec_validation():
    with pytest.raises(AlgorithmError):
        GroverSpec(2, ())
    with pytest.raises(AlgorithmError):
        GroverSpec(2, (4,))
    with pytest.raises(AlgorithmError):
        GroverSpec(0, (0,))
    assert GroverSpec(2, (3, 1, 1)).marked == (1, 3)


def test_spec_caps_size_at_twenty_qubits():
    assert GroverSpec(20, (1,)).n == 20
    with pytest.raises(AlgorithmError, match="20"):
        GroverSpec(30, (1,))


def test_explicit_iteration_override():
    out = grover(GroverSpec(2, (1,), iterations=2))
    assert out["iterations"] == 2
    assert out["probabilities"][1] == pytest.approx(0.25, abs=1e-12)


def test_sampling_is_deterministic():
    probs = grover(GroverSpec(2, (1,)))["probabilities"]
    a = sample_counts(probs, shots=100, seed=42)
    b = sample_counts(probs, shots=100, seed=42)
    assert a == b == {"01": 100}


# ---------------------------------------------------------------------------
# chloroform realization


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("b", [0, 1])
def test_chloroform_round_matches_abstract(a, b):
    u = program_propagator(grover_chloroform_program(a, b), chloroform_system())
    assert equal_up_to_global_phase(u, grover_round_unitary(a, b), tol=1e-10)


def test_chloroform_round_finds_its_item():
    for a in (0, 1):
        for b in (0, 1):
            u = grover_round_unitary(a, b)
            start = np.ones(4) / 2
            final = u @ start
            idx = (a << 1) | b
            assert abs(final[idx]) ** 2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# repetition code


@pytest.mark.parametrize("bit", [0, 1])
def test_triplet_code_corrects_single_flips(bit):
    for mask in (0b000, 0b001, 0b010, 0b100):
        out = triplet_code(bit, mask)
        assert out["decoded"] == bit
        assert out["corrected"] == (mask != 0)


@pytest.mark.parametrize("bit", [0, 1])
def test_triplet_code_fails_loudly_on_double_flips(bit):
    for mask in (0b011, 0b101, 0b110):
        out = triplet_code(bit, mask)
        assert out["decoded"] == bit ^ 1
        assert out["corrected"]  # the decoder still thinks it fixed something


def test_triplet_code_triple_flip_is_silent():
    out = triplet_code(0, 0b111)
    assert out["decoded"] == 1
    assert not out["corrected"]
