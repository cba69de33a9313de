"""Pulse-level engine checked against scipy matrix exponentials."""

from __future__ import annotations

import re
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from nmrqc.core import basis_element, expand, fully_coupled, spin_chain, spin_pair
from nmrqc.pulses import (
    Couple,
    Crush,
    Delay,
    FrameShift,
    MultiQuantumFilter,
    ProgramError,
    Rotation,
    couple_propagator,
    crush,
    delay_propagator,
    hamiltonian_diagonal,
    mq_filter,
    program,
    program_propagator,
    resolve_phase,
    rotation_propagator,
    run_program,
)
from nmrqc.readout import read_spectrum, spectrum

CYTOSINE = spin_pair(7.2, offsets=(381.5, -381.5))
HETERO = spin_pair(215.0, species=("1H", "13C"))


def single_op(n, k, axis):
    label = ["E"] * n
    label[k] = axis
    return basis_element("".join(label))


def rotation_oracle(n, targets, angle_deg, phase_deg):
    """Independent propagator: expm of the rotation generator."""
    theta = np.radians(angle_deg)
    phi = np.radians(phase_deg)
    gen = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in targets:
        gen += np.cos(phi) * single_op(n, k, "x") + np.sin(phi) * single_op(n, k, "y")
    return expm(-1j * theta * gen)


def hamiltonian_oracle(system):
    """Zeeman offsets plus weak scalar coupling, built from operators."""
    n = system.n
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for k in range(n):
        h += 2 * np.pi * system.offsets[k] * single_op(n, k, "z")
    for (i, k), j_hz in system.couplings:
        label = ["E"] * n
        label[i] = label[k] = "z"
        h += 2 * np.pi * j_hz * basis_element("".join(label)) / 2
    return h


# ---------------------------------------------------------------------------
# phases


def test_phase_names():
    assert resolve_phase("x") == 0.0
    assert resolve_phase("y") == 90.0
    assert resolve_phase("-x") == 180.0
    assert resolve_phase("-y") == 270.0
    assert resolve_phase(45.0) == 45.0
    assert resolve_phase("z") == "z"


def test_unknown_phase_rejected():
    with pytest.raises(ProgramError):
        resolve_phase("q")


# ---------------------------------------------------------------------------
# propagators vs expm


@pytest.mark.parametrize("angle,phase", [(90, 0), (90, 90), (180, 0), (180, 270), (37.5, 123.4)])
def test_rotation_matches_expm_single(angle, phase):
    got = rotation_propagator(1, (0,), angle, phase)
    np.testing.assert_allclose(got, rotation_oracle(1, (0,), angle, phase), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 3),
    st.floats(-720, 720),
    st.floats(0, 360),
    st.integers(0, 2 ** 32 - 1),
)
def test_rotation_matches_expm_random(n, angle, phase, seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, n + 1))
    targets = tuple(sorted(rng.choice(n, size=count, replace=False)))
    got = rotation_propagator(n, targets, angle, phase)
    np.testing.assert_allclose(got, rotation_oracle(n, targets, angle, phase), atol=1e-10)


def test_ninety_y_turns_z_into_x():
    u = rotation_propagator(1, (0,), 90, 90)
    rho = u @ basis_element("z") @ u.conj().T
    np.testing.assert_allclose(rho, basis_element("x"), atol=1e-12)


def test_rotation_targets_validated():
    with pytest.raises(ProgramError):
        rotation_propagator(2, (2,), 90, 0)
    with pytest.raises(ProgramError):
        rotation_propagator(2, (), 90, 0)


@pytest.mark.parametrize(
    "system",
    [CYTOSINE, HETERO, fully_coupled(4), spin_chain(5)],
    ids=["homo", "hetero", "full4", "chain5"],
)
def test_hamiltonian_diagonal_matches_operator_form(system):
    diag = hamiltonian_diagonal(system)
    np.testing.assert_allclose(np.diag(diag), hamiltonian_oracle(system), atol=1e-9)


@pytest.mark.parametrize("duration", [1e-4, 1 / (2 * 7.2), 0.013])
def test_delay_matches_expm(duration):
    got = delay_propagator(CYTOSINE, duration)
    want = expm(-1j * hamiltonian_oracle(CYTOSINE) * duration)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_couple_is_pure_j_evolution():
    frac = 0.5
    got = couple_propagator(CYTOSINE, (0, 1), frac)
    # same as a delay of frac/J with the offsets switched off
    bare = spin_pair(7.2, offsets=(0.0, 0.0))
    want = expm(-1j * hamiltonian_oracle(bare) * (frac / 7.2))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_couple_requires_coupling():
    uncoupled = spin_pair(0.0)
    with pytest.raises(ProgramError):
        couple_propagator(uncoupled, (0, 1), 0.5)


def test_half_turn_coupling_gives_antiphase():
    # Ix under 1/(2J) of coupling becomes 2IySz.
    u = couple_propagator(CYTOSINE, (0, 1), 0.5)
    rho = u @ basis_element("xE") @ u.conj().T
    exp = expand(rho)
    assert exp.coefficient("yz") == pytest.approx(1.0)
    assert abs(exp.coefficient("xE")) < 1e-12


# ---------------------------------------------------------------------------
# projective elements


def test_crush_keeps_zero_quantum():
    rho = basis_element("xx") + basis_element("yy") + basis_element("xE")
    kept = crush(rho, keep_zero_quantum=True)
    np.testing.assert_allclose(
        kept, basis_element("xx") + basis_element("yy"), atol=1e-13
    )


def test_crush_kill_leaves_populations_only():
    rho = basis_element("xx") + basis_element("yy") + basis_element("zE")
    kept = crush(rho, keep_zero_quantum=False)
    np.testing.assert_allclose(kept, basis_element("zE"), atol=1e-13)


def test_mq_filter_selects_double_quantum():
    rho = basis_element("xx")  # half zero-quantum, half double-quantum
    kept = mq_filter(rho, {-2, 2})
    np.testing.assert_allclose(kept + mq_filter(rho, {0}), rho, atol=1e-13)
    assert np.linalg.norm(kept) > 0.1


# ---------------------------------------------------------------------------
# program execution


def test_run_program_composes_left_to_right():
    prog = program(
        Rotation((0,), 90, "y"),
        Delay(0.001),
        Rotation((0, 1), 180, "x"),
    )
    rho0 = basis_element("zE")
    got = run_program(rho0, prog, CYTOSINE)

    u1 = rotation_propagator(2, (0,), 90, 90)
    u2 = delay_propagator(CYTOSINE, 0.001)
    u3 = rotation_propagator(2, (0, 1), 180, 0)
    u = u3 @ u2 @ u1
    np.testing.assert_allclose(got, u @ rho0 @ u.conj().T, atol=1e-12)


def test_frame_shift_rotates_transverse_state():
    from nmrqc.core import SpinSystem

    sys1 = SpinSystem(names=("a",), species=("1H",), offsets=(0.0,))
    prog = program(Rotation((0,), 90, 90), FrameShift(0, 90.0))
    rho = run_program(basis_element("z"), prog, sys1)
    # 90y takes z to x, then the +90 frame shift carries x to y
    exp = expand(rho)
    assert exp.coefficient("y") == pytest.approx(1.0)
    assert abs(exp.coefficient("x")) < 1e-12


def test_z_phase_rotation_pends_nothing_here():
    from nmrqc.core import SpinSystem

    sys1 = SpinSystem(names=("a",), species=("1H",), offsets=(0.0,))
    prog = program(Rotation((0,), 90, "z"))
    rho = run_program(basis_element("x"), prog, sys1)
    exp = expand(rho)
    assert exp.coefficient("y") == pytest.approx(1.0)


def test_program_propagator_refuses_projective_elements():
    with pytest.raises(ProgramError):
        program_propagator(program(Crush()), CYTOSINE)
    with pytest.raises(ProgramError):
        program_propagator(program(MultiQuantumFilter({0})), CYTOSINE)


def test_program_propagator_is_unitary():
    prog = program(
        Rotation((0,), 90, "y"),
        Couple((0, 1), 0.5),
        Rotation((1,), 90, 270),
        Delay(0.002),
    )
    u = program_propagator(prog, CYTOSINE)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


# ---------------------------------------------------------------------------
# invariants under random unitary programs


def random_program(rng, n):
    elements = []
    for _ in range(int(rng.integers(1, 8))):
        kind = rng.integers(0, 3)
        if kind == 0:
            count = int(rng.integers(1, n + 1))
            targets = tuple(sorted(rng.choice(n, size=count, replace=False)))
            elements.append(
                Rotation(targets, float(rng.uniform(0, 360)), float(rng.uniform(0, 360)))
            )
        elif kind == 1:
            elements.append(Delay(float(rng.uniform(0, 0.05))))
        else:
            i = int(rng.integers(0, n - 1))
            elements.append(Couple((i, i + 1), float(rng.uniform(0, 2))))
    return program(*elements)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3))
def test_random_programs_preserve_spectrum(seed, n):
    from nmrqc.core import spin_chain

    rng = np.random.default_rng(seed)
    system = spin_chain(n, j_hz=9.0, offset_step=120.0)
    dim = 2 ** n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = (a + a.conj().T) / 2
    out = run_program(rho, random_program(rng, n), system)

    assert abs(np.trace(out) - np.trace(rho)) < 1e-9
    np.testing.assert_allclose(out, out.conj().T, atol=1e-9)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(out)), np.sort(np.linalg.eigvalsh(rho)), atol=1e-9
    )


# ---------------------------------------------------------------------------
# non-finite numbers

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "build",
    [
        lambda: rotation_propagator(2, (0,), NAN, 0.0),
        lambda: rotation_propagator(2, (0,), 90.0, INF),
        lambda: rotation_propagator(2, (0,), 90.0, "nan"),
        lambda: delay_propagator(CYTOSINE, INF),
        lambda: couple_propagator(CYTOSINE, (0, 1), NAN),
        lambda: resolve_phase(-INF),
    ],
    ids=["angle", "phase", "phase-text", "duration", "fraction", "resolve"],
)
def test_non_finite_propagator_inputs_rejected(build):
    with pytest.raises(ProgramError, match="not finite"):
        build()


@pytest.mark.parametrize(
    "element",
    [Rotation((0,), NAN), Delay(INF), Couple((0, 1), INF), FrameShift(1, NAN)],
    ids=["rotation", "delay", "couple", "frame-shift"],
)
def test_run_program_names_the_non_finite_element(element):
    prog = program(Rotation((0,), 90.0), element)
    rho = basis_element("zE")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ProgramError, match=r"element 1 .*not finite"):
            run_program(rho, prog, CYTOSINE)


def test_negative_delay_is_refused():
    with pytest.raises(ProgramError, match="negative"):
        delay_propagator(CYTOSINE, -1.0)
    prog = program(Rotation((0,), 90.0), Delay(-1.0))
    with pytest.raises(ProgramError, match=r"element 1 \(Delay\).*negative"):
        run_program(basis_element("zE"), prog, CYTOSINE)


# ---------------------------------------------------------------------------
# refusals agree across entry points

PULSE_REFUSALS = [
    (Rotation((), 90.0), (2, (), 90.0, 0.0), "a pulse needs at least one target spin"),
    (Rotation((0, 0), 90.0), (2, (0, 0), 90.0, 0.0), "duplicate pulse targets (0, 0)"),
    (Rotation((2,), 90.0), (2, (2,), 90.0, 0.0), "pulse target 2 outside 0..1"),
    (Rotation((0,), NAN), (2, (0,), NAN, 0.0), "pulse angle nan is not finite"),
    (Rotation((0,), 90.0, NAN), (2, (0,), 90.0, NAN), "pulse phase nan is not finite"),
    (FrameShift(2, 90.0), (2, (2,), 90.0, "z"), "pulse target 2 outside 0..1"),
    (FrameShift(0, NAN), (2, (0,), NAN, "z"), "pulse angle nan is not finite"),
]


@pytest.mark.parametrize(
    "element,args,text",
    PULSE_REFUSALS,
    ids=["empty", "duplicate", "range", "angle", "phase", "frame-spin", "frame-phase"],
)
def test_pulse_refusals_agree_across_entry_points(element, args, text):
    with pytest.raises(ProgramError, match=f"^{re.escape(text)}$"):
        rotation_propagator(*args)
    prog = program(Rotation((1,), 90.0), element)
    named = rf"^element 1 \({type(element).__name__}\): {re.escape(text)}$"
    with pytest.raises(ProgramError, match=named):
        run_program(basis_element("zE"), prog, CYTOSINE)
    with pytest.raises(ProgramError, match=named):
        program_propagator(prog, CYTOSINE)


@pytest.mark.parametrize(
    "element",
    [Rotation((0,), NAN), Delay(INF), Delay(-1.0), Couple((0, 1), INF),
     Couple((1, 1), 0.5), FrameShift(1, NAN)],
    ids=["rotation", "delay", "negative-delay", "couple", "couple-pair", "frame-shift"],
)
def test_program_propagator_names_the_failing_element(element):
    prog = program(Rotation((0,), 90.0), element)
    with pytest.raises(ProgramError) as ran:
        run_program(basis_element("zE"), prog, CYTOSINE)
    with pytest.raises(ProgramError) as built:
        program_propagator(prog, CYTOSINE)
    assert str(built.value) == str(ran.value)
    assert str(built.value).startswith(f"element 1 ({type(element).__name__}): ")


# ---------------------------------------------------------------------------
# dense oracle: every element as a full 2^n x 2^n matrix

IX = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
IY = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
IZ = np.diag([0.5, -0.5]).astype(complex)
NAMED_PHASES = {"x": 0.0, "y": 90.0, "-x": 180.0, "-y": 270.0}


def on_spin(n, k, op):
    """op on spin k (the leftmost Kronecker factor is spin 0), identity elsewhere."""
    return reduce(np.kron, [op if j == k else np.eye(2) for j in range(n)])


def dense_unitary(element, system):
    n = system.n
    if isinstance(element, FrameShift):
        element = Rotation((element.spin,), element.phase, "z")
    if isinstance(element, Rotation):
        if element.phase == "z":
            gen = IZ
        else:
            phi = np.radians(NAMED_PHASES.get(element.phase, element.phase))
            gen = np.cos(phi) * IX + np.sin(phi) * IY
        u1 = expm(-1j * np.radians(element.angle) * gen)
        return reduce(np.kron, [u1 if k in element.targets else np.eye(2) for k in range(n)])
    if isinstance(element, Delay):
        h = sum(2 * np.pi * nu * on_spin(n, k, IZ) for k, nu in enumerate(system.offsets))
        for (i, j), hz in system.couplings:
            h = h + 2 * np.pi * hz * on_spin(n, i, IZ) @ on_spin(n, j, IZ)
        return expm(-1j * h * element.duration)
    i, j = element.pair
    return expm(-2j * np.pi * element.fraction * on_spin(n, i, IZ) @ on_spin(n, j, IZ))


def dense_run(rho, prog, system):
    n = system.n
    ones = np.array([format(x, f"0{n}b").count("1") for x in range(2 ** n)])
    order = ones[None, :] - ones[:, None]  # coherence order of |r><c|
    for element in prog:
        if isinstance(element, Crush):
            keep = order == 0 if element.keep_zero_quantum else np.eye(2 ** n, dtype=bool)
            rho = np.where(keep, rho, 0)
        elif isinstance(element, MultiQuantumFilter):
            rho = np.where(np.isin(order, element.orders), rho, 0)
        else:
            u = dense_unitary(element, system)
            rho = u @ rho @ u.conj().T
    return rho


@st.composite
def systems_and_programs(draw):
    n = draw(st.integers(1, 6))
    system = draw(st.sampled_from([spin_chain(n), fully_coupled(n)]))
    spins = st.integers(0, n - 1)
    phases = st.one_of(st.sampled_from(["x", "y", "-x", "-y", "z"]), st.floats(0, 360))
    kinds = [
        st.builds(Rotation, st.lists(spins, min_size=1, unique=True).map(tuple),
                  st.floats(-720, 720), phases),
        st.builds(Delay, st.floats(0, 0.01)),
        st.builds(FrameShift, spins, st.floats(-360, 360)),
        st.builds(Crush, st.booleans()),
        st.builds(MultiQuantumFilter,
                  st.lists(st.integers(-n, n), min_size=1, max_size=3, unique=True).map(tuple)),
    ]
    pairs = [pair for pair, _ in system.couplings]
    if pairs:
        either_way = st.sampled_from(pairs).flatmap(lambda p: st.sampled_from([p, p[::-1]]))
        kinds.append(st.builds(Couple, either_way, st.floats(0, 2)))
    elements = draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))
    return system, program(*elements)


def random_matrix(seed, n):
    rng = np.random.default_rng(seed)
    dim = 2 ** n
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@settings(max_examples=60, deadline=None)
@given(systems_and_programs(), st.integers(0, 2 ** 32 - 1))
def test_engine_matches_dense_oracle(system_and_program, seed):
    system, prog = system_and_program
    # Not Hermitian, so the test sees both sides of every conjugation.
    rho = random_matrix(seed, system.n)
    np.testing.assert_allclose(
        run_program(rho, prog, system), dense_run(rho, prog, system), rtol=0, atol=1e-12)
    unitary = [e for e in prog if not isinstance(e, (Crush, MultiQuantumFilter))]
    want = reduce(lambda u, e: dense_unitary(e, system) @ u, unitary, np.eye(system.dim))
    np.testing.assert_allclose(
        program_propagator(program(*unitary), system), want, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_read_spectrum_matches_dense_excitation(n, chain, seed):
    system = spin_chain(n) if chain else fully_coupled(n)
    a = random_matrix(seed, n)
    rho = a + a.conj().T
    got = read_spectrum(rho, system).lines
    want = []
    for i in range(n):
        u = dense_unitary(Rotation((i,), 90.0, "y"), system)
        want.extend(spectrum(u @ rho @ u.conj().T, system, (i,)).lines)
    assert [(ln.spin, ln.partner_bits, ln.freq_hz) for ln in got] == [
        (ln.spin, ln.partner_bits, ln.freq_hz) for ln in want]
    np.testing.assert_allclose([ln.amp for ln in got], [ln.amp for ln in want],
                               rtol=0, atol=1e-12)
