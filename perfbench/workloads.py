"""The three workloads: seeded op generators, each op with its output check.

An op is one closed-loop request: run() does the timed work through nmrqc's
public API and returns what a user would look at; check() compares that
output with an independent reference and raises CheckFailed. Expected
refusals carry the typed error they must raise.

Ops are drawn in cycles. A cycle holds a fixed count of each kind of op
(the weights), shuffled by the seed, so every run measures the same mix and
only the random inputs differ between seeds. The runner stops at a cycle
boundary.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

STATE_TOL = 1e-8


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


@dataclass
class Op:
    kind: str
    desc: str
    run: Callable[[], object]
    check: Callable[[object], None]
    expect: Optional[type] = None  # typed error an expected refusal must raise


def _close(got, want, what: str, tol: float = STATE_TOL) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    if not err <= tol:
        raise CheckFailed(f"{what}: max deviation {err:.3g} > {tol:g}")


def _require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


# ---------------------------------------------------------------------------
# random gates with their reference matrices

def _gate(nq, rng, kind: str, n: int, pairs):
    """(nmrqc gate, reference local matrix, qubits) for one gate kind.

    Two- and three-qubit gates use only spins the system couples; a Toffoli
    needs all three of its pairs coupled, which no chain offers.
    """
    def pair():
        a, b = pairs[int(rng.integers(len(pairs)))]
        return (a, b) if rng.random() < 0.5 else (b, a)

    q = int(rng.integers(n))
    if kind == "H":
        return nq.Hadamard(q), ref.H, (q,)
    if kind == "PH":
        return nq.PseudoHadamard(q), ref.PSEUDO_H, (q,)
    if kind == "PHI":
        return nq.PseudoHadamardInv(q), ref.PSEUDO_H.conj().T, (q,)
    if kind == "X":
        return nq.Not(q), ref.X, (q,)
    if kind == "CNOT":
        a, b = pair()
        return nq.CNot(a, b), ref.controlled(ref.X, 1), (a, b)
    if kind == "CPHASE":
        a, b = pair()
        phi = float(rng.uniform(-math.pi, math.pi))
        return (nq.ControlledPhase(a, b, phi),
                np.diag([1, 1, 1, np.exp(1j * phi)]), (a, b))
    if kind == "SWAP":
        a, b = pair()
        return nq.Swap(a, b), ref.swap(), (a, b)
    qs = tuple(int(v) for v in rng.choice(n, 3 if kind == "TOFFOLI" else 2,
                                          replace=False))
    if kind == "TOFFOLI":
        return nq.Toffoli(*qs), ref.controlled(ref.X, 2), qs
    table = tuple(int(b) for b in rng.integers(0, 2, 2 ** (len(qs) - (kind == "XOR"))))
    if kind == "PHASE_ORACLE":
        return nq.phase_oracle(table, qs), ref.phase_table(table), qs
    if kind == "XOR":
        return nq.xor_oracle(table, qs), ref.xor_table(table), qs
    raise ValueError(kind)


def _random_circuit(nq, rng, system, kinds, count):
    """count gates cycling through a shuffled copy of kinds."""
    pairs = [p for p, _ in system.couplings]
    seq = [kinds[i % len(kinds)] for i in range(count)]
    rng.shuffle(seq)
    gates, refs = [], []
    for kind in seq:
        g, u, qs = _gate(nq, rng, kind, system.n, pairs)
        gates.append(g)
        refs.append((u, qs))
    return gates, refs


def _gate_text(gates) -> str:
    return " ".join(type(g).__name__ for g in gates)


# ---------------------------------------------------------------------------
# wide: large-register experiments

class Wide:
    """One op is a full experiment on 6 to 9 spins.

    Prepare (thermal_state or prep_cat_method), compile a random circuit in
    three segments with a Delay between segments, append one Crush or
    MultiQuantumFilter, run_program, read_spectrum on all spins, expand.
    """

    name = "wide"
    CALIBRATION = "blas"
    # (n, system, state, ops per 40-op cycle), in rising latency. p50 falls
    # in the middle of the n = 7 chain/thermal block (cumulative share 0.40
    # to 0.60) and p90 in the middle of the n = 8 block (0.775 to 0.975), so
    # neither sits on a boundary between sizes or variants. The n = 9 op
    # alternates between the two systems from cycle to cycle.
    CYCLE = ((6, "chain", "thermal", 4), (6, "full", "thermal", 4),
             (6, "chain", "cat", 4), (6, "full", "cat", 4),
             (7, "chain", "thermal", 8), (7, "full", "thermal", 3),
             (7, "chain", "cat", 2), (7, "full", "cat", 2),
             (8, "full", "thermal", 8), (9, "alternate", "thermal", 1))
    TINY = tuple((min(n - 3, 5), *rest) for n, *rest in CYCLE)
    GATES = {3: 6, 4: 6, 5: 6, 6: 7, 7: 7, 8: 5, 9: 5}
    PROJECTIONS = ("crush-zq", "crush-diag", "mqf-0,1", "mqf-1,2")

    def __init__(self, nq, workdir: Path, tiny: bool = False) -> None:
        self.nq = nq
        self.cycle_spec = self.TINY if tiny else self.CYCLE

    def _system(self, n: int, kind: str):
        return self.nq.spin_chain(n) if kind == "chain" else self.nq.fully_coupled(n)

    def warmup(self) -> None:
        """Fill the per-system caches: Hamiltonian, coherence orders, labels."""
        nq = self.nq
        kinds = {(n, k) for n, system, _, _ in self.cycle_spec
                 for k in (("chain", "full") if system == "alternate" else (system,))}
        for n, kind in sorted(kinds):
            system = self._system(n, kind)
            rho = nq.thermal_state(system)
            prog = nq.program(nq.Rotation((0,), 90.0, "x"), nq.Delay(1e-3),
                              nq.Couple(system.couplings[0][0], 0.25),
                              nq.FrameShift(0, 30.0), nq.Crush(True),
                              nq.MultiQuantumFilter((-1, 0, 1)))
            out = nq.run_program(rho, prog, system)
            nq.read_spectrum(out, system, observe=(0,))
        for n in sorted({n for n, _ in kinds}):
            nq.expand(np.zeros((2 ** n, 2 ** n), dtype=complex))

    def cycle(self, rng, index: int) -> list[Op]:
        ops = []
        for n, system, state, count in self.cycle_spec:
            if system == "alternate":
                system = ("chain", "full")[index % 2]
            ops += [self._op(rng, n, system, state) for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def _op(self, rng, n: int, system_kind: str, state: str) -> Op:
        nq = self.nq
        chain = system_kind == "chain"
        system = self._system(n, system_kind)
        cat = state == "cat"
        kinds = ["H", "CNOT", "CPHASE"] + ([] if chain else ["TOFFOLI"])
        gates, refs = _random_circuit(nq, rng, system, kinds, self.GATES[n])
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, len(gates)), 2,
                                                 replace=False))
        bounds = [0, *cuts, len(gates)]
        segments = [(gates[a:b], refs[a:b]) for a, b in zip(bounds, bounds[1:])]
        delays = [float(rng.uniform(0.5e-3, 5e-3)) for _ in range(2)]
        proj = _pick(rng, self.PROJECTIONS)
        if proj.startswith("crush"):
            final_el = nq.Crush(keep_zero_quantum=proj == "crush-zq")
            orders = (0,) if proj == "crush-zq" else None
        else:
            orders = (0, 1, -1) if proj == "mqf-0,1" else (1, -1, 2, -2)
            final_el = nq.MultiQuantumFilter(orders)
        circuits = [nq.Circuit(n, tuple(g)) for g, _ in segments]

        def run():
            if cat:
                rho0 = nq.prep_cat_method(system).rho
            else:
                rho0 = nq.thermal_state(system)
            prog = nq.compile_circuit(circuits[0], system)
            for delay, circ in zip(delays, circuits[1:]):
                prog = (prog + nq.program(nq.Delay(delay))
                        + nq.compile_circuit(circ, system))
            final = nq.run_program(rho0, prog + nq.program(final_el), system)
            return rho0, final, nq.read_spectrum(final, system), nq.expand(final)

        def check(out):
            rho0, final, spec, expansion = out
            want0 = _cat_reference(system) if cat else ref.thermal(system)
            _close(rho0, want0, "prepared state")
            st = ref.State(want0)
            h = ref.hamiltonian(system)
            for i, (_, seg_refs) in enumerate(segments):
                if i:
                    st.diag_conj(np.exp(-1j * h * delays[i - 1]))
                for u, qs in seg_refs:
                    st.conj(u, qs)
            mask = (np.eye(system.dim, dtype=bool) if orders is None
                    else ref.coherence_mask(n, orders))
            want = np.where(mask, st.mat, 0.0)
            _close(final, want, "final state")
            _close(np.trace(final), np.trace(want0), "trace")
            _close(final, final.conj().T, "Hermiticity")
            _check_spectrum(spec, ref.read_spectrum(want, system))
            _check_expansion(expansion, want)

        desc = (f"n={n} {system_kind} {state} [{_gate_text(gates)}] "
                f"cuts={cuts} delays={delays} {proj}")
        return Op(f"n{n}.{system_kind}.{state}", desc, run, check)


def _cat_reference(system) -> np.ndarray:
    """Cat circuit on the unit thermal state, n-quantum filter, circuit back."""
    n = system.n
    gates = [(ref.H, (0,))] + [(ref.controlled(ref.X, 1), (k, k + 1))
                               for k in range(n - 1)]
    st = ref.State(ref.thermal(system))
    for u, qs in gates:
        st.conj(u, qs)
    st = ref.State(np.where(ref.coherence_mask(n, (n, -n)), st.mat, 0.0))
    for u, qs in reversed(gates):
        st.conj(u, qs)
    return st.mat


def _check_spectrum(spec, want: dict) -> None:
    got = {}
    for ln in spec:
        key = (ln.spin, ln.partner_bits)
        _require(key in want and key not in got, f"unexpected line {key}")
        got[key] = ln
        freq, amp = want[key]
        _close(ln.freq_hz, freq, f"line {key} frequency", 1e-6)
        _close(ln.amp, amp, f"line {key} amplitude")
    missing = [k for k, (_, amp) in want.items() if abs(amp) > STATE_TOL
               and k not in got]
    _require(not missing, f"missing lines {missing[:3]}")


def _check_expansion(expansion, rho) -> None:
    want = ref.po_coefficients(rho)
    n = want.ndim
    _require(expansion.n == n, "expansion has the wrong spin count")
    _close(want.imag, 0.0, "imaginary coefficients")
    labels = list(expansion.terms)
    idx = ref.label_index(labels, n)
    flat = want.real.ravel()
    got = np.fromiter(expansion.terms.values(), dtype=float, count=len(labels))
    _close(got, flat[idx], "expansion coefficients", 1e-9)
    big = np.flatnonzero(np.abs(flat) > 1e-9)
    _require(np.isin(big, idx).all(), "expansion drops a nonzero term")


# ---------------------------------------------------------------------------
# verify: compile and check unitaries

class Verify:
    """Unitary building with no projective elements and many short elements.

    Three op kinds: verify_compilation of a random circuit on
    fully_coupled(n) using every gate kind; a refocused gate from
    insert_refocusing checked with program_propagator against
    embed(circuit_unitary(...)); transition_selective_cnot against the
    compiled CNOT.
    """

    name = "verify"
    CALIBRATION = "blas"
    KINDS = ("H", "PH", "PHI", "X", "CNOT", "CPHASE", "TOFFOLI", "SWAP",
             "PHASE_ORACLE", "XOR")
    # (op kind, n, ops per cycle)
    CYCLE = (("circuit", 3, 3), ("circuit", 4, 4), ("circuit", 5, 5),
             ("circuit", 6, 4), ("circuit", 7, 4), ("circuit", 8, 2),
             ("refocus", 3, 2), ("refocus", 4, 2), ("refocus", 5, 2),
             ("refocus", 6, 2), ("ts", 2, 2), ("ts", 3, 2), ("ts", 4, 2),
             ("ts", 5, 2), ("ts", 6, 2))
    TINY = (("circuit", 3, 4), ("circuit", 4, 2), ("refocus", 3, 2),
            ("refocus", 4, 1), ("ts", 2, 2), ("ts", 3, 2))

    def __init__(self, nq, workdir: Path, tiny: bool = False) -> None:
        self.nq = nq
        self.cycle_spec = self.TINY if tiny else self.CYCLE

    def warmup(self) -> None:
        nq = self.nq
        for n in sorted({n for _, n, _ in self.cycle_spec}):
            system = nq.fully_coupled(n)
            circ = nq.circuit(n, nq.Hadamard(0), nq.CNot(0, 1))
            nq.verify_compilation(circ, system)
            if n >= 3:
                prog = nq.compile_circuit(nq.circuit(n, nq.CNot(0, 1)), system)
                nq.program_propagator(nq.insert_refocusing(prog, system, (0, 1)),
                                      system)

    def cycle(self, rng, index: int) -> list[Op]:
        ops = []
        for kind, n, count in self.cycle_spec:
            for _ in range(count):
                ops.append(getattr(self, "_" + kind)(rng, n))
        rng.shuffle(ops)
        return ops

    def _circuit(self, rng, n: int) -> Op:
        nq = self.nq
        system = nq.fully_coupled(n)
        gates, refs = _random_circuit(nq, rng, system, self.KINDS, len(self.KINDS))
        circ = nq.Circuit(n, tuple(gates))

        def run():
            prog = nq.compile_circuit(circ, system)
            return prog, nq.verify_compilation(circ, system, prog)

        def check(out):
            prog, report = out
            _require(report["pass"] is True, "verify_compilation did not pass")
            _require(report["max_deviation"] <= STATE_TOL,
                     f"phase distance {report['max_deviation']:.3g}")
            dist = ref.phase_distance(ref.propagator(prog, system),
                                      ref.gates_unitary(refs, n))
            _require(dist <= STATE_TOL, f"reference phase distance {dist:.3g}")

        return Op(f"circuit.n{n}", f"n={n} [{_gate_text(gates)}]", run, check)

    def _refocus(self, rng, n: int) -> Op:
        nq = self.nq
        system = nq.fully_coupled(n)
        a, b = (int(v) for v in rng.choice(n, 2, replace=False))
        if rng.random() < 0.5:
            local, u = nq.CNot(0, 1), ref.controlled(ref.X, 1)
        else:
            phi = float(rng.uniform(-math.pi, math.pi))
            local, u = (nq.ControlledPhase(0, 1, phi),
                        np.diag([1, 1, 1, np.exp(1j * phi)]))
        gate = (nq.CNot(a, b) if type(local).__name__ == "CNot"
                else nq.ControlledPhase(a, b, local.phi))

        def run():
            prog = nq.compile_circuit(nq.circuit(n, gate), system)
            echo = nq.insert_refocusing(prog, system, (a, b))
            ideal = nq.embed(nq.circuit_unitary(nq.circuit(2, local)), (a, b), n)
            return echo, nq.program_propagator(echo, system), ideal

        def check(out):
            echo, got, ideal = out
            want = ref.gates_unitary([(u, (a, b))], n)
            _require(ref.phase_distance(ideal, want) <= STATE_TOL,
                     "embedded ideal unitary is wrong")
            _require(ref.phase_distance(got, want) <= STATE_TOL,
                     "refocused program misses the gate")
            _require(ref.phase_distance(ref.propagator(echo, system), want)
                     <= STATE_TOL, "reference propagator misses the gate")

        return Op(f"refocus.n{n}",
                  f"n={n} {type(local).__name__} pair=({a},{b})", run, check)

    def _ts(self, rng, n: int) -> Op:
        nq = self.nq
        system = nq.fully_coupled(n)
        c, t = (int(v) for v in rng.choice(n, 2, replace=False))

        def run():
            ts = nq.transition_selective_cnot(system, c, t)
            prog = nq.compile_circuit(nq.circuit(n, nq.CNot(c, t)), system)
            return ts, nq.program_propagator(prog, system)

        def check(out):
            ts, compiled = out
            want = ref.gates_unitary([(ref.controlled(ref.X, 1), (c, t))], n)
            _close(ts, want, "transition-selective CNOT")
            _require(ref.phase_distance(compiled, want) <= STATE_TOL,
                     "compiled CNOT differs")

        return Op(f"ts.n{n}", f"n={n} cnot({c},{t})", run, check)


# ---------------------------------------------------------------------------
# paper: the two- and three-spin experiments

def _cli_text_system(names, offsets, j) -> str:
    lines = [f"SPIN {nm} 1H {off:.6g}" for nm, off in zip(names, offsets)]
    return "\n".join(lines + [f"J {names[0]} {names[1]} {j:.6g}"]) + "\n"


class Paper:
    """The paper's experiments, where per-call overhead dominates."""

    name = "paper"
    CALIBRATION = "interpreter"
    # ops per cycle of 50, in rising latency about: refusals, DJ, Grover and
    # preps (< 1.5 ms), then Werner and CLI grover (cumulative share 0.46 to
    # 0.58, where p50 falls), other CLI calls, two-spin tomography, CLI
    # tomography (0.86 to 0.94, where p90 falls) and the three-spin
    # tomography ops (about 200 ms each) as the tail.
    CYCLE = (("deutsch", 3), ("grover", 3), ("grover_chloroform", 2),
             ("prep_cory", 1), ("prep_pravia", 1), ("prep_knill", 1),
             ("prep_exhaustive", 1), ("prep_logical", 1), ("prep_cat", 1),
             ("dj", 3), ("werner", 4), ("tomo2", 5), ("tomo3", 2),
             ("cli_run", 3), ("cli_compile", 3), ("cli_deutsch", 3),
             ("cli_grover", 2), ("cli_tomography", 4),
             ("refuse_tomography", 1), ("refuse_uncoupled", 2),
             ("refuse_parse", 2), ("refuse_promise", 2))
    TINY = tuple((k, 1) for k, _ in CYCLE if k not in ("tomo3", "refuse_tomography"))
    MALFORMED = ("SPIN a 1H\n", "SPIN a 1H 10\nJ a b 5\n", "SPINS a 1H 0\n",
                 "SPIN a 1H ten\n", "SPIN a 1H 0\nSPIN a 1H 5\n", "# empty\n")

    def __init__(self, nq, workdir: Path, tiny: bool = False) -> None:
        self.nq = nq
        self.cycle_spec = self.TINY if tiny else self.CYCLE
        self.tiny = tiny
        self.workdir = workdir
        self._texts: list[str] = []

    def warmup(self) -> None:
        nq = self.nq
        rng = np.random.default_rng(0)
        warm = self.cycle(rng, -1)
        seen = set()
        for op in warm:
            if op.kind not in seen:
                seen.add(op.kind)
                try:
                    op.run()
                except Exception as exc:  # expected refusals
                    if op.expect is None or not isinstance(exc, op.expect):
                        raise

    def _file(self, suffix: str, text: str) -> str:
        """Write one CLI input file; its text goes into the next op's desc."""
        self._files += 1
        self._texts.append(text)
        path = self.workdir / f"{self._files}.{suffix}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def cycle(self, rng, index: int) -> list[Op]:
        # Input files are rewritten each cycle, after the last cycle's ops ran.
        self._files = 0
        ops = []
        for kind, count in self.cycle_spec:
            for _ in range(count):
                ops.append(getattr(self, "_" + kind)(rng))
        rng.shuffle(ops)
        return ops

    # -- algorithms -------------------------------------------------------

    def _deutsch(self, rng) -> Op:
        nq = self.nq
        bits = _pick(rng, ("00", "01", "10", "11"))
        realization = _pick(rng, ("circuit", "cytosine", "chloroform"))
        want = int(bits[0]) ^ int(bits[1])

        def check(answer):
            _require(answer == want, f"Deutsch answered {answer}, want {want}")

        return Op("deutsch", f"f={bits} {realization}",
                  lambda: nq.deutsch(nq.binary_function(bits), realization), check)

    def _grover(self, rng) -> Op:
        nq = self.nq
        n = int(rng.integers(2, 5 if self.tiny else 11))
        marked = int(rng.integers(2 ** n))

        def check(out):
            t = int(math.floor(math.pi / 4 * math.sqrt(2 ** n)))
            theta = math.asin(math.sqrt(1 / 2 ** n))
            _require(out["iterations"] == t, "wrong iteration count")
            _require(out["best"] == marked, f"best {out['best']} != {marked}")
            _close(out["probabilities"][marked],
                   math.sin((2 * t + 1) * theta) ** 2, "marked probability", 1e-9)
            _close(np.sum(out["probabilities"]), 1.0, "total probability", 1e-9)

        return Op("grover", f"n={n} marked={marked}",
                  lambda: nq.grover(nq.GroverSpec(n, (marked,))), check)

    def _grover_chloroform(self, rng) -> Op:
        nq = self.nq
        a, b = int(rng.integers(2)), int(rng.integers(2))

        def run():
            prog = nq.grover_chloroform_program(a, b)
            return (nq.program_propagator(prog, nq.chloroform_system()),
                    nq.grover_round_unitary(a, b))

        def check(out):
            got, ideal = out
            h2 = ref.gates_unitary([(ref.H, (0,)), (ref.H, (1,))], 2)
            mark = np.eye(4, dtype=complex)
            mark[2 * a + b, 2 * a + b] = -1
            zero = np.diag([-1, 1, 1, 1]).astype(complex)
            want = h2 @ zero @ h2 @ mark
            _close(ideal, want, "grover_round_unitary", 1e-12)
            _require(ref.phase_distance(got, want) <= STATE_TOL,
                     "chloroform round misses the ideal round")

        return Op("grover_chloroform", f"mark={a}{b}", run, check)

    def _dj(self, rng) -> Op:
        nq = self.nq
        n = int(rng.integers(1, 5 if self.tiny else 11))
        size = 2 ** n
        if rng.random() < 0.25:
            want = "constant"
            table = [int(rng.integers(2))] * size
        else:
            want = "balanced"
            table = [0] * size
            for i in rng.choice(size, size // 2, replace=False):
                table[int(i)] = 1
        bits = "".join(map(str, table))

        def run():
            stats = nq.DJStats()
            return nq.deutsch_jozsa_refined(nq.binary_function(bits),
                                            stats=stats), stats.oracle_calls

        def check(out):
            _require(out == (want, 1), f"DJ gave {out}, want ({want}, 1)")

        return Op("dj", f"n={n} {want}", run, check)

    def _werner(self, rng) -> Op:
        nq = self.nq
        # The 36-projector weights are all nonnegative exactly up to 1/9.
        eps = float(rng.uniform(0.01, 0.1) if rng.random() < 0.5
                    else rng.uniform(0.15, 1.0))

        def check(dec):
            _require(dec.residual <= 1e-9, "decomposition residual too large")
            _require(dec.certificate == (eps <= 1 / 9), "wrong certificate")
            _close(dec.p.min(), (1 - eps) / 36 - 2 * eps / 9, "lowest weight", 1e-12)
            _close(dec.p.sum(), 1.0, "weights sum", 1e-12)

        return Op("werner", f"eps={eps}",
                  lambda: nq.decompose_overcomplete(nq.werner(eps).rho), check)

    # -- preparation --------------------------------------------------------

    def _prep(self, kind, route, system, block, want_diag, scale=None) -> Op:
        """Route plus verify_pseudo_pure on the labelled block."""
        nq = self.nq

        def run():
            result = route(system)
            rho = result.rho[:block, :block]
            bits = "0" * (block.bit_length() - 1)
            return result, nq.verify_pseudo_pure(rho, bits)

        def check(out):
            result, report = out
            _require(report["pass"] is True, f"{kind}: pseudo-pure check failed")
            rho = result.rho
            if scale is not None:
                _close(result.scale, scale, f"{kind} scale", 1e-9)
            _close(rho, np.diag(want_diag(result)), f"{kind} state")

        return Op(kind, f"{kind} n={system.n}", run, check)

    def _pair(self, rng, species=("1H", "1H")):
        nq = self.nq
        off = float(rng.uniform(50, 500))
        return nq.spin_pair(float(rng.uniform(5, 220)), (off, -off), species)

    def _prep_cory(self, rng) -> Op:
        return self._prep("prep_cory", self.nq.prep_spatial_cory, self._pair(rng),
                          4, lambda r: 0.5 * np.array([1.5, -0.5, -0.5, -0.5]), 0.5)

    def _prep_pravia(self, rng) -> Op:
        s = math.sqrt(3 / 8)
        return self._prep("prep_pravia", self.nq.prep_spatial_pravia,
                          self._pair(rng, ("1H", "13C")), 4,
                          lambda r: s * np.array([1.5, -0.5, -0.5, -0.5]), s)

    def _prep_knill(self, rng) -> Op:
        return self._prep("prep_knill", self.nq.prep_temporal_knill, self._pair(rng),
                          4, lambda r: np.array([3.0, -1, -1, -1]))

    def _prep_exhaustive(self, rng) -> Op:
        n = int(rng.integers(2, 5))
        cycle = 2 ** n - 1
        want = np.full(2 ** n, -n / 2)
        want[0] = cycle * n / 2
        return self._prep("prep_exhaustive", self.nq.prep_temporal_exhaustive,
                          self.nq.fully_coupled(n), 2 ** n, lambda r: want)

    def _prep_logical(self, rng) -> Op:
        nq = self.nq
        system = nq.spin_chain(3) if rng.random() < 0.5 else nq.fully_coupled(3)
        return self._prep("prep_logical", nq.prep_logical_label, system, 4,
                          lambda r: 0.5 * np.array([3.0, -1, -1, -1]))

    def _prep_cat(self, rng) -> Op:
        n = int(rng.integers(2, 5))

        def want(result):
            d = np.zeros(2 ** n)
            d[0], d[2 ** (n - 1)] = 0.5 * result.scale, -0.5 * result.scale
            return d

        return self._prep("prep_cat", self.nq.prep_cat_method,
                          self.nq.fully_coupled(n), 2 ** (n - 1), want)

    # -- tomography ---------------------------------------------------------

    def _tomo(self, rng, system, kind) -> Op:
        nq = self.nq
        d = system.dim
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = (a + a.conj().T) / 2
        rho -= np.trace(rho) * np.eye(d) / d

        def check(out):
            _require(out["experiments"] == 3 ** system.n, "wrong experiment count")
            _require(out["error"] < STATE_TOL, f"reported error {out['error']:.3g}")
            _close(out["rho_est"], rho, "reconstructed state")

        return Op(kind, f"{kind} seed-state {rho[0, 1]:.6f}",
                  lambda: nq.tomography(rho, system), check)

    def _tomo2(self, rng) -> Op:
        return self._tomo(rng, self.nq.cytosine_system(), "tomo2")

    def _tomo3(self, rng) -> Op:
        return self._tomo(rng, self.nq.fully_coupled(3), "tomo3")

    # -- command line -------------------------------------------------------

    def _cli(self, kind, argv, check_lines) -> Op:
        nq = self.nq
        texts, self._texts = self._texts, []

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = nq.cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, text = result
            _require(code == 0, f"{kind}: exit code {code}")
            check_lines(text.splitlines())

        args = [a for a in argv if not a.startswith(str(self.workdir))]
        return Op(kind, " ".join(args + texts), run, check)

    def _system_file(self, rng) -> str:
        off = float(rng.uniform(100, 500))
        return self._file("cfg", _cli_text_system(("A", "B"), (off, -off),
                                                  float(rng.uniform(5, 50))))

    def _circuit_file(self, lines) -> str:
        return self._file("qc", "\n".join(lines) + "\n")

    def _cli_run(self, rng) -> Op:
        # Classical gates on |00> give a basis state the readout can name.
        bits = [0, 0]
        lines = []
        for _ in range(4):
            word = _pick(rng, ("X", "CNOT", "SWAP"))
            a = int(rng.integers(2))
            if word == "X":
                bits[a] ^= 1
                lines.append(f"X q{a}")
            elif word == "CNOT":
                bits[1 - a] ^= bits[a]
                lines.append(f"CNOT q{a} q{1 - a}")
            else:
                bits.reverse()
                lines.append("SWAP q0 q1")
        want = "bits " + "".join(map(str, bits))
        argv = ["run", "--system", self._system_file(rng), "--prep",
                _pick(rng, ("cory", "knill")), "--circuit", self._circuit_file(lines)]

        def check(out):
            _require(out and out[0] == want, f"run printed {out[:1]}, want {want}")

        return self._cli("cli_run", argv, check)

    def _cli_compile(self, rng) -> Op:
        lines = [f"H q{int(rng.integers(2))}", "CNOT q0 q1",
                 f"CPHASE q1 q0 {rng.uniform(-180, 180):.3f}",
                 _pick(rng, ("SWAP q0 q1", "ORACLE f" + _pick(rng, ("01", "10", "11"))
                             + " q0 q1", "X q1"))]
        argv = ["compile", "--system", self._system_file(rng),
                "--circuit", self._circuit_file(lines)]

        def check(out):
            _require(out and out[-1].startswith("verification: max deviation")
                     and out[-1].endswith("PASS"), f"compile ended {out[-1:]}")

        return self._cli("cli_compile", argv, check)

    def _cli_deutsch(self, rng) -> Op:
        bits = _pick(rng, ("00", "01", "10", "11"))
        want = f"answer {int(bits[0]) ^ int(bits[1])}"
        argv = ["deutsch", "--f", bits, "--realization",
                _pick(rng, ("circuit", "cytosine", "chloroform"))]

        def check(out):
            _require(out and out[0] == want, f"deutsch printed {out[:1]}")

        return self._cli("cli_deutsch", argv, check)

    def _cli_grover(self, rng) -> Op:
        n = int(rng.integers(2, 7))
        marked = format(int(rng.integers(2 ** n)), f"0{n}b")
        argv = ["grover", "--n", str(n), "--marked", marked]

        def check(out):
            _require(f"best {marked}" in out, "grover printed the wrong best")

        return self._cli("cli_grover", argv, check)

    def _cli_tomography(self, rng) -> Op:
        argv = ["tomography", "--system", self._system_file(rng), "--prep",
                _pick(rng, ("cory", "knill"))]

        def check(out):
            _require(out[:1] == ["experiments 9"], "wrong experiment count")
            err = float(out[1].split()[1])
            _require(out[1].startswith("error ") and err < STATE_TOL,
                     f"tomography error line {out[1]!r}")

        return self._cli("cli_tomography", argv, check)

    # -- expected refusals --------------------------------------------------

    def _refusal(self, kind, error, desc, fn) -> Op:
        def check(out):
            raise CheckFailed(f"{kind}: expected {error.__name__}, got a result")

        return Op(kind, desc, fn, check, expect=error)

    def _refuse_tomography(self, rng) -> Op:
        nq = self.nq
        system = nq.spin_chain(3)
        rho = ref.thermal(system) * float(rng.uniform(0.5, 2))
        return self._refusal("refuse_tomography", nq.ReadoutError, "chain(3)",
                             lambda: nq.tomography(rho, system))

    def _refuse_uncoupled(self, rng) -> Op:
        nq = self.nq
        n = int(rng.integers(3, 6))
        a = int(rng.integers(n - 2))
        circ = nq.circuit(n, nq.CNot(a, a + 2))
        return self._refusal("refuse_uncoupled", nq.CompileError, f"chain({n})",
                             lambda: nq.compile_circuit(circ, nq.spin_chain(n)))

    def _refuse_parse(self, rng) -> Op:
        nq = self.nq
        text = _pick(rng, self.MALFORMED)
        return self._refusal("refuse_parse", nq.ParseError, repr(text),
                             lambda: nq.parse_system(text))

    def _refuse_promise(self, rng) -> Op:
        nq = self.nq
        n = int(rng.integers(2, 9))
        ones = int(rng.integers(1, 2 ** n))
        if 2 * ones == 2 ** n:
            ones += 1
        bits = "1" * ones + "0" * (2 ** n - ones)
        return self._refusal(
            "refuse_promise", nq.PromiseViolation, f"n={n} ones={ones}",
            lambda: nq.deutsch_jozsa_refined(nq.binary_function(bits)))


WORKLOADS = {cls.name: cls for cls in (Wide, Verify, Paper)}
