"""Command line front end.

Subcommands: compile, prep, run, spectrum, tomography, grover, deutsch,
dj, separability. All output is deterministic text on stdout; frequencies
are Hz and angles degrees throughout. Exit codes: 0 success, 1 usage,
2 data error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .algorithms import (AlgorithmError, GroverSpec, PromiseViolation,
                         binary_function, deutsch_jozsa_refined, DJStats,
                         deutsch_report, grover, sample_counts)
from .compiler import CompileError, compile_circuit, verify_compilation
from .core import SpinSystem, SpinSystemError, basis_projector, expand
from .entangle import (EntangleError, decompose_overcomplete,
                       separability_bounds, werner)
from .formats import (ParseError, _num, format_pulses, parse_circuit,
                      parse_pulses, parse_system, spectrum_csv)
from .gates import GateError
from .prep import (PrepError, prep_cat_method, prep_logical_label,
                   prep_spatial_cory, prep_spatial_pravia,
                   prep_temporal_exhaustive, prep_temporal_knill,
                   verify_pseudo_pure)
from .pulses import ProgramError, run_program
from .readout import (ReadoutError, assign_eigenstates, broadened,
                      read_spectrum, spectrum, tomography)

_DATA_ERRORS = (ParseError, SpinSystemError, ProgramError, GateError,
                CompileError, PrepError, ReadoutError, AlgorithmError,
                EntangleError, OSError)

_PREP_METHODS = {
    "cory": prep_spatial_cory,
    "pravia": prep_spatial_pravia,
    "knill": prep_temporal_knill,
    "exhaustive": prep_temporal_exhaustive,
    "logical": prep_logical_label,
    "cat": prep_cat_method,
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage mistakes reported on exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_system(path: str) -> SpinSystem:
    return parse_system(_read(path))


def _prep_state(method: str, system: SpinSystem):
    return _PREP_METHODS[method](system)


def _observe_list(arg, system: SpinSystem):
    if arg is None:
        return None
    out = []
    for tok in arg.split(","):
        tok = tok.strip()
        if tok.startswith("q") and tok[1:].isdigit():
            idx = int(tok[1:])
        elif tok in system.names:
            idx = system.index(tok)
        else:
            raise ReadoutError(f"unknown spin {tok!r}")
        if idx >= system.n:
            raise ReadoutError(f"unknown spin {tok!r}")
        out.append(idx)
    return tuple(out)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_compile(args) -> int:
    system = _load_system(args.system)
    circ = parse_circuit(_read(args.circuit), n_qubits=system.n)
    prog = compile_circuit(circ, system)
    report = verify_compilation(circ, system, prog)
    sys.stdout.write(format_pulses(prog))
    verdict = "PASS" if report["pass"] else "FAIL"
    print(f"verification: max deviation {report['max_deviation']:.3g} "
          f"{verdict}")
    return 0 if report["pass"] else 3


def _cmd_prep(args) -> int:
    system = _load_system(args.system)
    result = _prep_state(args.method, system)
    print(f"method {args.method}")
    print(f"scale {_num(result.scale)}")
    print(f"experiments {result.experiments}")
    print(f"deviation {expand(result.rho)}")
    if args.method == "cat":
        # The cat route ends on a two-level subsystem, not a pseudo-pure
        # state of the whole register, so the background check is moot.
        return 0
    report = verify_pseudo_pure(result.rho, "0" * _rho_spins(result.rho))
    print(f"epsilon {_num(report['epsilon'])}")
    print(f"background {_num(report['background'])}")
    print(f"residual {report['residual']:.3g}")
    print("PASS" if report["pass"] else "FAIL")
    return 0 if report["pass"] else 3


def _rho_spins(rho) -> int:
    return int(rho.shape[0]).bit_length() - 1


def _cmd_run(args) -> int:
    system = _load_system(args.system)
    result = _prep_state(args.prep, system)
    circ = parse_circuit(_read(args.circuit), n_qubits=system.n)
    prog = compile_circuit(circ, system)
    final = run_program(result.rho, prog, system)
    observe = _observe_list(args.observe, system)
    spec = read_spectrum(final, system, observe)
    dim = system.dim
    ideal0 = basis_projector("0" * system.n) - np.eye(dim) / dim
    reference = read_spectrum(ideal0, system, observe)
    bits = assign_eigenstates(spec, reference)
    print(f"bits {bits}")
    sys.stdout.write(spectrum_csv(spec, system))
    return 0


def _cmd_spectrum(args) -> int:
    system = _load_system(args.system)
    result = _prep_state(args.prep, system)
    rho = result.rho
    if args.pulses:
        rho = run_program(rho, parse_pulses(_read(args.pulses)), system)
    spec = spectrum(rho, system)
    if args.broaden is not None:
        grid, signal = broadened(spec, args.broaden)
        print("freq_hz,intensity")
        for f, v in zip(grid, signal):
            print(f"{_num(f)},{_num(v)}")
        return 0
    sys.stdout.write(spectrum_csv(spec, system))
    return 0


def _cmd_tomography(args) -> int:
    system = _load_system(args.system)
    result = _prep_state(args.prep, system)
    rho = result.rho
    if args.circuit:
        circ = parse_circuit(_read(args.circuit), n_qubits=system.n)
        prog = compile_circuit(circ, system)
        rho = run_program(rho, prog, system)
    report = tomography(rho, system)
    print(f"experiments {report['experiments']}")
    print(f"error {report['error']:.3g}")
    for label in sorted(report["coefficients"]):
        print(f"{label} {_num(report['coefficients'][label])}")
    return 0


def _cmd_grover(args) -> int:
    size = 2 ** args.n
    marked = []
    for tok in args.marked.split(","):
        tok = tok.strip()
        if len(tok) != args.n or any(c not in "01" for c in tok):
            raise AlgorithmError(
                f"marked state {tok!r} is not {args.n} bits")
        marked.append(int(tok, 2))
    if args.iterations == "auto":
        iterations = "auto"
    else:
        try:
            iterations = int(args.iterations)
        except ValueError:
            raise AlgorithmError(
                f"iterations must be a count or auto, "
                f"got {args.iterations!r}") from None
    spec = GroverSpec(args.n, tuple(marked), iterations)
    report = grover(spec)
    print(f"iterations {report['iterations']}")
    for idx in range(size):
        print(f"{format(idx, f'0{args.n}b')} "
              f"{_num(report['probabilities'][idx])}")
    print(f"best {format(report['best'], f'0{args.n}b')}")
    if args.shots:
        counts = sample_counts(report["probabilities"], args.shots,
                               args.seed)
        for bits in sorted(counts):
            print(f"count {bits} {counts[bits]}")
    return 0


def _cmd_deutsch(args) -> int:
    f = binary_function(args.f)
    report = deutsch_report(f, args.realization)
    print(f"answer {report['answer']}")
    sys.stdout.write(spectrum_csv(report["spectrum"], report["system"]))
    return 0


def _cmd_dj(args) -> int:
    f = binary_function(args.table)
    stats = DJStats()
    result = deutsch_jozsa_refined(f, stats=stats)
    print(f"result {result}")
    print(f"oracle_calls {stats.oracle_calls}")
    return 0


def _cmd_separability(args) -> int:
    bounds = separability_bounds(args.n)
    print(f"epsilon {_num(args.epsilon)}")
    print(f"always_separable_below {_num(bounds['always_separable_below'])}")
    print(f"entangled_exists_above {_num(bounds['entangled_exists_above'])}")
    state = werner(args.epsilon, n=args.n)
    if args.n != 2:
        print("certificate UNAVAILABLE (explicit decomposition covers "
              "2 qubits only)")
        return 0
    dec = decompose_overcomplete(state.rho)
    print(f"residual {dec.residual:.3g}")
    print("certificate " + ("PASS" if dec.certificate else "FAIL"))
    print("P matrix:")
    for row in dec.p:
        print(" ".join(_num(v) for v in row))
    return 0 if dec.certificate else 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="nmrqc",
                     description="Simulate small ensemble NMR quantum "
                                 "computers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="circuit file to pulse program")
    p.add_argument("--system", required=True)
    p.add_argument("--circuit", required=True)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("prep", help="pseudo-pure state preparation")
    p.add_argument("--system", required=True)
    p.add_argument("--method", required=True, choices=sorted(_PREP_METHODS))
    p.set_defaults(fn=_cmd_prep)

    p = sub.add_parser("run", help="prep, compiled circuit, readout")
    p.add_argument("--system", required=True)
    p.add_argument("--prep", required=True, choices=sorted(_PREP_METHODS))
    p.add_argument("--circuit", required=True)
    p.add_argument("--observe", help="comma list of spins, e.g. q0 or names")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("spectrum", help="spectrum of a prepared state")
    p.add_argument("--system", required=True)
    p.add_argument("--prep", required=True, choices=sorted(_PREP_METHODS))
    p.add_argument("--pulses", help="pulse program applied before detection")
    p.add_argument("--broaden", type=float,
                   help="emit a Lorentzian profile of this width in Hz")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("tomography", help="reconstruct a prepared state")
    p.add_argument("--system", required=True)
    p.add_argument("--prep", required=True, choices=sorted(_PREP_METHODS))
    p.add_argument("--circuit")
    p.set_defaults(fn=_cmd_tomography)

    p = sub.add_parser("grover", help="quantum search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--marked", required=True,
                   help="comma list of marked bitstrings")
    p.add_argument("--iterations", default="auto")
    p.add_argument("--shots", type=int, default=0,
                   help="also print sampled counts")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_grover)

    p = sub.add_parser("deutsch", help="one-bit function parity")
    p.add_argument("--f", required=True, help="truth table, e.g. 01")
    p.add_argument("--realization", default="circuit",
                   choices=("circuit", "cytosine", "chloroform"))
    p.set_defaults(fn=_cmd_deutsch)

    p = sub.add_parser("dj", help="constant or balanced, one evaluation")
    p.add_argument("--table", required=True, help="truth table bits")
    p.set_defaults(fn=_cmd_dj)

    p = sub.add_parser("separability", help="mixture analysis and bounds")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(fn=_cmd_separability)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PromiseViolation as e:
        print(f"nmrqc: {e}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as e:
        print(f"nmrqc: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
