#!/usr/bin/env python3
"""Closed-loop benchmark of nmrqc, run from the root of a source checkout.

    python3 perfbench/run.py --workload wide --seed 1 --trace 0

One process, one op in flight, no threads of its own; BLAS is pinned to one
thread. The run first measures set-up: SETUP_SAMPLES fresh interpreters each
time their own import of nmrqc from ./src and the workload's warm-up pass,
and setup_s is the median of those times, calibrated. It then warms up
itself and runs whole cycles of seeded ops until --seconds (by default
BENCHMARK.json's run_seconds) of op time have passed and at least MIN_OPS
ops ran. Each op's output is checked against an independent reference outside
the timed region, and each op's wall time is scaled by an interleaved speed
calibration (see Calibration). With --trace 1 every public function of the
ten layers is wrapped in a span and the per-layer metrics are reported
instead of the end-to-end ones; the spans go to perfbench/out/.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The metric names and
units are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
# Must precede the first numpy import, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import hashlib
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
SETUP_CAL_SAMPLES = 10
MIN_OPS = 100
PROBE_TIMEOUT_S = 150
# Typical time of each Calibration kernel on the reference machine (Intel
# Xeon, 2 vCPUs, 1 BLAS thread): op times are reported in that machine's ms.
CAL_REF_MS = {"blas": 1.45, "interpreter": 3.2}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_nmrqc():
    """Import nmrqc from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    if not (src / "nmrqc" / "__init__.py").is_file():
        _fail(f"no nmrqc sources under {src}")
    sys.path.insert(0, str(src))
    import nmrqc
    import nmrqc.cli  # noqa: F401  (the package does not import its CLI)
    if Path(nmrqc.__file__).resolve().parent != (src / "nmrqc").resolve():
        _fail(f"imported nmrqc from {nmrqc.__file__}, not from {src}")
    return nmrqc


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _workdir() -> Path:
    path = HERE / ".work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# environment

def _blas() -> dict:
    import numpy as np
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment() -> dict:
    import numpy as np
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# set-up

def probe(args) -> None:
    """Body of one set-up sample: import nmrqc, then the warm-up pass.

    The probe times itself, so interpreter start-up and process spawn are
    not counted, then takes SETUP_CAL_SAMPLES calibration samples in the
    same process. It prints both as one JSON line.
    """
    t0 = time.perf_counter()
    nq = _import_nmrqc()
    import workloads
    workdir = _workdir()
    try:
        workload = workloads.WORKLOADS[args.workload]
        workload(nq, workdir, args.tiny).warmup()
        seconds = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy as np
    cal = Calibration(np, workload.CALIBRATION)
    for _ in range(SETUP_CAL_SAMPLES):
        cal.sample()
    print(json.dumps({"seconds": seconds, "cal_ms": cal.samples}))


def measure_setup(args, cal) -> tuple[list[float], list[float]]:
    """(calibrated, raw) times in s of SETUP_SAMPLES fresh set-ups.

    The probes run one after another. Each is scaled by the median of
    SETUP_CAL_SAMPLES kernel samples taken here just before it and as many
    taken by the probe itself just after its set-up, so a set-up that lasts
    seconds is judged by the machine speed around it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", args.workload]
    if args.tiny:
        cmd.append("--tiny")
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        cal.samples.clear()
        for _ in range(SETUP_CAL_SAMPLES):
            cal.sample()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            _fail(f"set-up probe failed:\n{done.stderr}")
        sample = json.loads(done.stdout.splitlines()[-1])
        raw.append(sample["seconds"])
        cal.samples += sample["cal_ms"]
        scaled.append(raw[-1] * cal.run_factor())
    cal.samples.clear()
    return scaled, raw


# ---------------------------------------------------------------------------
# speed calibration

class Calibration:
    """A fixed kernel, independent of nmrqc, timed after every op.

    On a shared machine the CPU speed seen by one process swings by about
    25 % within seconds and drifts by about 15 % over minutes, for identical
    work. Each op's time is therefore scaled by CAL_REF_MS over the median
    kernel time of the three samples before and three after it. A change to
    nmrqc leaves the kernel alone and shows in full; a change of machine
    speed moves both and mostly cancels.

    The kernel follows the workload's cost. "blas" (a tight interpreter loop
    and small and medium complex matmuls) suits wide and verify, whose time
    goes to dense algebra. "interpreter" spreads over strings, dicts, json
    and small numpy calls as well, for paper's millisecond ops. In trials
    each kernel left twice to four times the spread of the other on the
    workloads it does not serve; scaling by the run's median, or timing the
    kernel with the caches the op left behind, did worse still.
    """

    def __init__(self, np, kind: str) -> None:
        rng = np.random.default_rng(0)
        self.np = np
        self.kind = kind
        self.two = rng.normal(size=(2, 2)) + 0j
        self.small = rng.normal(size=(32, 32)) + 0j
        self.medium = rng.normal(size=(128, 128)) + 0j
        self.samples: list[float] = []

    def _kernel(self) -> None:
        np = self.np
        if self.kind == "blas":
            acc = 0
            for i in range(10000):
                acc += i * i
        else:
            labels = ["".join(p) for p in itertools.product("Exyz", repeat=4)]
            table = json.loads(json.dumps({lab: float(i)
                                           for i, lab in enumerate(labels)}))
            acc = sum(table[lab] for lab in labels if lab.count("E") > 1)
            for _ in range(40):
                u = np.kron(self.two, self.two)
                acc += float(np.linalg.norm(u @ u.conj().T)) + abs(np.trace(u))
        for _ in range(10):
            self.small @ self.small
        self.medium @ self.medium

    def sample(self) -> None:
        """Time the kernel's second pass, so the op just run does not leave
        it with cold caches."""
        self._kernel()
        t0 = time.perf_counter_ns()
        self._kernel()
        self.samples.append((time.perf_counter_ns() - t0) / 1e6)

    def factor(self, op_index: int) -> float:
        """Scale for op i; sample i was taken just before it, i + 1 after."""
        window = self.samples[max(0, op_index - 2):op_index + 4]
        return CAL_REF_MS[self.kind] / statistics.median(window)

    def run_factor(self) -> float:
        """Scale for a whole run, used for per-layer times."""
        return CAL_REF_MS[self.kind] / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# the closed loop

def closed_loop(workload, rng, seconds: float, tracer, cal) -> dict:
    """Run whole cycles until `seconds` of op time and MIN_OPS ops are done."""
    latencies, by_kind, failures, digest = [], {}, [], hashlib.sha256()
    passed = []
    timed_ns = 0
    index = 0
    cal.sample()
    while timed_ns < seconds * 1e9 or len(latencies) < MIN_OPS:
        for op in workload.cycle(rng, index):
            if index == 0:
                digest.update(op.desc.encode())
            if tracer is not None:
                tracer.op = len(latencies)
            error = out = None
            t0 = time.perf_counter_ns()
            try:
                out = op.run()
            except Exception as exc:  # judged below, outside the timed region
                error = exc
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.op = None
            cal.sample()
            timed_ns += t1 - t0
            latencies.append((t1 - t0) / 1e6)
            by_kind.setdefault(op.kind, []).append(latencies[-1])
            problem = _judge(op, out, error)
            passed.append(problem is None)
            if problem is not None:
                failures.append(f"{op.kind} [{op.desc}]: {problem}")
        index += 1
    scaled = [ms * cal.factor(i) for i, ms in enumerate(latencies)]
    return {"latencies": latencies, "scaled": scaled, "passed": passed,
            "failures": failures, "timed_s": timed_ns / 1e9, "cycles": index,
            "cal_median_ms": statistics.median(cal.samples),
            "run_factor": cal.run_factor(),
            "kinds": {k: len(v) for k, v in by_kind.items()},
            "kind_p50_ms": {k: statistics.median(v) for k, v in by_kind.items()},
            "digest": digest.hexdigest()}


def _judge(op, out, error):
    """None when the op succeeded, else a one-line reason."""
    if error is not None:
        if op.expect is not None and isinstance(error, op.expect):
            return None
        return "".join(traceback.format_exception_only(error)).strip()
    if op.expect is not None:
        return f"expected {op.expect.__name__}, got a result"
    try:
        op.check(out)
    except Exception as exc:  # a check that crashes is a failed op
        return "".join(traceback.format_exception_only(exc)).strip()
    return None


def end_to_end(loop: dict, setup: list[float], key: str = "scaled") -> dict:
    """Metrics from calibrated op times ("scaled") or raw ones ("latencies")."""
    lat = loop[key]
    attempted = len(lat)
    passed = sum(loop["passed"])
    return {
        "throughput_ops_s": passed / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[-1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": passed / attempted,
        "error_rate": (attempted - passed) / attempted,
    }


def per_layer_value(name: str, table: dict, loop: dict) -> float:
    """Value of a declared per-layer metric, parsed from its name.

    <layer>.<fn>.calls / .ms / .self_ms are per op; <span>.ms_per_call.n<k>
    is the mean time of one call at register size k. trace.throughput_ops_s
    is the traced run's throughput. Times are scaled by the run's median
    calibration, as op times are. Every declared metric is reported on every
    workload, so one the workload never reaches reads 0.
    """
    if name == "trace.throughput_ops_s":
        return sum(loop["passed"]) / (sum(loop["scaled"]) / 1e3)
    ops = len(loop["latencies"])
    scale = loop["run_factor"]
    if ".ms_per_call.n" in name:
        span, n = name.split(".ms_per_call.n")
        total, calls = table.get(span, {}).get("ms_by_n", {}).get(int(n), (0.0, 0))
        return scale * total / calls if calls else 0.0
    span, stat = name.rsplit(".", 1)
    row = table.get(span)
    if row is None:
        return 0.0
    return row[stat] / ops * (1.0 if stat == "calls" else scale)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="op time to measure (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write the full result as JSON here")
    parser.add_argument("--tiny", action="store_true",
                        help="small registers, for the smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        probe(args)
        return 0
    declared = _declared()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    nq = _import_nmrqc()
    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}")

    cal = Calibration(np, workloads.WORKLOADS[args.workload].CALIBRATION)
    setup, setup_raw = measure_setup(args, cal)
    workdir = _workdir()
    try:
        workload = workloads.WORKLOADS[args.workload](nq, workdir, args.tiny)
        workload.warmup()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(nq)
        loop = closed_loop(workload, np.random.default_rng(args.seed),
                           args.seconds, tracer, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = end_to_end(loop, setup)
    raw = end_to_end(loop, setup_raw, "latencies")
    table = tracer.aggregate() if tracer is not None else {}
    spans_file = None
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans_{args.workload}_{args.seed}.csv"
        tracer.write(spans_file)
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for spec in declared[group]:
        value = (per_layer_value(spec["name"], table, loop) if args.trace
                 else e2e[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}

    env = environment()
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "draw": loop["kinds"], "kind_p50_ms": loop["kind_p50_ms"],
        "cycles": loop["cycles"],
        "latency_samples": len(loop["latencies"]), "timed_s": loop["timed_s"],
        "setup_samples_s": setup, "setup_samples_raw_s": setup_raw,
        "first_cycle_digest": loop["digest"],
        "end_to_end": e2e, "end_to_end_raw": raw,
        "calibration_median_ms": loop["cal_median_ms"], "failures": loop["failures"],
        "layers": table, "spans_file": str(spans_file) if spans_file else None,
    }
    _print_human(result, metrics)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True, default=str)
    attempted = len(loop["latencies"])
    failed = len(loop["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_human(result: dict, metrics: dict) -> None:
    env = result["environment"]
    blas = env["blas"]
    print(f"nmrqc benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"{blas['name']} {blas['version']} with {blas['threads']} BLAS thread(s), "
          f"nproc {env['nproc']}, cpu {env['cpu']}, commit {env['commit']}")
    print("draw: " + ", ".join(f"{k}={v}" for k, v in sorted(result["draw"].items()))
          + f" ({result['cycles']} cycles, {result['latency_samples']} latency samples,"
            f" {result['timed_s']:.2f} s timed)")
    e2e, raw = result["end_to_end"], result["end_to_end_raw"]
    print(f"error_rate {e2e['error_rate']:.6g} ({len(result['failures'])} failed)")
    print(f"uncalibrated: throughput_ops_s {raw['throughput_ops_s']:.6g} 1/s, "
          f"latency_p50_ms {raw['latency_p50_ms']:.6g} ms, latency_p90_ms "
          f"{raw['latency_p90_ms']:.6g} ms, setup_s {raw['setup_s']:.6g} s "
          f"(calibration median {result['calibration_median_ms']:.4g} ms)")
    for failure in result["failures"][:10]:
        print(f"  FAILED {failure}")
    if result["layers"]:
        print(f"{'span':44s} {'calls':>9s} {'ms':>12s} {'self_ms':>12s}")
        for name, row in sorted(result["layers"].items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"{name:44s} {row['calls']:9d} {row['ms']:12.3f} "
                  f"{row['self_ms']:12.3f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    raise SystemExit(main())
