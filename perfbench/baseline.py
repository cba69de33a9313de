#!/usr/bin/env python3
"""Record a BENCH_<label>.json: end-to-end medians, the traced per-layer
table beside them, and the tracing overhead, for every workload.

    python3 perfbench/baseline.py --label seed

For each workload this runs perfbench/run.py once per seed in SEEDS untraced
and once (first seed) traced, all with the run length BENCHMARK.json fixes.
Ten seeds give the quartiles that the regression bounds are judged by. The
tracing overhead is the traced run's throughput against the median
untraced throughput. Output goes to perfbench/results/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(101, 111))


def _run(workload: str, seed: int, seconds: int, trace: int, report: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--report", str(report)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    print(done.stdout.splitlines()[-1], flush=True)
    return json.loads(report.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    seeds = SEEDS
    names = [w["name"] for w in declared["workloads"]]
    workdir = HERE / ".work"
    workdir.mkdir(exist_ok=True)
    out = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
           "workloads": {}}
    for name in names:
        runs = [_run(name, s, seconds, 0, workdir / f"{name}-{s}.json")
                for s in seeds]
        traced = _run(name, seeds[0], seconds, 1, workdir / f"{name}-traced.json")
        e2e = {}
        for metric in declared["end_to_end"] + [{"name": "error_rate"}]:
            values = [r["end_to_end"][metric["name"]] for r in runs]
            e2e[metric["name"]] = {"median": statistics.median(values),
                                   "values": values,
                                   "unit": metric.get("unit", "ratio")}
        untraced = e2e["throughput_ops_s"]["median"]
        traced_tp = traced["end_to_end"]["throughput_ops_s"]
        out["environment"] = runs[0]["environment"]
        out["workloads"][name] = {
            "end_to_end": e2e,
            "latency_samples": [r["latency_samples"] for r in runs],
            "draw": runs[0]["draw"],
            "kind_p50_ms": runs[0]["kind_p50_ms"],
            "tracing_overhead": {
                "untraced_throughput_ops_s": untraced,
                "traced_throughput_ops_s": traced_tp,
                "difference_ops_s": untraced - traced_tp,
                "share": (untraced - traced_tp) / untraced,
            },
            "per_layer": {"ops": traced["latency_samples"],
                          "spans": traced["layers"]},
        }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
