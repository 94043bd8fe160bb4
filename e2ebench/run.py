#!/usr/bin/env python3
"""End-to-end benchmark of dyckfix.

Builds the harness (e2ebench/CMakeLists.txt, which compiles the library
from ../src) into .bench_build, runs one workload with the parameters in
e2ebench/workloads.json, and prints the harness's report followed by one
JSON result line:

    python3 e2ebench/run.py --workload zipf-serve --seed 7 --seconds 16 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics (a separate traced run; spans are written under
.bench_build/e2ebench/traces). Layers a workload bypasses report 0, as
workloads.json predicts. --quick selects the shortened configuration the
benchmark's own tests use.

Exit codes: 0 every answer right; 1 a wrong answer (the result line says
"correct": false); 2 build, usage or run error, with no result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "e2ebench")


def build(out_dir):
    """Configures once, then rebuilds incrementally; returns the harness path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to e2ebench/")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "e2e_harness")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="shortened configuration for the benchmark's tests")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one answer before it is checked (tests)")
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    workload = config["workloads"].get(args.workload)
    if workload is None:
        fail("unknown workload " + args.workload)
    params = dict(workload["params"])
    if args.quick:
        params.update(workload["quick"])

    out_dir = build_dir()
    harness = build(out_dir)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for key, value in sorted(params.items()):
        cmd += ["--set", "%s=%s" % (key, value)]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    if args.tamper:
        cmd.append("--tamper")

    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("harness exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("harness printed no result line")
    for line in lines[:-1]:
        print(line)

    reference = config["reference_host"]
    host = "host nproc=%d simd=%s" % (reference["nproc"], reference["simd"])
    if ("# " + host) not in lines:
        print("# WARNING: not the reference host (%s); do not compare these "
              "figures with recorded ones" % host)

    metrics = result["metrics"]
    expected = expected_metrics(args.trace)
    if args.trace:
        # Layers this workload bypasses did no work: report 0 for them.
        for name, unit in expected.items():
            if name not in metrics and name.startswith(tuple(workload["bypassed"])):
                metrics[name] = {"value": 0.0, "unit": unit}
    # pipeline.solver_ops.* covers the solvers the planner picks on these
    # workloads; any other solver is folded into .other.
    for name in [n for n in metrics if n not in expected]:
        if name.startswith("pipeline.solver_ops."):
            other = metrics.setdefault("pipeline.solver_ops.other",
                                       {"value": 0.0, "unit": "count"})
            other["value"] += metrics.pop(name)["value"]
    for name, unit in expected.items():
        if args.trace and name.startswith("pipeline.solver_ops."):
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    if set(metrics) != set(expected):
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s" % (
                name, metrics[name]["unit"], unit))
    result["metrics"] = {name: metrics[name] for name in expected}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
