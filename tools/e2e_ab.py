#!/usr/bin/env python3
"""A/B the end-to-end benchmark between a base revision and this tree.

    python3 tools/e2e_ab.py --base HEAD~1 --pairs 5 [--out e2e_ab.json]

Checks the base revision out into a temporary git worktree, builds the
harness in both trees, then runs e2ebench/run.py --trace 0 from each tree
for N pairs on every workload of BENCHMARK.json, each run as long as its
run_seconds: pair i uses seed i on both sides, and the side that runs
first alternates from pair to pair. For every workload and every
end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles, the relative change of the medians, the bound and a verdict:

  worse       the change's median is worse than the base's by more than
              the bound;
  unresolved  the base's own IQR/median exceeds the bound and not every
              change run beats every base run;
  ok          otherwise.

Exit codes: 0 all verdicts ok or unresolved; 1 any "worse" verdict or any
failed run; 2 usage or setup error. Every run (its result line or its
failure) is written to the --out JSON file, and the worktree is removed on
exit. Nothing under e2ebench/ is modified; BENCHMARK.json is read from this
tree.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 900  # run.py's own harness timeout is 170 s, plus a build


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def relative(base, change):
    """(change - base) / base; 0 when both are 0, +-inf when only base is."""
    if base == 0:
        return 0.0 if change == 0 else math.copysign(math.inf, change)
    return (change - base) / abs(base)


def verdict(better, bound, base, change):
    """The verdict for one metric, given each side's run values."""
    _, base_median, _ = quartiles(base)
    _, change_median, _ = quartiles(change)
    rel = relative(base_median, change_median)
    worse_by = rel if better == "lower" else -rel
    if worse_by > bound:
        return "worse"
    q1, _, q3 = quartiles(base)
    spread = relative(base_median, base_median + (q3 - q1))
    beats = (lambda c, b: c < b) if better == "lower" else (lambda c, b: c > b)
    if spread > bound and not all(beats(c, b) for c in change for b in base):
        return "unresolved"
    return "ok"


def run_once(tree, workload, seed, seconds, quick=False):
    """One run.py invocation; returns its record (result None on failure)."""
    cmd = [sys.executable, os.path.join(tree, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    if quick:
        cmd.append("--quick")
    # run.py builds into $CARGO_TARGET_DIR when set; each tree must use
    # its own build directory.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    record = {"workload": workload, "seed": seed, "returncode": None,
              "result": None, "error": ""}
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record["error"] = "timed out after %d s" % RUN_TIMEOUT_S
        return record
    record["returncode"] = proc.returncode
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode == 0 and result is not None and result.get("correct"):
        record["result"] = result
    else:
        record["error"] = (proc.stderr or proc.stdout)[-2000:]
    return record


def git(*args):
    subprocess.run(["git", "-C", ROOT, *args], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)


def fmt(value):
    return "%.4g" % value


def report(workloads, metrics, runs):
    """Prints the verdict table; returns the list of verdicts."""
    verdicts = []
    print("%-13s %-15s %-28s %-28s %9s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "change", "bound", "verdict"))
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            values = {side: [r["result"]["metrics"][name]["value"]
                             for r in runs
                             if r["side"] == side and r["workload"] == workload
                             and r["result"] is not None]
                      for side in ("base", "change")}
            if not values["base"] or not values["change"]:
                continue
            bq = quartiles(values["base"])
            cq = quartiles(values["change"])
            v = verdict(metric["better"], metric["bound"], values["base"],
                        values["change"])
            verdicts.append(v)
            print("%-13s %-15s %-28s %-28s %+8.1f%% %5.0f%%  %s" % (
                workload, name,
                "%s [%s, %s]" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2])),
                "%s [%s, %s]" % (fmt(cq[1]), fmt(cq[0]), fmt(cq[2])),
                100 * relative(bq[1], cq[1]), 100 * metric["bound"], v))
    return verdicts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--out", default="e2e_ab.json",
                        help="JSON file receiving every run")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    tmp_root = tempfile.mkdtemp(prefix="e2e_ab_")
    base_tree = os.path.join(tmp_root, "base")
    try:
        git("worktree", "add", "--detach", base_tree, args.base)
    except subprocess.CalledProcessError as error:
        shutil.rmtree(tmp_root, ignore_errors=True)
        print("e2e_ab: cannot check out %s: %s" % (
            args.base, error.stderr.decode().strip()), file=sys.stderr)
        return 2
    trees = {"base": base_tree, "change": ROOT}
    runs = []
    try:
        # One short run per tree builds its harness, so no build lands
        # between the runs of a pair.
        for side, tree in trees.items():
            warm = run_once(tree, workloads[0], 0, 1, quick=True)
            if warm["result"] is None:
                print("e2e_ab: %s tree failed to build or run:\n%s" % (
                    side, warm["error"]), file=sys.stderr)
                return 2
        for workload in workloads:
            for seed in range(args.pairs):
                order = ("base", "change") if seed % 2 == 0 else (
                    "change", "base")
                for side in order:
                    record = run_once(trees[side], workload, seed, seconds)
                    record["side"] = side
                    record["first"] = side == order[0]
                    runs.append(record)
                    status = "ok" if record["result"] else "FAILED"
                    print("# %s seed %d %s: %s" % (workload, seed, side,
                                                   status), flush=True)
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        base_tree], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(tmp_root, ignore_errors=True)
        subprocess.run(["git", "-C", ROOT, "worktree", "prune"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    with open(args.out, "w") as f:
        json.dump({"base": args.base, "pairs": args.pairs,
                   "seconds": seconds, "runs": runs}, f, indent=1)
    verdicts = report(workloads, metrics, runs)
    failed = [r for r in runs if r["result"] is None]
    for r in failed:
        print("FAILED: %s seed %d %s: %s" % (
            r["workload"], r["seed"], r["side"], r["error"].strip()[-300:]))
    return 1 if failed or "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
